import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from screwmbs import bench
from screwmbs.bench import build, estimate_convergence_order
from screwmbs.cli import run_metrics
from screwmbs.dynamics import (
    joint_geometry,
    kinetic_energy,
    total_energy,
    velocity_residual,
)
from screwmbs.integrate import TrajectoryRecord, integrate, tableau_rk4
from screwmbs.liealg import so3_exp
from oracles import state_at

GROUPS = ("se3", "so3xr3")


class TestBuilderFeasibility:
    @pytest.mark.parametrize("name", sorted(bench.BUILDERS))
    @pytest.mark.parametrize("group", GROUPS)
    def test_assembled_and_consistent(self, name, group):
        spec = build(name, group)
        for joint in spec.model.joints:
            h = joint_geometry(joint, spec.state0.poses, spec.model)
            assert np.abs(h).max() < 1e-12
        assert velocity_residual(spec.model, spec.state0) < 1e-9

    @pytest.mark.parametrize("name", sorted(bench.BUILDERS))
    @pytest.mark.parametrize("group", GROUPS)
    def test_model_holds_the_group(self, name, group):
        assert build(name, group).model.group.name == group

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="unknown model"):
            build("no-such-model", "se3")


class TestFreeBody:
    def test_published_mass_and_inertia(self):
        spec = build("free-body-com", "se3")
        body = spec.model.bodies[0]
        assert_allclose(body.mass, 86.4)
        assert_allclose(np.diag(body.inertia_ref), [1.224, 4.68, 5.76])

    def test_spin_kinetic_energy(self):
        spec = build("free-body-com", "se3")
        omega = np.array([10 * math.pi, 2 * math.pi, 0.0])
        expected = 0.5 * omega @ spec.model.bodies[0].inertia_ref @ omega
        assert_allclose(kinetic_energy(spec.model, spec.state0), expected)
        # the off-COM frame sees the same physical motion and energy
        off = build("free-body-offset", "se3")
        assert_allclose(kinetic_energy(off.model, off.state0), expected)
        assert_allclose(expected, 696.399, atol=5e-4)

    def test_offset_inertia_published(self):
        spec = build("free-body-offset", "se3")
        assert_allclose(np.diag(spec.model.bodies[0].inertia_ref),
                        [1.224, 18.504, 19.584], atol=1e-12)

    def test_translation_reference(self):
        spec = build("free-body-com-trans", "se3")
        ref = spec.reference(0.25)[0]
        assert_allclose(ref.r, [2.5, 0, 0])
        assert_allclose(ref.R, so3_exp([0, 0, math.pi / 2]), atol=1e-12)
        assert_allclose(spec.com_reference(0.25), [[2.5, 0, 0]])


class TestHeavyTop:
    @pytest.mark.parametrize("group", GROUPS)
    def test_initial_energy_matches_published_value(self, group):
        spec = build("heavy-top", group)
        e0 = total_energy(spec.model, spec.state0) + spec.energy_datum
        assert abs(e0 - 5000.69) / 5000.69 < 1e-3

    def test_horizon_and_steps(self):
        spec = build("heavy-top", "se3")
        assert spec.t_final == 8.0
        assert spec.dts == (1e-2, 1e-3, 1e-4)


class TestDoublePendulum:
    def test_link_mass_from_density(self):
        spec = build("double-pendulum", "se3")
        assert_allclose([b.mass for b in spec.model.bodies], [2.7, 2.7])

    def test_published_initial_rates(self):
        spec = build("double-pendulum", "se3")
        assert_allclose(spec.state0.velocities[0, :3], [10, 0, 0])
        assert_allclose(spec.state0.velocities[1, :3],
                        [10 * math.pi, 10 * math.pi, 20 * math.pi])
        # derived consistent linear velocities
        assert_allclose(spec.state0.velocities[0, 3:], np.zeros(3), atol=1e-12)
        assert_allclose(spec.state0.velocities[1, 3:],
                        [0.0, 2 * math.pi, -math.pi], atol=1e-12)


class TestFourBar:
    def test_published_initial_velocities(self):
        spec = build("four-bar", "se3")
        k = 0.5 / (3 * math.sqrt(3.0))
        w0 = 10 * math.pi
        assert_allclose(spec.state0.velocities[0, :3], [0, 0, w0])
        assert_allclose(spec.state0.velocities[1, :3], [0, 0, -w0 / 2])
        assert_allclose(spec.state0.velocities[2], np.zeros(6), atol=1e-12)
        assert_allclose(spec.state0.velocities[0, 3:], [k * w0, 0, 0], atol=1e-10)
        assert_allclose(spec.state0.velocities[1, 3:], [0, 2 * k * w0, 0], atol=1e-10)

    def test_joint_census(self):
        spec = build("four-bar", "se3")
        kinds = [j.kind for j in spec.model.joints]
        assert kinds == ["revolute", "revolute", "universal", "spherical"]
        assert spec.model.n_constraints == 17  # one mechanism degree of freedom


class TestRpChain:
    def test_published_inertias(self):
        spec = build("rp-chain", "se3")
        ring, rod = spec.model.bodies
        assert_allclose(ring.mass, 6.82825, atol=5e-6)
        assert_allclose(np.diag(ring.inertia_ref),
                        [0.0507567, 0.0507567, 0.0986682], atol=5e-7)
        assert_allclose(rod.mass, 0.864)
        assert_allclose(np.diag(rod.inertia_ref),
                        [0.0002304, 0.0029952, 0.0029952], atol=1e-12)

    def test_initial_rates(self):
        spec = build("rp-chain", "se3")
        w = 20 * math.pi
        assert_allclose(spec.state0.velocities[:, :3], [[0, 0, w], [0, 0, w]])
        # prismatic joint starts sliding at 1 m/s
        assert_allclose(spec.state0.velocities[1, 3:] - spec.state0.velocities[0, 3:],
                        [0, 0, 1.0], atol=1e-12)


class TestCardan:
    def test_published_initial_rates(self):
        spec = build("cardan", "se3")
        assert_allclose(spec.state0.velocities[0, :3], [0, math.pi, 0])
        assert_allclose(spec.state0.velocities[1, :3], [math.pi, math.pi, 0])
        # input shaft COM sits on the revolute axis: no translation
        assert_allclose(spec.state0.velocities[0, 3:], np.zeros(3), atol=1e-12)


def _exact_record(spec, reference, n=11):
    """Record built directly from an analytic trajectory (zero-error feed)."""
    times = np.linspace(0.0, 1.0, n)
    nb = spec.model.n_bodies
    rec = TrajectoryRecord(times, np.empty((n, nb, 3, 3)), np.empty((n, nb, 3)),
                           np.zeros((n, nb, 6)))
    for k, t in enumerate(times):
        for i, pose in enumerate(reference(float(t))):
            rec.rotations[k, i] = pose.R
            rec.positions[k, i] = pose.r
    return rec


class TestMetrics:
    """The metric series of a run are its CSV columns (``cli.run_metrics``)."""

    def test_exact_trajectory_has_zero_errors(self):
        spec = build("free-body-com-trans", "se3")
        cols = run_metrics(spec, _exact_record(spec, spec.reference))
        assert max(cols["body0_rot_err_rad"]) < 1e-13
        assert max(cols["body0_pos_err_m"]) < 1e-13
        assert max(cols["com_drift_m"]) < 1e-13

    def test_rotation_error_of_self_is_zero(self):
        spec = build("free-body-com-trans", "se3")
        rec = _exact_record(spec, spec.reference)
        cols = run_metrics(spec, rec)
        assert_allclose(cols["body0_rot_err_rad"], np.zeros(rec.n_samples), atol=1e-13)

    def test_constraint_violation_on_assembled_state(self):
        spec = build("heavy-top", "se3")
        rec = integrate(spec.model, spec.state0, 1e-3, 0.05, tableau_rk4())
        cols = run_metrics(spec, rec)
        assert max(cols["pivot_pos_residual_m"]) < 1e-11
        # spherical joints have no orientation rows, hence no column
        assert "pivot_ori_residual" not in cols

    def test_energy_series_with_datum(self):
        spec = build("heavy-top", "se3")
        rec = integrate(spec.model, spec.state0, 1e-3, 0.05, tableau_rk4())
        tot = np.asarray(run_metrics(spec, rec)["total_energy_j"])
        assert abs(tot[0] - 5000.68625) < 1e-6
        assert np.abs(tot - tot[0]).max() < 1e-3


class TestConservation:
    def test_rp_chain_conserves_energy(self):
        # spinning ring + sliding rod against gravity and the spring: the
        # spring force/potential pair must be consistent under rotation
        spec = build("rp-chain", "se3")
        rec = integrate(spec.model, spec.state0, 1e-3, 0.3, tableau_rk4())
        vals = [total_energy(spec.model, state_at(rec, k))
                for k in range(rec.n_samples)]
        assert np.abs(np.asarray(vals) - vals[0]).max() < 1e-6 * abs(vals[0])

    def test_cardan_conserves_kinetic_energy(self):
        # force-free transmission: the kinetic energy is the total energy
        spec = build("cardan", "se3")
        rec = integrate(spec.model, spec.state0, 1e-3, 0.5, tableau_rk4())
        vals = [kinetic_energy(spec.model, state_at(rec, k))
                for k in range(rec.n_samples)]
        assert np.abs(np.asarray(vals) - vals[0]).max() < 1e-8


class TestConvergenceOrder:
    def test_synthetic_fourth_order(self):
        dts = np.array([1e-2, 1e-3, 1e-4])
        slope = estimate_convergence_order(dts, 3.7 * dts ** 4)
        assert abs(slope - 4.0) < 1e-6

    def test_floor_sentinel(self):
        assert estimate_convergence_order([1e-2, 1e-3], [1e-15, 1e-15]) is None

    def test_mixed_floor_keeps_clean_points(self):
        dts = [1e-1, 1e-2, 1e-3, 1e-4]
        errs = [1e-4, 1e-8, 1e-12, 1e-15]
        slope = estimate_convergence_order(dts, errs)
        assert abs(slope - 4.0) < 0.01

    @pytest.mark.parametrize("dts, errs", [
        ([1e-3, 1e-3], [1e-6, 1e-6]),
        ([1e-3, 1e-3, 1e-3], [1e-6, 2e-6, 3e-6]),
        ([1e-2, 1e-3, 1e-3], [1e-15, 1e-6, 2e-6]),  # the floor leaves one dt
    ], ids=["repeated", "repeated-thrice", "one-above-floor"])
    def test_fewer_than_two_distinct_dts(self, dts, errs):
        # no slope through one step size: None, not a RankWarning fit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate_convergence_order(dts, errs) is None
