"""Acceptance criteria, one test per criterion, at their stated tolerances.

The checklist is executed once per session (it integrates every benchmark
at three step sizes for both groups) and each criterion asserts on its
cached result, printing the measured numbers on failure.

Criterion 11 is expected to fail and is kept at its stated gate on
purpose: two distinct 4th-order discretizations of the heavy top cannot
agree to 1e-8 after 8 s at dt = 1e-3 — the matrix path alone moves by
~6e-7 under step refinement and the flow amplifies 1e-9 state
perturbations by ~1e2 over the horizon.  Criterion 12 inherits that
failure through the verify exit code.
"""

import collections
import math
import time

import numpy as np
import pytest

from oracles import (
    random_rotation,
    reference_constraint_violation,
    reference_joint_residuals,
)
from screwmbs import acceptance, liealg
from screwmbs.integrate import TrajectoryRecord, mk_step, tableau_rk4
from screwmbs.liealg import SE3, Pose, se3_ad

CRITERIA = [
    "1 kernel identities",
    "2 constant-twist exactness",
    "3 COM preserved exactly",
    "4 translation reconstruction",
    "5 off-COM drift",
    "6 heavy top",
    "7 double pendulum",
    "8 RP chain",
    "9 four-bar",
    "10 Cardan",
    "11 quaternion path",
]


@pytest.fixture(scope="session")
def checklist():
    start = time.perf_counter()
    results = acceptance.run_all(report=print)
    elapsed = time.perf_counter() - start
    return results, elapsed


@pytest.mark.acceptance
@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(checklist, name):
    results, _ = checklist
    result = next(r for r in results if r.name == name)
    assert result.passed, result.details


@pytest.mark.acceptance
def test_criterion_12_end_to_end(checklist):
    results, elapsed = checklist
    assert elapsed < 600.0, f"checklist took {elapsed:.0f} s (>= 10 min)"
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"verify exits nonzero; failing criteria: {failed}"


class TestRunCacheColumns:
    """Criteria 4-10 read their series through ``RunCache.columns``: short
    runs of the closed chains check that path without the full checklist."""

    TF = 0.02

    @pytest.mark.parametrize("name", ["rp-chain", "cardan", "four-bar"])
    @pytest.mark.parametrize("group", ["se3", "so3xr3"])
    def test_max_joint_residual_matches_reference(self, name, group):
        cache = acceptance.RunCache()
        spec = cache.spec(name, group)
        record = cache.run(name, group, 1e-3, self.TF)
        for j in range(len(spec.model.joints)):
            pos, ori = reference_joint_residuals(record, spec.model, j)
            got = {part: cache.max_joint_residual(name, group, 1e-3, j, self.TF, part)
                   for part in ("pos", "ori", "all")}
            assert got["pos"] == pos.max()
            assert got["ori"] == ori.max()
            assert got["all"] == max(map(math.hypot, pos, ori))
            # hypot of the two parts is |h| up to rounding
            norm_h = reference_constraint_violation(record, spec.model, j).max()
            assert got["all"] == pytest.approx(norm_h, rel=1e-15, abs=1e-300)

    @pytest.mark.parametrize("name", ["rp-chain", "cardan", "four-bar"])
    @pytest.mark.parametrize("group", ["se3", "so3xr3"])
    def test_run_metrics_once_per_run(self, monkeypatch, name, group):
        calls = []
        real = acceptance.run_metrics

        def counting(spec, record):
            calls.append(record.n_samples)
            return real(spec, record)

        monkeypatch.setattr(acceptance, "run_metrics", counting)
        cache = acceptance.RunCache()
        n_joints = len(cache.spec(name, group).model.joints)
        for dt in (2e-3, 1e-3):
            for j in range(n_joints):
                for part in ("pos", "ori", "all"):
                    cache.max_joint_residual(name, group, dt, j, self.TF, part)
            cache.columns(name, group, dt, self.TF)
        assert calls == [11, 21]  # one call per dt: 0.02 s in 10 and 20 steps

    def test_columns_are_run_metrics_arrays(self, monkeypatch):
        """The cache keeps the arrays ``run_metrics`` returns, unconverted."""
        returned = []
        real = acceptance.run_metrics

        def keeping(spec, record):
            returned.append(real(spec, record))
            return returned[-1]

        monkeypatch.setattr(acceptance, "run_metrics", keeping)
        cols = acceptance.RunCache().columns("four-bar", "se3", 1e-3, self.TF)
        assert list(cols) == list(returned[0])
        assert all(cols[name] is col for name, col in returned[0].items())


def _two_sample_record(state0, dt: float):
    """A stand-in run: the initial state and a perturbed copy of it one
    step later, so every column the checks read is finite and nonzero."""
    rng = np.random.default_rng(17)
    rots = np.array([p.R for p in state0.poses])
    pos = np.array([p.r for p in state0.poses])
    turn = np.array([random_rotation(rng, 0.1) for _ in rots])
    return TrajectoryRecord(
        times=np.array([state0.t, state0.t + dt]),
        rotations=np.stack([rots, rots @ turn]),
        positions=np.stack([pos, pos + rng.uniform(-1e-3, 1e-3, pos.shape)]),
        velocities=np.stack([state0.velocities, state0.velocities + 1e-3]),
        quat_defects=np.zeros((2, 2)))


def test_checklist_integrates_each_run_once(monkeypatch):
    """Over the whole checklist no (model, group, dt, t_final) integrates
    twice, and the cache keeps a record only while a later ``run`` reads it
    or when no columns were built from it."""
    integrated = collections.Counter()
    caches = []

    def fake_integrate(model, state0, dt, t_final, tableau, stride=1):
        integrated[id(model), dt, t_final] += 1
        return _two_sample_record(state0, dt)

    class SpyCache(acceptance.RunCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            caches.append(self)

    monkeypatch.setattr(acceptance, "integrate", fake_integrate)
    monkeypatch.setattr(acceptance, "integrate_quaternion",
                        lambda model, state0, dt, t_final, tableau:
                        _two_sample_record(state0, dt))
    monkeypatch.setattr(acceptance, "check_kernel_identities",
                        lambda: acceptance.CheckResult("1 kernel identities", True, ""))
    monkeypatch.setattr(acceptance, "RunCache", SpyCache)
    results = acceptance.run_all()
    assert [r.name for r in results] == CRITERIA
    assert len(integrated) > 40 and set(integrated.values()) == {1}
    (cache,) = caches
    held = set(cache._runs)
    assert {key for key in held if key in cache._columns} == {
        ("heavy-top", "se3", 1e-3, cache.spec("heavy-top", "se3").t_final)}
    assert {key[0] for key in held - set(cache._columns)} == {"free-body-com"}


def _dexpinv_second_order(x):
    """The 2nd-order truncation of the inverse-dexp operator series."""
    a = se3_ad(np.asarray(x, dtype=float))
    return np.eye(6) - 0.5 * a + (a @ a) / 12.0


def _dexpinv_apply_second_order(x, v):
    """The same truncation in the dexpinv-times-vector form the stage loops
    call."""
    return _dexpinv_second_order(x) @ np.asarray(v, dtype=float)


class TestDexpinvMutation:
    """Replacing dexpinv by its 2nd-order truncation must break exactly the
    closed-form cross-check while leaving constant-twist exactness and the
    integrator's convergence order intact."""

    def test_cross_check_criterion_fails(self, monkeypatch):
        # criterion 1 reads the kernel the stage loops call, so patching that
        # kernel alone must turn it red
        monkeypatch.setattr(liealg.SE3Group, "dexpinv_apply",
                            staticmethod(_dexpinv_apply_second_order))
        assert not acceptance.check_kernel_identities(n=300).passed

    def test_patch_reaches_the_step_loop(self, monkeypatch):
        # the stage loops must read the patched attribute, else the two
        # survival checks below would pass vacuously
        from screwmbs.dynamics import MbsModel, MbsState, RigidBody
        from oracles import coupled_step

        model = MbsModel([RigidBody("box", 86.4, np.diag([1.224, 4.68, 5.76]))],
                         [], [], representation="body")
        state = MbsState([Pose.identity()], [[10 * np.pi, 2 * np.pi, 0, 0.5, 0, 0]])
        exact = coupled_step(model, state, 0.05, tableau_rk4())
        monkeypatch.setattr(liealg.SE3Group, "dexpinv_apply",
                            staticmethod(_dexpinv_apply_second_order))
        truncated = coupled_step(model, state, 0.05, tableau_rk4())
        assert np.abs(truncated.poses[0].r - exact.poses[0].r).max() > 1e-9

    def test_constant_twist_exactness_survives(self, monkeypatch):
        monkeypatch.setattr(liealg.SE3Group, "dexpinv_apply",
                            staticmethod(_dexpinv_apply_second_order))
        v = np.array([0.8, -0.3, 0.5, 1.0, 0.2, -0.7])
        out = mk_step(SE3, [Pose.identity()], lambda t, g: v[None, :], 0.0,
                      0.5, tableau_rk4())
        ref = SE3.exp(0.5 * v)
        assert np.abs(out[0].R - ref.R).max() < 1e-13
        assert np.abs(out[0].r - ref.r).max() < 1e-13

    def test_convergence_order_survives(self, monkeypatch):
        # an order-2 truncation of dexpinv retains RK4 order (the classical
        # requirement is order >= p - 2)
        from screwmbs.dynamics import MbsModel, MbsState, RigidBody
        from oracles import coupled_step

        monkeypatch.setattr(liealg.SE3Group, "dexpinv_apply",
                            staticmethod(_dexpinv_apply_second_order))
        model = MbsModel([RigidBody("box", 86.4, np.diag([1.224, 4.68, 5.76]))],
                         [], [], representation="body")
        v0 = np.array([[10 * np.pi, 2 * np.pi, 0, 0.5, 0, 0]])
        tab = tableau_rk4()

        def run(dt):
            state = MbsState([Pose.identity()], v0.copy())
            for _ in range(int(round(0.1 / dt))):
                state = coupled_step(model, state, dt, tab)
            return state

        ref = run(1e-5)
        dts = [4e-3, 2e-3, 1e-3]
        errs = [np.abs(run(dt).poses[0].r - ref.poses[0].r).max() for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 3.5 < slope < 4.5
