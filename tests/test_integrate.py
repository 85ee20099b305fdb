import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from screwmbs import bench, integrate as integrate_module, liealg
from screwmbs.dynamics import (
    REPRESENTATION,
    Gravity,
    Joint,
    LinearSpring,
    MbsModel,
    MbsState,
    RigidBody,
)
from screwmbs.integrate import (
    ButcherTableau,
    IntegrationError,
    integrate,
    integrate_quaternion,
    mk_step,
    tableau_explicit_trapezoidal,
    tableau_rk4,
)
from screwmbs.liealg import (
    SE3,
    SO3R3,
    Pose,
    se3_compose,
    se3_exp,
    mm3,
    so3_exp,
)
from oracles import coupled_step, random_screw

RNG = np.random.default_rng(31337)

BOX = RigidBody("box", 86.4, np.diag([1.224, 4.68, 5.76]))


def free_model(representation):
    return MbsModel([BOX], [], [], representation=representation)


class TestTableaus:
    def test_rk4_weights(self):
        t = tableau_rk4()
        assert_allclose(t.b, [1 / 6, 1 / 3, 1 / 3, 1 / 6])

    def test_trapezoidal_matches_printed_scheme(self):
        t = tableau_explicit_trapezoidal()
        assert t.a[1, 0] == 0.5
        assert_allclose(t.b, [0.0, 1.0])
        assert_allclose(t.c, [0.0, 0.5])

    @pytest.mark.parametrize("t", [tableau_rk4(), tableau_explicit_trapezoidal()],
                             ids=["rk4", "explicit-trapezoidal"])
    def test_consistency(self, t):
        assert abs(t.b.sum() - 1.0) < 1e-15
        assert_allclose(t.a.sum(axis=1), t.c, atol=1e-15)

    def test_rejects_implicit(self):
        with pytest.raises(ValueError):
            ButcherTableau(np.eye(2), np.array([0.5, 0.5]), np.array([1.0, 1.0]))


class TestMkStep:
    @pytest.mark.parametrize("group", [SE3, SO3R3], ids=lambda g: g.name)
    def test_zero_velocity_leaves_pose(self, group):
        poses = [Pose(so3_exp([0.2, 0.1, -0.4]), np.array([1.0, 2.0, 3.0]))]
        out = mk_step(group, poses, lambda t, g: np.zeros((1, 6)), 0.0, 0.5,
                      tableau_rk4())
        assert_allclose(out[0].R, poses[0].R, atol=0)
        assert_allclose(out[0].r, poses[0].r, atol=0)

    @pytest.mark.parametrize("group", [SE3, SO3R3], ids=lambda g: g.name)
    @pytest.mark.parametrize("tableau", [tableau_rk4(), tableau_explicit_trapezoidal()],
                             ids=["rk4", "explicit-trapezoidal"])
    @pytest.mark.parametrize("dt", [1e-3, 0.1, 1.0])
    def test_constant_twist_exactness(self, group, tableau, dt):
        v = random_screw(RNG, angle_lo=0.2, angle_hi=1.0)
        poses = [Pose(so3_exp([0.3, -0.1, 0.2]), np.array([0.5, -1.0, 0.25]))]
        out = mk_step(group, poses, lambda t, g: v[None, :], 0.0, dt, tableau)
        ref = group.compose(poses[0], group.exp(dt * v))
        assert np.abs(out[0].R - ref.R).max() < 1e-13
        assert np.abs(out[0].r - ref.r).max() < 1e-13

    def test_rotating_frame_reproduces_screw_solution(self):
        # frame on a constant-rate circular path: body twist is constant and
        # the SE(3) trapezoidal update is the exact solution
        omega0, axis, p = math.pi, np.array([0.0, 0, 1.0]), np.array([1.0, 0, 0])
        v = np.concatenate([omega0 * axis, omega0 * np.cross(p, axis)])
        dt = 0.1
        tab = tableau_explicit_trapezoidal()
        poses = [Pose.identity()]
        for i in range(1, 51):
            poses = mk_step(SE3, poses, lambda t, g: v[None, :], (i - 1) * dt, dt, tab)
            ref = se3_exp(i * dt * v)
            assert np.abs(poses[0].R - ref.R).max() < 1e-13
            assert np.abs(poses[0].r - ref.r).max() < 1e-13

    def test_dexpinv_pole_raises_for_huge_step(self):
        v = np.array([2.0, 0, 0, 0, 0, 0])
        with pytest.raises(Exception):
            mk_step(SE3, [Pose.identity()], lambda t, g: 4.0 * v[None, :],
                    0.0, 1.0, tableau_rk4())

    def test_so3xr3_step_decouples(self):
        # rotation follows the so(3) MK update and translation a plain RK
        # update; the direct product arithmetic must agree exactly with the
        # float step end (the rotation rows times the exp rows, r + phi)
        tab = tableau_rk4()
        dt = 0.01
        r0 = so3_exp([0.3, 0.2, -0.1])
        p0 = np.array([0.4, -0.2, 1.0])

        def field(t, poses):
            r = poses[0].r
            return np.array([[0.5, -0.2 * r[0], 0.1,
                              math.sin(t), r[1], -r[2]]])

        out = mk_step(SO3R3, [Pose(r0, p0)], field, 0.0, dt, tab)

        # reference: independent so3 chart update + vector-space RK on r,
        # replicating the stage accumulation order
        def combine(terms, ks):
            out = np.zeros(3)
            for l, w in terms:
                out = out + (dt * w) * ks[l]
            return out

        ks_rot, ks_tr = [], []
        for j in range(tab.stages):
            deps = tab._deps[j]
            if deps:
                psi_rot = combine(deps, ks_rot)
                stage = [Pose(r0 @ so3_exp(psi_rot), p0 + combine(deps, ks_tr))]
                v = field(tab.c[j] * dt, stage)[0]
                c = liealg._dinv(np.linalg.norm(psi_rot))
                ks_rot.append(np.array(liealg._so3_dexpinv_apply(-psi_rot, v[:3], c)))
            else:
                v = field(0.0, [Pose(r0, p0)])[0]
                ks_rot.append(v[:3].copy())
            ks_tr.append(v[3:].copy())
        phi_rot = combine(tab._weights, ks_rot)
        rot = mm3(r0.tolist(), so3_exp(phi_rot).tolist())
        assert np.array_equal(out[0].R, rot)
        assert np.array_equal(out[0].r, p0 + combine(tab._weights, ks_tr))

    @pytest.mark.parametrize("group", [SE3, SO3R3], ids=lambda g: g.name)
    def test_step_end_moves_each_body_like_integrate(self, group, monkeypatch):
        # one advance_parts call per body and stage, the step's end included
        calls = []
        cls = type(group)
        advance = cls.__dict__["advance_parts"].__func__
        monkeypatch.setattr(cls, "advance_parts", staticmethod(
            lambda rot, phi: calls.append(phi) or advance(rot, phi)))
        tab = tableau_rk4()
        model = MbsModel([BOX, RigidBody("box2", 2.0, np.diag([1.0, 2.0, 3.0]))],
                         [], [], representation=REPRESENTATION[group.name])
        v = RNG.normal(size=(2, 6))
        state = MbsState([Pose.identity(), Pose(so3_exp([0.1, 0.2, 0.3]), np.ones(3))], v)
        mk_step(group, state.poses, lambda t, g: v, 0.0, 0.01, tab)
        assert len(calls) == tab.stages * 2
        calls.clear()
        integrate(model, group, state, 0.01, 0.01, tab)
        assert len(calls) == tab.stages * 2

    @pytest.mark.parametrize("group, v0", [
        (SE3, [0.0, 0.0, 3.0, 0.0, 0.0, 0.5]),
        (SO3R3, [0.0, 0.0, 3.0, 0.4, -0.2, 0.5]),
    ], ids=["se3", "so3xr3"])
    def test_torque_free_spin_step_is_mk_step(self, group, v0):
        # a spin about a principal axis (on se3 with a slide along it, on
        # so3xr3 with a COM rdot) has zero accelerations, so one integrate
        # step is mk_step with the constant velocity, bit for bit
        model = free_model(REPRESENTATION[group.name])
        pose = Pose(so3_exp([0.3, -0.2, 0.1]), np.array([0.5, 1.0, -0.25]))
        v0 = np.array([v0])
        tab, dt = tableau_rk4(), 0.01
        rec = integrate(model, group, MbsState([pose], v0), dt, dt, tab)
        out = mk_step(group, [pose], lambda t, g: v0, 0.0, dt, tab)
        assert np.array_equal(rec.velocities[1], v0)
        assert np.array_equal(rec.rotations[1, 0], out[0].R)
        assert np.array_equal(rec.positions[1, 0], out[0].r)


class TestCoupledStep:
    def test_rest_state_is_fixed_point(self):
        model = free_model("body")
        state = MbsState([Pose.identity()], np.zeros((1, 6)))
        out = coupled_step(model, SE3, state, 0.01, tableau_rk4())
        assert_allclose(out.poses[0].R, np.eye(3), atol=0)
        assert_allclose(out.poses[0].r, np.zeros(3), atol=0)
        assert_allclose(out.velocities, np.zeros((1, 6)), atol=0)

    def test_free_body_translation_exact_on_direct_product(self):
        # rotation about z plus 10 m/s along x: the mixed velocity is
        # constant, so one step lands exactly on r = dt * (10, 0, 0)
        model = free_model("mixed")
        v0 = np.array([0.0, 0.0, 2 * math.pi, 10.0, 0.0, 0.0])
        state = MbsState([Pose.identity()], v0[None, :])
        dt = 0.01
        out = coupled_step(model, SO3R3, state, dt, tableau_rk4())
        assert_allclose(out.poses[0].r, [10 * dt, 0, 0], atol=0)
        assert_allclose(out.poses[0].R, so3_exp([0, 0, 2 * math.pi * dt]), atol=1e-15)

    def test_heavy_top_step_halving_order(self):
        # local error ratio between one dt step and two dt/2 steps ~ 2^4
        from test_dynamics import heavy_top_model, heavy_top_state

        model = heavy_top_model("body")
        state = heavy_top_state("body")
        tab = tableau_rk4()
        dt = 1e-3

        one = coupled_step(model, SE3, state, dt, tab)
        half = coupled_step(model, SE3, state, dt / 2, tab)
        two = coupled_step(model, SE3, half, dt / 2, tab)
        ref = state
        for _ in range(10):
            ref = coupled_step(model, SE3, ref, dt / 10, tab)

        e1 = np.linalg.norm(one.velocities - ref.velocities)
        e2 = np.linalg.norm(two.velocities - ref.velocities)
        assert 10.0 < e1 / e2 < 22.0

    def test_spinning_box_order_four(self):
        # global error on the tumbling box over 0.1 s, log-log slope ~ 4
        model = free_model("body")
        v0 = np.concatenate([[10 * math.pi, 2 * math.pi, 0], np.zeros(3)])
        tab = tableau_rk4()

        def run(dt):
            state = MbsState([Pose.identity()], v0[None, :].copy())
            n = int(round(0.1 / dt))
            for _ in range(n):
                state = coupled_step(model, SE3, state, dt, tab)
            return state

        ref = run(1e-5)
        errs, dts = [], [4e-3, 2e-3, 1e-3]
        for dt in dts:
            out = run(dt)
            errs.append(np.abs(out.poses[0].R - ref.poses[0].R).max())
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 3.7 < slope < 4.3


class TestIntegrate:
    def test_zero_horizon_single_sample(self):
        model = free_model("body")
        state = MbsState([Pose.identity()], np.zeros((1, 6)))
        rec = integrate(model, SE3, state, 0.01, 0.0, tableau_rk4())
        assert rec.n_samples == 1
        assert rec.times[0] == 0.0

    def test_step_count(self):
        model = free_model("body")
        v0 = np.array([[0.1, 0, 0, 1.0, 0, 0]])
        state = MbsState([Pose.identity()], v0)
        rec = integrate(model, SE3, state, 0.01, 10.0, tableau_rk4())
        assert rec.n_samples == 1001
        assert_allclose(rec.times[-1], 10.0)

    def test_stride_keeps_final_sample(self):
        model = free_model("body")
        state = MbsState([Pose.identity()], np.array([[0.1, 0, 0, 0, 0, 0]]))
        rec = integrate(model, SE3, state, 0.1, 1.05, tableau_rk4(), stride=4)
        # steps: 10 -> samples at 0, 4, 8, 10
        assert rec.n_samples == 4
        assert_allclose(rec.times[-1], 1.0 + 0.0, atol=1e-12)

    def test_deterministic(self):
        from test_dynamics import heavy_top_model, heavy_top_state

        model = heavy_top_model("body")
        a = integrate(model, SE3, heavy_top_state("body"), 1e-3, 0.2, tableau_rk4())
        b = integrate(model, SE3, heavy_top_state("body"), 1e-3, 0.2, tableau_rk4())
        assert np.array_equal(a.rotations, b.rotations)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)

    def test_error_carries_step_index(self):
        # a huge velocity drives the chart beyond the dexpinv pole
        model = free_model("body")
        state = MbsState([Pose.identity()], np.array([[50.0, 0, 0, 0, 0, 0]]))
        with pytest.raises(IntegrationError, match="step"):
            integrate(model, SE3, state, 0.5, 5.0, tableau_rk4())

    @pytest.mark.parametrize("integrator", [integrate, integrate_quaternion])
    @pytest.mark.parametrize("name", ["free-body-offset", "heavy-top"])
    @pytest.mark.parametrize("group", ["se3", "so3xr3"])
    def test_non_finite_step_is_a_named_error(self, integrator, name, group):
        # a NaN in the gravity vector turns the first velocity update
        # non-finite; the run stops there instead of recording NaN rows
        spec = bench.build(name, group)
        forces = [Gravity([math.nan, 0.0, -9.81]),
                  *(f for f in spec.model.forces if not isinstance(f, Gravity))]
        model = MbsModel(spec.model.bodies, spec.model.joints, forces,
                         representation=spec.model.representation)
        with pytest.raises(IntegrationError, match="non-finite") as exc:
            integrator(model, spec.group, spec.state0, 1e-3, 0.01, tableau_rk4())
        assert (exc.value.step, exc.value.t) == (1, 0.0)

    def test_orthonormality_after_many_steps(self):
        # 1e5 kinematic MK steps: exp returns rotations exact to roundoff
        v = np.array([[0.8, -0.5, 0.3, 0.2, 0.1, -0.4]])
        poses = [Pose.identity()]
        tab = tableau_rk4()
        field = lambda t, g: v
        for _ in range(100_000):
            poses = mk_step(SE3, poses, field, 0.0, 1e-3, tab)
        assert poses[0].orthonormality_defect() < 1e-9


class TestIntegrateQuaternion:
    @pytest.mark.parametrize("group", ["se3", "so3xr3"])
    def test_chart_calls_go_through_module_names(self, monkeypatch, group):
        # per-layer tracing wraps exactly these module attributes, so the
        # stage loop must look them up there on every body and stage
        calls = {}

        def counting(name):
            fn = getattr(integrate_module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        names = ("pose_from_dq", "reconstruct_rates", "euler_reconstruct_rates")
        for name in names:
            monkeypatch.setattr(integrate_module, name, counting(name))
        spec = bench.build("double-pendulum", group)
        tab = tableau_rk4()
        steps, bodies = 5, spec.model.n_bodies
        rec = integrate_quaternion(spec.model, spec.group, spec.state0, 1e-3,
                                   steps * 1e-3, tab, stride=2)
        per_stage = tab.stages * steps * bodies
        if group == "se3":
            # the recorded samples convert the pose once more per body
            expected = {"pose_from_dq": per_stage + rec.n_samples * bodies,
                        "reconstruct_rates": per_stage}
        else:
            expected = {"euler_reconstruct_rates": per_stage}
        assert calls == expected

    @pytest.mark.parametrize("group", [SE3, SO3R3])
    def test_sampling_matches_matrix_chart(self, group):
        model = free_model("body" if group is SE3 else "mixed")
        state = MbsState([Pose.identity()], np.array([[0.1, 0.2, 0, 0, 0.3, 0]]))
        a = integrate(model, group, state, 0.1, 1.05, tableau_rk4(), stride=4)
        b = integrate_quaternion(model, group, state, 0.1, 1.05, tableau_rk4(), stride=4)
        assert np.array_equal(a.times, b.times)
        assert a.quat_defects is None and b.quat_defects.shape == (4, 2)
        assert_allclose(b.rotations, a.rotations, atol=1e-6)
        for fn in (integrate, integrate_quaternion):
            with pytest.raises(ValueError, match="stride"):
                fn(model, group, state, 0.1, 1.0, tableau_rk4(), stride=0)
