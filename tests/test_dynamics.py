import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from screwmbs.dynamics import (
    BODY_FIXED,
    MIXED,
    Gravity,
    InfeasibleStateError,
    Joint,
    LinearSpring,
    MbsModel,
    MbsState,
    RedundantConstraintError,
    RigidBody,
    accelerations,
    assemble_index1,
    check_initial_state,
    constraint_jacobian,
    force_assembly,
    joint_acc_rhs,
    joint_geometry,
    joint_jacobian,
    kinetic_energy,
    newton_euler_body,
    newton_euler_mixed,
    parallel_axis,
    project_velocities,
    solve_index1,
    spatial_inertia,
    total_energy,
    velocity_residual,
)
from screwmbs.liealg import Pose, hat3, mixed_twist_matrix, se3_dexp, se3_exp
from oracles import central_diff

RNG = np.random.default_rng(512)

# benchmark bodies shared across the dynamics tests
BOX_FREE = RigidBody("box", 86.4, np.diag([1.224, 4.68, 5.76]))
TOP_BODY = RigidBody("top", 21.6, np.diag([0.36, 0.306, 0.09]))
TOP_R0 = np.array([-0.5, 0.0, 0.0])
TOP_P0 = np.array([1.0, 0.0, 0.5])
TOP_C = 1.0e4
GRAV = 9.81


def heavy_top_model(representation) -> MbsModel:
    return MbsModel(
        bodies=[TOP_BODY],
        joints=[Joint("spherical", None, 0, anchor_a=np.zeros(3), anchor_b=TOP_R0,
                      name="pivot")],
        forces=[Gravity([0, 0, -GRAV]),
                LinearSpring(0, np.zeros(3), TOP_P0, TOP_C)],
        representation=representation,
    )


def heavy_top_state(representation) -> MbsState:
    omega0 = np.array([0.0, 0.0, 0.5])
    v0 = np.cross(TOP_R0, omega0)
    vel = np.concatenate([omega0, v0])
    if representation == MIXED:
        vel = np.concatenate([omega0, v0])  # R = I initially, frames match
    return MbsState([Pose(np.eye(3), -TOP_R0)], vel[None, :])


class TestSpatialInertia:
    def test_free_body_com(self):
        m = spatial_inertia(BOX_FREE)
        assert_allclose(m[:3, :3], np.diag([1.224, 4.68, 5.76]))
        assert_allclose(m[3:, 3:], 86.4 * np.eye(3))
        assert_allclose(m[:3, 3:], np.zeros((3, 3)), atol=0)

    def test_off_com_parallel_axis(self):
        r0 = np.array([0.4, 0.0, 0.0])
        theta_p = parallel_axis(np.diag([1.224, 4.68, 5.76]), 86.4, r0)
        assert_allclose(theta_p, np.diag([1.224, 18.504, 19.584]), atol=1e-12)
        body = RigidBody("box_p", 86.4, theta_p, com_offset=r0)
        m = spatial_inertia(body)
        assert_allclose(m[3:, :3], -86.4 * hat3(r0))
        assert_allclose(m[:3, 3:], (-86.4 * hat3(r0)).T)
        assert_allclose(m, m.T)
        assert np.linalg.eigvalsh(m).min() > 0

    def test_body_validation(self):
        with pytest.raises(ValueError):
            RigidBody("bad", -1.0, np.eye(3))
        with pytest.raises(ValueError):
            RigidBody("bad", 1.0, -np.eye(3))
        with pytest.raises(ValueError):
            RigidBody("bad", 1.0, np.eye(3), cspace="nope")

    def test_cspace_tag_must_match_representation(self):
        tagged = RigidBody("box", 1.0, np.eye(3), cspace="so3xr3")
        MbsModel([tagged], [], [], representation=MIXED)  # consistent
        with pytest.raises(ValueError, match="c-space"):
            MbsModel([tagged], [], [], representation=BODY_FIXED)


class TestNewtonEuler:
    def test_rest_passes_wrench_through(self):
        w = RNG.normal(size=6)
        _, rhs = newton_euler_body(BOX_FREE, np.zeros(6), w)
        assert_allclose(rhs, w)

    def test_principal_axis_spin_has_no_gyroscopic_moment(self):
        v = np.array([7.0, 0, 0, 0, 0, 0])
        _, rhs = newton_euler_body(BOX_FREE, v, np.zeros(6))
        assert_allclose(rhs, np.zeros(6), atol=1e-12)

    def test_gyroscopic_moment_matches_cross_product(self):
        omega = np.array([10 * math.pi, 2 * math.pi, 0.0])
        v = np.concatenate([omega, np.zeros(3)])
        _, rhs = newton_euler_body(BOX_FREE, v, np.zeros(6))
        assert_allclose(rhs[:3], -np.cross(omega, BOX_FREE.inertia_ref @ omega),
                        atol=1e-10)

    def test_mixed_at_com_rest_is_linear(self):
        w = np.array([0, 0, 0, 3.0, -1.0, 2.0])
        m, rhs = newton_euler_mixed(BOX_FREE, np.eye(3), np.zeros(6), w)
        assert_allclose(np.linalg.solve(m, rhs)[3:], w[3:] / 86.4)

    def test_mixed_at_com_same_inertia_blocks_as_body(self):
        v = RNG.normal(size=6)
        mb, _ = newton_euler_body(BOX_FREE, v, np.zeros(6))
        mm, _ = newton_euler_mixed(BOX_FREE, np.eye(3), v, np.zeros(6))
        assert_allclose(mm, mb)


def _synthetic_trajectory(joint, n_bodies, representation, rng):
    """Smooth pose curves; velocities in the requested representation."""
    a = rng.uniform(-0.6, 0.6, (n_bodies, 6))
    b = rng.uniform(-0.8, 0.8, (n_bodies, 6))
    c = rng.uniform(-0.5, 0.5, (n_bodies, 6))

    def coords(i, t):
        return a[i] + b[i] * t + c[i] * t * t

    def poses(t):
        return [se3_exp(coords(i, t)) for i in range(n_bodies)]

    def velocities(t):
        out = np.zeros((n_bodies, 6))
        for i in range(n_bodies):
            xdot = b[i] + 2 * c[i] * t
            if representation == MIXED:
                out[i] = mixed_twist_matrix(coords(i, t)) @ xdot
            else:
                out[i] = se3_dexp(-coords(i, t)) @ xdot
        return out

    return poses, velocities


JOINTS = [
    Joint("spherical", None, 0, anchor_a=[0.1, -0.2, 0.3], anchor_b=[0.2, 0.1, -0.1]),
    Joint("spherical", 0, 1, anchor_a=[0.1, 0.0, 0.2], anchor_b=[-0.3, 0.1, 0.0]),
    Joint("revolute", None, 0, anchor_a=[0.0, 0.1, 0.0], anchor_b=[0.2, 0.0, 0.1],
          axis_a=[0, 0, 1.0], axis_b=[0, 1.0, 0]),
    Joint("revolute", 0, 1, anchor_a=[0.2, 0.1, 0.0], anchor_b=[0.0, -0.1, 0.2],
          axis_a=[1.0, 0, 0], axis_b=[0, 0, 1.0]),
    Joint("prismatic", None, 0, anchor_a=[0, 0, 0.0], anchor_b=[0.1, 0.0, -0.2],
          axis_a=[0, 0, 1.0], axis_b=[1.0, 0, 0]),
    Joint("prismatic", 0, 1, anchor_a=[0.1, 0, 0.0], anchor_b=[0.0, 0.2, 0.0],
          axis_a=[0, 1.0, 0], axis_b=[0, 0, 1.0]),
    Joint("universal", None, 0, anchor_a=[0.3, 0, 0.1], anchor_b=[0.0, 0.1, 0.0],
          axis_a=[1.0, 0, 0], axis_b=[0, 1.0, 0]),
    Joint("universal", 0, 1, anchor_a=[0, 0.1, 0.0], anchor_b=[0.2, 0.0, 0.0],
          axis_a=[0, 0, 1.0], axis_b=[1.0, 0, 0]),
]


def _dummy_model(representation, n_bodies, joint):
    bodies = [RigidBody(f"b{i}", 1.0, np.eye(3)) for i in range(n_bodies)]
    return MbsModel(bodies, [joint], [], representation=representation)


@pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
@pytest.mark.parametrize("joint", JOINTS, ids=lambda j: f"{j.kind}-{'g' if j.body_a is None else 'bb'}")
class TestJointDerivativeConsistency:
    """h, J and eta agree with finite differences along arbitrary flows."""

    def test_jacobian_matches_dh_dt(self, joint, representation):
        n = joint.body_b + 1
        model = _dummy_model(representation, n, joint)
        rng = np.random.default_rng(7)
        poses, velocities = _synthetic_trajectory(joint, n, representation, rng)
        for t0 in (0.0, 0.31):
            hdot = central_diff(lambda t: joint_geometry(joint, poses(t), model), t0)
            blocks = joint_jacobian(joint, poses(t0), model)
            v = velocities(t0)
            jv = sum(blk @ v[i] for i, blk in blocks.items())
            assert np.abs(jv - hdot).max() < 1e-6

    def test_acc_rhs_matches_d2h_dt2(self, joint, representation):
        n = joint.body_b + 1
        model = _dummy_model(representation, n, joint)
        rng = np.random.default_rng(13)
        poses, velocities = _synthetic_trajectory(joint, n, representation, rng)
        t0 = 0.17

        def jv(t):
            blocks = joint_jacobian(joint, poses(t), model)
            v = velocities(t)
            return sum(blk @ v[i] for i, blk in blocks.items())

        vdot = central_diff(velocities, t0)
        blocks = joint_jacobian(joint, poses(t0), model)
        j_vdot = sum(blk @ vdot[i] for i, blk in blocks.items())
        eta = joint_acc_rhs(joint, poses(t0), velocities(t0), model)
        # d/dt (J V) = J Vdot - eta
        assert np.abs(central_diff(jv, t0) - (j_vdot - eta)).max() < 1e-5


@pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
@pytest.mark.parametrize("joint", JOINTS, ids=lambda j: f"{j.kind}-{'g' if j.body_a is None else 'bb'}")
def test_split_residual_anchors_coincide(joint, representation):
    """With the anchors coincident and the rotations arbitrary, the position
    part vanishes and the whole residual sits in the orientation part."""
    n = joint.body_b + 1
    model = _dummy_model(representation, n, joint)
    rng = np.random.default_rng(29)
    poses = [Pose(se3_exp(np.concatenate([rng.normal(size=3), [0, 0, 0]])).R,
                  rng.normal(size=3)) for _ in range(n)]
    pa = (joint.anchor_a if joint.body_a is None
          else poses[joint.body_a].r + poses[joint.body_a].R @ joint.anchor_a)
    rb = poses[joint.body_b].R
    poses[joint.body_b] = Pose(rb, pa - rb @ joint.anchor_b)
    h = joint_geometry(joint, poses, model)
    pos, ori = joint.split_residual(h)
    assert len(pos) + len(ori) == joint.dim
    assert np.abs(pos).max() < 1e-14
    if joint.kind == "spherical":
        assert len(ori) == 0
    else:
        assert np.abs(ori).max() > 1e-3


class TestPaperJacobianForms:
    def test_heavy_top_body_fixed(self):
        model = heavy_top_model(BODY_FIXED)
        # on-manifold at a generic orientation the textbook (r0^, -I) form holds
        r = se3_exp(np.array([0.4, -0.8, 0.3, 0, 0, 0])).R
        poses = [Pose(r, -(r @ TOP_R0))]
        blk = joint_jacobian(model.joints[0], poses, model)[0]
        assert_allclose(blk[:, :3], hat3(TOP_R0), atol=1e-13)
        assert_allclose(blk[:, 3:], -np.eye(3), atol=0)

    def test_heavy_top_mixed(self):
        model = heavy_top_model(MIXED)
        r = se3_exp(np.array([-0.2, 0.5, 0.9, 0, 0, 0])).R
        poses = [Pose(r, -(r @ TOP_R0))]
        blk = joint_jacobian(model.joints[0], poses, model)[0]
        assert_allclose(blk[:, :3], r @ hat3(TOP_R0), atol=1e-13)
        assert_allclose(blk[:, 3:], -np.eye(3), atol=0)
        # acceleration right-hand side R w^ w^ r0 as printed
        omega = np.array([0.7, -0.4, 1.1])
        vel = np.concatenate([omega, RNG.normal(size=3)])[None, :]
        eta = joint_acc_rhs(model.joints[0], poses, vel, model)
        assert_allclose(eta, r @ np.cross(omega, np.cross(omega, TOP_R0)),
                        atol=1e-12)


class TestHeavyTopGeometry:
    @pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
    def test_assembled_configuration(self, representation):
        model = heavy_top_model(representation)
        state = heavy_top_state(representation)
        h = joint_geometry(model.joints[0], state.poses, model)
        assert np.abs(h).max() < 1e-15
        assert velocity_residual(model, state) < 1e-12

    def test_translation_perturbation_is_linear(self):
        model = heavy_top_model(BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        delta = np.array([1e-3, -2e-3, 3e-3])
        poses = [Pose(state.poses[0].R, state.poses[0].r + delta)]
        h = joint_geometry(model.joints[0], poses, model)
        # h = Rb^T (pa - pb): a pure translation enters through -Rb^T delta
        assert_allclose(h, -state.poses[0].R.T @ delta, atol=1e-15)


class TestForceAssembly:
    def test_no_elements_zero_wrench(self):
        model = MbsModel([TOP_BODY], [], [], representation=BODY_FIXED)
        w = force_assembly(model, [Pose.identity()])
        assert_allclose(w, np.zeros((1, 6)))

    def test_heavy_top_initial_spring_force(self):
        model = heavy_top_model(MIXED)
        state = heavy_top_state(MIXED)
        w = force_assembly(model, state.poses)
        expected_f = TOP_C * (TOP_P0 - (-TOP_R0)) + 21.6 * np.array([0, 0, -GRAV])
        assert_allclose(w[0, 3:], expected_f)
        assert_allclose(w[0, :3], np.zeros(3), atol=0)  # spring at the COM

    def test_representations_related_by_frame_transform(self):
        r = se3_exp(np.array([0.3, 0.7, -0.2, 0, 0, 0])).R
        poses = [Pose(r, np.array([0.2, -0.1, 0.4]))]
        body_model = heavy_top_model(BODY_FIXED)
        mixed_model = heavy_top_model(MIXED)
        wb = force_assembly(body_model, poses)[0]
        wm = force_assembly(mixed_model, poses)[0]
        assert_allclose(wb[:3], wm[:3], atol=1e-12)
        assert_allclose(wb[3:], r.T @ wm[3:], atol=1e-12)


class TestIndex1Solve:
    def test_unconstrained_reduces_to_newton_euler(self):
        model = MbsModel([BOX_FREE], [], [Gravity([0, 0, -GRAV])],
                         representation=BODY_FIXED)
        state = MbsState([Pose.identity()], RNG.normal(size=6)[None, :])
        vdot = accelerations(model, state.poses, state.velocities)
        m, rhs = newton_euler_body(BOX_FREE, state.velocities[0],
                                   force_assembly(model, state.poses)[0])
        assert_allclose(vdot[0], np.linalg.solve(m, rhs), atol=1e-12)

    def test_heavy_top_static_hand_solve(self):
        # independent hand elimination of the 9x9 KKT system at rest
        model = heavy_top_model(BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        state.velocities[:] = 0.0
        kkt, rhs = assemble_index1(model, state.poses, state.velocities)
        vdot, lam = solve_index1(model, kkt, rhs)

        f = TOP_C * (TOP_P0 - (-TOP_R0)) + 21.6 * np.array([0, 0, -GRAV])
        theta_pivot = parallel_axis(TOP_BODY.inertia_ref, 21.6, TOP_R0)
        # torque about the pivot: COM sits at -r0 from the pivot point
        wdot = np.linalg.solve(theta_pivot, np.cross(-TOP_R0, f))
        assert_allclose(vdot[0, :3], wdot, atol=1e-10)
        assert_allclose(vdot[0, 3:], np.cross(TOP_R0, wdot), atol=1e-10)
        assert_allclose(lam, 21.6 * np.cross(TOP_R0, wdot) - f, atol=1e-9)

    @pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
    def test_kkt_residual_on_feasible_state(self, representation):
        model = heavy_top_model(representation)
        state = heavy_top_state(representation)
        kkt, rhs = assemble_index1(model, state.poses, state.velocities)
        vdot, lam = solve_index1(model, kkt, rhs)
        sol = np.concatenate([vdot.reshape(-1), lam])
        assert np.abs(kkt @ sol - rhs).max() < 1e-9

    def test_singular_kkt_names_joints(self):
        # duplicated spherical joint makes the constraint rows dependent
        j = Joint("spherical", None, 0, anchor_b=TOP_R0, name="pivot")
        j2 = Joint("spherical", None, 0, anchor_b=TOP_R0, name="pivot-copy")
        model = MbsModel([TOP_BODY], [j, j2], [], representation=BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        kkt, rhs = assemble_index1(model, state.poses, state.velocities)
        with pytest.raises(RedundantConstraintError, match="pivot-copy"):
            solve_index1(model, kkt, rhs)

    def test_accelerations_redundant_joints_name_them(self):
        # the production right-hand side reports the redundancy as well
        j = Joint("spherical", None, 0, anchor_b=TOP_R0, name="pivot")
        j2 = Joint("spherical", None, 0, anchor_b=TOP_R0, name="pivot-copy")
        model = MbsModel([TOP_BODY], [j, j2], [], representation=BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        with pytest.raises(RedundantConstraintError, match="pivot-copy"):
            accelerations(model, state.poses, state.velocities)

    def test_body_and_mixed_accelerations_agree(self):
        mb = heavy_top_model(BODY_FIXED)
        mm = heavy_top_model(MIXED)
        r = se3_exp(np.array([0.2, -0.3, 0.5, 0, 0, 0])).R
        poses = [Pose(r, -(r @ TOP_R0))]
        omega = np.array([0.3, 0.8, -0.4])
        vb = np.concatenate([omega, np.cross(TOP_R0, omega)])
        vm = np.concatenate([omega, r @ vb[3:]])
        ab = accelerations(mb, poses, vb[None, :])[0]
        am = accelerations(mm, poses, vm[None, :])[0]
        assert_allclose(am[:3], ab[:3], atol=1e-9)
        # vdot_body = R^T vdot_s - omega x v_body
        assert_allclose(r.T @ am[3:] - np.cross(omega, vb[3:]), ab[3:], atol=1e-9)

    def test_off_com_body_and_mixed_accelerations_agree(self):
        # validates the off-COM mixed mass coupling -m(R r0^) and the
        # quadratic bias R w^ w^ r0 against the frame-invariant body form
        r0 = np.array([0.4, 0.0, 0.0])
        theta_p = parallel_axis(np.diag([1.224, 4.68, 5.76]), 86.4, r0)
        body = RigidBody("box_p", 86.4, theta_p, com_offset=r0)
        grav = [Gravity([0, 0, -GRAV])]
        mb = MbsModel([body], [], grav, representation=BODY_FIXED)
        mm = MbsModel([body], [], grav, representation=MIXED)
        r = se3_exp(np.array([0.4, -0.2, 0.7, 0, 0, 0])).R
        poses = [Pose(r, np.array([0.3, -0.6, 0.2]))]
        omega = np.array([2.0, -1.5, 3.0])
        vb = np.concatenate([omega, np.array([0.5, -0.25, 1.0])])
        vm = np.concatenate([omega, r @ vb[3:]])
        ab = accelerations(mb, poses, vb[None, :])[0]
        am = accelerations(mm, poses, vm[None, :])[0]
        assert_allclose(am[:3], ab[:3], atol=1e-9)
        assert_allclose(r.T @ am[3:] - np.cross(omega, vb[3:]), ab[3:], atol=1e-9)

    def test_off_com_mixed_power_balance(self):
        # dE/dt along the mixed flow equals the applied wrench power
        r0 = np.array([0.4, 0.0, 0.0])
        theta_p = parallel_axis(np.diag([1.224, 4.68, 5.76]), 86.4, r0)
        body = RigidBody("box_p", 86.4, theta_p, com_offset=r0)
        model = MbsModel([body], [],
                         [Gravity([0, 0, -GRAV]),
                          LinearSpring(0, np.array([0.1, 0, 0.2]),
                                       np.array([1.0, 0, 1.0]), 500.0)],
                         representation=MIXED)
        r = se3_exp(np.array([-0.3, 0.8, 0.1, 0, 0, 0])).R
        state = MbsState([Pose(r, np.array([0.2, 0.4, -0.1]))],
                         np.array([[1.0, -2.0, 0.5, 0.3, 0.8, -0.6]]))
        v = state.velocities[0]
        vdot = accelerations(model, state.poses, state.velocities)[0]
        m0 = model.spatial_inertia_blocks([r])[0]
        h = 1e-7
        rp = r @ (np.eye(3) + h * hat3(v[:3]))
        rm = r @ (np.eye(3) - h * hat3(v[:3]))
        mdot = (model.spatial_inertia_blocks([rp])[0]
                - model.spatial_inertia_blocks([rm])[0]) / (2 * h)
        tdot = v @ m0 @ vdot + 0.5 * v @ mdot @ v
        w = force_assembly(model, state.poses)[0]
        assert abs(tdot - v @ w) < 1e-7 * max(1.0, abs(v @ w))

    @pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
    def test_instantaneous_power_balance(self, representation):
        # dT/dt must equal the applied-wrench power; the constraint does no
        # work and the gyroscopic terms must cancel against dM/dt
        model = heavy_top_model(representation)
        state = heavy_top_state(representation)
        vdot = accelerations(model, state.poses, state.velocities)[0]
        v = state.velocities[0]
        blocks = model.spatial_inertia_blocks([p.R for p in state.poses])

        h = 1e-7
        omega = v[:3]
        r_plus = state.poses[0].R @ (np.eye(3) + h * hat3(omega))
        r_minus = state.poses[0].R @ (np.eye(3) - h * hat3(omega))
        mp = model.spatial_inertia_blocks([r_plus])[0]
        mm_ = model.spatial_inertia_blocks([r_minus])[0]
        mdot = (mp - mm_) / (2 * h)

        tdot = v @ blocks[0] @ vdot + 0.5 * v @ mdot @ v
        w = force_assembly(model, state.poses)[0]
        assert abs(tdot - v @ w) < 1e-7 * max(1.0, abs(v @ w))


class TestJointlessAccelerations:
    """Without joints the step skips the KKT solve: Vdot = M^-1 Q."""

    @pytest.mark.parametrize("group", ["se3", "so3xr3"])
    def test_matches_dense_kkt_solve(self, group):
        from screwmbs.bench import BUILDERS, build

        names = [n for n in BUILDERS if not build(n, group).model.joints]
        assert len(names) == 4
        rng = np.random.default_rng(99)
        for name in names:
            spec = build(name, group)
            states = [(spec.state0.poses, spec.state0.velocities),
                      ([se3_exp(rng.normal(size=6))], rng.normal(size=(1, 6)))]
            for poses, vel in states:
                kkt, rhs = assemble_index1(spec.model, poses, vel)
                dense, _ = solve_index1(spec.model, kkt, rhs)
                vdot = accelerations(spec.model, poses, vel)
                assert np.abs(vdot - dense).max() <= 1e-12 * np.abs(dense).max()


class TestDoublePendulumAssembly:
    @pytest.mark.parametrize("group", ["se3", "so3xr3"])
    def test_initial_accelerations_satisfy_constraint_rows(self, group):
        # substitute the solved accelerations back into both joints'
        # acceleration-constraint rows
        from screwmbs.bench import build
        from screwmbs.dynamics import joint_rows

        spec = build("double-pendulum", group)
        kkt, rhs = assemble_index1(spec.model, spec.state0.poses,
                                   spec.state0.velocities)
        vdot, _ = solve_index1(spec.model, kkt, rhs)
        for joint in spec.model.joints:
            blocks, eta = joint_rows(joint, spec.state0.poses,
                                     spec.state0.velocities, spec.model)
            jvdot = sum(blk @ vdot[i] for i, blk in blocks.items())
            assert np.abs(jvdot - eta).max() < 1e-10


class TestVelocityProjection:
    def test_consistent_state_unchanged(self):
        model = heavy_top_model(BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        out = project_velocities(model, state)
        assert_allclose(out.velocities, state.velocities, atol=1e-12)

    def test_projection_restores_consistency(self):
        model = heavy_top_model(BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        state.velocities = state.velocities + RNG.normal(size=(1, 6))
        assert velocity_residual(model, state) > 1e-3
        out = project_velocities(model, state)
        assert velocity_residual(model, out) < 1e-12

    def test_check_initial_state_raises(self):
        model = heavy_top_model(BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        state.velocities = state.velocities + 1.0
        with pytest.raises(InfeasibleStateError):
            check_initial_state(model, state)


class TestEnergy:
    def test_heavy_top_kinetic(self):
        model = heavy_top_model(BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        t_expected = 0.5 * (state.velocities[0, :3] @ TOP_BODY.inertia_ref
                            @ state.velocities[0, :3]
                            + 21.6 * state.velocities[0, 3:] @ state.velocities[0, 3:])
        assert_allclose(kinetic_energy(model, state), t_expected)

    def test_total_energy_conserved_value(self):
        # conserved total at the assembled configuration: T + U_g + spring
        model = heavy_top_model(BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        d = TOP_P0 - (-TOP_R0)
        expected = kinetic_energy(model, state) + 0.5 * TOP_C * d @ d
        assert_allclose(total_energy(model, state), expected, atol=1e-9)


class TestConstraintJacobianShape:
    def test_double_spherical_chain(self):
        b = RigidBody("link", 2.7, np.diag([0.0028125, 0.0095625, 0.01125]))
        joints = [
            Joint("spherical", None, 0, anchor_b=[-0.1, 0, 0], name="j1"),
            Joint("spherical", 0, 1, anchor_a=[0.1, 0, 0], anchor_b=[-0.1, 0, 0],
                  name="j2"),
        ]
        model = MbsModel([b, b], joints, [Gravity([0, 0, -GRAV])],
                         representation=BODY_FIXED)
        poses = [Pose(np.eye(3), np.array([0.1, 0, 0])),
                 Pose(np.eye(3), np.array([0.3, 0, 0]))]
        for j in joints:
            assert np.abs(joint_geometry(j, poses, model)).max() < 1e-15
        jac = constraint_jacobian(model, poses)
        assert jac.shape == (6, 12)
        assert np.linalg.matrix_rank(jac) == 6
