import numpy as np
import pytest
from numpy.testing import assert_allclose

from screwmbs.dualquat import (
    dq_from_pose,
    euler_reconstruct_rates,
    pose_from_dq,
    quat_from_rotation,
    quat_mul,
    reconstruct_rates,
)
from screwmbs.integrate import _step, tableau_rk4
from screwmbs.liealg import SE3, Pose, se3_compose, se3_exp, so3_exp
from oracles import (
    DualQuaternion,
    dmat,
    dq_align,
    dq_mul,
    dq_negated,
    emat,
    h_body,
    h_euler_params,
    h_mixed,
    hamilton_minus,
    hamilton_plus,
    quat_conj,
    random_pose,
    reference_pose_from_dq,
    random_screw,
    rotation_from_quat,
)

RNG = np.random.default_rng(99)
QUAT_ONE = np.array([1.0, 0.0, 0.0, 0.0])
DQ_ONE = DualQuaternion(QUAT_ONE, np.zeros(4))


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_dq(rng) -> DualQuaternion:
    return DualQuaternion.from_vector(dq_from_pose(random_pose(rng)))


class TestQuaternionProduct:
    def test_identity(self):
        q = random_unit_quat(RNG)
        assert_allclose(quat_mul(q, QUAT_ONE), q)

    def test_basis_product(self):
        ex = np.array([0, 1.0, 0, 0])
        ey = np.array([0, 0, 1.0, 0])
        assert_allclose(quat_mul(ex, ey), [0, 0, 0, 1.0])

    def test_hamilton_forms_agree(self):
        for _ in range(20):
            q, p = RNG.normal(size=4), RNG.normal(size=4)
            prod = quat_mul(q, p)
            assert_allclose(hamilton_plus(q) @ p, prod, atol=1e-14)
            assert_allclose(hamilton_minus(p) @ q, prod, atol=1e-14)


class TestDqProduct:
    def test_identity(self):
        a = random_dq(RNG)
        out = dq_mul(a, DQ_ONE)
        assert_allclose(out.q, a.q)
        assert_allclose(out.qe, a.qe)

    def test_translations_add(self):
        t1, t2 = RNG.uniform(-1, 1, 3), RNG.uniform(-1, 1, 3)
        a = DualQuaternion.from_vector(dq_from_pose(Pose(np.eye(3), t1)))
        b = DualQuaternion.from_vector(dq_from_pose(Pose(np.eye(3), t2)))
        out = Pose(*map(np.array, pose_from_dq(dq_mul(a, b).as_vector())))
        assert_allclose(out.r, t1 + t2, atol=1e-14)

    def test_homomorphic_to_pose_composition(self):
        # dq product maps to the 4x4 homogeneous product in the same order
        for _ in range(10):
            ca, cb = random_pose(RNG), random_pose(RNG)
            a, b = (DualQuaternion.from_vector(dq_from_pose(c)) for c in (ca, cb))
            prod = Pose(*map(np.array, pose_from_dq(dq_mul(a, b).as_vector())))
            ref = se3_compose(ca, cb)
            assert_allclose(prod.R, ref.R, atol=1e-10)
            assert_allclose(prod.r, ref.r, atol=1e-10)

    def test_preserves_invariants(self):
        a, b = random_dq(RNG), random_dq(RNG)
        out = dq_mul(a, b)
        assert abs(np.linalg.norm(out.q) - 1.0) < 1e-10
        assert abs(out.q @ out.qe) < 1e-10


class TestRotationFromQuat:
    def test_identity(self):
        assert_allclose(rotation_from_quat(QUAT_ONE), np.eye(3))

    def test_axis_angle_correspondence(self):
        theta = 0.8741
        q = np.array([np.cos(theta / 2), 0, 0, np.sin(theta / 2)])
        assert_allclose(rotation_from_quat(q), so3_exp([0, 0, theta]), atol=1e-13)

    def test_orthogonal(self):
        for _ in range(20):
            r = rotation_from_quat(random_unit_quat(RNG))
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-13

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            rotation_from_quat([1.0, 0.1, 0, 0])

    def test_double_cover(self):
        q = random_unit_quat(RNG)
        assert_allclose(rotation_from_quat(-q), rotation_from_quat(q), atol=0)

    def test_de_identities(self):
        q = random_unit_quat(RNG)
        assert_allclose(dmat(q) @ q, np.zeros(3), atol=1e-15)
        assert_allclose(emat(q) @ q, np.zeros(3), atol=1e-15)
        assert_allclose(dmat(q).T @ dmat(q), np.eye(4) - np.outer(q, q), atol=1e-13)


class TestPoseConversion:
    def test_identity(self):
        a = DualQuaternion.from_vector(dq_from_pose(Pose.identity()))
        assert_allclose(a.q, [1, 0, 0, 0])
        assert_allclose(a.qe, np.zeros(4))

    def test_half_translation_convention(self):
        a = DualQuaternion.from_vector(dq_from_pose(Pose(np.eye(3), np.array([2.0, 0, 0]))))
        assert_allclose(a.qe, [0, 1.0, 0, 0], atol=1e-15)

    def test_flat_floats(self):
        # the chart's pack: 8 floats, the bits of the dual quaternion algebra
        c = random_pose(RNG)
        a = dq_from_pose(c)
        assert type(a) is list and len(a) == 8 and all(type(x) is float for x in a)
        q = quat_from_rotation(c.R)
        qe = 0.5 * quat_mul(np.concatenate([[0.0], c.r]), q)
        assert np.array(a).tobytes() == np.concatenate([q, qe]).tobytes()

    def test_roundtrip(self):
        for _ in range(20):
            c = random_pose(RNG)
            out = Pose(*map(np.array, pose_from_dq(dq_from_pose(c))))
            assert_allclose(out.R, c.R, atol=1e-12)
            assert_allclose(out.r, c.r, atol=1e-12)

    def test_double_cover_same_pose(self):
        a = random_dq(RNG)
        p1, p2 = (Pose(*map(np.array, pose_from_dq(b.as_vector()))) for b in (a, dq_negated(a)))
        assert_allclose(p1.R, p2.R, atol=0)
        assert_allclose(p1.r, p2.r, atol=0)

    def test_align_picks_nearest_sign(self):
        a = random_dq(RNG)
        assert dq_align(dq_negated(a), a).q @ a.q > 0


def _fd_rates(pose_of_t, t0, h=1e-6):
    """Sign-continuous central difference of the dual quaternion curve."""
    a0, am, ap = (DualQuaternion.from_vector(dq_from_pose(pose_of_t(t)))
                  for t in (t0, t0 - h, t0 + h))
    am, ap = dq_align(am, a0), dq_align(ap, a0)
    return a0, (ap.as_vector() - am.as_vector()) / (2 * h)


class TestHMatrices:
    def test_body_twist_at_identity(self):
        omega = np.array([0.3, -1.1, 0.7])
        rates = np.concatenate([[0.0], omega / 2, np.zeros(4)])
        v = h_body(DQ_ONE) @ rates
        assert_allclose(v, np.concatenate([omega, np.zeros(3)]), atol=1e-15)

    def test_euler_params_translation_block(self):
        q = random_unit_quat(RNG)
        assert_allclose(h_euler_params(q)[3:, 4:], np.eye(3), atol=0)

    def test_finite_difference_oracle(self):
        # V = H @ Adot must match the twist of C(t) = C0 exp(t V) by
        # construction of the trajectory
        for _ in range(5):
            c0 = random_pose(RNG)
            v_true = RNG.uniform(-1, 1, 6)

            def pose_of_t(t):
                # C(t) = C0 exp(t V): body-fixed twist is v_true
                return se3_compose(c0, se3_exp(t * v_true))

            a0, rates = _fd_rates(pose_of_t, 0.2345)
            assert_allclose(h_body(a0) @ rates, v_true, atol=1e-6)
            c = pose_of_t(0.2345)
            v_mixed = np.concatenate([v_true[:3], c.R @ v_true[3:]])
            assert_allclose(h_mixed(a0) @ rates, v_mixed, atol=1e-6)


class TestReconstructRates:
    def test_zero_velocity(self):
        a = random_dq(RNG)
        assert_allclose(reconstruct_rates(a.as_vector(), np.zeros(6)), np.zeros(8), atol=0)

    def test_identity_configuration(self):
        v = np.array([0.4, -0.2, 0.9, 1.0, 2.0, -0.5])
        rates = reconstruct_rates(DQ_ONE.as_vector(), v)
        assert_allclose(rates[:4], np.concatenate([[0.0], v[:3] / 2]), atol=1e-14)
        assert_allclose(h_body(DQ_ONE) @ rates, v, atol=1e-14)

    def test_residual_and_tangency(self):
        for _ in range(10):
            a = random_dq(RNG)
            v = RNG.uniform(-2, 2, 6)
            rates = reconstruct_rates(a.as_vector(), v)
            assert np.abs(h_body(a) @ rates - v).max() < 1e-12
            assert abs(a.q @ rates[:4]) < 1e-12
            assert abs(rates[:4] @ a.qe + a.q @ rates[4:]) < 1e-12

    def test_euler_params(self):
        q = random_unit_quat(RNG)
        r = RNG.uniform(-1, 1, 3)
        v = RNG.uniform(-2, 2, 6)
        rates = euler_reconstruct_rates(np.concatenate([q, r]), v)
        assert np.abs(h_euler_params(q) @ rates - v).max() < 1e-12
        assert abs(q @ rates[:4]) < 1e-13
        assert_allclose(rates[4:], v[3:], atol=0)


def solve_rates(a: DualQuaternion, v) -> np.ndarray:
    """Reference: the 6x8 body map augmented with the normalization and
    Pluecker gradient rows, solved as a dense square system."""
    m = np.zeros((8, 8))
    m[:6] = h_body(a)
    m[6, :4] = a.q
    m[7, :4] = a.qe
    m[7, 4:] = a.q
    rhs = np.zeros(8)
    rhs[:6] = v
    return np.linalg.solve(m, rhs)


def solve_euler_rates(q, v) -> np.ndarray:
    """Reference: the 6x7 map augmented with the norm gradient row."""
    m = np.zeros((7, 7))
    m[:6] = h_euler_params(q)
    m[6, :4] = q
    rhs = np.zeros(7)
    rhs[:6] = v
    return np.linalg.solve(m, rhs)


def off_unit_dq(rng) -> DualQuaternion:
    """|Q| in [0.5, 2] and an unconstrained dual part, like RK stage values."""
    q = random_unit_quat(rng) * rng.uniform(0.5, 2.0)
    return DualQuaternion(q, rng.normal(size=4))


def half_a_v(a: DualQuaternion, v) -> np.ndarray:
    """Reference: 1/2 A V with the body twist V = (omega, v) as the dual
    quaternion of two pure quaternions, by the dual-quaternion product."""
    twist = DualQuaternion(np.concatenate([[0.0], v[:3]]), np.concatenate([[0.0], v[3:]]))
    return 0.5 * dq_mul(a, twist).as_vector()


class TestClosedFormAgainstSolve:
    """The closed-form rates against independent references off the unit
    sphere, where the RK stages evaluate them: 1/2 A V by the dual-quaternion
    product everywhere, and the augmented solve on the unit sphere, where
    the two agree."""

    RTOL = 1e-12

    def assert_close(self, out, ref, rtol=RTOL):
        out = np.asarray(out)
        assert np.abs(out - ref).max() <= rtol * np.abs(ref).max()

    def test_dual_quaternion_rates(self):
        # on the invariants, the constrained right inverse of H is 1/2 A V
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = random_dq(rng)
            v = rng.uniform(-2, 2, 6)
            self.assert_close(reconstruct_rates(a.as_vector(), v), solve_rates(a, v))

    def test_rates_are_half_a_v(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            a = off_unit_dq(rng)
            v = rng.uniform(-2, 2, 6)
            self.assert_close(reconstruct_rates(a.as_vector(), v), half_a_v(a, v), rtol=1e-14)

    def test_rates_tangent_to_invariants(self):
        # d|Q|^2/dt = 2 Q . Qdot and d(Q . Qe)/dt = Qdot . Qe + Q . Qedot
        rng = np.random.default_rng(23)
        for _ in range(200):
            a = off_unit_dq(rng)
            rates = np.array(reconstruct_rates(a.as_vector(), rng.uniform(-2, 2, 6)))
            scale = np.abs(a.as_vector()).max() * np.abs(rates).max()
            assert abs(a.q @ rates[:4]) <= 1e-15 * scale
            assert abs(rates[:4] @ a.qe + a.q @ rates[4:]) <= 1e-15 * scale

    def test_euler_rates(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            q = random_unit_quat(rng) * rng.uniform(0.5, 2.0)
            v = rng.uniform(-2, 2, 6)
            self.assert_close(euler_reconstruct_rates(np.concatenate([q, rng.normal(size=3)]), v),
                              solve_euler_rates(q, v))

    def test_float_sequences_accepted(self):
        a = off_unit_dq(np.random.default_rng(19))
        v = np.array([0.3, -0.1, 0.7, 1.0, -2.0, 0.5])
        rates = reconstruct_rates(a.as_vector().tolist(), v.tolist())
        assert rates == reconstruct_rates(a.as_vector(), v)
        assert all(type(x) is float for x in rates)

    def test_rates_defined_at_zero_rotation_quaternion(self):
        # 1/2 A V is linear in A: Q = 0 has rates, but no pose
        a = DualQuaternion(np.zeros(4), np.array([0.1, 0.2, 0.3, 0.4]))
        v = np.array([0.3, -0.1, 0.7, 1.0, -2.0, 0.5])
        assert_allclose(reconstruct_rates(a.as_vector(), v), half_a_v(a, v), rtol=0, atol=1e-16)

    def test_zero_euler_quaternion_raises(self):
        with pytest.raises(ValueError):
            euler_reconstruct_rates(np.zeros(7), np.ones(6))

    def test_zero_rotation_quaternion_has_no_pose(self):
        with pytest.raises(ValueError) as info:
            pose_from_dq([0.0] * 4 + [0.1, 0.2, 0.3, 0.4])
        assert not isinstance(info.value, ZeroDivisionError)

    def test_pose_from_dq_off_unit(self):
        # the pose of A / |A|: R from Q / |Q|, r = 2 vec(Qe Q*) / |Q|^2
        rng = np.random.default_rng(20)
        for _ in range(50):
            a = off_unit_dq(rng)
            n = np.linalg.norm(a.q)
            pose = Pose(*map(np.array, pose_from_dq(a.as_vector())))
            assert_allclose(pose.R, rotation_from_quat(a.q / n), rtol=0, atol=1e-14)
            assert_allclose(pose.r, 2.0 * quat_mul(a.qe / n, quat_conj(a.q / n))[1:],
                            rtol=0, atol=1e-14)


    def test_pose_from_dq_pair_has_the_pose_bits(self):
        # the (R rows, r) float pair the step loop reads carries the bits
        # of the Pose entries pose_from_dq returned before
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = off_unit_dq(rng)
            rows, r = pose_from_dq(a.as_vector().tolist())
            ref = reference_pose_from_dq(a)
            assert np.array(rows).tobytes() == ref.R.tobytes()
            assert np.array(r).tobytes() == ref.r.tobytes()
            assert all(type(x) is float for x in (*r, *(x for row in rows for x in row)))


class TestInvariantPreservation:
    def test_rk4_constant_twist_keeps_invariants(self):
        # integrate dA/dt = reconstruct_rates(A, V) for 1 s at dt = 1e-3
        v = random_screw(RNG, angle_hi=1.5)
        y = DQ_ONE.as_vector()
        dt = 1e-3

        def f(yv):
            return np.asarray(reconstruct_rates(yv, v))

        for _ in range(1000):
            k1 = f(y)
            k2 = f(y + dt / 2 * k1)
            k3 = f(y + dt / 2 * k2)
            k4 = f(y + dt * k3)
            y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        a = DualQuaternion(y[:4], y[4:])
        assert abs(np.linalg.norm(a.q) - 1.0) < 1e-8
        assert abs(a.q @ a.qe) < 1e-8
        # the reconstructed motion is the constant-twist screw motion
        ref = se3_exp(1.0 * v)
        out = Pose(*map(np.array, pose_from_dq(y)))
        assert_allclose(out.R, ref.R, atol=1e-9)
        assert_allclose(out.r, ref.r, atol=1e-9)


# grounded joints off the origin, at the body point ANCHOR with the body axis
# AXIS; the joint's coset passes through the pose (R0, T0), where the ground
# point is POINT and the ground axis U
ANCHOR = np.array([0.3, -0.2, 0.5])
AXIS = np.array([0.2, 0.9, -0.4]) / np.linalg.norm([0.2, 0.9, -0.4])
NORMAL = np.cross(AXIS, [1.0, 0.0, 0.0]) / np.linalg.norm(np.cross(AXIS, [1.0, 0.0, 0.0]))
R0, T0 = so3_exp([0.4, -0.7, 0.2]), np.array([0.8, -0.3, 1.1])
POINT, U = T0 + R0 @ ANCHOR, R0 @ AXIS


def _rate(t):
    return 1.3 + 0.8 * np.sin(3.0 * t)


def _omega(t):
    return np.array([0.9 * np.cos(2.0 * t), -0.5 + 0.3 * t, 1.1 * np.sin(t)])


# per joint: a smooth body twist in its subalgebra, a direction outside it,
# and the pose's distance from the coset
SUBGROUPS = {
    "revolute": (lambda t: np.concatenate([_rate(t) * AXIS, -np.cross(_rate(t) * AXIS, ANCHOR)]),
                 np.concatenate([NORMAL, np.zeros(3)]),
                 lambda rot, r: max(np.linalg.norm(r + rot @ ANCHOR - POINT),
                                    np.linalg.norm(rot @ AXIS - U))),
    "spherical": (lambda t: np.concatenate([_omega(t), -np.cross(_omega(t), ANCHOR)]),
                  np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
                  lambda rot, r: np.linalg.norm(r + rot @ ANCHOR - POINT)),
    "prismatic": (lambda t: np.concatenate([np.zeros(3), _rate(t) * AXIS]),
                  np.concatenate([np.zeros(3), NORMAL]),
                  lambda rot, r: max(np.abs(rot - R0).max(), np.linalg.norm(np.cross(r - T0, U)))),
}


def dq_chart_distance(twist, distance, dt, t_final=1.0) -> float:
    """Largest coset distance along an RK4 run of the quaternion chart for
    one body with the prescribed body twist ``twist(t)``: the chart's maps
    on the generated step with no Lie part and width 8, from (R0, T0)."""
    tab = tableau_rk4()
    step = _step(tab._deps, tab._weights, tab._nodes, 0, 8)

    def rhs(j, tj, stage, y):
        return (), reconstruct_rates(y, twist(tj).tolist())

    y, comp, worst = dq_from_pose(Pose(R0, T0)), [0.0] * 8, 0.0
    for k in range(round(t_final / dt)):
        _, y, comp = step(SE3, [], y, comp, k * dt, dt, rhs)
        rot, r = pose_from_dq(y)
        worst = max(worst, distance(np.array(rot), np.array(r)))
    return worst


class TestKinematicCosets:
    """A body twist in a grounded joint's subalgebra keeps the pose on the
    joint's coset to roundoff: each coset is a linear subspace in (Q, Qe),
    and 1/2 A V maps it into itself."""

    @pytest.mark.parametrize("dt", [0.02, 0.01])
    @pytest.mark.parametrize("joint", sorted(SUBGROUPS))
    def test_subalgebra_twist_stays_on_coset(self, joint, dt):
        twist, _, distance = SUBGROUPS[joint]
        assert dq_chart_distance(twist, distance, dt) < 1e-14

    @pytest.mark.parametrize("joint", sorted(SUBGROUPS))
    def test_component_outside_leaves_at_first_order(self, joint):
        twist, leak, distance = SUBGROUPS[joint]
        d1, d2 = (dq_chart_distance(lambda t: twist(t) + eps * leak, distance, 0.02)
                  for eps in (1e-4, 2e-4))
        assert d1 > 1e-5 and abs(d2 / d1 - 2.0) < 1e-3


class TestQuatFromRotation:
    def test_roundtrip_all_trace_branches(self):
        mats = [
            so3_exp([0.1, 0.2, 0.3]),
            so3_exp([3.0, 0.1, 0]),
            so3_exp([0.1, 3.0, 0]),
            so3_exp([0, 0.1, 3.0]),
        ]
        for r in mats:
            assert_allclose(rotation_from_quat(quat_from_rotation(r)), r, atol=1e-13)

    def test_body_omega_uses_e_matrix(self):
        # sanity pin for the angular row convention: body omega = 2 E(Q) Qdot
        xi0 = np.array([0.7, -0.4, 0.2])
        om = np.array([0.25, 0.5, -0.75])
        h = 1e-6
        qp = quat_from_rotation(so3_exp(xi0) @ so3_exp(h * om))
        qm = quat_from_rotation(so3_exp(xi0) @ so3_exp(-h * om))
        if qp @ qm < 0:
            qm = -qm
        qdot = (qp - qm) / (2 * h)
        q0 = quat_from_rotation(so3_exp(xi0))
        if q0 @ qp < 0:
            q0 = -q0
        assert_allclose(2 * emat(q0) @ qdot, om, atol=1e-8)
