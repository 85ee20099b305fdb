import numpy as np
import pytest
from numpy.testing import assert_allclose

from screwmbs.dualquat import (
    DualQuaternion,
    dmat,
    dq_align,
    dq_from_pose,
    dq_mul,
    emat,
    euler_reconstruct_rates,
    h_body,
    h_euler_params,
    h_mixed,
    hamilton_minus,
    hamilton_plus,
    pose_from_dq,
    quat_conj,
    quat_from_rotation,
    quat_identity,
    quat_mul,
    reconstruct_rates,
    rotation_from_quat,
)
from screwmbs.liealg import Pose, se3_compose, se3_exp, so3_exp
from oracles import random_pose, random_screw

RNG = np.random.default_rng(99)


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_dq(rng) -> DualQuaternion:
    return dq_from_pose(random_pose(rng))


class TestQuaternionProduct:
    def test_identity(self):
        q = random_unit_quat(RNG)
        assert_allclose(quat_mul(q, quat_identity()), q)

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
        out = dq_mul(a, DualQuaternion.identity())
        assert_allclose(out.q, a.q)
        assert_allclose(out.qe, a.qe)

    def test_translations_add(self):
        t1, t2 = RNG.uniform(-1, 1, 3), RNG.uniform(-1, 1, 3)
        a = dq_from_pose(Pose(np.eye(3), t1))
        b = dq_from_pose(Pose(np.eye(3), t2))
        out = pose_from_dq(dq_mul(a, b))
        assert_allclose(out.r, t1 + t2, atol=1e-14)

    def test_homomorphic_to_pose_composition(self):
        # dq product maps to the 4x4 homogeneous product in the same order
        for _ in range(10):
            ca, cb = random_pose(RNG), random_pose(RNG)
            prod = pose_from_dq(dq_mul(dq_from_pose(ca), dq_from_pose(cb)))
            ref = se3_compose(ca, cb)
            assert_allclose(prod.R, ref.R, atol=1e-10)
            assert_allclose(prod.r, ref.r, atol=1e-10)

    def test_preserves_invariants(self):
        a, b = random_dq(RNG), random_dq(RNG)
        out = dq_mul(a, b)
        assert out.norm_defect() < 1e-10
        assert out.plucker_defect() < 1e-10


class TestRotationFromQuat:
    def test_identity(self):
        assert_allclose(rotation_from_quat(quat_identity()), np.eye(3))

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
        a = dq_from_pose(Pose.identity())
        assert_allclose(a.q, [1, 0, 0, 0])
        assert_allclose(a.qe, np.zeros(4))

    def test_half_translation_convention(self):
        a = dq_from_pose(Pose(np.eye(3), np.array([2.0, 0, 0])))
        assert_allclose(a.qe, [0, 1.0, 0, 0], atol=1e-15)

    def test_roundtrip(self):
        for _ in range(20):
            c = random_pose(RNG)
            out = pose_from_dq(dq_from_pose(c))
            assert_allclose(out.R, c.R, atol=1e-12)
            assert_allclose(out.r, c.r, atol=1e-12)

    def test_double_cover_same_pose(self):
        a = random_dq(RNG)
        p1, p2 = pose_from_dq(a), pose_from_dq(a.negated())
        assert_allclose(p1.R, p2.R, atol=0)
        assert_allclose(p1.r, p2.r, atol=0)

    def test_align_picks_nearest_sign(self):
        a = random_dq(RNG)
        assert dq_align(a.negated(), a).q @ a.q > 0


def _fd_rates(pose_of_t, t0, h=1e-6):
    """Sign-continuous central difference of the dual quaternion curve."""
    a0 = dq_from_pose(pose_of_t(t0))
    am = dq_align(dq_from_pose(pose_of_t(t0 - h)), a0)
    ap = dq_align(dq_from_pose(pose_of_t(t0 + h)), a0)
    return a0, (ap.as_vector() - am.as_vector()) / (2 * h)


class TestHMatrices:
    def test_body_twist_at_identity(self):
        omega = np.array([0.3, -1.1, 0.7])
        rates = np.concatenate([[0.0], omega / 2, np.zeros(4)])
        v = h_body(DualQuaternion.identity()) @ rates
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
        assert_allclose(reconstruct_rates(a, np.zeros(6)), np.zeros(8), atol=0)

    def test_identity_configuration(self):
        v = np.array([0.4, -0.2, 0.9, 1.0, 2.0, -0.5])
        rates = reconstruct_rates(DualQuaternion.identity(), v)
        assert_allclose(rates[:4], np.concatenate([[0.0], v[:3] / 2]), atol=1e-14)
        assert_allclose(h_body(DualQuaternion.identity()) @ rates, v, atol=1e-14)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_residual_and_tangency(self, mixed):
        for _ in range(10):
            a = random_dq(RNG)
            v = RNG.uniform(-2, 2, 6)
            rates = reconstruct_rates(a, v, mixed=mixed)
            h = h_mixed(a) if mixed else h_body(a)
            assert np.abs(h @ rates - v).max() < 1e-12
            assert abs(a.q @ rates[:4]) < 1e-12
            assert abs(rates[:4] @ a.qe + a.q @ rates[4:]) < 1e-12

    def test_euler_params(self):
        q = random_unit_quat(RNG)
        r = RNG.uniform(-1, 1, 3)
        v = RNG.uniform(-2, 2, 6)
        rates = euler_reconstruct_rates(q, r, v)
        assert np.abs(h_euler_params(q) @ rates - v).max() < 1e-12
        assert abs(q @ rates[:4]) < 1e-13
        assert_allclose(rates[4:], v[3:], atol=0)


def solve_rates(a: DualQuaternion, v, mixed: bool = False) -> np.ndarray:
    """Reference: the 6x8 map augmented with the normalization and Pluecker
    gradient rows, solved as a dense square system."""
    m = np.zeros((8, 8))
    m[:6] = h_mixed(a) if mixed else h_body(a)
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


class TestClosedFormAgainstSolve:
    """The closed-form inverse equals the augmented solve off the unit
    sphere, where the RK stages evaluate it."""

    RTOL = 1e-12

    def assert_close(self, out, ref):
        out = np.asarray(out)
        assert np.abs(out - ref).max() <= self.RTOL * np.abs(ref).max()

    @pytest.mark.parametrize("mixed", [False, True])
    def test_dual_quaternion_rates(self, mixed):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = off_unit_dq(rng)
            v = rng.uniform(-2, 2, 6)
            self.assert_close(reconstruct_rates(a, v, mixed=mixed),
                              solve_rates(a, v, mixed=mixed))

    def test_euler_rates(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            q = random_unit_quat(rng) * rng.uniform(0.5, 2.0)
            v = rng.uniform(-2, 2, 6)
            self.assert_close(euler_reconstruct_rates(q, rng.normal(size=3), v),
                              solve_euler_rates(q, v))

    def test_float_sequences_accepted(self):
        a = off_unit_dq(np.random.default_rng(19))
        v = np.array([0.3, -0.1, 0.7, 1.0, -2.0, 0.5])
        rates = reconstruct_rates(DualQuaternion(a.q.tolist(), a.qe.tolist()), v.tolist())
        assert rates == reconstruct_rates(a, v)
        assert all(type(x) is float for x in rates)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_zero_rotation_quaternion_raises(self, mixed):
        a = DualQuaternion(np.zeros(4), np.array([0.1, 0.2, 0.3, 0.4]))
        with pytest.raises(ValueError) as info:
            reconstruct_rates(a, np.ones(6), mixed=mixed)
        assert not isinstance(info.value, ZeroDivisionError)

    def test_zero_euler_quaternion_raises(self):
        with pytest.raises(ValueError):
            euler_reconstruct_rates(np.zeros(4), np.zeros(3), np.ones(6))

    def test_zero_rotation_quaternion_has_no_pose(self):
        with pytest.raises(ValueError):
            pose_from_dq(DualQuaternion(np.zeros(4), np.zeros(4)))

    def test_pose_from_dq_off_unit(self):
        # R from Q / |Q|, r = 2 vec(Qe Q*) with the unscaled Q
        rng = np.random.default_rng(20)
        for _ in range(50):
            a = off_unit_dq(rng)
            pose = pose_from_dq(a)
            assert_allclose(pose.R, rotation_from_quat(a.q / np.linalg.norm(a.q)),
                            rtol=0, atol=1e-14)
            assert_allclose(pose.r, 2.0 * quat_mul(a.qe, quat_conj(a.q))[1:],
                            rtol=0, atol=1e-14)


class TestInvariantPreservation:
    def test_rk4_constant_twist_keeps_invariants(self):
        # integrate dA/dt = reconstruct_rates(A, V) for 1 s at dt = 1e-3
        v = random_screw(RNG, angle_hi=1.5)
        y = DualQuaternion.identity().as_vector()
        dt = 1e-3

        def f(yv):
            return np.asarray(reconstruct_rates(DualQuaternion.from_vector(yv), v))

        for _ in range(1000):
            k1 = f(y)
            k2 = f(y + dt / 2 * k1)
            k3 = f(y + dt / 2 * k2)
            k4 = f(y + dt * k3)
            y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        a = DualQuaternion.from_vector(y)
        assert a.norm_defect() < 1e-8
        assert a.plucker_defect() < 1e-8
        # the reconstructed motion is the constant-twist screw motion
        ref = se3_exp(1.0 * v)
        out = pose_from_dq(a)
        assert_allclose(out.R, ref.R, atol=1e-9)
        assert_allclose(out.r, ref.r, atol=1e-9)


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
