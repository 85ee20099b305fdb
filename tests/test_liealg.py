import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import block_diag

from screwmbs import liealg
from screwmbs.liealg import (
    SE3,
    SO3R3,
    BranchCutError,
    PoleError,
    Pose,
    dp_compose,
    dp_dexpinv,
    dp_exp,
    dp_inverse,
    dp_log,
    hat3,
    mixed_twist_matrix,
    se3_ad,
    se3_bracket,
    se3_compose,
    se3_dexp,
    se3_dexpinv,
    se3_dexpinv_adpoly,
    se3_exp,
    se3_hat,
    se3_inverse,
    se3_log,
    so3_dexp,
    so3_dexpinv,
    so3_exp,
    so3_log,
    three_angle_rates_matrix,
)
from oracles import (
    central_diff,
    dp_matrix,
    expm_se3,
    expm_so3,
    random_pose,
    random_screw,
    se3_dexp_series,
    so3_dexp_series,
    vee3,
)

RNG = np.random.default_rng(20240817)


def rotation_vectors(max_angle=3.0):
    return st.builds(
        lambda u, a: np.array(u) / np.linalg.norm(u) * a,
        st.tuples(*[st.floats(-1, 1) for _ in range(3)]).filter(
            lambda u: np.linalg.norm(u) > 0.1
        ),
        st.floats(1e-6, max_angle),
    )


class TestHat3:
    def test_zero(self):
        assert_allclose(hat3([0, 0, 0]), np.zeros((3, 3)))

    def test_basis_rotation(self):
        assert_allclose(hat3([0, 0, 1]) @ [1, 0, 0], [0, 1, 0])

    def test_cross_product(self):
        assert_allclose(hat3([1, 2, 3]) @ [4, 5, 6], [-3, 6, -3])

    def test_skew(self):
        for _ in range(5):
            m = hat3(RNG.normal(size=3))
            assert_allclose(m, -m.T)


class TestSo3Exp:
    def test_identity(self):
        assert_allclose(so3_exp([0, 0, 0]), np.eye(3))

    def test_quarter_turn(self):
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1.0]])
        assert_allclose(so3_exp([0, 0, math.pi / 2]), expected, atol=1e-15)

    def test_matches_expm_oracle(self):
        for _ in range(50):
            xi = RNG.normal(size=3)
            xi *= RNG.uniform(0.1, 3.0) / np.linalg.norm(xi)
            assert_allclose(so3_exp(xi), expm_so3(xi), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(rotation_vectors(max_angle=math.pi - 1e-3))
    def test_orthonormal_and_roundtrip(self, xi):
        r = so3_exp(xi)
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12
        assert_allclose(so3_log(r), xi, atol=1e-10)


class TestSo3Log:
    def test_identity(self):
        assert_allclose(so3_log(np.eye(3)), [0, 0, 0])

    def test_roundtrip(self):
        xi = np.array([0.3, -0.2, 0.1])
        assert_allclose(so3_log(so3_exp(xi)), xi, atol=1e-12)

    def test_near_branch_cut(self):
        assert_allclose(so3_log(so3_exp([3.0, 0, 0])), [3.0, 0, 0], atol=1e-10)

    def test_rejects_pi(self):
        with pytest.raises(BranchCutError):
            so3_log(so3_exp([math.pi, 0, 0]))


class TestSo3Dexp:
    def test_identity(self):
        assert_allclose(so3_dexp([0, 0, 0]), np.eye(3))

    def test_eigenvector_property(self):
        for _ in range(10):
            xi = RNG.normal(size=3) * RNG.uniform(0.1, 2.0)
            assert_allclose(so3_dexp(xi) @ xi, xi, atol=1e-13)

    def test_matches_series(self):
        for _ in range(20):
            xi = RNG.normal(size=3)
            xi *= RNG.uniform(0.05, 0.95) / np.linalg.norm(xi)
            assert_allclose(so3_dexp(xi), so3_dexp_series(xi), atol=1e-10)

    def test_velocity_reconstruction_direction(self):
        # omega = so3_dexp(-xi) @ xidot must reproduce R^T Rdot along a curve
        xi0 = np.array([0.4, -0.3, 0.6])
        xidot = np.array([0.2, 0.5, -0.1])
        omega = so3_dexp(-xi0) @ xidot
        rdot = central_diff(lambda t: so3_exp(xi0 + t * xidot), 0.0)
        assert_allclose(vee3(so3_exp(xi0).T @ rdot), omega, atol=1e-8)


class TestSo3Dexpinv:
    def test_identity(self):
        assert_allclose(so3_dexpinv([0, 0, 0]), np.eye(3))

    def test_inverse_of_dexp(self):
        for _ in range(30):
            xi = RNG.normal(size=3)
            xi *= RNG.uniform(1e-3, math.pi) / np.linalg.norm(xi)
            assert_allclose(so3_dexpinv(xi) @ so3_dexp(xi), np.eye(3), atol=1e-12)

    def test_second_order_approximation(self):
        # dexpinv(y) ~ y - ad y/2 + ad^2 y/12 up to O(|xi|^4)
        for scale in (1e-2, 1e-3):
            xi = np.array([0.3, -0.5, 0.8]) * scale
            h = hat3(xi)
            approx = np.eye(3) - h / 2 + (h @ h) / 12
            assert np.abs(so3_dexpinv(xi) - approx).max() < np.linalg.norm(xi) ** 4

    def test_pole_error(self):
        with pytest.raises(PoleError):
            so3_dexpinv([2 * math.pi, 0, 0])


class TestSe3Exp:
    def test_identity(self):
        c = se3_exp(np.zeros(6))
        assert_allclose(c.R, np.eye(3))
        assert_allclose(c.r, np.zeros(3))

    def test_pure_translation(self):
        c = se3_exp([0, 0, 0, 1, 2, 3])
        assert_allclose(c.R, np.eye(3))
        assert_allclose(c.r, [1, 2, 3])

    def test_matches_expm_oracle(self):
        for _ in range(50):
            x = random_screw(RNG, angle_hi=3.0)
            c = se3_exp(x)
            ref = expm_se3(x)
            assert_allclose(c.R, ref.R, atol=1e-12)
            assert_allclose(c.r, ref.r, atol=1e-12)

    def test_pitch_form(self):
        # translation part equals (I - exp xi)(xi x eta)/|xi|^2 + h xi
        x = random_screw(RNG)
        xi, eta = x[:3], x[3:]
        n2 = xi @ xi
        h = xi @ eta / n2
        r = (np.eye(3) - so3_exp(xi)) @ np.cross(xi, eta) / n2 + h * xi
        assert_allclose(se3_exp(x).r, r, atol=1e-13)


class TestSe3Log:
    def test_identity(self):
        assert_allclose(se3_log(Pose.identity()), np.zeros(6))

    def test_roundtrip(self):
        for _ in range(30):
            x = random_screw(RNG, angle_hi=2.9)
            assert_allclose(se3_log(se3_exp(x)), x, atol=1e-10)

    def test_pure_translation(self):
        assert_allclose(se3_log(Pose(np.eye(3), np.array([0.5, 0, 0]))),
                        [0, 0, 0, 0.5, 0, 0])


class TestSe3Ad:
    def test_zero(self):
        assert_allclose(se3_ad(np.zeros(6)), np.zeros((6, 6)))

    def test_antisymmetry(self):
        for _ in range(10):
            x = random_screw(RNG)
            assert_allclose(se3_ad(x) @ x, np.zeros(6), atol=1e-14)

    def test_matches_matrix_commutator(self):
        for _ in range(20):
            x1, x2 = random_screw(RNG), random_screw(RNG)
            comm = se3_hat(x1) @ se3_hat(x2) - se3_hat(x2) @ se3_hat(x1)
            assert_allclose(se3_hat(se3_ad(x1) @ x2), comm, atol=1e-13)

    def test_jacobi_identity(self):
        for _ in range(20):
            a, b, c = (random_screw(RNG) for _ in range(3))
            s = (se3_bracket(a, se3_bracket(b, c))
                 + se3_bracket(b, se3_bracket(c, a))
                 + se3_bracket(c, se3_bracket(a, b)))
            assert np.abs(s).max() < 1e-12


class TestSe3Dexp:
    def test_identity(self):
        assert_allclose(se3_dexp(np.zeros(6)), np.eye(6))

    def test_pure_rotation_matches_series(self):
        for _ in range(10):
            x = random_screw(RNG, angle_lo=0.05, angle_hi=0.9)
            x[3:] = 0.0
            assert_allclose(se3_dexp(x), se3_dexp_series(x), atol=1e-10)

    def test_matches_series(self):
        for _ in range(30):
            x = random_screw(RNG, angle_lo=0.05, angle_hi=0.6, eta_scale=0.4)
            assert_allclose(se3_dexp(x), se3_dexp_series(x), atol=1e-10)

    def test_direction_identity(self):
        for _ in range(10):
            x = random_screw(RNG)
            assert_allclose(se3_dexp(x) @ x, x, atol=1e-13)


class TestSe3Dexpinv:
    def test_identity(self):
        assert_allclose(se3_dexpinv(np.zeros(6)), np.eye(6))

    def test_inverse_of_dexp(self):
        for _ in range(30):
            x = random_screw(RNG, angle_lo=1e-3, angle_hi=2 * math.pi - 0.1)
            assert_allclose(se3_dexpinv(x) @ se3_dexp(x), np.eye(6), atol=1e-12)

    def test_matches_adpoly_form(self):
        for _ in range(30):
            x = random_screw(RNG, angle_lo=1e-5, angle_hi=math.pi)
            assert_allclose(se3_dexpinv(x), se3_dexpinv_adpoly(x), atol=1e-10)

    def test_direction_identity(self):
        for _ in range(10):
            x = random_screw(RNG)
            assert_allclose(se3_dexpinv(x) @ x, x, atol=1e-13)

    def test_pole_error(self):
        with pytest.raises(PoleError):
            se3_dexpinv(np.array([2 * math.pi, 0, 0, 0.1, 0, 0]))


class TestDexpinvApply:
    """The stage loops' dexpinv-times-vector product, whose columns are the
    groups' dexpinv matrices, against independently built matrices."""

    @pytest.mark.parametrize("group", [SE3, SO3R3], ids=lambda g: g.name)
    def test_matches_matrix_product(self, group):
        # the ad-polynomial form and the inverse of dexp on SE(3), the inverse
        # of so3_dexp beside I on SO(3)xR3; near the pole these references
        # are only accurate to about eps times their largest entry
        for lo, hi in ((1e-7, liealg.SMALL_ANGLE), (liealg.SMALL_ANGLE, 0.25),
                       (0.25, 2 * math.pi - 0.1)):
            for _ in range(20):
                x = random_screw(RNG, angle_lo=lo, angle_hi=hi)
                v = RNG.normal(size=6)
                if group is SE3:
                    refs = (se3_dexpinv_adpoly(x), np.linalg.inv(se3_dexp(x)))
                else:
                    refs = (block_diag(np.linalg.inv(so3_dexp(x[:3])), np.eye(3)),)
                for m in refs:
                    assert_allclose(group.dexpinv_apply(x, v), m @ v, rtol=0,
                                    atol=1e-13 * (1 + np.abs(m).max() * np.abs(v).max()))

    @pytest.mark.parametrize("group", [SE3, SO3R3], ids=lambda g: g.name)
    def test_accepts_float_sequences(self, group):
        x = random_screw(RNG)
        v = RNG.normal(size=6)
        assert group.dexpinv_apply(x.tolist(), v.tolist()) == group.dexpinv_apply(x, v)

    @pytest.mark.parametrize("group", [SE3, SO3R3], ids=lambda g: g.name)
    def test_pole_error(self, group):
        with pytest.raises(PoleError):
            group.dexpinv_apply(np.array([2 * math.pi, 0, 0, 0.1, 0, 0]), np.ones(6))


class TestSmallAngleContinuity:
    def test_se3_branches_agree_in_overlap_band(self):
        for _ in range(20):
            x = random_screw(RNG, angle_lo=liealg.SMALL_ANGLE / 2,
                             angle_hi=2 * liealg.SMALL_ANGLE, eta_scale=1.0)
            assert np.abs(liealg._se3_dexp_adseries(x)
                          - se3_dexp_series(x, 16)).max() < 1e-12
            closed = np.zeros((6, 6))
            j = so3_dexp(x[:3])
            closed[:3, :3] = j
            closed[3:, 3:] = j
            closed[3:, :3] = liealg._se3_q(x[:3], x[3:], np.linalg.norm(x[:3]))
            assert np.abs(closed - liealg._se3_dexp_adseries(x)).max() < 1e-12

    def test_scalar_helpers_continuous_at_coefficient_switch(self):
        # one ulp below the switch uses the series, at the switch the closed
        # form; any visible jump is pure branch disagreement
        below = np.nextafter(liealg._COEF_SERIES_ANGLE, 0.0)
        for f in (liealg._sinc, liealg._cos1, liealg._xs3, liealg._dinv,
                  liealg._q2, liealg._q3, liealg._adpoly2, liealg._adpoly4):
            lo = f(below)
            hi = f(liealg._COEF_SERIES_ANGLE)
            assert abs(lo - hi) < 1e-12


class TestComposition:
    def test_se3_identity_neutral(self):
        c = random_pose(RNG)
        out = se3_compose(c, Pose.identity())
        assert_allclose(out.R, c.R)
        assert_allclose(out.r, c.r)

    def test_se3_inverse(self):
        c = random_pose(RNG)
        out = se3_compose(c, se3_inverse(c))
        assert_allclose(out.R, np.eye(3), atol=1e-13)
        assert_allclose(out.r, np.zeros(3), atol=1e-13)

    def test_se3_matches_homogeneous_product(self):
        for _ in range(20):
            c1, c2 = random_pose(RNG), random_pose(RNG)
            out = se3_compose(c1, c2)
            assert_allclose(out.matrix(), c1.matrix() @ c2.matrix(), atol=1e-13)

    def test_se3_translation_law_exact(self):
        c1, c2 = random_pose(RNG), random_pose(RNG)
        assert_allclose(se3_compose(c1, c2).r, c1.r + c1.R @ c2.r, atol=0)

    def test_dp_identity_neutral(self):
        c = random_pose(RNG)
        out = dp_compose(c, Pose.identity())
        assert_allclose(out.R, c.R)
        assert_allclose(out.r, c.r)

    def test_dp_translations_add(self):
        rz = so3_exp([0, 0, math.pi / 2])
        out = dp_compose(Pose(rz, np.array([1.0, 0, 0])),
                         Pose(np.eye(3), np.array([0, 1.0, 0])))
        assert_allclose(out.r, [1, 1, 0])

    def test_dp_translation_exactly_additive(self):
        c1, c2 = random_pose(RNG), random_pose(RNG)
        assert_allclose(dp_compose(c1, c2).r, c1.r + c2.r, atol=0)

    def test_dp_matches_7x7_product(self):
        for _ in range(10):
            c1, c2 = random_pose(RNG), random_pose(RNG)
            assert_allclose(dp_matrix(dp_compose(c1, c2)),
                            dp_matrix(c1) @ dp_matrix(c2), atol=1e-13)

    def test_dp_inverse(self):
        c = random_pose(RNG)
        out = dp_compose(c, dp_inverse(c))
        assert_allclose(out.R, np.eye(3), atol=1e-13)
        assert_allclose(out.r, np.zeros(3), atol=0)


class TestDirectProductMaps:
    def test_exp_zero(self):
        c = dp_exp(np.zeros(6))
        assert_allclose(c.R, np.eye(3))
        assert_allclose(c.r, np.zeros(3))

    def test_exp_translation(self):
        c = dp_exp([0, 0, 0, 1, 2, 3])
        assert_allclose(c.R, np.eye(3))
        assert_allclose(c.r, [1, 2, 3])

    def test_log_roundtrip(self):
        for _ in range(10):
            x = random_screw(RNG, angle_hi=2.9)
            assert_allclose(dp_log(dp_exp(x)), x, atol=1e-10)

    def test_dexpinv_identity(self):
        assert_allclose(dp_dexpinv(np.zeros(6)), np.eye(6))

    def test_dexpinv_decoupled_translation_block(self):
        x = random_screw(RNG)
        assert_allclose(dp_dexpinv(x)[3:, 3:], np.eye(3), atol=0)


class TestMixedTwistMatrix:
    def test_identity(self):
        assert_allclose(mixed_twist_matrix(np.zeros(6)), np.eye(6))

    def test_definitional_product(self):
        for _ in range(10):
            x = random_screw(RNG)
            expected = np.zeros((6, 6))
            expected[:3, :3] = np.eye(3)
            expected[3:, 3:] = so3_exp(x[:3])
            expected = expected @ se3_dexp(-x)
            assert_allclose(mixed_twist_matrix(x), expected, atol=1e-12)

    def test_pure_translation_rates_pass_through(self):
        # with xi = 0 a translation-only rate maps identically
        a = mixed_twist_matrix([0, 0, 0, 0.7, -0.2, 0.4])
        rate = np.array([0, 0, 0, 1.5, -2.0, 0.25])
        assert_allclose(a @ rate, rate, atol=1e-14)

    def test_finite_difference_oracle(self):
        # mixed velocity (omega, rdot) of the curve t -> exp(X + t Xdot)
        x0 = random_screw(RNG, angle_hi=1.5)
        xdot = RNG.normal(size=6)
        vm = mixed_twist_matrix(x0) @ xdot
        rdot = central_diff(lambda t: se3_exp(x0 + t * xdot).r, 0.0)
        drdt = central_diff(lambda t: se3_exp(x0 + t * xdot).R, 0.0)
        omega = vee3(se3_exp(x0).R.T @ drdt)
        assert_allclose(vm[:3], omega, atol=1e-7)
        assert_allclose(vm[3:], rdot, atol=1e-7)


class TestThreeAngleRates:
    def test_euler_gimbal_at_identity(self):
        ez = np.array([0, 0, 1.0])
        ex = np.array([1.0, 0, 0])
        b = three_angle_rates_matrix((ez, ex, ez), np.zeros(3))
        assert_allclose(b[:, 0], ez)
        assert_allclose(b[:, 1], ex)
        assert_allclose(b[:, 2], ez)
        assert abs(np.linalg.det(b)) < 1e-14

    def test_bryant_identity(self):
        axes = (np.eye(3)[0], np.eye(3)[1], np.eye(3)[2])
        assert_allclose(three_angle_rates_matrix(axes, np.zeros(3)), np.eye(3))

    def test_finite_difference_oracle(self):
        axes = (np.eye(3)[0], np.eye(3)[1], np.eye(3)[2])
        th = np.array([0.4, -0.7, 1.1])
        thdot = np.array([0.3, 0.2, -0.5])

        def rot(t):
            a = th + t * thdot
            return (so3_exp(axes[0] * a[0]) @ so3_exp(axes[1] * a[1])
                    @ so3_exp(axes[2] * a[2]))

        rdot = central_diff(rot, 0.0)
        omega = vee3(rot(0.0).T @ rdot)
        b = three_angle_rates_matrix(axes, th)
        assert_allclose(b @ thdot, omega, atol=1e-6)


class TestGroupObjects:
    @pytest.mark.parametrize("group", [SE3, SO3R3], ids=lambda g: g.name)
    def test_group_axioms(self, group):
        a, b, c = (random_pose(RNG) for _ in range(3))
        ab_c = group.compose(group.compose(a, b), c)
        a_bc = group.compose(a, group.compose(b, c))
        assert_allclose(ab_c.R, a_bc.R, atol=1e-13)
        assert_allclose(ab_c.r, a_bc.r, atol=1e-13)
        ident = group.compose(a, group.inverse(a))
        assert_allclose(ident.R, np.eye(3), atol=1e-13)
        assert_allclose(ident.r, np.zeros(3), atol=1e-12)

    @pytest.mark.parametrize("group", [SE3, SO3R3], ids=lambda g: g.name)
    def test_exp_log_roundtrip(self, group):
        x = random_screw(RNG, angle_hi=2.5)
        assert_allclose(group.log(group.exp(x)), x, atol=1e-10)


class TestPose:
    def test_validate_rejects_nonrotation(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.01, np.zeros(3)).validate()

    def test_renormalize(self):
        c = random_pose(RNG)
        drifted = Pose(c.R + 1e-8 * RNG.normal(size=(3, 3)), c.r)
        fixed = drifted.renormalize()
        assert fixed.orthonormality_defect() < 1e-14
