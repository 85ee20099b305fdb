"""Closed-form kernels for SO(3), SE(3) and SO(3)xR3.

Conventions used throughout the package:

* A screw coordinate vector is a flat 6-array ``X = (xi, eta)`` with the
  rotation part first.  For SE(3) the pair is a genuine screw; for the
  direct product group ``eta`` is a plain translation vector.
* Poses are ``(R, r)`` pairs.  ``compose(c1, c2)`` is the matrix product
  ``C1 C2`` in both groups: the frame transformation
  ``(R1@R2, r1 + R1@r2)`` on SE(3), componentwise rotation product and
  translation sum on SO(3)xR3.
* All dexp maps are right-translated: the body-fixed velocity of a curve
  ``exp(X(t))`` is ``V = dexp(-X) @ Xdot``, so velocity reconstruction
  always evaluates the maps at the negated argument.

The public kernels take and return float ndarrays; the integrator's inner
loop holds poses as ``(R rows, r)`` float tuples, moved by ``advance_parts``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi

# Closed forms are used above this rotation angle, truncated series below.
SMALL_ANGLE = 1e-4
# Scalar coefficient functions switch to their Taylor polynomials below this
# angle; the closed-form expressions cancel catastrophically as x -> 0.
_COEF_SERIES_ANGLE = 0.25
_POLE_MARGIN = 1e-6
_BRANCH_MARGIN = 1e-6

_EYE3 = np.eye(3)
_EYE6 = np.eye(6)


class BranchCutError(ValueError):
    """Logarithm evaluated too close to the pi branch cut."""


class PoleError(ValueError):
    """dexp/dexpinv evaluated at or beyond the 2*pi singularity."""


# ---------------------------------------------------------------------------
# scalar coefficient functions (hybrid closed form / Taylor evaluation)
# ---------------------------------------------------------------------------

def _sinc(x: float) -> float:
    """sin(x)/x."""
    if x < _COEF_SERIES_ANGLE:
        x2 = x * x
        return 1.0 + x2 * (-1.0 / 6.0 + x2 * (1.0 / 120.0 + x2 * (-1.0 / 5040.0 + x2 / 362880.0)))
    return math.sin(x) / x


def _cos1(x: float) -> float:
    """(1 - cos x)/x**2."""
    if x < _COEF_SERIES_ANGLE:
        x2 = x * x
        return 0.5 + x2 * (-1.0 / 24.0 + x2 * (1.0 / 720.0 + x2 * (-1.0 / 40320.0 + x2 / 3628800.0)))
    s = math.sin(0.5 * x)
    return 2.0 * s * s / (x * x)


def _xs3(x: float) -> float:
    """(x - sin x)/x**3."""
    if x < _COEF_SERIES_ANGLE:
        x2 = x * x
        return 1.0 / 6.0 + x2 * (-1.0 / 120.0 + x2 * (1.0 / 5040.0 + x2 * (-1.0 / 362880.0 + x2 / 39916800.0)))
    return (x - math.sin(x)) / (x * x * x)


def _dinv(x: float) -> float:
    """(1 - (x/2) cot(x/2))/x**2, the so(3) dexpinv coefficient."""
    if x < _COEF_SERIES_ANGLE:
        x2 = x * x
        return 1.0 / 12.0 + x2 * (1.0 / 720.0 + x2 * (1.0 / 30240.0 + x2 * (1.0 / 1209600.0 + x2 / 47900160.0)))
    return (1.0 - 0.5 * x / math.tan(0.5 * x)) / (x * x)


def _q2(x: float) -> float:
    """(x**2 + 2 cos x - 2)/(2 x**4)."""
    if x < _COEF_SERIES_ANGLE:
        x2 = x * x
        return 1.0 / 24.0 + x2 * (-1.0 / 720.0 + x2 * (1.0 / 40320.0 + x2 * (-1.0 / 3628800.0 + x2 / 479001600.0)))
    return (x * x + 2.0 * math.cos(x) - 2.0) / (2.0 * x ** 4)


def _q3(x: float) -> float:
    """(2x - 3 sin x + x cos x)/(2 x**5)."""
    if x < _COEF_SERIES_ANGLE:
        x2 = x * x
        return 1.0 / 120.0 + x2 * (-1.0 / 2520.0 + x2 * (1.0 / 120960.0 + x2 * (-1.0 / 9979200.0 + x2 / 1245404160.0)))
    return (2.0 * x - 3.0 * math.sin(x) + x * math.cos(x)) / (2.0 * x ** 5)


def _adpoly2(x: float) -> float:
    """2/x**2 + (x + 3 sin x)/(4x (cos x - 1))."""
    if x < _COEF_SERIES_ANGLE:
        x4 = x ** 4
        return 1.0 / 12.0 + x4 * (-1.0 / 30240.0 + x * x * (-1.0 / 604800.0 - x * x / 15966720.0))
    return 2.0 / (x * x) + (x + 3.0 * math.sin(x)) / (4.0 * x * (math.cos(x) - 1.0))


def _adpoly4(x: float) -> float:
    """1/x**4 + (x + sin x)/(4 x**3 (cos x - 1))."""
    if x < _COEF_SERIES_ANGLE:
        x2 = x * x
        return -1.0 / 720.0 + x2 * (-1.0 / 15120.0 + x2 * (-1.0 / 403200.0 - x2 / 11975040.0))
    return 1.0 / x ** 4 + (x + math.sin(x)) / (4.0 * x ** 3 * (math.cos(x) - 1.0))


def _check_pole(x: float) -> None:
    if x >= TAU - _POLE_MARGIN:
        raise PoleError(f"rotation angle {x:.6g} at or beyond the 2*pi dexp pole")


# ---------------------------------------------------------------------------
# SO(3)
# ---------------------------------------------------------------------------

def hat3(v) -> np.ndarray:
    """Cross-product matrix: hat3(x) @ y == cross(x, y)."""
    a, b, c = np.asarray(v, dtype=float).tolist()
    return np.array(((0.0, -c, b), (c, 0.0, -a), (-b, a, 0.0)))


# Plain-float 3-vector kernels.  On 3-vectors a numpy call costs ten times
# the arithmetic it performs, so the step loop works on float tuples (and
# nested row lists for 3x3 matrices) and converts to arrays once per stage.

def _floats(x):
    """A vector argument as a plain-float sequence (ndarrays are converted,
    sequences pass through)."""
    return x.tolist() if isinstance(x, np.ndarray) else x


def cross3(a, b) -> tuple:
    """3-vector cross product of two float sequences, as a float tuple."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def dot3(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def add3(a, b) -> tuple:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub3(a, b) -> tuple:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def mv3(m, x) -> tuple:
    """m @ x for a 3x3 matrix given as three row sequences."""
    x0, x1, x2 = x
    r0, r1, r2 = m
    return (r0[0] * x0 + r0[1] * x1 + r0[2] * x2,
            r1[0] * x0 + r1[1] * x1 + r1[2] * x2,
            r2[0] * x0 + r2[1] * x1 + r2[2] * x2)


def mtv3(m, x) -> tuple:
    """m.T @ x for a 3x3 matrix given as three row sequences."""
    x0, x1, x2 = x
    r0, r1, r2 = m
    return (r0[0] * x0 + r1[0] * x1 + r2[0] * x2,
            r0[1] * x0 + r1[1] * x1 + r2[1] * x2,
            r0[2] * x0 + r1[2] * x1 + r2[2] * x2)


def mm3(a, b) -> tuple:
    """Rows of a @ b for 3x3 matrices given as row sequences: a[i] @ b."""
    return tuple(mtv3(b, row) for row in a)


def _so3_exp_rows(x0: float, x1: float, x2: float) -> tuple:
    """Rows of I + sinc*hat(xi) + cos1*hat(xi)^2 (Euler-Rodrigues), with
    hat(xi)^2 = xi xi^T - |xi|^2 I written out entrywise."""
    s0, s1, s2 = x0 * x0, x1 * x1, x2 * x2
    x = math.sqrt(s0 + s1 + s2)
    a = _sinc(x)
    b = _cos1(x)
    ax0, ax1, ax2 = a * x0, a * x1, a * x2
    b01, b02, b12 = b * (x0 * x1), b * (x0 * x2), b * (x1 * x2)
    return ((1.0 - b * (s1 + s2), b01 - ax2, b02 + ax1),
            (b01 + ax2, 1.0 - b * (s0 + s2), b12 - ax0),
            (b02 - ax1, b12 + ax0, 1.0 - b * (s0 + s1)))


def so3_exp(xi) -> np.ndarray:
    """Rotation about axis xi/|xi| by angle |xi| (Euler-Rodrigues)."""
    return np.array(_so3_exp_rows(*_floats(xi)))


def so3_log(r) -> np.ndarray:
    """Rotation vector of R; rejects angles within 1e-6 of pi.

    Accuracy degrades like eps/sin(theta) approaching the cut; callers
    (error metrics, exp roundtrips) never legitimately operate there.
    """
    r = np.asarray(r, dtype=float)
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    s = 0.5 * math.sqrt(w @ w)          # sin(theta)
    c = 0.5 * (np.trace(r) - 1.0)       # cos(theta)
    theta = math.atan2(s, min(1.0, max(-1.0, c)))
    if theta >= math.pi - _BRANCH_MARGIN:
        raise BranchCutError(f"rotation angle {theta:.9f} within 1e-6 of the pi branch cut")
    return (0.5 / _sinc(theta)) * w


def so3_dexp(xi) -> np.ndarray:
    """Right-translated tangent of exp on SO(3): body omega = so3_dexp(-xi) @ xidot."""
    xi = np.asarray(xi, dtype=float)
    x = math.sqrt(xi @ xi)
    h = hat3(xi)
    return _EYE3 + _cos1(x) * h + _xs3(x) * (h @ h)


def so3_dexpinv(xi) -> np.ndarray:
    """Matrix inverse of so3_dexp, the rotation block of dp_dexpinv; pole at
    |xi| = 2*pi."""
    return dp_dexpinv(xi)[:3, :3]


def rotation_error(r_ref, r) -> float:
    """Relative rotation angle |log(R_ref^T R)|."""
    return float(np.linalg.norm(so3_log(np.asarray(r_ref).T @ np.asarray(r))))


def is_rotation(r, tol: float = 1e-12) -> bool:
    r = np.asarray(r, dtype=float)
    return (np.abs(r.T @ r - _EYE3).max() <= tol
            and abs(np.linalg.det(r) - 1.0) <= tol)


# ---------------------------------------------------------------------------
# poses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pose:
    """Rigid-body configuration: rotation matrix R and position r.

    The same pair is interpreted under either group's composition law; the
    group objects below decide what composition means.
    """

    R: np.ndarray
    r: np.ndarray

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def matrix(self) -> np.ndarray:
        """Homogeneous 4x4 representative."""
        m = np.eye(4)
        m[:3, :3] = self.R
        m[:3, 3] = self.r
        return m

    def orthonormality_defect(self) -> float:
        return float(np.abs(self.R.T @ self.R - _EYE3).max())

    def renormalize(self) -> "Pose":
        """Project R back onto SO(3) (explicit; never done silently)."""
        u, _, vt = np.linalg.svd(self.R)
        d = np.sign(np.linalg.det(u @ vt))
        return Pose(u @ np.diag([1.0, 1.0, d]) @ vt, self.r.copy())

    def validate(self, tol: float = 1e-12) -> None:
        if not (np.isfinite(self.R).all() and np.isfinite(self.r).all()):
            raise ValueError("pose has non-finite entries")
        if not is_rotation(self.R, tol):
            raise ValueError("R is not a rotation matrix within tolerance")


def se3_hat(x) -> np.ndarray:
    """4x4 matrix representative of a screw coordinate vector."""
    x = np.asarray(x, dtype=float)
    m = np.zeros((4, 4))
    m[:3, :3] = hat3(x[:3])
    m[:3, 3] = x[3:]
    return m


def se3_compose(c1: Pose, c2: Pose) -> Pose:
    """Frame transformation product C1*C2 = (R1 R2, r1 + R1 r2), the
    homogeneous matrix product in argument order (c2 acts first)."""
    return Pose(c1.R @ c2.R, c1.r + c1.R @ c2.r)


def se3_inverse(c: Pose) -> Pose:
    return Pose(c.R.T, -(c.R.T @ c.r))


def _se3_exp_parts(x) -> tuple:
    """se3_exp on floats: (rows of exp(xi), dexp_xi @ eta)."""
    x0, x1, x2, e0, e1, e2 = x
    xi = (x0, x1, x2)
    xn = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    # dexp_xi @ eta = eta + cos1 xi x eta + xs3 xi x (xi x eta)
    c = cross3(xi, (e0, e1, e2))
    cc = cross3(xi, c)
    b, d = _cos1(xn), _xs3(xn)
    return (_so3_exp_rows(x0, x1, x2),
            (e0 + b * c[0] + d * cc[0],
             e1 + b * c[1] + d * cc[1],
             e2 + b * c[2] + d * cc[2]))


def se3_exp(x) -> Pose:
    """Finite screw motion exp(X) = (exp(xi), dexp_xi @ eta)."""
    return Pose(*map(np.array, _se3_exp_parts(_floats(x))))


def se3_log(c: Pose) -> np.ndarray:
    """Inverse of se3_exp (same branch restrictions as so3_log)."""
    xi = so3_log(c.R)
    eta = so3_dexpinv(xi) @ c.r
    return np.concatenate([xi, eta])


def se3_bracket(x1, x2) -> np.ndarray:
    """Screw product [X1, X2] = (xi1 x xi2, xi1 x eta2 - xi2 x eta1)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return np.concatenate([
        np.cross(x1[:3], x2[:3]),
        np.cross(x1[:3], x2[3:]) - np.cross(x2[:3], x1[3:]),
    ])


def se3_ad(x) -> np.ndarray:
    """Matrix of the se(3) bracket: se3_ad(X1) @ X2 == se3_bracket(X1, X2)."""
    x = np.asarray(x, dtype=float)
    m = np.zeros((6, 6))
    hx = hat3(x[:3])
    m[:3, :3] = hx
    m[3:, 3:] = hx
    m[3:, :3] = hat3(x[3:])
    return m


def _se3_q(xi, eta, x: float) -> np.ndarray:
    """Lower-left block of se3_dexp (coefficients validated against the
    ad-power series; the grouping is one of several equivalent forms)."""
    hx = hat3(xi)
    he = hat3(eta)
    hxhe = hx @ he
    hehx = he @ hx
    hxhehx = hxhe @ hx
    return (0.5 * he
            + _xs3(x) * (hxhe + hehx + hxhehx)
            + _q2(x) * (hx @ hxhe + hehx @ hx - 3.0 * hxhehx)
            + _q3(x) * (hxhehx @ hx + hx @ hxhehx))


def _se3_dexp_adseries(x) -> np.ndarray:
    """Truncated dexp = sum ad^i/(i+1)!; exact to roundoff for tiny |xi|."""
    a = se3_ad(x)
    a2 = a @ a
    a3 = a2 @ a
    return _EYE6 + 0.5 * a + a2 / 6.0 + a3 / 24.0 + (a3 @ a) / 120.0


def se3_dexp(x) -> np.ndarray:
    """6x6 right-translated dexp on SE(3): V = se3_dexp(-X) @ Xdot."""
    x = np.asarray(x, dtype=float)
    xi, eta = x[:3], x[3:]
    xn = math.sqrt(xi @ xi)
    if xn < SMALL_ANGLE:
        return _se3_dexp_adseries(x)
    m = np.zeros((6, 6))
    j = so3_dexp(xi)
    m[:3, :3] = j
    m[3:, 3:] = j
    m[3:, :3] = _se3_q(xi, eta, xn)
    return m


def se3_dexpinv(x) -> np.ndarray:
    """Inverse of se3_dexp: the columns of the stage loop's kernel on the unit
    vectors, read as ``SE3Group.dexpinv_apply`` so a patched kernel reaches it."""
    return np.array([SE3Group.dexpinv_apply(x, e) for e in _EYE6.tolist()]).T


def se3_dexpinv_adpoly(x) -> np.ndarray:
    """Alternative closed form of se3_dexpinv as a polynomial in ad_X.

    Independent evaluation route kept for cross-checking the apply kernel.
    """
    x = np.asarray(x, dtype=float)
    xn = math.sqrt(x[:3] @ x[:3])
    _check_pole(xn)
    a = se3_ad(x)
    a2 = a @ a
    return _EYE6 - 0.5 * a + _adpoly2(xn) * a2 + _adpoly4(xn) * (a2 @ a2)


def _so3_dexpinv_apply(xi, y, c: float) -> tuple:
    """so3_dexpinv(xi) @ y = y - xi x y / 2 + c xi x (xi x y), c = _dinv(|xi|)."""
    p = cross3(xi, y)
    pp = cross3(xi, p)
    return (y[0] - 0.5 * p[0] + c * pp[0],
            y[1] - 0.5 * p[1] + c * pp[1],
            y[2] - 0.5 * p[2] + c * pp[2])


def _se3_ad_apply(xi, eta, v) -> tuple:
    """se3_ad(X) @ v = (xi x w, xi x u + eta x w) for v = (w, u)."""
    w, u = v[:3], v[3:]
    a = cross3(xi, w)
    b = cross3(xi, u)
    c = cross3(eta, w)
    return (a[0], a[1], a[2], b[0] + c[0], b[1] + c[1], b[2] + c[2])


def se3_dexpinv_apply(x, v) -> tuple:
    """Inverse of se3_dexp(x) applied to v, as a float tuple.

    se3_dexp is block-triangular, [[J, 0], [Q, J]], so the product is
    (J^-1 w, J^-1 (u - Q J^-1 w)); Q (the lower-left block of se3_dexp) is
    applied to a vector as the nested cross products of its hat-product
    terms.  Below SMALL_ANGLE the truncated Bernoulli series
    I - ad/2 + ad^2/12 - ad^4/720 is applied term by term.
    """
    x = _floats(x)
    v = _floats(v)
    xi, eta = x[:3], x[3:]
    xn = math.sqrt(xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2])
    _check_pole(xn)
    if xn < SMALL_ANGLE:
        a1 = _se3_ad_apply(xi, eta, v)
        a2 = _se3_ad_apply(xi, eta, a1)
        a4 = _se3_ad_apply(xi, eta, _se3_ad_apply(xi, eta, a2))
        return tuple([v[i] - 0.5 * a1[i] + a2[i] / 12.0 - a4[i] / 720.0
                      for i in range(6)])
    c = _dinv(xn)
    top = _so3_dexpinv_apply(xi, v[:3], c)
    # Q y for y = top, term by term as in _se3_q
    e = cross3(eta, top)
    p = cross3(xi, top)
    xe = cross3(xi, e)
    ep = cross3(eta, p)
    xep = cross3(xi, ep)
    xxe = cross3(xi, xe)
    epp = cross3(eta, cross3(xi, p))
    xepp = cross3(xi, epp)
    xxep = cross3(xi, xep)
    c3, c4, c5 = _xs3(xn), _q2(xn), _q3(xn)
    rest = [v[3 + i] - (0.5 * e[i]
                        + c3 * (xe[i] + ep[i] + xep[i])
                        + c4 * (xxe[i] + epp[i] - 3.0 * xep[i])
                        + c5 * (xepp[i] + xxep[i]))
            for i in range(3)]
    return top + _so3_dexpinv_apply(xi, rest, c)


# ---------------------------------------------------------------------------
# SO(3) x R3 (direct product)
# ---------------------------------------------------------------------------

def dp_compose(c1: Pose, c2: Pose) -> Pose:
    """Direct product: rotations compose, translations add."""
    return Pose(c1.R @ c2.R, c1.r + c2.r)


def dp_inverse(c: Pose) -> Pose:
    return Pose(c.R.T, -c.r)


def dp_exp(x) -> Pose:
    x = _floats(x)
    return Pose(so3_exp(x[:3]), np.array(x[3:], dtype=float))


def dp_log(c: Pose) -> np.ndarray:
    return np.concatenate([so3_log(c.R), c.r])


def dp_dexpinv(x) -> np.ndarray:
    """Block-diagonal (so3_dexpinv, I), the columns of the stage loop's kernel
    ``DirectProductGroup.dexpinv_apply``: rotation and translation decouple."""
    return np.array([DirectProductGroup.dexpinv_apply(x, e) for e in _EYE6.tolist()]).T


def dp_dexpinv_apply(x, v) -> tuple:
    """dp_dexpinv(x) @ v as a float tuple: the rotation part through
    so3_dexpinv, the translation part unchanged."""
    xi = _floats(x)[:3]
    v = _floats(v)
    xn = math.sqrt(xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2])
    _check_pole(xn)
    return _so3_dexpinv_apply(xi, v[:3], _dinv(xn)) + tuple(v[3:])


# ---------------------------------------------------------------------------
# mixed velocity and 3-angle parameterizations
# ---------------------------------------------------------------------------

def mixed_twist_matrix(x) -> np.ndarray:
    """A(X) = blockdiag(I, exp(xi)) @ se3_dexp(-X), mapping screw coordinate
    rates to the mixed velocity (omega, rdot)."""
    x = np.asarray(x, dtype=float)
    a = se3_dexp(-x)
    r = so3_exp(x[:3])
    a[3:, :] = r @ a[3:, :]
    return a


def three_angle_rates_matrix(axes, angles) -> np.ndarray:
    """Kinematic matrix B with omega = B @ thetadot for successive rotations
    about constant body axes (Euler for i=k, Bryant for distinct axes)."""
    e_i, e_j, e_k = (np.asarray(a, dtype=float) for a in axes)
    th = np.asarray(angles, dtype=float)
    rj = so3_exp(e_j * th[1])
    rk = so3_exp(e_k * th[2])
    return np.column_stack([rk.T @ (rj.T @ e_i), rk.T @ e_j, e_k])


# ---------------------------------------------------------------------------
# configuration-space group objects
# ---------------------------------------------------------------------------

class CSpaceGroup:
    """Behavior bundle of one candidate configuration-space Lie group."""

    name: str

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class SE3Group(CSpaceGroup):
    """Semidirect product; elements are proper rigid body motions."""

    name = "se3"
    compose = staticmethod(se3_compose)
    inverse = staticmethod(se3_inverse)
    exp = staticmethod(se3_exp)
    log = staticmethod(se3_log)
    dexpinv = staticmethod(se3_dexpinv)
    dexpinv_apply = staticmethod(se3_dexpinv_apply)

    @staticmethod
    def advance_parts(rot, phi) -> tuple[tuple, tuple]:
        """compose((R, r), exp(phi)) on floats as (rows of the new rotation,
        translation increment), so long runs can add the increment compensated."""
        rows, t = _se3_exp_parts(phi)
        return mm3(rot, rows), mv3(rot, t)


class DirectProductGroup(CSpaceGroup):
    """SO(3) x R3; represents configurations but not frame transformations."""

    name = "so3xr3"
    compose = staticmethod(dp_compose)
    inverse = staticmethod(dp_inverse)
    exp = staticmethod(dp_exp)
    log = staticmethod(dp_log)
    dexpinv = staticmethod(dp_dexpinv)
    dexpinv_apply = staticmethod(dp_dexpinv_apply)

    @staticmethod
    def advance_parts(rot, phi) -> tuple[tuple, tuple]:
        return mm3(rot, _so3_exp_rows(*phi[:3])), tuple(phi[3:])


SE3 = SE3Group()
SO3R3 = DirectProductGroup()

GROUPS = {SE3.name: SE3, SO3R3.name: SO3R3}
