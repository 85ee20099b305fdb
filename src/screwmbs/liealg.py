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
The kernels that loop calls are straight-line float code, emitted at import
from vector-level formulas (``_Emitter``) in the interpreted operation order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi

# The kernels' coefficients (_COEFS) switch to their Taylor polynomials below
# this angle; the closed-form expressions cancel catastrophically as x -> 0.
_COEF_SERIES_ANGLE = 0.25
_POLE_MARGIN = 1e-6
_BRANCH_MARGIN = 1e-6

_EYE3 = np.eye(3)
_EYE6 = np.eye(6)


class BranchCutError(ValueError):
    """Logarithm evaluated too close to the pi branch cut."""


class PoleError(ValueError):
    """dexp/dexpinv evaluated at or beyond the 2*pi singularity."""


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


# Plain floats: on 3-vectors a numpy call costs ten times the arithmetic it
# performs, so the step loop works on float tuples (and nested row lists for
# 3x3 matrices), in kernels generated by ``_Emitter`` below.

def _floats(x):
    """A vector argument as a plain-float sequence (ndarrays are converted,
    sequences pass through)."""
    return x.tolist() if isinstance(x, np.ndarray) else x


# ---------------------------------------------------------------------------
# straight-line kernels
# ---------------------------------------------------------------------------

class _Emitter:
    """Straight-line float code from vector-level formulas.  A vector is a
    3-tuple of expressions (local names or literals); each op writes one
    ``name = expr`` line per component in a fixed operation order: ``cross``
    is (a1 b2 - a2 b1, a2 b0 - a0 b2, a0 b1 - a1 b0), ``dot`` sums its three
    products left to right, ``mv`` and ``mtv`` are dots of the rows and of
    the columns.  A repeated op reuses its name; nothing is folded or
    reordered."""

    def __init__(self):
        self.lines, self._names = [], {}

    def scalar(self, expr: str) -> str:
        if expr not in self._names:
            self._names[expr] = f"t{len(self._names)}"
            self.lines.append(f"{self._names[expr]} = {expr}")
        return self._names[expr]

    def cross(self, a, b):
        (a0, a1, a2), (b0, b1, b2) = a, b
        return tuple(map(self.scalar, (f"{a1} * {b2} - {a2} * {b1}",
                                       f"{a2} * {b0} - {a0} * {b2}",
                                       f"{a0} * {b1} - {a1} * {b0}")))

    def dot(self, a, b):
        return self.scalar(" + ".join(f"{x} * {y}" for x, y in zip(a, b)))

    def mv(self, m, x):
        return tuple(self.dot(row, x) for row in m)

    def mtv(self, m, x):
        return self.mv(tuple(zip(*m)), x)

    def add(self, a, b):
        return tuple(self.scalar(f"{x} + {y}") for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.scalar(f"{x} - {y}") for x, y in zip(a, b))

    def twice(self, a):
        return tuple(self.scalar(f"2.0 * {x}") for x in a)

    def live(self, outputs) -> list[str]:
        """The lines the outputs depend on, in order; dead ones are dropped."""
        used, live = set(re.findall(r"\bt\d+", " ".join(outputs))), []
        for line in reversed(self.lines):
            if line.split(" = ")[0] in used:
                used.update(re.findall(r"\bt\d+", line))
                live.append(line)
        return live[::-1]


def _names(s: str, n: int = 3) -> tuple:
    return tuple(f"{s}{i}" for i in range(n))


def _define(signature: str, body, doc: str):
    """The function ``def signature:`` over the body lines, compiled with this
    module's globals (``math``, the coefficient switch and the pole check)."""
    namespace = {}
    src = "\n".join([f"def {signature}:", *(f"    {line}" for line in body)])
    exec(compile(src, f"<{signature}>", "exec"), globals(), namespace)
    (fn,) = namespace.values()
    fn.__doc__ = doc
    return fn


# ---------------------------------------------------------------------------
# scalar coefficients (hybrid closed form / Taylor evaluation)
# ---------------------------------------------------------------------------

# name: (doc, Taylor polynomial, closed form) of each coefficient of the
# angle x; the polynomials read xsq = x * x, the closed forms the trig
# values of _TRIG by name, so coefficients of one angle share them
_COEFS = {
    "_sinc": ("sin(x)/x.",
              "1.0 + xsq * (-1.0 / 6.0 + xsq * (1.0 / 120.0 + xsq * (-1.0 / 5040.0 + xsq / 362880.0)))",
              "sin_x / x"),
    "_cos1": ("(1 - cos x)/x**2.",
              "0.5 + xsq * (-1.0 / 24.0 + xsq * (1.0 / 720.0 + xsq * (-1.0 / 40320.0 + xsq / 3628800.0)))",
              "2.0 * sin_h * sin_h / (x * x)"),
    "_xs3": ("(x - sin x)/x**3.",
             "1.0 / 6.0 + xsq * (-1.0 / 120.0 + xsq * (1.0 / 5040.0 + xsq * (-1.0 / 362880.0 + xsq / 39916800.0)))",
             "(x - sin_x) / (x * x * x)"),
    "_dinv": ("(1 - (x/2) cot(x/2))/x**2, the so(3) dexpinv coefficient.",
              "1.0 / 12.0 + xsq * (1.0 / 720.0 + xsq * (1.0 / 30240.0 + xsq * (1.0 / 1209600.0 + xsq / 47900160.0)))",
              "(1.0 - 0.5 * x / tan_h) / (x * x)"),
    "_q2": ("(x**2 + 2 cos x - 2)/(2 x**4).",
            "1.0 / 24.0 + xsq * (-1.0 / 720.0 + xsq * (1.0 / 40320.0 + xsq * (-1.0 / 3628800.0 + xsq / 479001600.0)))",
            "(x * x + 2.0 * cos_x - 2.0) / (2.0 * x ** 4)"),
    "_q3": ("(2x - 3 sin x + x cos x)/(2 x**5).",
            "1.0 / 120.0 + xsq * (-1.0 / 2520.0 + xsq * (1.0 / 120960.0 + xsq * (-1.0 / 9979200.0 + xsq / 1245404160.0)))",
            "(2.0 * x - 3.0 * sin_x + x * cos_x) / (2.0 * x ** 5)"),
    "_adpoly2": ("2/x**2 + (x + 3 sin x)/(4x (cos x - 1)).",
                 "1.0 / 12.0 + x ** 4 * (-1.0 / 30240.0 + xsq * (-1.0 / 604800.0 - xsq / 15966720.0))",
                 "2.0 / (x * x) + (x + 3.0 * sin_x) / (4.0 * x * (cos_x - 1.0))"),
    "_adpoly4": ("1/x**4 + (x + sin x)/(4 x**3 (cos x - 1)).",
                 "-1.0 / 720.0 + xsq * (-1.0 / 15120.0 + xsq * (-1.0 / 403200.0 - xsq / 11975040.0))",
                 "1.0 / x ** 4 + (x + sin_x) / (4.0 * x ** 3 * (cos_x - 1.0))"),
}
_TRIG = {"sin_x": "math.sin(x)", "cos_x": "math.cos(x)",
         "sin_h": "math.sin(0.5 * x)", "tan_h": "math.tan(0.5 * x)"}
_COEF_CALL = re.compile(rf"(t\d+) = ({'|'.join(_COEFS)})\((\w+)\)")


def _coef_block(x: str, coefs: dict, pole: bool = False) -> list[str]:
    """Lines setting each name of ``coefs`` to its coefficient (a _COEFS
    key) at the angle named x: the Taylor polynomials below
    _COEF_SERIES_ANGLE, else the closed forms after one call per trig value
    they read.  With ``pole``, an angle at or beyond the dexp pole raises
    PoleError there."""
    def at(expr):
        return re.sub(r"\bx\b", x, expr)

    closed = [f"    {name} = {at(_COEFS[c][2])}" for name, c in coefs.items()]
    return [f"if {x} < _COEF_SERIES_ANGLE:", f"    xsq = {x} * {x}",
            *(f"    {name} = {at(_COEFS[c][1])}" for name, c in coefs.items()), "else:",
            *([f"    if {x} >= TAU - _POLE_MARGIN:", f"        _check_pole({x})"] if pole else []),
            *(f"    {v} = {at(call)}" for v, call in _TRIG.items() if v in "".join(closed)),
            *closed]


def _scalar(name: str):
    """The scalar function of one coefficient, for the numpy API."""
    return _define(f"{name}(x)", [*_coef_block("x", {"c": name}), "return c"], _COEFS[name][0])


_sinc, _cos1, _xs3, _dinv, _q2, _q3, _adpoly2, _adpoly4 = map(_scalar, _COEFS)


def _block(emit, pole: bool = False) -> list[str]:
    """Straight-line lines computing and returning ``emit(emitter)``'s
    outputs (names in nested tuples).  The emitter's coefficient calls, all
    of one angle, become that angle's ``_coef_block`` where the first
    stood."""
    e = _Emitter()
    ret = "return " + str(emit(e)).replace("'", "")
    lines = e.live([ret])
    calls = {i: m for i, m in enumerate(map(_COEF_CALL.fullmatch, lines)) if m}
    first = min(calls)
    block = _coef_block(calls[first][3], {m[1]: m[2] for m in calls.values()}, pole)
    return [*lines[:first], *block, *(line for i, line in enumerate(lines) if i > first
                                      and i not in calls), ret]


_X, _V = _names("x", 6), _names("v", 6)
_ROT = tuple(_names(f"a{i}_") for i in range(3))
_UNPACK_V = f"{', '.join(_V)} = _floats(v)"
_NORM = "xn = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)"


def _emit_so3_exp_rows(e: _Emitter, x):
    """Rows of I + sinc*hat(xi) + cos1*hat(xi)^2 (Euler-Rodrigues), with
    hat(xi)^2 = xi xi^T - |xi|^2 I written out entrywise; and |xi|."""
    x0, x1, x2 = x
    s = e.scalar
    s0, s1, s2 = (s(f"{c} * {c}") for c in x)
    xn = s(f"math.sqrt({s0} + {s1} + {s2})")
    a, b = s(f"_sinc({xn})"), s(f"_cos1({xn})")
    ax0, ax1, ax2 = (s(f"{a} * {c}") for c in x)
    b01, b02, b12 = (s(f"{b} * ({p} * {q})") for p, q in ((x0, x1), (x0, x2), (x1, x2)))
    return ((s(f"1.0 - {b} * ({s1} + {s2})"), s(f"{b01} - {ax2}"), s(f"{b02} + {ax1}")),
            (s(f"{b01} + {ax2}"), s(f"1.0 - {b} * ({s0} + {s2})"), s(f"{b12} - {ax0}")),
            (s(f"{b02} - {ax1}"), s(f"{b12} + {ax0}"), s(f"1.0 - {b} * ({s0} + {s1})"))), xn


def _emit_so3_dexpinv_apply(e: _Emitter, xi, y, c):
    """The so(3) dexpinv at xi applied to y: y - xi x y / 2 + c xi x (xi x y),
    c = _dinv(|xi|)."""
    p = e.cross(xi, y)
    pp = e.cross(xi, p)
    return tuple(e.scalar(f"{a} - 0.5 * {b} + {c} * {d}") for a, b, d in zip(y, p, pp))


_so3_exp_rows = _define("_so3_exp_rows(x0, x1, x2)",
                        _block(lambda e: _emit_so3_exp_rows(e, _X[:3])[0]),
                        "Rows of exp(hat(xi)) for xi = (x0, x1, x2) (Euler-Rodrigues).")


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


def _emit_se3_exp_parts(e: _Emitter, x):
    """(rows of exp(xi), dexp_xi @ eta) of x = (xi, eta), with
    dexp_xi @ eta = eta + cos1 xi x eta + xs3 xi x (xi x eta)."""
    xi, eta = x[:3], x[3:]
    rows, xn = _emit_so3_exp_rows(e, xi)
    c = e.cross(xi, eta)
    cc = e.cross(xi, c)
    b, d = e.scalar(f"_cos1({xn})"), e.scalar(f"_xs3({xn})")
    return rows, tuple(e.scalar(f"{u} + {b} * {p} + {d} * {q}") for u, p, q in zip(eta, c, cc))


_se3_exp_parts = _define("_se3_exp_parts(x)",
                         [f"{', '.join(_X)} = x", *_block(lambda e: _emit_se3_exp_parts(e, _X))],
                         "se3_exp on floats: (rows of exp(xi), dexp_xi @ eta).")


def se3_exp(x) -> Pose:
    """Finite screw motion exp(X) = (exp(xi), dexp_xi @ eta)."""
    return Pose(*map(np.array, _se3_exp_parts(_floats(x))))


def se3_ad(x) -> np.ndarray:
    """Matrix of the se(3) bracket: se3_ad(X1) @ X2 = [X1, X2]
    = (xi1 x xi2, xi1 x eta2 - xi2 x eta1)."""
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


def se3_dexp(x) -> np.ndarray:
    """6x6 right-translated dexp on SE(3): V = se3_dexp(-X) @ Xdot."""
    x = np.asarray(x, dtype=float)
    xi, eta = x[:3], x[3:]
    xn = math.sqrt(xi @ xi)
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


def _emit_se3_dexpinv_apply(e: _Emitter, x, v):
    """(J^-1 w, J^-1 (u - Q J^-1 w)) for v = (w, u): se3_dexp is [[J, 0], [Q, J]],
    and Q, the lower-left block, is applied as the nested cross products of
    its hat-product terms (as in _se3_q)."""
    xi, eta = x[:3], x[3:]
    c = e.scalar("_dinv(xn)")
    top = _emit_so3_dexpinv_apply(e, xi, v[:3], c)
    ee = e.cross(eta, top)
    p = e.cross(xi, top)
    xe = e.cross(xi, ee)
    ep = e.cross(eta, p)
    xep = e.cross(xi, ep)
    xxe = e.cross(xi, xe)
    epp = e.cross(eta, e.cross(xi, p))
    xepp = e.cross(xi, epp)
    xxep = e.cross(xi, xep)
    c3, c4, c5 = (e.scalar(f"{f}(xn)") for f in ("_xs3", "_q2", "_q3"))
    rest = [e.scalar(f"{v[3 + i]} - (0.5 * {ee[i]}"
                     f" + {c3} * ({xe[i]} + {ep[i]} + {xep[i]})"
                     f" + {c4} * ({xxe[i]} + {epp[i]} - 3.0 * {xep[i]})"
                     f" + {c5} * ({xepp[i]} + {xxep[i]}))")
            for i in range(3)]
    return (*top, *_emit_so3_dexpinv_apply(e, xi, rest, c))


se3_dexpinv_apply = _define(
    "se3_dexpinv_apply(x, v)",
    [f"{', '.join(_X)} = _floats(x)", _UNPACK_V, _NORM,
     *_block(lambda e: _emit_se3_dexpinv_apply(e, _X, _V), pole=True)],
    """Inverse of se3_dexp(x) applied to v, as a float tuple: the closed form
    (_emit_se3_dexpinv_apply) at every angle; straight-line code, x and v as
    float sequences or ndarrays.""")


# ---------------------------------------------------------------------------
# SO(3) x R3 (direct product)
# ---------------------------------------------------------------------------

def dp_compose(c1: Pose, c2: Pose) -> Pose:
    """Direct product: rotations compose, translations add."""
    return Pose(c1.R @ c2.R, c1.r + c2.r)


def dp_exp(x) -> Pose:
    x = _floats(x)
    return Pose(so3_exp(x[:3]), np.array(x[3:], dtype=float))


def dp_dexpinv(x) -> np.ndarray:
    """Block-diagonal (so(3) dexpinv, I), the columns of the stage loop's kernel
    ``DirectProductGroup.dexpinv_apply``: rotation and translation decouple."""
    return np.array([DirectProductGroup.dexpinv_apply(x, e) for e in _EYE6.tolist()]).T


dp_dexpinv_apply = _define(
    "dp_dexpinv_apply(x, v)",
    [f"{', '.join(_X[:3])} = _floats(x)[:3]", _UNPACK_V, _NORM,
     *_block(lambda e: (*_emit_so3_dexpinv_apply(e, _X[:3], _V[:3], e.scalar("_dinv(xn)")),
                        *_V[3:]), pole=True)],
    """dp_dexpinv(x) @ v as a float tuple: the rotation part through
    the so(3) dexpinv, the translation part unchanged; x may be the rotation part
    alone.""")


# ---------------------------------------------------------------------------
# configuration-space group objects
# ---------------------------------------------------------------------------

def _emit_se3_advance(e: _Emitter):
    rows, t = _emit_se3_exp_parts(e, _X)
    return tuple(e.mtv(rows, row) for row in _ROT), e.mv(_ROT, t)


def _emit_dp_advance(e: _Emitter):
    rows, _ = _emit_so3_exp_rows(e, _X[:3])
    return tuple(e.mtv(rows, row) for row in _ROT), _X[3:]


def _advance_kernel(emit, doc: str):
    """The staticmethod ``advance_parts(rot, phi)`` returning ``emit``'s
    outputs for R = rot (rows) and phi = (xi, eta)."""
    head = [str(_ROT).replace("'", "") + " = rot", f"{', '.join(_X)} = phi"]
    return staticmethod(_define("advance_parts(rot, phi)", [*head, *_block(emit)], doc))


class CSpaceGroup:
    """Behavior bundle of one candidate configuration-space Lie group."""

    name: str

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class SE3Group(CSpaceGroup):
    """Semidirect product; elements are proper rigid body motions."""

    name = "se3"
    compose = staticmethod(se3_compose)
    exp = staticmethod(se3_exp)
    dexpinv = staticmethod(se3_dexpinv)
    dexpinv_apply = staticmethod(se3_dexpinv_apply)

    advance_parts = _advance_kernel(
        _emit_se3_advance,
        """compose((R, r), exp(phi)) on floats as (rows of the new rotation,
        translation increment), so long runs can add the increment compensated.""")


class DirectProductGroup(CSpaceGroup):
    """SO(3) x R3; represents configurations but not frame transformations."""

    name = "so3xr3"
    compose = staticmethod(dp_compose)
    exp = staticmethod(dp_exp)
    dexpinv = staticmethod(dp_dexpinv)
    dexpinv_apply = staticmethod(dp_dexpinv_apply)

    advance_parts = _advance_kernel(
        _emit_dp_advance, "compose((R, r), exp(phi)) on floats: (rows of R exp(xi), eta).")


SE3 = SE3Group()
SO3R3 = DirectProductGroup()

GROUPS = {SE3.name: SE3, SO3R3.name: SO3R3}
