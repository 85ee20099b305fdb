"""Singularity-free global parameterizations of the two c-space groups.

Euler parameters (unit quaternions) cover SO(3)xR3, dual quaternions cover
SE(3).  Quaternions are flat arrays ``(q0, q1, q2, q3)`` with the scalar
first.  A dual quaternion bundles the rotation quaternion Q with a dual part
Qe subject to ``|Q| = 1`` and the Pluecker condition ``Q . Qe = 0``; the
translation enters through ``Qe = 0.5 * (0, r) * Q``.

The H matrices map parameter rates to twists, ``V = H(A) @ Adot``.  Their
"inverse" is the constrained right inverse: the 6x8 map augmented with the
gradients of the two invariants, which makes the reconstructed rates
tangent to the constraint manifold.  The augmented matrix has a closed-form
inverse for every nonzero Q (``E E^T = D D^T = |Q|^2 I``, ``E Q = D Q = 0``),
so the reconstruction and the pose conversion run entrywise on floats: they
are evaluated once per body and RK stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liealg import Pose, _floats, hat3

_UNIT_TOL = 1e-8


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_mul(q, p) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    qv, pv = q[1:], p[1:]
    return np.concatenate([
        [q[0] * p[0] - qv @ pv],
        q[0] * pv + p[0] * qv + np.cross(qv, pv),
    ])


def quat_conj(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def hamilton_plus(q) -> np.ndarray:
    """Left-multiplication matrix: quat_mul(q, p) == hamilton_plus(q) @ p."""
    q = np.asarray(q, dtype=float)
    m = np.empty((4, 4))
    m[0, 0] = q[0]
    m[0, 1:] = -q[1:]
    m[1:, 0] = q[1:]
    m[1:, 1:] = q[0] * np.eye(3) + hat3(q[1:])
    return m


def hamilton_minus(q) -> np.ndarray:
    """Right-multiplication matrix: quat_mul(p, q) == hamilton_minus(q) @ p."""
    q = np.asarray(q, dtype=float)
    m = np.empty((4, 4))
    m[0, 0] = q[0]
    m[0, 1:] = -q[1:]
    m[1:, 0] = q[1:]
    m[1:, 1:] = q[0] * np.eye(3) - hat3(q[1:])
    return m


def dmat(q) -> np.ndarray:
    """3x4 matrix D(Q) = [-q | q0 I + q^]."""
    q = np.asarray(q, dtype=float)
    m = np.empty((3, 4))
    m[:, 0] = -q[1:]
    m[:, 1:] = q[0] * np.eye(3) + hat3(q[1:])
    return m


def emat(q) -> np.ndarray:
    """3x4 matrix E(Q) = [-q | q0 I - q^]."""
    q = np.asarray(q, dtype=float)
    m = np.empty((3, 4))
    m[:, 0] = -q[1:]
    m[:, 1:] = q[0] * np.eye(3) - hat3(q[1:])
    return m


def rotation_from_quat(q) -> np.ndarray:
    """R = D(Q) E(Q)^T for unit Q; raises if the norm is off by > 1e-8."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if abs(n - 1.0) > _UNIT_TOL:
        raise ValueError(f"quaternion norm {n:.12g} violates the unit invariant")
    return dmat(q) @ emat(q).T


def quat_from_rotation(r) -> np.ndarray:
    """Unit quaternion of a rotation matrix (Shepperd's method)."""
    r = np.asarray(r, dtype=float)
    t = np.trace(r)
    if t > 0:
        s = 2.0 * np.sqrt(t + 1.0)
        q = np.array([0.25 * s,
                      (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s,
                      (r[1, 0] - r[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = 2.0 * np.sqrt(1.0 + r[i, i] - r[j, j] - r[k, k])
        q = np.empty(4)
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    return q / np.linalg.norm(q)


@dataclass(frozen=True)
class DualQuaternion:
    """Rotation quaternion plus dual part; 8 dependent pose coordinates."""

    q: np.ndarray
    qe: np.ndarray

    @staticmethod
    def identity() -> "DualQuaternion":
        return DualQuaternion(quat_identity(), np.zeros(4))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.q, self.qe])

    @staticmethod
    def from_vector(v) -> "DualQuaternion":
        v = np.asarray(v, dtype=float)
        return DualQuaternion(v[:4].copy(), v[4:].copy())

    def norm_defect(self) -> float:
        return abs(float(np.linalg.norm(self.q)) - 1.0)

    def plucker_defect(self) -> float:
        return abs(float(self.q @ self.qe))

    def negated(self) -> "DualQuaternion":
        return DualQuaternion(-self.q, -self.qe)


def dq_mul(a: DualQuaternion, b: DualQuaternion) -> DualQuaternion:
    return DualQuaternion(
        quat_mul(a.q, b.q),
        quat_mul(a.q, b.qe) + quat_mul(a.qe, b.q),
    )


def dq_from_pose(c: Pose) -> DualQuaternion:
    q = quat_from_rotation(c.R)
    t = np.concatenate([[0.0], c.r])
    return DualQuaternion(q, 0.5 * quat_mul(t, q))


def quat_rotation_rows(q0: float, q1: float, q2: float, q3: float) -> tuple:
    """Rows of R = D(Q) E(Q)^T for Q scaled to unit norm, entrywise."""
    n = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
    if n == 0.0:
        raise ValueError("zero rotation quaternion has no rotation")
    q0, q1, q2, q3 = q0 / n, q1 / n, q2 / n, q3 / n
    s0, s1, s2, s3 = q0 * q0, q1 * q1, q2 * q2, q3 * q3
    x01, x02, x03 = q0 * q1, q0 * q2, q0 * q3
    x12, x13, x23 = q1 * q2, q1 * q3, q2 * q3
    return ((s0 + s1 - s2 - s3, 2.0 * (x12 - x03), 2.0 * (x13 + x02)),
            (2.0 * (x12 + x03), s0 - s1 + s2 - s3, 2.0 * (x23 - x01)),
            (2.0 * (x13 - x02), 2.0 * (x23 + x01), s0 - s1 - s2 + s3))


def pose_from_dq(a: DualQuaternion) -> Pose:
    """Pose of a dual quaternion: R from Q / |Q| and r = 2 vec(Qe Q*).

    ``a.q`` and ``a.qe`` may be any length-4 float sequences.
    """
    q0, q1, q2, q3 = _floats(a.q)
    e0, e1, e2, e3 = _floats(a.qe)
    # vec(Qe Q*) = q0 e - e0 q + q x e
    r = np.array((2.0 * (q0 * e1 - e0 * q1 + q2 * e3 - q3 * e2),
                  2.0 * (q0 * e2 - e0 * q2 + q3 * e1 - q1 * e3),
                  2.0 * (q0 * e3 - e0 * q3 + q1 * e2 - q2 * e1)))
    return Pose(np.array(quat_rotation_rows(q0, q1, q2, q3)), r)


def dq_align(a: DualQuaternion, ref: DualQuaternion) -> DualQuaternion:
    """Pick the sign of the double cover closest to a reference."""
    return a.negated() if float(a.q @ ref.q) < 0.0 else a


# ---------------------------------------------------------------------------
# kinematic reconstruction maps
# ---------------------------------------------------------------------------

def h_body(a: DualQuaternion) -> np.ndarray:
    """6x8 map with V_body = h_body(A) @ d(A)/dt along invariant-preserving
    trajectories."""
    e = emat(a.q)
    h = np.zeros((6, 8))
    h[:3, :4] = 2.0 * e
    h[3:, :4] = -2.0 * (e @ dmat(a.q).T @ dmat(a.qe))
    h[3:, 4:] = 2.0 * e
    return h


def h_mixed(a: DualQuaternion) -> np.ndarray:
    """6x8 map giving the mixed velocity (body omega, spatial rdot)."""
    h = np.zeros((6, 8))
    h[:3, :4] = 2.0 * emat(a.q)
    h[3:, :4] = -2.0 * dmat(a.qe)
    h[3:, 4:] = 2.0 * dmat(a.q)
    return h


def h_euler_params(q, r=None) -> np.ndarray:
    """6x7 map for the Euler-parameter chart of SO(3)xR3; the translation
    block is the identity (decoupled)."""
    h = np.zeros((6, 7))
    h[:3, :4] = 2.0 * emat(q)
    h[3:, 4:] = np.eye(3)
    return h


def _omega_rates(q0, q1, q2, q3, w0, w1, w2) -> tuple:
    """(h, Qdot) with h = 1 / (2 |Q|^2) and Qdot = h E(Q)^T omega, the
    solution of [2 E(Q); Q^T] Qdot = [omega; 0] for any nonzero Q."""
    n2 = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3
    if n2 == 0.0:
        raise ValueError("zero rotation quaternion: the rate map is singular")
    h = 0.5 / n2
    # E^T w = (-q . w, q0 w + q x w)
    return (h,
            -h * (q1 * w0 + q2 * w1 + q3 * w2),
            h * (q0 * w0 + q2 * w2 - q3 * w1),
            h * (q0 * w1 + q3 * w0 - q1 * w2),
            h * (q0 * w2 + q1 * w1 - q2 * w0))


def reconstruct_rates(a: DualQuaternion, v, mixed: bool = False) -> tuple:
    """Rates dA/dt with H @ rates = V, tangent to both invariants.

    H is augmented with the normalization and Pluecker gradient rows (zero
    right-hand sides).  The augmented matrix is block lower triangular with
    both diagonal blocks [2 X(Q); Q^T], X = E on the body rows and D on the
    mixed ones, whose inverse is [X^T / (2|Q|^2), Q / |Q|^2] for any nonzero
    Q, on or off the unit sphere.  Back substitution gives

        Qdot  = E^T omega / (2|Q|^2)
        Qedot = E^T v / (2|Q|^2) + D^T D(Qe) Qdot - Q (Qe . Qdot) / |Q|^2   body
        Qedot = D^T (v / 2 + D(Qe) Qdot) / |Q|^2 - Q (Qe . Qdot) / |Q|^2   mixed

    with D = D(Q), E = E(Q) (the body form uses E^T E D^T = |Q|^2 D^T).
    Returns the 8 rates as a float tuple; ``a.q`` and ``a.qe`` may be any
    length-4 float sequences.  Raises ValueError for Q = 0.
    """
    q0, q1, q2, q3 = _floats(a.q)
    e0, e1, e2, e3 = _floats(a.qe)
    w0, w1, w2, v0, v1, v2 = _floats(v)
    h, d0, d1, d2, d3 = _omega_rates(q0, q1, q2, q3, w0, w1, w2)
    # u = D(Qe) Qdot = -e d0 + e0 d + e x d
    u0 = e0 * d1 - e1 * d0 + e2 * d3 - e3 * d2
    u1 = e0 * d2 - e2 * d0 + e3 * d1 - e1 * d3
    u2 = e0 * d3 - e3 * d0 + e1 * d2 - e2 * d1
    if mixed:
        # D^T p = (-q . p, q0 p - q x p)
        c = 2.0 * h
        p0, p1, p2 = h * v0 + c * u0, h * v1 + c * u1, h * v2 + c * u2
        m0, m1, m2 = -p0, -p1, -p2
    else:
        # E^T (h v) + D^T u = (-q . p, q0 p + q x m), p = h v + u, m = h v - u
        p0, p1, p2 = h * v0 + u0, h * v1 + u1, h * v2 + u2
        m0, m1, m2 = h * v0 - u0, h * v1 - u1, h * v2 - u2
    s = 2.0 * h * (e0 * d0 + e1 * d1 + e2 * d2 + e3 * d3)
    return (d0, d1, d2, d3,
            -(q1 * p0 + q2 * p1 + q3 * p2) - q0 * s,
            q0 * p0 + q2 * m2 - q3 * m1 - q1 * s,
            q0 * p1 + q3 * m0 - q1 * m2 - q2 * s,
            q0 * p2 + q1 * m1 - q2 * m0 - q3 * s)


def euler_reconstruct_rates(q, r, v_mixed) -> tuple:
    """Rates (Qdot, rdot) for the Euler-parameter chart, norm-tangent.

    The 6x7 map augmented with the norm gradient row is block diagonal, so
    Qdot = E(Q)^T omega / (2|Q|^2) and rdot = v (see ``reconstruct_rates``).
    Returns the 7 rates as a float tuple; raises ValueError for Q = 0.
    """
    w0, w1, w2, v0, v1, v2 = _floats(v_mixed)
    _, d0, d1, d2, d3 = _omega_rates(*_floats(q), w0, w1, w2)
    return (d0, d1, d2, d3, v0, v1, v2)
