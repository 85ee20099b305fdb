"""Singularity-free global parameterizations of the two c-space groups.

Euler parameters (unit quaternions) cover SO(3)xR3, dual quaternions cover
SE(3).  Quaternions are flat arrays ``(q0, q1, q2, q3)`` with the scalar
first.  A dual quaternion is the 8 floats (Q, Qe) of the rotation quaternion
Q and a dual part Qe subject to ``|Q| = 1`` and the Pluecker condition
``Q . Qe = 0``; the translation enters through ``Qe = 0.5 * (0, r) * Q``.
The chart maps take a body's flat chart slice as the quaternion chart's
step holds it: (Q, Qe) on SE(3), (Q, r) on SO(3)xR3.

On SE(3) the chart integrates the kinematic equation ``Adot = 1/2 A V``,
with the body twist V = (omega, v) as the dual quaternion of the pure
quaternions omega and v.  The field is linear in A and tangent to both
invariants for every A: with X = Q* Qe, the rates of |Q|^2 and Q . Qe are
the real parts of |Q|^2 omega and (X omega - omega X + |Q|^2 v) / 2, zero
for pure omega and v, so the rates need no projection.
"""

from __future__ import annotations

import math

import numpy as np

from .liealg import Pose


def quat_mul(q, p) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    qv, pv = q[1:], p[1:]
    return np.concatenate([
        [q[0] * p[0] - qv @ pv],
        q[0] * pv + p[0] * qv + np.cross(qv, pv),
    ])


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


def dq_from_pose(c: Pose) -> list:
    """The dual quaternion (Q, Qe) of a pose as 8 floats."""
    q = quat_from_rotation(c.R)
    t = np.concatenate([[0.0], c.r])
    return np.concatenate([q, 0.5 * quat_mul(t, q)]).tolist()


def quat_rotation_rows(q0: float, q1: float, q2: float, q3: float, nn: float) -> tuple:
    """Rows of R = D(Q) E(Q)^T for Q scaled to unit norm, entrywise, given
    nn = |Q|^2 as ``q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3``."""
    n = math.sqrt(nn)
    if n == 0.0:
        raise ValueError("zero rotation quaternion has no rotation")
    q0, q1, q2, q3 = q0 / n, q1 / n, q2 / n, q3 / n
    s0, s1, s2, s3 = q0 * q0, q1 * q1, q2 * q2, q3 * q3
    x01, x02, x03 = q0 * q1, q0 * q2, q0 * q3
    x12, x13, x23 = q1 * q2, q1 * q3, q2 * q3
    return ((s0 + s1 - s2 - s3, 2.0 * (x12 - x03), 2.0 * (x13 + x02)),
            (2.0 * (x12 + x03), s0 - s1 + s2 - s3, 2.0 * (x23 - x01)),
            (2.0 * (x13 - x02), 2.0 * (x23 + x01), s0 - s1 - s2 + s3))


def pose_from_dq(a) -> tuple:
    """The (R rows, r) float pair of the pose of A / |A| for the dual
    quaternion a = (Q, Qe), 8 floats: R from Q / |Q| and
    r = 2 vec(Qe Q*) / |Q|^2.  Raises ValueError for Q = 0."""
    q0, q1, q2, q3, e0, e1, e2, e3 = a
    nn = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3
    rows = quat_rotation_rows(q0, q1, q2, q3, nn)  # raises before the division
    s = 2.0 / nn
    # vec(Qe Q*) = q0 e - e0 q + q x e
    return rows, (s * (q0 * e1 - e0 * q1 + q2 * e3 - q3 * e2),
                  s * (q0 * e2 - e0 * q2 + q3 * e1 - q1 * e3),
                  s * (q0 * e3 - e0 * q3 + q1 * e2 - q2 * e1))


# ---------------------------------------------------------------------------
# kinematic reconstruction maps
# ---------------------------------------------------------------------------

def reconstruct_rates(a, v) -> tuple:
    """Rates dA/dt = 1/2 A V of the dual quaternion a = (Q, Qe), 8 floats,
    for the body twist V = (omega, v), the 6 floats ``v``: Qdot = 1/2 Q omega
    and Qedot = 1/2 (Qe omega + Q v), quaternion products with pure omega
    and v.  Returns the 8 rates as a float tuple."""
    q0, q1, q2, q3, e0, e1, e2, e3 = a
    w0, w1, w2, v0, v1, v2 = v
    # P w = (-p . w, p0 w + p x w) for P = Q, Qe
    return (-0.5 * (q1 * w0 + q2 * w1 + q3 * w2),
            0.5 * (q0 * w0 + q2 * w2 - q3 * w1),
            0.5 * (q0 * w1 + q3 * w0 - q1 * w2),
            0.5 * (q0 * w2 + q1 * w1 - q2 * w0),
            -0.5 * (e1 * w0 + e2 * w1 + e3 * w2 + q1 * v0 + q2 * v1 + q3 * v2),
            0.5 * (e0 * w0 + e2 * w2 - e3 * w1 + q0 * v0 + q2 * v2 - q3 * v1),
            0.5 * (e0 * w1 + e3 * w0 - e1 * w2 + q0 * v1 + q3 * v0 - q1 * v2),
            0.5 * (e0 * w2 + e1 * w1 - e2 * w0 + q0 * v2 + q1 * v1 - q2 * v0))


def euler_reconstruct_rates(a, v_mixed) -> tuple:
    """Rates (Qdot, rdot) for the Euler-parameter chart a = (Q, r), 7
    floats, norm-tangent: Qdot = E(Q)^T omega / (2|Q|^2), the solution of
    [2 E(Q); Q^T] Qdot = [omega; 0] for any nonzero Q, and rdot = v.
    Returns the 7 rates as a float tuple; raises ValueError for Q = 0.
    """
    q0, q1, q2, q3 = a[:4]
    w0, w1, w2, v0, v1, v2 = v_mixed
    n2 = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3
    if n2 == 0.0:
        raise ValueError("zero rotation quaternion: the rate map is singular")
    h = 0.5 / n2
    # E^T w = (-q . w, q0 w + q x w)
    return (-h * (q1 * w0 + q2 * w1 + q3 * w2),
            h * (q0 * w0 + q2 * w2 - q3 * w1),
            h * (q0 * w1 + q3 * w0 - q1 * w2),
            h * (q0 * w2 + q1 * w1 - q2 * w0),
            v0, v1, v2)
