"""Singularity-free global parameterizations of the two c-space groups.

Euler parameters (unit quaternions) cover SO(3)xR3, dual quaternions cover
SE(3).  Quaternions are flat arrays ``(q0, q1, q2, q3)`` with the scalar
first.  A dual quaternion is the 8 floats (Q, Qe) of the rotation quaternion
Q and a dual part Qe subject to ``|Q| = 1`` and the Pluecker condition
``Q . Qe = 0``; the translation enters through ``Qe = 0.5 * (0, r) * Q``.
The chart maps take a body's flat chart slice as the quaternion chart's
step holds it: (Q, Qe) on SE(3), (Q, r) on SO(3)xR3.

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


def pose_from_dq(a) -> tuple:
    """The (R rows, r) float pair of the dual quaternion a = (Q, Qe), 8
    floats: R from Q / |Q| and r = 2 vec(Qe Q*)."""
    q0, q1, q2, q3, e0, e1, e2, e3 = a
    # vec(Qe Q*) = q0 e - e0 q + q x e
    return quat_rotation_rows(q0, q1, q2, q3), (2.0 * (q0 * e1 - e0 * q1 + q2 * e3 - q3 * e2),
                                                2.0 * (q0 * e2 - e0 * q2 + q3 * e1 - q1 * e3),
                                                2.0 * (q0 * e3 - e0 * q3 + q1 * e2 - q2 * e1))


# ---------------------------------------------------------------------------
# kinematic reconstruction maps
# ---------------------------------------------------------------------------

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


def reconstruct_rates(a, v) -> tuple:
    """Rates dA/dt with H @ rates = V (a body twist), tangent to both invariants.

    H is augmented with the normalization and Pluecker gradient rows (zero
    right-hand sides).  The augmented matrix is block lower triangular with
    both diagonal blocks [2 E(Q); Q^T], whose inverse is
    [E^T / (2|Q|^2), Q / |Q|^2] for any nonzero Q, on or off the unit
    sphere.  Back substitution gives

        Qdot  = E^T omega / (2|Q|^2)
        Qedot = E^T v / (2|Q|^2) + D^T D(Qe) Qdot - Q (Qe . Qdot) / |Q|^2

    with D = D(Q), E = E(Q) (using E^T E D^T = |Q|^2 D^T).
    ``a`` is the 8 floats (Q, Qe) and ``v`` the 6 of V; returns the 8 rates
    as a float tuple.  Raises ValueError for Q = 0.
    """
    q0, q1, q2, q3, e0, e1, e2, e3 = a
    w0, w1, w2, v0, v1, v2 = v
    h, d0, d1, d2, d3 = _omega_rates(q0, q1, q2, q3, w0, w1, w2)
    # u = D(Qe) Qdot = -e d0 + e0 d + e x d
    u0 = e0 * d1 - e1 * d0 + e2 * d3 - e3 * d2
    u1 = e0 * d2 - e2 * d0 + e3 * d1 - e1 * d3
    u2 = e0 * d3 - e3 * d0 + e1 * d2 - e2 * d1
    # E^T (h v) + D^T u = (-q . p, q0 p + q x m), p = h v + u, m = h v - u
    p0, p1, p2 = h * v0 + u0, h * v1 + u1, h * v2 + u2
    m0, m1, m2 = h * v0 - u0, h * v1 - u1, h * v2 - u2
    s = 2.0 * h * (e0 * d0 + e1 * d1 + e2 * d2 + e3 * d3)
    return (d0, d1, d2, d3,
            -(q1 * p0 + q2 * p1 + q3 * p2) - q0 * s,
            q0 * p0 + q2 * m2 - q3 * m1 - q1 * s,
            q0 * p1 + q3 * m0 - q1 * m2 - q2 * s,
            q0 * p2 + q1 * m1 - q2 * m0 - q3 * s)


def euler_reconstruct_rates(a, v_mixed) -> tuple:
    """Rates (Qdot, rdot) for the Euler-parameter chart a = (Q, r), 7
    floats, norm-tangent.

    The 6x7 map augmented with the norm gradient row is block diagonal, so
    Qdot = E(Q)^T omega / (2|Q|^2) and rdot = v (see ``reconstruct_rates``).
    Returns the 7 rates as a float tuple; raises ValueError for Q = 0.
    """
    w0, w1, w2, v0, v1, v2 = v_mixed
    _, d0, d1, d2, d3 = _omega_rates(*a[:4], w0, w1, w2)
    return (d0, d1, d2, d3, v0, v1, v2)
