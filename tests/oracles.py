"""Independent oracles shared by the test modules.

These deliberately avoid the closed forms under test: matrix exponentials go
through scipy's scaling-and-squaring expm, dexp maps through truncated
operator series, derivatives through central finite differences.
"""


import numpy as np
from scipy.linalg import expm

from screwmbs.liealg import (
    Pose,
    add3,
    cross3,
    dot3,
    hat3,
    mtv3,
    mv3,
    se3_ad,
    se3_hat,
    sub3,
)

# Bernoulli numbers B_0..B_12 with the B_1 = -1/2 convention.
BERNOULLI = [1.0, -0.5, 1.0 / 6.0, 0.0, -1.0 / 30.0, 0.0, 1.0 / 42.0, 0.0,
             -1.0 / 30.0, 0.0, 5.0 / 66.0, 0.0, -691.0 / 2730.0]


def expm_so3(xi):
    return expm(hat3(xi))


def expm_se3(x) -> Pose:
    m = expm(se3_hat(x))
    return Pose(m[:3, :3], m[:3, 3])


def dexp_series(ad, nterms=12):
    """Truncated sum ad^i/(i+1)! for a given adjoint matrix."""
    n = ad.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    fact = 1.0
    for i in range(1, nterms):
        term = term @ ad
        fact *= i + 1
        out = out + term / fact
    return out


def dexpinv_series(ad, nterms=12):
    """Truncated Bernoulli series sum B_i/i! ad^i."""
    n = ad.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    fact = 1.0
    for i in range(1, nterms):
        term = term @ ad
        fact *= i
        out = out + (BERNOULLI[i] / fact) * term
    return out


def se3_dexp_series(x, nterms=12):
    return dexp_series(se3_ad(x), nterms)


def so3_dexp_series(xi, nterms=12):
    return dexp_series(hat3(xi), nterms)


def central_diff(f, t, h=1e-6):
    return (np.asarray(f(t + h)) - np.asarray(f(t - h))) / (2.0 * h)


def random_screw(rng, angle_lo=0.1, angle_hi=3.0, eta_scale=2.0):
    xi = rng.normal(size=3)
    xi *= rng.uniform(angle_lo, angle_hi) / np.linalg.norm(xi)
    eta = rng.uniform(-eta_scale, eta_scale, 3)
    return np.concatenate([xi, eta])


def random_rotation(rng, angle_hi=3.0):
    xi = rng.normal(size=3)
    xi *= rng.uniform(0.05, angle_hi) / np.linalg.norm(xi)
    return expm(hat3(xi))


def random_pose(rng, angle_hi=3.0, r_scale=2.0) -> Pose:
    return Pose(random_rotation(rng, angle_hi), rng.uniform(-r_scale, r_scale, 3))


# ---------------------------------------------------------------------------
# joint constraint rows in world-frame form: every row is built from the
# spatial directions Ra alpha, Rb beta and the spatial anchor motion, the
# formulation the relative-frame kernel dynamics._joint_rows replaced
# ---------------------------------------------------------------------------

_I3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_Z3 = (0.0, 0.0, 0.0)
_MINUS_I3 = ((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))


def _anchor_motion(mixed, rot, omega, vel, anchor):
    """Spatial velocity of p = r + R a and its acceleration with V' = 0."""
    c = cross3(omega, anchor)
    if mixed:
        return add3(vel, mv3(rot, c)), mv3(rot, cross3(omega, c))
    s = add3(vel, c)
    return mv3(rot, s), mv3(rot, cross3(omega, s))


def world_frame_joint_rows(joint, frame_a, frame_b, mixed: bool):
    """(rows_a, rows_b, eta) of one joint on (R rows, r, omega, v) frames,
    with the signature and output layout of dynamics._joint_rows."""
    ra, pa, wa, va = frame_a
    rb, pb, wb, vb = frame_b
    aa, ab = joint._anchors
    grounded = joint.body_a is None
    if grounded:
        pa, pa_dot, pa_dd = aa, _Z3, _Z3
    else:
        pa = add3(pa, mv3(ra, aa))
        pa_dot, pa_dd = _anchor_motion(mixed, ra, wa, va, aa)
    pb = add3(pb, mv3(rb, ab))
    pb_dot, pb_dd = _anchor_motion(mixed, rb, wb, vb, ab)

    rows_a = None if grounded else []
    rows_b = []
    eta = []
    for row in joint._rows:
        if row[0] == "anchor":
            if mixed:
                # h = pa - pb, spatial
                if not grounded:
                    for i in range(3):
                        c = cross3(ra[i], aa)
                        rows_a.append([-c[0], -c[1], -c[2], *_I3[i]])
                for i in range(3):
                    rows_b.append([*cross3(rb[i], ab), *_MINUS_I3[i]])
                eta.extend(sub3(pb_dd, pa_dd))
            else:
                # h = Rb^T (pa - pb), child frame
                u = mtv3(rb, sub3(pa, pb))
                if not grounded:
                    # Rb^T Ra, column by column, back to rows
                    rba = list(zip(*(mtv3(rb, col) for col in zip(*ra))))
                    for i in range(3):
                        c = cross3(rba[i], aa)
                        rows_a.append([-c[0], -c[1], -c[2], *rba[i]])
                # hat(u) + hat(anchor_b)
                s0, s1, s2 = add3(u, ab)
                rows_b.extend(([0.0, -s2, s1, -1.0, 0.0, 0.0],
                               [s2, 0.0, -s0, 0.0, -1.0, 0.0],
                               [-s1, s0, 0.0, 0.0, 0.0, -1.0]))
                t1 = cross3(wb, cross3(wb, u))
                t2 = cross3(wb, mtv3(rb, sub3(pa_dot, pb_dot)))
                t3 = mtv3(rb, sub3(pa_dd, pb_dd))
                eta.extend([-(t1[i] - 2.0 * t2[i] + t3[i]) for i in range(3)])
        elif row[0] == "axisdot":
            # h = (Ra alpha) . (Rb beta)
            alpha, beta = row[1], row[2]
            a_s = mv3(ra, alpha)
            b_s = mv3(rb, beta)
            if not grounded:
                rows_a.append([*cross3(alpha, mtv3(ra, b_s)), 0.0, 0.0, 0.0])
            rows_b.append([*cross3(beta, mtv3(rb, a_s)), 0.0, 0.0, 0.0])
            a_dot = mv3(ra, cross3(wa, alpha))
            b_dot = mv3(rb, cross3(wb, beta))
            a_dd = mv3(ra, cross3(wa, cross3(wa, alpha)))
            b_dd = mv3(rb, cross3(wb, cross3(wb, beta)))
            eta.append(-(dot3(a_dd, b_s) + 2.0 * dot3(a_dot, b_dot) + dot3(a_s, b_dd)))
        else:  # offsetdot: h = (Ra n) . (pb - pa)
            n = row[1]
            n_s = mv3(ra, n)
            d = sub3(pb, pa)
            if not grounded:
                n_a = mtv3(ra, n_s)
                c = sub3(cross3(n, mtv3(ra, d)), cross3(aa, n_a))
                lin = n_s if mixed else n_a
                rows_a.append([*c, -lin[0], -lin[1], -lin[2]])
            n_b = mtv3(rb, n_s)
            rows_b.append([*cross3(ab, n_b), *(n_s if mixed else n_b)])
            n_dot = mv3(ra, cross3(wa, n))
            n_dd = mv3(ra, cross3(wa, cross3(wa, n)))
            eta.append(-(dot3(n_dd, d) + 2.0 * dot3(n_dot, sub3(pb_dot, pa_dot))
                         + dot3(n_s, sub3(pb_dd, pa_dd))))
    return rows_a, rows_b, eta
