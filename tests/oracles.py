"""Independent oracles shared by the test modules.

These deliberately avoid the closed forms under test: matrix exponentials go
through scipy's scaling-and-squaring expm, dexp maps through truncated
operator series, derivatives through central finite differences.
"""


import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from screwmbs.dynamics import (
    _float_tuple,
    _frames,
    MIXED,
    Gravity,
    LinearSpring,
    MbsState,
    joint_rows,
    spatial_inertia,
)
from screwmbs import liealg
from screwmbs.dualquat import quat_mul, quat_rotation_rows
from screwmbs.integrate import integrate
from screwmbs.liealg import (
    _COEF_SERIES_ANGLE,
    Pose,
    _check_pole,
    _floats,
    dp_dexpinv,
    hat3,
    rotation_error,
    se3_ad,
    se3_dexp,
    se3_hat,
    so3_exp,
    so3_log,
)

# plain-float 3-vector kernels: the operation order of liealg._Emitter's ops

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


def vee3(m) -> np.ndarray:
    """Inverse of hat3 for a skew-symmetric 3x3 matrix."""
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def dp_matrix(c: Pose) -> np.ndarray:
    """7x7 matrix representative of the direct product group."""
    m = np.eye(7)
    m[:3, :3] = c.R
    m[3:6, 6] = c.r
    return m


def random_rotation(rng, angle_hi=3.0):
    xi = rng.normal(size=3)
    xi *= rng.uniform(0.05, angle_hi) / np.linalg.norm(xi)
    return expm(hat3(xi))


def random_pose(rng, angle_hi=3.0, r_scale=2.0) -> Pose:
    return Pose(random_rotation(rng, angle_hi), rng.uniform(-r_scale, r_scale, 3))


# ---------------------------------------------------------------------------
# group inverses and logarithms, in closed form
# ---------------------------------------------------------------------------

def se3_inverse(c: Pose) -> Pose:
    return Pose(c.R.T, -(c.R.T @ c.r))


def se3_log(c: Pose) -> np.ndarray:
    """Inverse of se3_exp (same branch restrictions as so3_log)."""
    xi = so3_log(c.R)
    eta = dp_dexpinv(xi)[:3, :3] @ c.r
    return np.concatenate([xi, eta])


def dp_inverse(c: Pose) -> Pose:
    return Pose(c.R.T, -c.r)


def dp_log(c: Pose) -> np.ndarray:
    return np.concatenate([so3_log(c.R), c.r])


GROUP_INVERSE = {"se3": se3_inverse, "so3xr3": dp_inverse}
GROUP_LOG = {"se3": se3_log, "so3xr3": dp_log}


# ---------------------------------------------------------------------------
# the screw-coordinate and three-angle rate maps, in closed form
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
# joint constraint rows in world-frame form: every row is built from the
# spatial directions Ra alpha, Rb beta and the spatial anchor motion, the
# formulation the relative-frame kernel reference_joint_rows replaced
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
    with the signature and output layout of reference_joint_rows."""
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


# ---------------------------------------------------------------------------
# the interpreted body terms: dynamics compiles the same formulas into
# straight-line code (dynamics._emit_body), which must reproduce these
# entries bit for bit
# ---------------------------------------------------------------------------

def reference_gyroscopic_body(inertia_rows, v) -> tuple:
    # ad_V^T (J V) written out: (h_ang x omega + h_lin x v, h_lin x omega)
    v0, v1, v2, v3, v4, v5 = v
    h = [r[0] * v0 + r[1] * v1 + r[2] * v2 + r[3] * v3 + r[4] * v4 + r[5] * v5
         for r in inertia_rows]
    omega, vel = v[:3], v[3:]
    a = cross3(h[:3], omega)
    b = cross3(h[3:], vel)
    c = cross3(h[3:], omega)
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], c[0], c[1], c[2])


def reference_mixed_bias(inertia_rows, mass: float, r0, rot, omega) -> tuple:
    # (omega x Theta omega, m R (omega x (omega x r0))); no linear part at the COM
    a = cross3(omega, mv3(inertia_rows, omega))
    if r0 is None:
        return (a[0], a[1], a[2], 0.0, 0.0, 0.0)
    b = mv3(rot, cross3(omega, cross3(omega, r0)))
    return (a[0], a[1], a[2], mass * b[0], mass * b[1], mass * b[2])


def reference_wrenches(model, rots, origins) -> list[list[float]]:
    """Applied wrenches per body as 6-lists (force_assembly's kernel)."""
    mixed = model._mixed
    out = []
    for rot, fs, r0 in zip(rots, model._gravity_f, model._offsets):
        fb = mtv3(rot, fs)
        tau = cross3(r0, fb) if r0 is not None else (0.0, 0.0, 0.0)
        f = fs if mixed else fb
        out.append([tau[0], tau[1], tau[2], f[0], f[1], f[2]])
    for body, attach, ground, k, has_attach in model._springs_f:
        rot = rots[body]
        att = add3(origins[body], mv3(rot, attach))
        fs = (k * (ground[0] - att[0]), k * (ground[1] - att[1]),
              k * (ground[2] - att[2]))
        fb = mtv3(rot, fs)
        w = out[body]
        if has_attach:
            tau = cross3(attach, fb)
            w[0] += tau[0]
            w[1] += tau[1]
            w[2] += tau[2]
        f = fs if mixed else fb
        w[3] += f[0]
        w[4] += f[1]
        w[5] += f[2]
    return out


def body_frames(poses, velocities) -> list[tuple]:
    """Per-body (R rows, r, omega, v) floats, the interpreted kernels' input,
    from ``Pose`` lists or float pairs and (n, 6) or flat velocities."""
    poses, v = _frames(poses, velocities)
    return [(rot, r, v[6 * i:6 * i + 3], v[6 * i + 3:6 * i + 6])
            for i, (rot, r) in enumerate(poses)]


def reference_body_rhs(model, frames) -> list[float]:
    """Stacked Newton-Euler right-hand sides Q (applied wrench plus the
    velocity-dependent terms) of all bodies, flat."""
    wrenches = reference_wrenches(model, [f[0] for f in frames], [f[1] for f in frames])
    q = []
    for i, ((rot, _, omega, vel), w) in enumerate(zip(frames, wrenches)):
        if model._mixed:
            b = reference_mixed_bias(model._inertia_rows[i], model._masses[i],
                                     model._offsets[i], rot, omega)
            q += [w[0] - b[0], w[1] - b[1], w[2] - b[2],
                  w[3] - b[3], w[4] - b[4], w[5] - b[5]]
        else:
            g = reference_gyroscopic_body(model._mass_rows[i], omega + vel)
            q += [w[0] + g[0], w[1] + g[1], w[2] + g[2],
                  w[3] + g[3], w[4] + g[4], w[5] + g[5]]
    return q


def reference_free_accelerations(model, frames) -> np.ndarray:
    """Vdot = M^-1 Q body by body, for a model without joints."""
    q = reference_body_rhs(model, frames)
    out = []
    for i, rot in enumerate(f[0] for f in frames):
        qi = q[6 * i:6 * i + 6]
        minv = model._mass_inv_rows[i]
        rotate = model._mixed and model._offsets[i] is not None
        if rotate:
            qi = qi[:3] + list(mtv3(rot, qi[3:]))
        q0, q1, q2, q3, q4, q5 = qi
        a = [r[0] * q0 + r[1] * q1 + r[2] * q2 + r[3] * q3 + r[4] * q4 + r[5] * q5
             for r in minv]
        out.append(a[:3] + list(mv3(rot, a[3:])) if rotate else a)
    return np.array(out)


# ---------------------------------------------------------------------------
# Newton-Euler equations of one body, for checks against the stacked
# right-hand side the step loop assembles
# ---------------------------------------------------------------------------

def _put_mixed_coupling(m, at: int, mass: float, r0, rot) -> None:
    """Write the mixed-representation coupling of an off-COM body, -m R hat(r0)
    and its transpose, into the 6x6 block of m that starts at (at, at): the
    reference for ``dynamics._mixed_coupling``."""
    # row by row: (R hat(r0))[i] = R[i] x r0
    coup = np.array([[-mass * c for c in cross3(row, r0)] for row in rot])
    m[at + 3:at + 6, at:at + 3] = coup
    m[at:at + 3, at + 3:at + 6] = coup.T


def newton_euler_body(body, v, wrench) -> tuple[np.ndarray, np.ndarray]:
    """Mass matrix and right-hand side of J V' - ad_V^T J V = W."""
    m = spatial_inertia(body)
    gyro = reference_gyroscopic_body(m.tolist(), np.asarray(v, dtype=float).tolist())
    return m, np.asarray(wrench, dtype=float) + np.array(gyro)


def newton_euler_mixed(body, rotation, v, wrench) -> tuple[np.ndarray, np.ndarray]:
    """Mixed-representation Newton-Euler about the reference frame at P."""
    rot = np.asarray(rotation, dtype=float).tolist()
    v = np.asarray(v, dtype=float).tolist()
    r0 = _float_tuple(body.com_offset) if body.com_offset.any() else None
    m = spatial_inertia(body)
    if r0 is not None:
        _put_mixed_coupling(m, 0, body.mass, r0, rot)
    bias = reference_mixed_bias(body.inertia_ref.tolist(), body.mass, r0, rot, v[:3])
    return m, np.asarray(wrench, dtype=float) - np.array(bias)


# ---------------------------------------------------------------------------
# the interpreted relative-frame joint kernel: dynamics compiles the same
# formulas into straight-line code, which must reproduce these rows bit for
# bit
# ---------------------------------------------------------------------------

_GROUND = (_I3, _Z3, _Z3, _Z3)


def _pose_floats(poses, index):
    if index is None:
        return _I3, _Z3
    return poses[index].R.tolist(), poses[index].r.tolist()


def reference_joint_geometry(joint, poses, model) -> np.ndarray:
    """The interpreted residual h(g) the compiled one replaced, kept as its
    bitwise reference, from a ``Pose`` list."""
    mixed = model.representation == MIXED
    ra, pa = _pose_floats(poses, joint.body_a)
    rb, pb = _pose_floats(poses, joint.body_b)
    aa, ab = joint._anchors
    pa = add3(pa, mv3(ra, aa))
    pb = add3(pb, mv3(rb, ab))
    out = []
    for row in joint._rows:
        if row[0] == "anchor":
            w = sub3(pa, pb)
            out.extend(w if mixed else mtv3(rb, w))
        elif row[0] == "axisdot":
            out.append(dot3(mv3(ra, row[1]), mv3(rb, row[2])))
        else:  # offsetdot
            out.append(dot3(mv3(ra, row[1]), sub3(pb, pa)))
    return np.array(out)


# residual entries per joint kind, tabulated by hand
JOINT_DIMS = {"spherical": 3, "revolute": 5, "prismatic": 5, "universal": 4}


def reference_split_residual(joint, h):
    """(position, orientation) parts of a residual by joint kind: the anchor
    rows of a point joint come first, while the prismatic joint lists its
    three rotation-lock rows before its two offset rows."""
    if joint.kind == "prismatic":
        return h[3:], h[:3]
    return h[:3], h[3:]


def reference_joint_rows(joint, frame_a, frame_b, mixed: bool):
    """The interpreted kernel the compiled rows replaced, kept as their
    bitwise reference: joint_rows on (R rows, r, omega, v) frames: per-row
    6-lists for body_a (None at ground) and body_b, and the eta list.

    Axis-dot rows are built in body a's frame from Rab = Ra^T Rb.  Every row
    is the exact derivative of joint_geometry for any Ra, Rb with
    Rdot = R hat(omega): the integrated R leave SO(3) by roundoff, and rows
    that assume R^T R = I turn that defect into constraint drift.
    """
    ra, pa, wa, va = frame_a
    rb, pb, wb, vb = frame_b
    aa, ab = joint._anchors
    grounded = joint.body_a is None
    if grounded:
        rab = rb
        pa, pa_dot, pa_dd = aa, _Z3, _Z3
    else:
        if joint.kind != "spherical" or not mixed:
            rab = mm3(zip(*ra), rb)
        pa = add3(pa, mv3(ra, aa))
        pa_dot, pa_dd = _anchor_motion(mixed, ra, wa, va, aa)
    pb = add3(pb, mv3(rb, ab))
    pb_dot, pb_dd = _anchor_motion(mixed, rb, wb, vb, ab)

    rows_a = None if grounded else []
    rows_b = []
    eta = []
    beta_prev = None
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
                    for col in zip(*rab):      # rows of Rb^T Ra
                        c = cross3(col, aa)
                        rows_a.append([-c[0], -c[1], -c[2], *col])
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
            # h = alpha . b', b' = Rab beta
            alpha, beta = row[1], row[2]
            if beta is not beta_prev:
                # b' and its second rate, shared by consecutive rows on one
                # beta: Rab'' = wa^2 Rab - 2 wa Rab wb + Rab wb^2 (hats)
                beta_prev = beta
                b_a = mv3(rab, beta)
                wb_beta = cross3(wb, beta)
                c = mv3(rab, wb_beta)
                t = cross3(wa, b_a)
                t = cross3(wa, (t[0] - 2.0 * c[0], t[1] - 2.0 * c[1], t[2] - 2.0 * c[2]))
                b_dd = add3(t, mv3(rab, cross3(wb, wb_beta)))
            if not grounded:
                rows_a.append([*cross3(alpha, b_a), 0.0, 0.0, 0.0])
            rows_b.append([*cross3(beta, mtv3(rab, alpha)), 0.0, 0.0, 0.0])
            eta.append(-dot3(alpha, b_dd))
        else:  # offsetdot: h = (Ra n) . (pb - pa)
            n = row[1]
            n_s = mv3(ra, n)
            d = sub3(pb, pa)
            if not grounded:
                n_a = mtv3(ra, n_s)
                c = sub3(cross3(n, mtv3(ra, d)), cross3(aa, n_a))
                lin = n_s if mixed else n_a
                rows_a.append([*c, -lin[0], -lin[1], -lin[2]])
            n_b = mtv3(rab, n)
            rows_b.append([*cross3(ab, n_b), *(n_s if mixed else n_b)])
            n_dot = mv3(ra, cross3(wa, n))
            n_dd = mv3(ra, cross3(wa, cross3(wa, n)))
            eta.append(-(dot3(n_dd, d) + 2.0 * dot3(n_dot, sub3(pb_dot, pa_dot))
                         + dot3(n_s, sub3(pb_dd, pa_dd))))
    return rows_a, rows_b, eta


def reference_assemble_index1(model, poses, velocities):
    """dynamics.assemble_index1 with the body terms from reference_body_rhs
    and every joint's rows from reference_joint_rows."""
    frames = body_frames(poses, velocities)
    kkt = model._kkt0.copy()
    if model._mixed:
        for i, r0 in enumerate(model._offsets):
            if r0 is not None:
                _put_mixed_coupling(kkt, 6 * i, model._masses[i], r0, frames[i][0])
    rhs = reference_body_rhs(model, frames)
    values = []
    for joint in model.joints:
        frame_a = _GROUND if joint.body_a is None else frames[joint.body_a]
        rows_a, rows_b, eta = reference_joint_rows(joint, frame_a, frames[joint.body_b],
                                                   model._mixed)
        for k in range(joint.dim):
            if rows_a is not None:
                values.extend(rows_a[k])
            values.extend(rows_b[k])
        rhs.extend(eta)
    kkt.put(model._jac_at, values + values)
    return kkt, np.array(rhs)


def reference_constraint_jacobian(model, poses) -> np.ndarray:
    """dynamics.constraint_jacobian before it read the J block of the KKT
    assembly: per-joint blocks placed at offsets computed here."""
    m = model.n_constraints
    jac = np.zeros((m, 6 * model.n_bodies))
    k = 0
    for joint in model.joints:
        blocks = joint_rows(joint, poses, np.zeros((len(poses), 6)), model)[0]
        for idx, blk in blocks.items():
            jac[k:k + joint.dim, 6 * idx:6 * idx + 6] = blk
        k += joint.dim
    return jac


def reference_project_velocities(model, state):
    """dynamics.project_velocities before it solved on the KKT assembly: a
    second dense KKT from spatial_inertia_blocks and
    reference_constraint_jacobian."""
    if not model.joints:
        return state.copy()
    n = model.n_bodies
    nv = 6 * n
    m = model.n_constraints
    jac = reference_constraint_jacobian(model, state.poses)
    kkt = np.zeros((nv + m, nv + m))
    for i, blk in enumerate(model.spatial_inertia_blocks([p.R for p in state.poses])):
        kkt[6 * i:6 * i + 6, 6 * i:6 * i + 6] = blk
    kkt[nv:, :nv] = jac
    kkt[:nv, nv:] = jac.T
    rhs = np.zeros(nv + m)
    rhs[nv:] = -jac @ state.velocities.reshape(-1)
    sol = np.linalg.solve(kkt, rhs)
    out = state.copy()
    out.velocities = state.velocities + sol[:nv].reshape(-1, 6)
    return out


def joint_acc_rhs(joint, poses, velocities, model) -> np.ndarray:
    """eta = -Jdot @ V, the acceleration-constraint right-hand side."""
    _, eta = joint_rows(joint, poses, velocities, model)
    return eta


# ---------------------------------------------------------------------------
# quaternion and dual-quaternion algebra the closed-form chart does without
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualQuaternion:
    """Rotation quaternion plus dual part; 8 dependent pose coordinates.
    The chart maps of ``dualquat`` take them flat (``as_vector``)."""

    q: np.ndarray
    qe: np.ndarray

    @staticmethod
    def from_vector(y) -> "DualQuaternion":
        y = np.asarray(y, dtype=float)
        return DualQuaternion(y[:4], y[4:])

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.q, self.qe])


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


def h_euler_params(q) -> np.ndarray:
    """6x7 map for the Euler-parameter chart of SO(3)xR3; the translation
    block is the identity (decoupled)."""
    h = np.zeros((6, 7))
    h[:3, :4] = 2.0 * emat(q)
    h[3:, 4:] = np.eye(3)
    return h


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


def quat_conj(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def rotation_from_quat(q) -> np.ndarray:
    """R = D(Q) E(Q)^T for unit Q; raises if the norm is off by > 1e-8."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if abs(n - 1.0) > 1e-8:
        raise ValueError(f"quaternion norm {n:.12g} violates the unit invariant")
    return dmat(q) @ emat(q).T


def dq_mul(a: DualQuaternion, b: DualQuaternion) -> DualQuaternion:
    return DualQuaternion(
        quat_mul(a.q, b.q),
        quat_mul(a.q, b.qe) + quat_mul(a.qe, b.q),
    )


def reference_pose_from_dq(a: DualQuaternion) -> Pose:
    """dualquat.pose_from_dq as a ``Pose``, the pose of A / |A|: the same
    float arithmetic, converted to arrays."""
    q0, q1, q2, q3 = _floats(a.q)
    e0, e1, e2, e3 = _floats(a.qe)
    nn = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3
    rot = np.array(quat_rotation_rows(q0, q1, q2, q3, nn))
    s = 2.0 / nn
    r = np.array((s * (q0 * e1 - e0 * q1 + q2 * e3 - q3 * e2),
                  s * (q0 * e2 - e0 * q2 + q3 * e1 - q1 * e3),
                  s * (q0 * e3 - e0 * q3 + q1 * e2 - q2 * e1)))
    return Pose(rot, r)


def dq_negated(a: DualQuaternion) -> DualQuaternion:
    return DualQuaternion(-a.q, -a.qe)


def dq_align(a: DualQuaternion, ref: DualQuaternion) -> DualQuaternion:
    """Pick the sign of the double cover closest to a reference."""
    return dq_negated(a) if float(a.q @ ref.q) < 0.0 else a


def state_at(record, k: int) -> MbsState:
    """Sample k of a TrajectoryRecord as an MbsState."""
    poses = [Pose(rot, pos) for rot, pos in zip(record.rotations[k], record.positions[k])]
    return MbsState(poses, record.velocities[k].copy(), float(record.times[k]))


def coupled_step(model, state, dt: float, tableau):
    """Advance poses and velocities by one step of ``integrate``."""
    return state_at(integrate(model, state, dt, state.t + dt, tableau), -1)


# ---------------------------------------------------------------------------
# per-series metric loops, one quantity per pass over a TrajectoryRecord:
# the reference for the one-pass ``cli.run_metrics`` columns
# ---------------------------------------------------------------------------

def reference_constraint_violation(record, model, joint_index: int) -> np.ndarray:
    """eps(C) = |h(C)| of one joint along the trajectory."""
    joint = model.joints[joint_index]
    vals = np.empty(record.n_samples)
    for k in range(record.n_samples):
        vals[k] = np.linalg.norm(
            reference_joint_geometry(joint, state_at(record, k).poses, model))
    return vals


def reference_joint_residuals(record, model, joint_index: int):
    """Position and orientation residual norms of one joint."""
    joint = model.joints[joint_index]
    pos = np.empty(record.n_samples)
    ori = np.empty(record.n_samples)
    for k in range(record.n_samples):
        p, o = reference_split_residual(
            joint, reference_joint_geometry(joint, state_at(record, k).poses, model))
        pos[k] = np.linalg.norm(p)
        ori[k] = np.linalg.norm(o)
    return pos, ori


def reference_rotation_error(record, reference, body: int = 0) -> np.ndarray:
    """eps_r = |log(R_ref^T R_num)| against an analytic reference."""
    vals = np.empty(record.n_samples)
    for k in range(record.n_samples):
        ref = reference(float(record.times[k]))[body]
        vals[k] = rotation_error(ref.R, record.rotations[k, body])
    return vals


def reference_position_error(record, reference, body: int = 0) -> np.ndarray:
    vals = np.empty(record.n_samples)
    for k in range(record.n_samples):
        ref = reference(float(record.times[k]))[body]
        vals[k] = np.linalg.norm(record.positions[k, body] - ref.r)
    return vals


def reference_com_drift(record, model, com_reference) -> np.ndarray:
    """eps = |com(t) - com_ref(t)|, maximum over the bodies."""
    offsets = [b.com_offset for b in model.bodies]
    vals = np.empty(record.n_samples)
    for k in range(record.n_samples):
        ref = np.atleast_2d(com_reference(float(record.times[k])))
        worst = 0.0
        for i, r0 in enumerate(offsets):
            com = record.positions[k, i] + record.rotations[k, i] @ r0
            worst = max(worst, float(np.linalg.norm(com - ref[i])))
        vals[k] = worst
    return vals


def reference_inertia_blocks(model, rotations) -> list[np.ndarray]:
    """One sample's 6x6 mass blocks, per body: the mixed off-COM coupling
    written by ``_put_mixed_coupling`` into a copy of the constant block."""
    blocks = []
    for block, mass, r0, r in zip(model._spatial_inertias, model._masses,
                                  model._offsets, rotations):
        if model.representation == MIXED and r0 is not None:
            block = block.copy()
            _put_mixed_coupling(block, 0, mass, r0, np.asarray(r).tolist())
        blocks.append(block)
    return blocks


def reference_kinetic_energy(model, state) -> float:
    """The per-state kinetic energy the sample-axis one replaced, kept as its
    bitwise reference: 1/2 sum of v @ (M @ v), bodies in order."""
    blocks = reference_inertia_blocks(model, [p.R for p in state.poses])
    return 0.5 * sum(float(v @ (m @ v)) for m, v in zip(blocks, state.velocities))


def reference_potential_energy(model, state) -> float:
    """The per-state potential energy, kept as the bitwise reference: gravity
    at each COM, springs at their attachment points, in force-list order."""
    u = 0.0
    for element in model.forces:
        if isinstance(element, Gravity):
            for body, pose in zip(model.bodies, state.poses):
                com = pose.r + pose.R @ body.com_offset
                u -= body.mass * float(element.g @ com)
        elif isinstance(element, LinearSpring):
            pose = state.poses[element.body]
            att = pose.r + pose.R @ element.attach
            d = element.ground_point - att
            u += 0.5 * element.stiffness * float(d @ d)
    return u


def reference_energy(record, model, datum: float = 0.0):
    """Kinetic and (datum-shifted) total energy along the trajectory."""
    kin = np.empty(record.n_samples)
    tot = np.empty(record.n_samples)
    for k in range(record.n_samples):
        state = state_at(record, k)
        kin[k] = reference_kinetic_energy(model, state)
        tot[k] = kin[k] + reference_potential_energy(model, state) + datum
    return kin, tot


# ---------------------------------------------------------------------------
# hand-written scalar coefficients: the references of liealg's functions
# generated from its coefficient table (liealg._COEFS)
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


COEFFICIENTS = {f.__name__: f for f in (_sinc, _cos1, _xs3, _dinv, _q2, _q3, _adpoly2, _adpoly4)}


# ---------------------------------------------------------------------------
# interpreted Munthe-Kaas kernels: the IEEE-byte reference for the emitted
# liealg kernels and the generated integrate stage loop, which must give the
# same bits in the same operation order
# ---------------------------------------------------------------------------

def mm3(a, b) -> tuple:
    """Rows of a @ b for 3x3 matrices given as row sequences: a[i] @ b."""
    return tuple(mtv3(b, row) for row in a)


def so3_exp_rows(x0: float, x1: float, x2: float) -> tuple:
    """Rows of I + sinc*hat(xi) + cos1*hat(xi)^2 (Euler-Rodrigues), with
    hat(xi)^2 = xi xi^T - |xi|^2 I written out entrywise."""
    s0, s1, s2 = x0 * x0, x1 * x1, x2 * x2
    x = math.sqrt(s0 + s1 + s2)
    a = liealg._sinc(x)
    b = liealg._cos1(x)
    ax0, ax1, ax2 = a * x0, a * x1, a * x2
    b01, b02, b12 = b * (x0 * x1), b * (x0 * x2), b * (x1 * x2)
    return ((1.0 - b * (s1 + s2), b01 - ax2, b02 + ax1),
            (b01 + ax2, 1.0 - b * (s0 + s2), b12 - ax0),
            (b02 - ax1, b12 + ax0, 1.0 - b * (s0 + s1)))


def se3_exp_parts(x) -> tuple:
    """se3_exp on floats: (rows of exp(xi), dexp_xi @ eta)."""
    x0, x1, x2, e0, e1, e2 = x
    xi = (x0, x1, x2)
    xn = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    # dexp_xi @ eta = eta + cos1 xi x eta + xs3 xi x (xi x eta)
    c = cross3(xi, (e0, e1, e2))
    cc = cross3(xi, c)
    b, d = liealg._cos1(xn), liealg._xs3(xn)
    return (so3_exp_rows(x0, x1, x2),
            (e0 + b * c[0] + d * cc[0],
             e1 + b * c[1] + d * cc[1],
             e2 + b * c[2] + d * cc[2]))


def se3_advance_parts(rot, phi) -> tuple:
    """SE3Group.advance_parts: (rows of R exp(phi)_R, R dexp_xi eta)."""
    rows, t = se3_exp_parts(phi)
    return mm3(rot, rows), mv3(rot, t)


def dp_advance_parts(rot, phi) -> tuple:
    """DirectProductGroup.advance_parts: (rows of R exp(xi), eta)."""
    return mm3(rot, so3_exp_rows(*phi[:3])), tuple(phi[3:])


def _so3_dexpinv_apply(xi, y, c: float) -> tuple:
    """so3_dexpinv(xi) @ y = y - xi x y / 2 + c xi x (xi x y), c = _dinv(|xi|)."""
    p = cross3(xi, y)
    pp = cross3(xi, p)
    return (y[0] - 0.5 * p[0] + c * pp[0],
            y[1] - 0.5 * p[1] + c * pp[1],
            y[2] - 0.5 * p[2] + c * pp[2])


def se3_dexpinv_apply(x, v) -> tuple:
    """Inverse of se3_dexp(x) applied to v: (J^-1 w, J^-1 (u - Q J^-1 w)) with
    Q applied as nested cross products, at every angle."""
    x = _floats(x)
    v = _floats(v)
    xi, eta = x[:3], x[3:]
    xn = math.sqrt(xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2])
    _check_pole(xn)
    c = liealg._dinv(xn)
    top = _so3_dexpinv_apply(xi, v[:3], c)
    e = cross3(eta, top)
    p = cross3(xi, top)
    xe = cross3(xi, e)
    ep = cross3(eta, p)
    xep = cross3(xi, ep)
    xxe = cross3(xi, xe)
    epp = cross3(eta, cross3(xi, p))
    xepp = cross3(xi, epp)
    xxep = cross3(xi, xep)
    c3, c4, c5 = liealg._xs3(xn), liealg._q2(xn), liealg._q3(xn)
    rest = [v[3 + i] - (0.5 * e[i]
                        + c3 * (xe[i] + ep[i] + xep[i])
                        + c4 * (xxe[i] + epp[i] - 3.0 * xep[i])
                        + c5 * (xepp[i] + xxep[i]))
            for i in range(3)]
    return top + _so3_dexpinv_apply(xi, rest, c)


def dp_dexpinv_apply(x, v) -> tuple:
    """dp_dexpinv(x) @ v: the rotation part through so3_dexpinv, the
    translation part unchanged."""
    xi = _floats(x)[:3]
    v = _floats(v)
    xn = math.sqrt(xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2])
    _check_pole(xn)
    return _so3_dexpinv_apply(xi, v[:3], liealg._dinv(xn)) + tuple(v[3:])


def _combine(dt: float, terms, rows, base) -> list:
    """base + dt * sum(w * rows[l] for l, w in terms), elementwise on floats."""
    out = base
    for l, w in terms:
        c = dt * w
        out = [o + c * x for o, x in zip(out, rows[l])]
    return out


def _stage_slopes(group, frames, t: float, dt: float, tableau, velocity) -> list:
    """Chart slopes k_j = dexpinv(-Psi_j) V_j of one shared-stage step from
    the (R rows, r) float poses ``frames``; ``velocity(j, t_j, stage poses)``
    gives V_j."""
    zeros = [0.0] * (6 * len(frames))
    ks = []
    for j, deps in enumerate(tableau._deps):
        tj = t + tableau._nodes[j] * dt
        if not deps:
            ks.append(velocity(j, tj, frames))
            continue
        psi = _combine(dt, deps, ks, zeros)
        stage = []
        for i, (rot, r) in enumerate(frames):
            rot_j, delta = group.advance_parts(rot, psi[6 * i:6 * i + 6])
            stage.append((rot_j, add3(r, delta)))
        vj = velocity(j, tj, stage)
        k = []
        for i in range(len(frames)):
            k.extend(group.dexpinv_apply([-x for x in psi[6 * i:6 * i + 6]],
                                         vj[6 * i:6 * i + 6]))
        ks.append(k)
    return ks


def shared_step(group, frames, y, t: float, dt: float, tableau, rhs) -> tuple:
    """The step's (phi, dy), interpreted: the reference for integrate's
    generated stage loop.  The vector part's stages y_j = y + dt sum a_jl F_l
    ride on the Lie part's ``velocity`` callback; ``rhs(j, t_j, stage poses,
    y_j)`` gives (V_j, F_j)."""
    fs = []

    def velocity(j, tj, stage):
        deps = tableau._deps[j]
        v, f = rhs(j, tj, stage, _combine(dt, deps, fs, y) if deps else y)
        fs.append(f)
        return v

    ks = _stage_slopes(group, frames, t, dt, tableau, velocity)
    return (_combine(dt, tableau._weights, ks, [0.0] * (6 * len(frames))),
            _combine(dt, tableau._weights, fs, [0.0] * len(y)))


def kahan_add(x, dx, comp):
    """Compensated x + dx on float lists: the sum and the roundoff of this
    addition, which the next addition subtracts first."""
    ys = [d - c for d, c in zip(dx, comp)]
    s = [a + y for a, y in zip(x, ys)]
    return s, [(b - a) - y for a, b, y in zip(x, s, ys)]


def advance(group, frames, phi, comp_r) -> None:
    """A step's end on the Lie part: each (R rows, r) float pose in
    ``frames`` becomes g exp(phi_i), in place, its translation added
    compensated against the 3-lists ``comp_r`` (updated in place)."""
    for i, (rot, r) in enumerate(frames):
        rot, delta = group.advance_parts(rot, phi[6 * i:6 * i + 6])
        r, comp_r[i] = kahan_add(r, delta, comp_r[i])
        frames[i] = (rot, r)


def close_step(group, frames, phi, y, dy, comp) -> tuple:
    """The step end, interpreted: the reference for integrate's generated
    ``_step_end``.  ``comp`` holds the translations' compensations (three
    per body), then y's."""
    n = 3 * len(frames)
    frames = list(frames)
    comp_r = [comp[k:k + 3] for k in range(0, n, 3)]
    advance(group, frames, phi, comp_r)
    y, comp_y = kahan_add(y, dy, comp[n:])
    return frames, y, [c for cr in comp_r for c in cr] + comp_y
