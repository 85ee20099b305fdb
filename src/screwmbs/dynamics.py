"""Constrained Newton-Euler dynamics in body-fixed and mixed representations.

A model is a list of rigid bodies, lower-pair joints and force elements.
Depending on the configuration-space group the velocities are body-fixed
twists (SE(3), ``representation="body"``) or mixed velocities (SO(3)xR3,
``representation="mixed"``), and the constraint Jacobians are written for
the matching velocity coordinates.

Joint constraints are built from three row types:

* anchor rows: attachment points of the two bodies coincide.  In the
  body-fixed representation the mismatch is expressed in the child body's
  frame, which reproduces the textbook ``(r0^  -I)`` Jacobian of a grounded
  spherical joint; in the mixed representation it stays spatial.
* axis-dot rows: a body-frame direction of body a stays orthogonal to one
  of body b.
* offset-dot rows: the anchor offset stays orthogonal to a transverse
  direction of the prismatic axis.

Every Jacobian is the exact time derivative of its constraint function, so
``d/dt h = J @ V`` holds for arbitrary (also violated) states, and the
acceleration right-hand side is ``eta = -Jdot @ V``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .liealg import Pose, add3, cross3, dot3, hat3, mtv3, mv3, sub3

BODY_FIXED = "body"
MIXED = "mixed"

_JOINT_DIMS = {"spherical": 3, "revolute": 5, "prismatic": 5, "universal": 4}


class RedundantConstraintError(RuntimeError):
    """The KKT matrix is singular (redundant or degenerate constraints)."""


class InfeasibleStateError(ValueError):
    """An initial state violates the geometric or velocity constraints."""


def _float_tuple(v) -> tuple:
    return tuple(np.asarray(v, dtype=float).tolist())


def _unit(v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > 1e-12:
        raise ValueError(f"{what} must be a unit vector (norm {n:.12g})")
    return v / n


def orthonormal_complement(axis) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic right-handed completion (axis, n1, n2)."""
    e = np.asarray(axis, dtype=float)
    k = int(np.argmin(np.abs(e)))
    n1 = np.cross(e, np.eye(3)[k])
    n1 /= np.linalg.norm(n1)
    return n1, np.cross(e, n1)


def parallel_axis(theta_com, mass: float, r0) -> np.ndarray:
    """Inertia about a frame parallel-translated by -r0 from the COM."""
    r0 = np.asarray(r0, dtype=float)
    theta_com = np.asarray(theta_com, dtype=float)
    return theta_com + mass * ((r0 @ r0) * np.eye(3) - np.outer(r0, r0))


@dataclass(frozen=True)
class RigidBody:
    """Body described in its reference frame: inertia_ref is taken about
    that frame (equal to the COM inertia when com_offset is zero).

    ``cspace`` optionally pins the body to one configuration-space group
    ("se3" or "so3xr3"); the assembly requires it to agree with the
    model's velocity representation."""

    name: str
    mass: float
    inertia_ref: np.ndarray
    com_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    cspace: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "inertia_ref", np.asarray(self.inertia_ref, dtype=float))
        object.__setattr__(self, "com_offset", np.asarray(self.com_offset, dtype=float))
        if not self.mass > 0:
            raise ValueError(f"body {self.name!r}: mass must be positive")
        theta = self.inertia_ref
        if np.abs(theta - theta.T).max() > 1e-12:
            raise ValueError(f"body {self.name!r}: inertia must be symmetric")
        if np.linalg.eigvalsh(theta).min() <= 0:
            raise ValueError(f"body {self.name!r}: inertia must be positive definite")
        if self.cspace not in (None, "se3", "so3xr3"):
            raise ValueError(f"body {self.name!r}: unknown c-space tag {self.cspace!r}")


@dataclass(frozen=True)
class Joint:
    """Lower kinematic pair between body_a (or ground, None) and body_b."""

    kind: str
    body_a: int | None
    body_b: int
    anchor_a: np.ndarray = field(default_factory=lambda: np.zeros(3))
    anchor_b: np.ndarray = field(default_factory=lambda: np.zeros(3))
    axis_a: np.ndarray | None = None
    axis_b: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        if self.kind not in _JOINT_DIMS:
            raise ValueError(f"unknown joint kind {self.kind!r}")
        object.__setattr__(self, "anchor_a", np.asarray(self.anchor_a, dtype=float))
        object.__setattr__(self, "anchor_b", np.asarray(self.anchor_b, dtype=float))
        if self.kind != "spherical":
            if self.axis_a is None or self.axis_b is None:
                raise ValueError(f"{self.kind} joint needs axis_a and axis_b")
            object.__setattr__(self, "axis_a", _unit(self.axis_a, "axis_a"))
            object.__setattr__(self, "axis_b", _unit(self.axis_b, "axis_b"))
        # per-row constants of the step loop, as plain floats
        object.__setattr__(self, "_rows", self._build_rows())
        object.__setattr__(self, "_anchors", (_float_tuple(self.anchor_a),
                                              _float_tuple(self.anchor_b)))

    @property
    def dim(self) -> int:
        return _JOINT_DIMS[self.kind]

    def split_residual(self, h):
        """(position, orientation) parts of a residual ``joint_geometry``
        returned: the anchor rows of a point joint come first, while the
        prismatic joint lists its three rotation-lock rows before its two
        offset rows."""
        if self.kind == "prismatic":
            return h[3:], h[:3]
        return h[:3], h[3:]

    def rows(self):
        """Row descriptors: ('anchor',), ('axisdot', na, mb), ('offsetdot', n),
        with the body-frame directions as float tuples (built once)."""
        return self._rows

    def _build_rows(self):
        if self.kind == "spherical":
            return (("anchor",),)
        alpha, beta = _float_tuple(self.axis_a), _float_tuple(self.axis_b)
        if self.kind == "universal":
            return (("anchor",), ("axisdot", alpha, beta))
        n1, n2 = (_float_tuple(n) for n in orthonormal_complement(self.axis_a))
        if self.kind == "revolute":
            return (("anchor",),
                    ("axisdot", n1, beta),
                    ("axisdot", n2, beta))
        # prismatic: full rotation lock (axis alignment + roll) and two
        # transverse-offset rows
        _, m2 = orthonormal_complement(self.axis_b)
        return (("axisdot", n1, beta),
                ("axisdot", n2, beta),
                ("axisdot", n1, _float_tuple(m2)),
                ("offsetdot", n1),
                ("offsetdot", n2))


@dataclass(frozen=True)
class Gravity:
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))


@dataclass(frozen=True)
class LinearSpring:
    """Zero-natural-length spring from a body-fixed point to a ground point."""

    body: int
    attach: np.ndarray
    ground_point: np.ndarray
    stiffness: float

    def __post_init__(self):
        object.__setattr__(self, "attach", np.asarray(self.attach, dtype=float))
        object.__setattr__(self, "ground_point", np.asarray(self.ground_point, dtype=float))
        if self.stiffness < 0:
            raise ValueError("spring stiffness must be nonnegative")


@dataclass
class MbsModel:
    bodies: list[RigidBody]
    joints: list[Joint]
    forces: list
    representation: str = BODY_FIXED

    def __post_init__(self):
        if self.representation not in (BODY_FIXED, MIXED):
            raise ValueError(f"unknown representation {self.representation!r}")
        for j in self.joints:
            for idx in (j.body_a, j.body_b):
                if idx is not None and not 0 <= idx < len(self.bodies):
                    raise ValueError(f"joint {j.name!r}: body index {idx} out of range")
        wanted = "se3" if self.representation == BODY_FIXED else "so3xr3"
        for b in self.bodies:
            if b.cspace is not None and b.cspace != wanted:
                raise ValueError(
                    f"body {b.name!r} is tagged for c-space {b.cspace!r} but the "
                    f"model uses the {self.representation!r} representation")
        for f in self.forces:
            if not isinstance(f, (Gravity, LinearSpring)):
                raise TypeError(f"unknown force element {f!r}")
        self._compile()

    def _compile(self):
        """Per-model constants of the step loop, as plain floats, and the
        fixed KKT layout (mass blocks plus the flat positions of the
        Jacobian entries and their transposes)."""
        self._mixed = self.representation == MIXED
        self._spatial_inertias = [spatial_inertia(b) for b in self.bodies]
        self._masses = [float(b.mass) for b in self.bodies]
        self._offsets = [_float_tuple(b.com_offset) if b.com_offset.any() else None
                         for b in self.bodies]
        self._inertia_rows = [b.inertia_ref.tolist() for b in self.bodies]
        self._mass_rows = [m.tolist() for m in self._spatial_inertias]
        # without joints Vdot = M^-1 Q per body; in the mixed representation
        # an off-COM block is M(R) = T M_body T^T with T = blockdiag(I, R),
        # so the body-fixed inverse serves both
        self._mass_inv_rows = [np.linalg.inv(m).tolist() for m in self._spatial_inertias]
        g_total = sum((f.g for f in self.forces if isinstance(f, Gravity)),
                      start=np.zeros(3))
        self._gravity_f = [_float_tuple(b.mass * g_total) for b in self.bodies]
        self._springs_f = [(f.body, _float_tuple(f.attach), _float_tuple(f.ground_point),
                            float(f.stiffness), bool(f.attach.any()))
                           for f in self.forces if isinstance(f, LinearSpring)]

        nv = 6 * self.n_bodies
        size = nv + self.n_constraints
        kkt = np.zeros((size, size))
        for i, m in enumerate(self._spatial_inertias):
            # in the mixed representation assemble_index1 overwrites the
            # off-COM coupling blocks per stage
            kkt[6 * i:6 * i + 6, 6 * i:6 * i + 6] = m
        at, at_t = [], []
        k = nv
        for joint in self.joints:
            owners = ((joint.body_b,) if joint.body_a is None
                      else (joint.body_a, joint.body_b))
            for row in range(k, k + joint.dim):
                for body in owners:
                    for col in range(6 * body, 6 * body + 6):
                        at.append(row * size + col)
                        at_t.append(col * size + row)
            k += joint.dim
        self._kkt0 = kkt
        self._jac_at = np.array(at + at_t, dtype=np.intp)

    @property
    def n_bodies(self) -> int:
        return len(self.bodies)

    @property
    def n_constraints(self) -> int:
        return sum(j.dim for j in self.joints)

    def spatial_inertia_blocks(self, rotations=None) -> list[np.ndarray]:
        """Per-body 6x6 mass blocks; configuration-dependent in the mixed
        representation when the reference frame is off the COM."""
        if self.representation == BODY_FIXED:
            return self._spatial_inertias
        blocks = []
        for body, block, r in zip(self.bodies, self._spatial_inertias, rotations):
            r0 = body.com_offset
            if not r0.any():
                blocks.append(block)
                continue
            m = np.zeros((6, 6))
            m[:3, :3] = body.inertia_ref
            coup = -body.mass * (r @ hat3(r0))
            m[:3, 3:] = coup.T
            m[3:, :3] = coup
            m[3:, 3:] = body.mass * np.eye(3)
            blocks.append(m)
        return blocks


@dataclass
class MbsState:
    poses: list[Pose]
    velocities: np.ndarray  # (n_bodies, 6)
    t: float = 0.0

    def __post_init__(self):
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))

    def copy(self) -> "MbsState":
        return MbsState([Pose(p.R.copy(), p.r.copy()) for p in self.poses],
                        self.velocities.copy(), self.t)


# ---------------------------------------------------------------------------
# body dynamics
# ---------------------------------------------------------------------------

def spatial_inertia(body: RigidBody) -> np.ndarray:
    """6x6 inertia about the reference frame (body-fixed representation)."""
    m = np.zeros((6, 6))
    m[:3, :3] = body.inertia_ref
    m[3:, 3:] = body.mass * np.eye(3)
    r0 = body.com_offset
    if r0.any():
        coup = -body.mass * hat3(r0)
        m[:3, 3:] = coup.T
        m[3:, :3] = coup
    return m


def newton_euler_body(body: RigidBody, v, wrench) -> tuple[np.ndarray, np.ndarray]:
    """Mass matrix and right-hand side of J V' - ad_V^T J V = W."""
    m = spatial_inertia(body)
    gyro = _gyroscopic_body(m.tolist(), np.asarray(v, dtype=float).tolist())
    return m, np.asarray(wrench, dtype=float) + np.array(gyro)


def _gyroscopic_body(inertia_rows, v) -> tuple:
    # ad_V^T (J V) written out: (h_ang x omega + h_lin x v, h_lin x omega)
    v0, v1, v2, v3, v4, v5 = v
    h = [r[0] * v0 + r[1] * v1 + r[2] * v2 + r[3] * v3 + r[4] * v4 + r[5] * v5
         for r in inertia_rows]
    omega, vel = v[:3], v[3:]
    a = cross3(h[:3], omega)
    b = cross3(h[3:], vel)
    c = cross3(h[3:], omega)
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], c[0], c[1], c[2])


def _mixed_bias(inertia_rows, mass: float, r0, rot, omega) -> tuple:
    # (omega x Theta omega, m R (omega x (omega x r0))); no linear part at the COM
    a = cross3(omega, mv3(inertia_rows, omega))
    if r0 is None:
        return (a[0], a[1], a[2], 0.0, 0.0, 0.0)
    b = mv3(rot, cross3(omega, cross3(omega, r0)))
    return (a[0], a[1], a[2], mass * b[0], mass * b[1], mass * b[2])


def _mixed_coupling(mass: float, r0, rot) -> np.ndarray:
    # -m R hat(r0), row by row: (R hat(r0))[i] = R[i] x r0
    return np.array([[-mass * c for c in cross3(row, r0)] for row in rot])


def newton_euler_mixed(body: RigidBody, rotation, v, wrench) -> tuple[np.ndarray, np.ndarray]:
    """Mixed-representation Newton-Euler about the reference frame at P."""
    rot = np.asarray(rotation, dtype=float).tolist()
    v = np.asarray(v, dtype=float).tolist()
    r0 = _float_tuple(body.com_offset) if body.com_offset.any() else None
    m = np.zeros((6, 6))
    m[:3, :3] = body.inertia_ref
    m[3:, 3:] = body.mass * np.eye(3)
    if r0 is not None:
        coup = _mixed_coupling(body.mass, r0, rot)
        m[:3, 3:] = coup.T
        m[3:, :3] = coup
    bias = _mixed_bias(body.inertia_ref.tolist(), body.mass, r0, rot, v[:3])
    return m, np.asarray(wrench, dtype=float) - np.array(bias)


def _wrenches(model: MbsModel, rots, origins) -> list[list[float]]:
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


def force_assembly(model: MbsModel, poses, t: float = 0.0) -> np.ndarray:
    """Applied wrenches per body in the model's velocity representation."""
    return np.array(_wrenches(model, [p.R.tolist() for p in poses],
                              [p.r.tolist() for p in poses])).reshape(-1, 6)


def _frames(poses, velocities) -> list[tuple]:
    """Per-body (R rows, r, omega, v) as plain floats for the stage kernels.

    ``velocities`` is (n, 6) array-like; a flat list of 6n floats (the
    stage loop's form) is used as it is.
    """
    if not (isinstance(velocities, list) and velocities
            and isinstance(velocities[0], float)):
        velocities = np.asarray(velocities, dtype=float).reshape(-1).tolist()
    return [(p.R.tolist(), p.r.tolist(), velocities[6 * i:6 * i + 3],
             velocities[6 * i + 3:6 * i + 6]) for i, p in enumerate(poses)]


def _body_rhs(model: MbsModel, frames) -> list[float]:
    """Stacked Newton-Euler right-hand sides Q (applied wrench plus the
    velocity-dependent terms) of all bodies, flat."""
    wrenches = _wrenches(model, [f[0] for f in frames], [f[1] for f in frames])
    q = []
    for i, ((rot, _, omega, vel), w) in enumerate(zip(frames, wrenches)):
        if model._mixed:
            b = _mixed_bias(model._inertia_rows[i], model._masses[i],
                            model._offsets[i], rot, omega)
            q += [w[0] - b[0], w[1] - b[1], w[2] - b[2],
                  w[3] - b[3], w[4] - b[4], w[5] - b[5]]
        else:
            g = _gyroscopic_body(model._mass_rows[i], omega + vel)
            q += [w[0] + g[0], w[1] + g[1], w[2] + g[2],
                  w[3] + g[3], w[4] + g[4], w[5] + g[5]]
    return q


def kinetic_energy(model: MbsModel, state: MbsState) -> float:
    blocks = model.spatial_inertia_blocks([p.R for p in state.poses])
    return 0.5 * sum(float(v @ (m @ v)) for m, v in zip(blocks, state.velocities))


def potential_energy(model: MbsModel, state: MbsState) -> float:
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


def total_energy(model: MbsModel, state: MbsState) -> float:
    return kinetic_energy(model, state) + potential_energy(model, state)


# ---------------------------------------------------------------------------
# joint constraint rows
# ---------------------------------------------------------------------------

_I3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_Z3 = (0.0, 0.0, 0.0)
_GROUND = (_I3, _Z3, _Z3, _Z3)
_MINUS_I3 = ((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))


def _anchor_motion(mixed, rot, omega, vel, anchor):
    """Velocity of p = r + R a and its acceleration with V' = 0, in the
    given representation."""
    c = cross3(omega, anchor)
    if mixed:
        return add3(vel, mv3(rot, c)), mv3(rot, cross3(omega, c))
    s = add3(vel, c)
    return mv3(rot, s), mv3(rot, cross3(omega, s))


def _pose_floats(poses, index):
    if index is None:
        return _I3, _Z3
    return poses[index].R.tolist(), poses[index].r.tolist()


def joint_geometry(joint: Joint, poses, model: MbsModel | None = None) -> np.ndarray:
    """Constraint residual h(g); zero on the constraint manifold."""
    mixed = model is not None and model.representation == MIXED
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


def _joint_rows(joint: Joint, frame_a, frame_b, mixed: bool):
    """Float kernel of joint_rows on (R rows, r, omega, v) frames: per-row
    6-lists for body_a (None at ground) and body_b, and the eta list."""
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


def joint_rows(joint: Joint, poses, velocities, model: MbsModel):
    """Jacobian blocks per body and eta = -Jdot @ V in one pass.

    The Jacobians are exact differentials of joint_geometry, the biases the
    exact second-derivative remainders, both valid off the manifold.
    """
    velocities = np.asarray(velocities, dtype=float).reshape(-1, 6)
    ia, ib = joint.body_a, joint.body_b
    frame_a = _GROUND if ia is None else _frames([poses[ia]], velocities[ia])[0]
    frame_b = _frames([poses[ib]], velocities[ib])[0]
    rows_a, rows_b, eta = _joint_rows(joint, frame_a, frame_b,
                                      model.representation == MIXED)
    blocks = {ib: np.array(rows_b)}
    if ia is not None:
        blocks[ia] = np.array(rows_a)
    return blocks, np.array(eta)


def joint_jacobian(joint: Joint, poses, model: MbsModel) -> dict[int, np.ndarray]:
    """Exact Jacobian blocks per body index: d/dt h == sum J_i @ V_i."""
    zeros = np.zeros((len(poses), 6))
    blocks, _ = joint_rows(joint, poses, zeros, model)
    return blocks


def joint_acc_rhs(joint: Joint, poses, velocities, model: MbsModel) -> np.ndarray:
    """eta = -Jdot @ V, the acceleration-constraint right-hand side."""
    _, eta = joint_rows(joint, poses, velocities, model)
    return eta


# ---------------------------------------------------------------------------
# index-1 DAE assembly and solution
# ---------------------------------------------------------------------------

def assemble_index1(model: MbsModel, poses, velocities, t: float = 0.0):
    """KKT system [[M, J^T], [J, 0]] (Vdot, lambda) = (Q, eta)."""
    frames = _frames(poses, velocities)
    kkt = model._kkt0.copy()
    if model._mixed:
        for i, r0 in enumerate(model._offsets):
            if r0 is not None:
                coup = _mixed_coupling(model._masses[i], r0, frames[i][0])
                kkt[6 * i + 3:6 * i + 6, 6 * i:6 * i + 3] = coup
                kkt[6 * i:6 * i + 3, 6 * i + 3:6 * i + 6] = coup.T
    rhs = _body_rhs(model, frames)
    values = []
    for joint in model.joints:
        frame_a = _GROUND if joint.body_a is None else frames[joint.body_a]
        rows_a, rows_b, eta = _joint_rows(joint, frame_a, frames[joint.body_b],
                                          model._mixed)
        for k in range(joint.dim):
            if rows_a is not None:
                values.extend(rows_a[k])
            values.extend(rows_b[k])
        rhs.extend(eta)
    # J and J^T in one scatter
    kkt.put(model._jac_at, values + values)
    return kkt, np.array(rhs)


# LAPACK gesv, imported at the first solve: a model without joints never
# solves, and scipy.linalg is about half the import time of ``cli``
_dgesv = None


def solve_index1(model: MbsModel, kkt, rhs):
    """Dense LU solve (LAPACK gesv); singularity raises naming the model's
    joints."""
    global _dgesv
    if _dgesv is None:
        from scipy.linalg.lapack import dgesv as _dgesv
    _, _, sol, info = _dgesv(kkt, rhs)
    if info != 0:
        names = ", ".join(j.name or j.kind for j in model.joints)
        raise RedundantConstraintError(
            f"singular KKT matrix; check joints [{names}] for redundancy")
    nv = 6 * model.n_bodies
    return sol[:nv].reshape(-1, 6), sol[nv:]


def _free_accelerations(model: MbsModel, frames) -> np.ndarray:
    """Vdot = M^-1 Q body by body, for a model without joints."""
    q = _body_rhs(model, frames)
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


def accelerations(model: MbsModel, poses, velocities, t: float = 0.0) -> np.ndarray:
    """Explicit ODE right-hand side Vdot = F(g, V) from the index-1 system.

    A model without joints has a block-diagonal system and skips the KKT
    assembly and solve.
    """
    if not model.joints:
        return _free_accelerations(model, _frames(poses, velocities))
    kkt, rhs = assemble_index1(model, poses, velocities, t)
    vdot, _ = solve_index1(model, kkt, rhs)
    return vdot


def constraint_jacobian(model: MbsModel, poses) -> np.ndarray:
    """Stacked m x 6n velocity-constraint Jacobian."""
    m = model.n_constraints
    jac = np.zeros((m, 6 * model.n_bodies))
    k = 0
    for joint in model.joints:
        for idx, blk in joint_jacobian(joint, poses, model).items():
            jac[k:k + joint.dim, 6 * idx:6 * idx + 6] = blk
        k += joint.dim
    return jac


def velocity_residual(model: MbsModel, state: MbsState) -> float:
    """Euclidean norm of J @ V."""
    if not model.joints:
        return 0.0
    jac = constraint_jacobian(model, state.poses)
    return float(np.linalg.norm(jac @ state.velocities.reshape(-1)))


def project_velocities(model: MbsModel, state: MbsState) -> MbsState:
    """Minimum-norm (spatial-inertia metric) correction onto J V = 0."""
    if not model.joints:
        return state.copy()
    n = model.n_bodies
    nv = 6 * n
    m = model.n_constraints
    jac = constraint_jacobian(model, state.poses)
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


def check_initial_state(model: MbsModel, state: MbsState,
                        tol_pos: float = 1e-12, tol_vel: float = 1e-9) -> None:
    """Hard feasibility gate used by model builders and the loader."""
    for joint in model.joints:
        h = joint_geometry(joint, state.poses, model)
        if np.abs(h).max() > tol_pos:
            raise InfeasibleStateError(
                f"joint {joint.name or joint.kind!r}: |h| = {np.abs(h).max():.3e} "
                f"exceeds {tol_pos:.1e} in the initial configuration")
    res = velocity_residual(model, state)
    if res > tol_vel:
        raise InfeasibleStateError(
            f"initial velocity constraint residual {res:.3e} exceeds {tol_vel:.1e}")
