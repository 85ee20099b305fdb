"""Constrained Newton-Euler dynamics in body-fixed and mixed representations.

A model is a list of rigid bodies, lower-pair joints and force elements.
Its velocity representation fixes the configuration-space group it holds
as ``group``: body-fixed twists (``representation="body"``) on SE(3), mixed
velocities (``representation="mixed"``) on SO(3)xR3.  The constraint
Jacobians are written for the matching velocity coordinates.

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

import functools
import os
import sys
from dataclasses import dataclass, field
from importlib import machinery, util

import numpy as np

from .liealg import SE3, SO3R3, Pose, _Emitter, _names, hat3

BODY_FIXED = "body"
MIXED = "mixed"
# the velocity representation each configuration-space group integrates
REPRESENTATION = {"se3": BODY_FIXED, "so3xr3": MIXED}

TOL_POS, TOL_VEL = 1e-12, 1e-9  # initial-state bounds on |h| per joint and |J V|


class RedundantConstraintError(RuntimeError):
    """The KKT matrix is singular (redundant or degenerate constraints)."""


class InfeasibleStateError(ValueError):
    """An initial state violates the geometric or velocity constraints."""


def _float_tuple(v) -> tuple:
    return tuple(np.asarray(v, dtype=float).tolist())


def _unit(v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{what} must be a 3-vector")
    n = np.linalg.norm(v)
    if not abs(n - 1.0) <= 1e-12:  # a NaN norm fails too
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
    that frame (equal to the COM inertia when com_offset is zero)."""

    name: str
    mass: float
    inertia_ref: np.ndarray
    com_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))

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


@dataclass(frozen=True, eq=False)
class Joint:
    """Lower kinematic pair between body_a (or ground, None) and body_b.
    Joints compare and hash by identity: a model keys its compiled kernels
    by the joint object."""

    kind: str
    body_a: int | None
    body_b: int
    anchor_a: np.ndarray = field(default_factory=lambda: np.zeros(3))
    anchor_b: np.ndarray = field(default_factory=lambda: np.zeros(3))
    axis_a: np.ndarray | None = None
    axis_b: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        rows = self._build_rows()
        object.__setattr__(self, "anchor_a", np.asarray(self.anchor_a, dtype=float))
        object.__setattr__(self, "anchor_b", np.asarray(self.anchor_b, dtype=float))
        # per-row constants of the step loop, as plain floats
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_anchors", (_float_tuple(self.anchor_a),
                                              _float_tuple(self.anchor_b)))
        # the residual has one entry per row, three per anchor row: anchor
        # and offset-dot entries measure position, axis-dot ones orientation
        ori = np.array([row[0] == "axisdot" for row in rows
                        for _ in range(3 if row[0] == "anchor" else 1)])
        object.__setattr__(self, "_split", (np.flatnonzero(~ori), np.flatnonzero(ori)))

    @property
    def dim(self) -> int:
        return sum(map(len, self._split))

    @property
    def has_orientation(self) -> bool:
        """Whether the residual has orientation entries (axis-dot rows)."""
        return len(self._split[1]) > 0

    @property
    def label(self) -> str:
        """The joint's name in reports and CSV columns; its kind when unnamed."""
        return self.name or self.kind

    def split_residual(self, h):
        """(position, orientation) parts of a residual ``joint_geometry``
        returned, each in row order, split along the last axis: an (N, k)
        stack of samples splits into (N, k_pos) and (N, k_ori)."""
        pos, ori = self._split
        return h[..., pos], h[..., ori]

    def _build_rows(self):
        """Row descriptors: ('anchor',), ('axisdot', na, mb), ('offsetdot', n),
        with the body-frame directions as float tuples (built once); the
        axes are checked and normalised here."""
        if self.kind == "spherical":
            if self.axis_a is not None or self.axis_b is not None:
                raise ValueError("spherical joint takes no axis_a or axis_b")
            return (("anchor",),)
        if self.kind not in ("universal", "revolute", "prismatic"):
            raise ValueError(f"unknown joint kind {self.kind!r}")
        if self.axis_a is None or self.axis_b is None:
            raise ValueError(f"{self.kind} joint needs axis_a and axis_b")
        object.__setattr__(self, "axis_a", _unit(self.axis_a, "axis_a"))
        object.__setattr__(self, "axis_b", _unit(self.axis_b, "axis_b"))
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
    """Bodies, joints and force elements, held as tuples: ``_compile`` reads
    them once, so a model is rebuilt (``dataclasses.replace``), not edited."""

    bodies: tuple[RigidBody, ...]
    joints: tuple[Joint, ...]
    forces: tuple
    representation: str = BODY_FIXED

    def __post_init__(self):
        self.bodies, self.joints, self.forces = (
            tuple(self.bodies), tuple(self.joints), tuple(self.forces))
        if self.representation not in (BODY_FIXED, MIXED):
            raise ValueError(f"unknown representation {self.representation!r}")
        for j in self.joints:
            for idx in (j.body_a, j.body_b):
                if idx is not None and not 0 <= idx < len(self.bodies):
                    raise ValueError(f"joint {j.name!r}: body index {idx} out of range")
        for f in self.forces:
            if not isinstance(f, (Gravity, LinearSpring)):
                raise TypeError(f"unknown force element {f!r}")
        self._compile()

    def _compile(self):
        """Per-model constants of the step loop, as plain floats, and the
        fixed KKT layout (mass blocks plus the flat positions of the
        Jacobian entries and their transposes)."""
        self._mixed = self.representation == MIXED
        self.group = SO3R3 if self._mixed else SE3
        self._spatial_inertias = [spatial_inertia(b) for b in self.bodies]
        self._masses = [float(b.mass) for b in self.bodies]
        self._offsets = [_float_tuple(b.com_offset) if b.com_offset.any() else None
                         for b in self.bodies]
        self._inertia_rows = [b.inertia_ref.tolist() for b in self.bodies]
        self._mass_rows = [m.tolist() for m in self._spatial_inertias]
        # without joints Vdot = M^-1 Q per body
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
            # _kkt writes the mixed off-COM coupling blocks per call
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
        kernels = [_bind_rows(j, self._mixed) for j in self.joints]
        self._row_kernels = [rows for rows, _ in kernels]
        # joint_geometry and joint_rows find a joint's kernels by the joint
        self._joint_kernels = {id(j): k for j, k in zip(self.joints, kernels)}
        bodies = range(self.n_bodies)
        self._rhs_kernels = [_bind_body(self, i, "rhs") for i in bodies]
        self._acc_kernels = [] if self.joints else [_bind_body(self, i, "acc") for i in bodies]

    @property
    def n_bodies(self) -> int:
        return len(self.bodies)

    @property
    def n_constraints(self) -> int:
        return sum(j.dim for j in self.joints)

    def spatial_inertia_blocks(self, rotations) -> list[np.ndarray]:
        """Per-body 6x6 mass blocks for (..., n, 3, 3) rotations, one sample's
        or a stack of samples'.  In the mixed representation a block whose
        reference frame is off the COM depends on R: it is a (..., 6, 6)
        stack with the coupling -m R hat(r0) and its transpose
        (``_mixed_coupling``); every other block is constant."""
        if self.representation == BODY_FIXED:
            return self._spatial_inertias
        rotations = np.asarray(rotations, dtype=float)
        blocks = []
        for i, (block, mass, r0) in enumerate(zip(self._spatial_inertias, self._masses,
                                                  self._offsets)):
            if r0 is not None:
                # R's three rows side by side: a_m is R's column m, so the one
                # row returned holds the coupling's columns
                (coup,) = _mixed_coupling(mass, r0, [np.moveaxis(rotations[..., i, :, :], -1, 0)])
                coup = np.stack(coup, axis=-1)
                block = np.broadcast_to(block, coup.shape[:-2] + (6, 6)).copy()
                block[..., 3:, :3] = coup
                block[..., :3, 3:] = np.swapaxes(coup, -1, -2)
            blocks.append(block)
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


def _mixed_coupling(mass: float, r0, rows) -> list:
    """The mixed-representation coupling -m R hat(r0) of a body whose
    reference frame is off the COM, as 3 rows of 3 entries, row k being
    -m R[k] x r0.  R's ``rows`` hold floats (one pose) or sample arrays (a
    stack); only ``*`` and ``-`` act on them, so both give one pose's bits."""
    c0, c1, c2 = r0
    return [[-mass * (a1 * c2 - a2 * c1), -mass * (a2 * c0 - a0 * c2), -mass * (a0 * c1 - a1 * c0)]
            for a0, a1, a2 in rows]


def _pose_rows(poses) -> list:
    """Poses as the compiled kernels read them: (R rows, r) float pairs.
    The stage loop's form passes as it is; a ``Pose`` list is converted."""
    if poses and isinstance(poses[0], Pose):
        return [(p.R.tolist(), p.r.tolist()) for p in poses]
    return poses


def _frames(poses, velocities) -> tuple:
    """(poses, velocities) as the compiled kernels read them: ``_pose_rows``
    and 6n flat floats; (n, 6) array-likes are converted."""
    if not (isinstance(velocities, list) and velocities
            and isinstance(velocities[0], float)):
        velocities = np.asarray(velocities, dtype=float).reshape(-1).tolist()
    return _pose_rows(poses), velocities


def _body_terms(kernels, poses, velocities) -> list[float]:
    """The six entries per body of compiled body kernels (``_emit_body``),
    stacked flat: Q from ``MbsModel._rhs_kernels`` (applied wrench plus the
    velocity-dependent terms) or the applied wrenches alone.  A jointless
    ``accelerations`` runs ``_acc_kernels`` (Vdot = M^-1 Q) the same way."""
    out = []
    for kernel in kernels:
        kernel(poses, velocities, out)
    return out


def force_assembly(model: MbsModel, poses) -> np.ndarray:
    """Applied wrenches per body in the model's velocity representation."""
    kernels = [_bind_body(model, i, "wrench") for i in range(model.n_bodies)]
    return np.array(_body_terms(kernels, *_frames(poses, np.zeros((len(poses), 6))))).reshape(-1, 6)


def stacked_dot(a, b) -> np.ndarray:
    """Dot products of the last axes of a and b, broadcast over the leading
    ones: one BLAS dot per item of a stacked ``np.matmul``, the same call
    ``a_k @ b_k`` makes per sample, so each entry has its bits.  (A 2-D
    ``X @ g``, ``einsum`` or a sum along an axis reorder the products.)"""
    return np.matmul(np.asarray(a)[..., None, :], np.asarray(b)[..., :, None])[..., 0, 0]


def _samples(state) -> tuple:
    """(rotations, positions, velocities) as (N, n, 3, 3), (N, n, 3) and
    (N, n, 6) sample stacks: a record's, or one ``MbsState`` as N = 1."""
    if isinstance(state, MbsState):
        return (np.array([[p.R for p in state.poses]], dtype=float),
                np.array([[p.r for p in state.poses]], dtype=float),
                state.velocities[None])
    return state.rotations, state.positions, state.velocities


def _per_sample(state, series: np.ndarray):
    return float(series[0]) if isinstance(state, MbsState) else series


def kinetic_energy(model: MbsModel, state):
    """1/2 sum_i V_i . M_i V_i over the bodies in order: a float for an
    ``MbsState``, the (N,) series of a record's samples (``TrajectoryRecord``
    or anything with its rotations, positions and velocities stacks)."""
    rotations, _, velocities = _samples(state)
    blocks = model.spatial_inertia_blocks(rotations)
    ke = 0.5 * sum(stacked_dot(v, np.matmul(m, v[..., None])[..., 0])
                   for m, v in zip(blocks, np.moveaxis(velocities, 1, 0)))
    return _per_sample(state, ke)


def potential_energy(model: MbsModel, state):
    """Gravity at each COM and each spring at its attachment point, in
    force-list order; a float or a series as ``kinetic_energy``."""
    rotations, positions, _ = _samples(state)
    u = np.zeros(len(positions))
    for element in model.forces:
        if isinstance(element, Gravity):
            for i, body in enumerate(model.bodies):
                com = positions[:, i] + np.matmul(rotations[:, i], body.com_offset)
                u -= body.mass * stacked_dot(element.g, com)
        elif isinstance(element, LinearSpring):
            i = element.body
            att = positions[:, i] + np.matmul(rotations[:, i], element.attach)
            d = element.ground_point - att
            u += 0.5 * element.stiffness * stacked_dot(d, d)
    return _per_sample(state, u)


def total_energy(model: MbsModel, state):
    return kinetic_energy(model, state) + potential_energy(model, state)


# ---------------------------------------------------------------------------
# joint constraint rows
# ---------------------------------------------------------------------------

_I3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_Z3 = (0.0, 0.0, 0.0)


def _joint_kernels(joint: Joint, model: MbsModel):
    """The (rows, residual) kernels the model compiled for one of its joints."""
    kernels = model._joint_kernels.get(id(joint))
    if kernels is None:
        raise ValueError(f"joint {joint.label!r} is not one of the model's joints")
    return kernels


def joint_geometry(joint: Joint, poses, model: MbsModel) -> np.ndarray:
    """Constraint residual h(g) of one of the model's joints; zero on the
    constraint manifold.  Takes ``Pose`` lists or ``_frames``' float poses."""
    return np.array(_joint_kernels(joint, model)[1](_pose_rows(poses)))


def _frame(s: str) -> tuple:
    """(R rows, r, omega, v) of body ``s`` as the kernel's local names."""
    return (tuple(_names(f"r{s}{i}") for i in range(3)), *(_names(q + s) for q in "pwv"))


def _read_frame(s: str, i: str, velocities: bool = True) -> list[str]:
    """Kernel lines binding ``_frame(s)`` (or its pose alone) to body ``i``
    of ``_frames``' forms."""
    rot, p, w, v = _frame(s)
    return [f"{rot, p} = poses[{i}]",
            *([f"{(*w, *v)} = velocities[6 * {i}:6 * {i} + 6]"] if velocities else [])]


_neg = "-{}".format
_ZERO = ("0.0",) * 3
_GROUND = (tuple(tuple(map(repr, row)) for row in _I3), _ZERO, _ZERO, _ZERO)
_MINUS_I3 = (("-1.0", "0.0", "0.0"), ("0.0", "-1.0", "0.0"), ("0.0", "0.0", "-1.0"))


def _anchor_motion(e: _Emitter, mixed, rot, omega, vel, anchor):
    """Velocity of p = r + R a and its acceleration with V' = 0."""
    c = e.cross(omega, anchor)
    if mixed:
        return e.add(vel, e.mv(rot, c)), e.mv(rot, e.cross(omega, c))
    s = e.add(vel, c)
    return e.mv(rot, s), e.mv(rot, e.cross(omega, s))


def _emit_rows(e: _Emitter, rows, grounded: bool, mixed: bool):
    """One joint's residual h, J entries in KKT scatter order (per row body
    a's six, then body b's six) and eta entries, from row descriptors with
    direction names.  Every row of J is the exact derivative of h for any
    Ra, Rb with Rdot = R hat(omega): the integrated R leave SO(3) by
    roundoff, and rows that assume R^T R = I turn that defect into
    constraint drift."""
    ra, pa, wa, va = _GROUND if grounded else _frame("a")
    rb, pb, wb, vb = _frame("b")
    aa, ab = _names("aa"), _names("ab")
    # h's anchor point of body a: ground keeps its identity and zero
    # operands, so that signed zeros come out as with a body's pose
    ha = e.add(pa, e.mv(ra, aa))
    if grounded:
        rab, pa, pa_dot, pa_dd = rb, aa, _ZERO, _ZERO
    else:
        rab = tuple(e.mtv(rb, col) for col in zip(*ra))
        pa = ha
        pa_dot, pa_dd = _anchor_motion(e, mixed, ra, wa, va, aa)
    pb = e.add(pb, e.mv(rb, ab))
    pb_dot, pb_dd = _anchor_motion(e, mixed, rb, wb, vb, ab)

    h, jac, eta = [], [], []
    for row in rows:
        if row[0] == "anchor":
            w = e.sub(ha, pb)
            h += w if mixed else e.mtv(rb, w)
            if mixed:
                # h = pa - pb, spatial
                for i in range(3):
                    if not grounded:
                        jac += [*map(_neg, e.cross(ra[i], aa)), *_GROUND[0][i]]
                    jac += [*e.cross(rb[i], ab), *_MINUS_I3[i]]
                eta += e.sub(pb_dd, pa_dd)
            else:
                # h = Rb^T (pa - pb), child frame; body b's rows are
                # (hat(u) + hat(anchor_b), -I)
                u = e.mtv(rb, e.sub(pa, pb))
                s0, s1, s2 = e.add(u, ab)
                rows_b = (("0.0", _neg(s2), s1, *_MINUS_I3[0]),
                          (s2, "0.0", _neg(s0), *_MINUS_I3[1]),
                          (_neg(s1), s0, "0.0", *_MINUS_I3[2]))
                for col, row_b in zip(zip(*rab), rows_b):   # rows of Rb^T Ra
                    if not grounded:
                        jac += [*map(_neg, e.cross(col, aa)), *col]
                    jac += row_b
                t1 = e.cross(wb, e.cross(wb, u))
                t2 = e.cross(wb, e.mtv(rb, e.sub(pa_dot, pb_dot)))
                t3 = e.mtv(rb, e.sub(pa_dd, pb_dd))
                eta += map(_neg, e.add(e.sub(t1, e.twice(t2)), t3))
        elif row[0] == "axisdot":
            # h = alpha . b', b' = Rab beta, with the second rate
            # Rab'' = wa^2 Rab - 2 wa Rab wb + Rab wb^2 (hats)
            alpha, beta = row[1], row[2]
            h.append(e.dot(e.mv(ra, alpha), e.mv(rb, beta)))
            b_a = e.mv(rab, beta)
            wb_beta = e.cross(wb, beta)
            t = e.cross(wa, e.sub(e.cross(wa, b_a), e.twice(e.mv(rab, wb_beta))))
            b_dd = e.add(t, e.mv(rab, e.cross(wb, wb_beta)))
            if not grounded:
                jac += [*e.cross(alpha, b_a), *_ZERO]
            jac += [*e.cross(beta, e.mtv(rab, alpha)), *_ZERO]
            eta.append(_neg(e.dot(alpha, b_dd)))
        else:  # offsetdot: h = (Ra n) . (pb - pa)
            n = row[1]
            n_s = e.mv(ra, n)
            h.append(e.dot(n_s, e.sub(pb, ha)))
            d = e.sub(pb, pa)
            if not grounded:
                n_a = e.mtv(ra, n_s)
                c = e.sub(e.cross(n, e.mtv(ra, d)), e.cross(aa, n_a))
                jac += [*c, *map(_neg, n_s if mixed else n_a)]
            n_b = e.mtv(rab, n)
            jac += [*e.cross(ab, n_b), *(n_s if mixed else n_b)]
            n_dot = e.mv(ra, e.cross(wa, n))
            n_dd = e.mv(ra, e.cross(wa, e.cross(wa, n)))
            x, y = e.dot(n_dd, d), e.dot(n_dot, e.sub(pb_dot, pa_dot))
            eta.append(_neg(e.scalar(f"{x} + 2.0 * {y} + {e.dot(n_s, e.sub(pb_dd, pa_dd))}")))
    return h, jac, eta


@functools.cache
def _row_template(shape, grounded: bool, mixed: bool):
    """The kernel factory of one row structure (rows with indices into the
    joint's directions), compiled once per process.  It binds a joint's body
    indices, anchors and directions as closure values and returns the pair
    ``rows(poses, velocities, values, eta)``, appending J and eta entries,
    and ``residual(poses)``, returning h as a list."""
    e = _Emitter()
    h, jac, eta = _emit_rows(e, [(row[0], *(_names(f"k{i}_") for i in row[1:]))
                                 for row in shape], grounded, mixed)
    consts = ["aa", "ab", *(f"k{i}_" for i in sorted({i for r in shape for i in r[1:]}))]
    src = [f"def factory(ia, ib, {', '.join(consts)}):",
           *(f"    {_names(c)} = {c}" for c in consts),
           "    def rows(poses, velocities, values, eta):",
           *(f"        {line}" for s in "ab"[grounded:] for line in _read_frame(s, f"i{s}")),
           *(f"        {line}" for line in e.live(jac + eta)),
           f"        values.extend(({', '.join(jac)},))",
           f"        eta.extend(({', '.join(eta)},))",
           "    def residual(poses):",
           *(f"        {line}" for s in "ab"[grounded:]
             for line in _read_frame(s, f"i{s}", velocities=False)),
           *(f"        {line}" for line in e.live(h)),
           f"        return [{', '.join(h)}]",
           "    return rows, residual"]
    namespace = {}  # str() of a name tuple, unquoted, is an unpacking target
    exec(compile("\n".join(src).replace("'", ""), f"<rows {shape}>", "exec"), namespace)
    return namespace["factory"]


def _bind_rows(joint: Joint, mixed: bool):
    """The compiled (rows, residual) kernels of one joint in one
    representation; rows share a direction by identity, as the joint's
    descriptors do."""
    dirs = list({id(v): v for row in joint._rows for v in row[1:]}.values())
    index = {id(v): k for k, v in enumerate(dirs)}
    shape = tuple((row[0], *(index[id(v)] for v in row[1:])) for row in joint._rows)
    return _row_template(shape, joint.body_a is None, mixed)(
        joint.body_a, joint.body_b, *joint._anchors, *dirs)


def joint_rows(joint: Joint, poses, velocities, model: MbsModel):
    """Jacobian blocks per body and eta = -Jdot @ V of one of the model's
    joints in one pass: the exact differentials of joint_geometry and
    second-derivative remainders, valid off the manifold."""
    values, eta = [], []
    _joint_kernels(joint, model)[0](*_frames(poses, velocities), values, eta)
    rows = np.array(values).reshape(joint.dim, -1)
    if joint.body_a is None:
        return {joint.body_b: rows}, np.array(eta)
    return {joint.body_b: rows[:, 6:], joint.body_a: rows[:, :6]}, np.array(eta)


# ---------------------------------------------------------------------------
# body terms: applied wrenches and Newton-Euler right-hand sides
# ---------------------------------------------------------------------------

def _matrix(s: str, n: int) -> tuple:
    return tuple(tuple(f"{s}{i}_{j}" for j in range(n)) for i in range(n))


def _emit_body(e: _Emitter, mixed: bool, offset: bool, attach: tuple, output: str):
    """One body's six entries: its applied wrench (``"wrench"``), Newton-Euler
    right-hand side Q (``"rhs"``) or, without joints, Vdot = M^-1 Q (``"acc"``).
    Gravity acts at the COM (offset ``c``), each spring at its attachment
    point, in force-list order; ``attach`` flags points off the frame origin."""
    rot, p, omega, vel = _frame("")
    g = _names("g")
    fb = e.mtv(rot, g)
    w = [*(e.cross(_names("c"), fb) if offset else _ZERO), *(g if mixed else fb)]
    for k, has_attach in enumerate(attach):
        a, ground = _names(f"sa{k}_"), _names(f"sg{k}_")
        fs = tuple(e.scalar(f"sk{k} * {d}") for d in e.sub(ground, e.add(p, e.mv(rot, a))))
        fb = e.mtv(rot, fs)
        if has_attach:
            w[:3] = e.add(w[:3], e.cross(a, fb))
        w[3:] = e.add(w[3:], fs if mixed else fb)
    if output == "wrench":
        return w
    if mixed:
        # (omega x Theta omega, m R (omega x (omega x r0))); no linear part at the COM
        lin = (tuple(e.scalar(f"m * {x}") for x in
                     e.mv(rot, e.cross(omega, e.cross(omega, _names("c"))))) if offset else _ZERO)
        q = e.sub(w, (*e.cross(omega, e.mv(_matrix("th", 3), omega)), *lin))
    else:
        # ad_V^T (M V) written out: (h_ang x omega + h_lin x v, h_lin x omega)
        h = e.mv(_matrix("M", 6), (*omega, *vel))
        gyro = (*e.add(e.cross(h[:3], omega), e.cross(h[3:], vel)), *e.cross(h[3:], omega))
        q = e.add(w, gyro)
    if output == "rhs":
        return q
    # in the mixed representation an off-COM block is M(R) = T M_body T^T
    # with T = blockdiag(I, R), so the body-fixed inverse serves both
    rotate = mixed and offset
    if rotate:
        q = (*q[:3], *e.mtv(rot, q[3:]))
    a = e.mv(_matrix("Mi", 6), q)
    return (*a[:3], *e.mv(rot, a[3:])) if rotate else a


@functools.cache
def _body_template(mixed: bool, offset: bool, attach: tuple, output: str):
    """The kernel factory of one body structure, compiled once per process.
    It binds a body's index and constants as closure values and returns
    ``kernel(poses, velocities, out)``, which appends the body's six entries."""
    e = _Emitter()
    out = _emit_body(e, mixed, offset, attach, output)
    consts = {"g": _names("g"), "c": _names("c"), "theta": _matrix("th", 3),
              "mass6": _matrix("M", 6), "minv": _matrix("Mi", 6),
              "springs": tuple((_names(f"sa{k}_"), _names(f"sg{k}_"), f"sk{k}")
                               for k in range(len(attach)))}
    src = [f"def factory(i, m, {', '.join(consts)}):",
           *(f"    {names} = {arg}" for arg, names in consts.items()),
           "    def kernel(poses, velocities, out):",
           *(f"        {line}" for line in _read_frame("", "i")),
           *(f"        {line}" for line in e.live(out)),
           f"        out.extend(({', '.join(out)},))",
           "    return kernel"]
    namespace = {}
    exec(compile("\n".join(src).replace("'", ""),
                 f"<body {mixed, offset, attach, output}>", "exec"), namespace)
    return namespace["factory"]


def _bind_body(model: MbsModel, i: int, output: str):
    """The compiled kernel of body i's entries (``_emit_body``)."""
    springs = [s for s in model._springs_f if s[0] == i]
    return _body_template(model._mixed, model._offsets[i] is not None,
                          tuple(s[4] for s in springs), output)(
        i, model._masses[i], model._gravity_f[i], model._offsets[i] or _Z3,
        model._inertia_rows[i], model._mass_rows[i], model._mass_inv_rows[i],
        [s[1:4] for s in springs])


# ---------------------------------------------------------------------------
# index-1 DAE assembly and solution
# ---------------------------------------------------------------------------

def _kkt(model: MbsModel, poses, velocities, rhs: list):
    """KKT system [[M, J^T], [J, 0]] (Vdot, lambda) = (Q, eta) on the layout
    ``MbsModel._compile`` fixed, from ``_frames``' float forms; J does not
    depend on the velocities.  The row kernels append eta to ``rhs``, which
    holds Q or, for a consumer of J alone, nothing."""
    kkt = model._kkt0.copy()
    if model._mixed:
        for i, r0 in enumerate(model._offsets):
            if r0 is not None:
                coup = np.array(_mixed_coupling(model._masses[i], r0, poses[i][0]))
                kkt[6 * i + 3:6 * i + 6, 6 * i:6 * i + 3] = coup
                kkt[6 * i:6 * i + 3, 6 * i + 3:6 * i + 6] = coup.T
    values = []
    for kernel in model._row_kernels:
        kernel(poses, velocities, values, rhs)
    # J and J^T in one scatter: put repeats the entries, converted once
    kkt.put(model._jac_at, np.array(values))
    return kkt, np.array(rhs)


def assemble_index1(model: MbsModel, poses, velocities):
    """KKT system [[M, J^T], [J, 0]] (Vdot, lambda) = (Q, eta)."""
    poses, velocities = _frames(poses, velocities)
    return _kkt(model, poses, velocities, _body_terms(model._rhs_kernels, poses, velocities))


def _load_dgesv():
    """LAPACK dgesv (``scipy.linalg.lapack.dgesv`` re-exports it) from scipy's
    private ``scipy.linalg._flapack``, in every scipy >= 1.9, loaded alone: the
    ``scipy.linalg`` package loads ~300 modules.  A later ``import scipy.linalg``
    reuses this module, but that package then has no ``_flapack`` attribute."""
    import scipy  # the package's path and shared-library set-up only
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        stem = os.path.join(scipy.__path__[0], "linalg", "_flapack")
        paths = [stem + s for s in machinery.EXTENSION_SUFFIXES]
        path = next(filter(os.path.isfile, paths), paths[0])  # missing: ImportError names it
        spec = util.spec_from_loader(name, machinery.ExtensionFileLoader(name, path))
        sys.modules[name] = module = util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name].dgesv


# bound at the first solve: a model without joints never solves
_dgesv = None


def solve_index1(model: MbsModel, kkt, rhs):
    """Dense LU solve (LAPACK gesv); singularity raises naming the model's
    joints."""
    global _dgesv
    if _dgesv is None:
        _dgesv = _load_dgesv()
    _, _, sol, info = _dgesv(kkt, rhs)
    if info != 0:
        names = ", ".join(j.label for j in model.joints)
        raise RedundantConstraintError(
            f"singular KKT matrix; check joints [{names}] for redundancy")
    nv = 6 * model.n_bodies
    return sol[:nv].reshape(-1, 6), sol[nv:]


def accelerations(model: MbsModel, poses, velocities) -> list[float]:
    """Explicit ODE right-hand side Vdot = F(g, V) from the index-1 system.

    A model without joints has a block-diagonal system and skips the KKT
    assembly and solve.
    """
    if not model.joints:
        poses, velocities = _frames(poses, velocities)
        out = []
        for kernel in model._acc_kernels:
            kernel(poses, velocities, out)
        return out
    kkt, rhs = assemble_index1(model, poses, velocities)
    vdot, _ = solve_index1(model, kkt, rhs)
    return vdot.reshape(-1).tolist()


def constraint_jacobian(model: MbsModel, poses) -> np.ndarray:
    """Stacked m x 6n velocity-constraint Jacobian: the J block of the KKT
    matrix (at zero velocity; J does not depend on it)."""
    nv = 6 * model.n_bodies
    kkt, _ = _kkt(model, *_frames(poses, np.zeros((len(poses), 6))), [])
    return kkt[nv:, :nv].copy()


def velocity_residual(model: MbsModel, state: MbsState) -> float:
    """Euclidean norm of J @ V."""
    if not model.joints:
        return 0.0
    jac = constraint_jacobian(model, state.poses)
    return float(np.linalg.norm(jac @ state.velocities.reshape(-1)))


def project_velocities(model: MbsModel, state: MbsState) -> MbsState:
    """Minimum-norm (spatial-inertia metric) correction onto J V = 0: the
    KKT matrix solved for the right-hand side (0, -J V) by solve_index1."""
    if not model.joints:
        return state.copy()
    nv = 6 * model.n_bodies
    kkt, _ = _kkt(model, *_frames(state.poses, np.zeros_like(state.velocities)), [])
    rhs = np.zeros(len(kkt))
    rhs[nv:] = -kkt[nv:, :nv] @ state.velocities.reshape(-1)
    dv, _ = solve_index1(model, kkt, rhs)
    out = state.copy()
    out.velocities = state.velocities + dv
    return out


def check_initial_state(model: MbsModel, state: MbsState) -> None:
    """Hard feasibility gate used by model builders and the loader: |h| of
    every joint within TOL_POS and |J V| within TOL_VEL."""
    # not (x <= tol): a NaN residual fails the gate
    for joint in model.joints:
        h = joint_geometry(joint, state.poses, model)
        if not np.abs(h).max() <= TOL_POS:
            raise InfeasibleStateError(
                f"joint {joint.label!r}: |h| = {np.abs(h).max():.3e} "
                f"exceeds {TOL_POS:.1e} in the initial configuration")
    res = velocity_residual(model, state)
    if not res <= TOL_VEL:
        raise InfeasibleStateError(
            f"initial velocity constraint residual {res:.3e} exceeds {TOL_VEL:.1e}")
