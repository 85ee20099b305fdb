"""Explicit Runge-Kutta schemes and their Munthe-Kaas lift to the c-space.

One fixed-size step advances the coupled system

    Vdot = F(g, V)        (index-1 accelerations, vector space)
    gdot = g * Vhat       (kinematic reconstruction, Lie group)

with a single Butcher tableau.  The pose part solves the chart equation
``Phidot = dexpinv(-Phi) V(t, g exp(Phi))`` with the chart reset at every
step, so the stage increments stay far from the dexpinv poles; the velocity
part is a plain RK update sharing the same stage coefficients.  The
quaternion chart runs the same step with no Lie part: its vector part holds
the chart coordinates too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dualquat import (
    dq_from_pose,
    euler_reconstruct_rates,
    pose_from_dq,
    quat_from_rotation,
    quat_rotation_rows,
    reconstruct_rates,
)
from .dynamics import MbsModel, MbsState, accelerations
from .liealg import SE3, CSpaceGroup, Pose, _define


class IntegrationError(RuntimeError):
    def __init__(self, message: str, step: int, t: float):
        super().__init__(f"step {step} (t = {t:.6g}): {message}")
        self.step = step
        self.t = t


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients of an explicit RK scheme (strictly lower triangular a)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        c = np.array(self.c, dtype=float)
        for x in (a, b, c):  # tableau_rk4() hands one instance to every caller
            x.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        s = len(b)
        if a.shape != (s, s) or c.shape != (s,):
            raise ValueError("inconsistent tableau dimensions")
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValueError("tableau coefficients must be finite")
        if np.abs(np.triu(a)).max() != 0.0:
            raise ValueError("tableau must be explicit (strictly lower triangular)")
        if abs(b.sum() - 1.0) > 1e-14:
            raise ValueError("weights must sum to one")
        if np.abs(a.sum(axis=1) - c).max() > 1e-14:
            raise ValueError("nodes must satisfy c_j = sum_l a_jl")
        # nonzero stage couplings and weights as plain floats, precomputed
        # for the stage loops; as tuples they key the compiled loop by value
        object.__setattr__(self, "_deps",
                           tuple(tuple((l, float(a[j, l])) for l in range(j) if a[j, l] != 0.0)
                                 for j in range(s)))
        object.__setattr__(self, "_weights",
                           tuple((j, float(w)) for j, w in enumerate(b) if w != 0.0))
        object.__setattr__(self, "_nodes", tuple(c.tolist()))

    @property
    def stages(self) -> int:
        return len(self.b)


@functools.cache
def tableau_rk4() -> ButcherTableau:
    """The classical 4th-order scheme, one instance per process."""
    a = np.zeros((4, 4))
    a[1, 0] = 0.5
    a[2, 1] = 0.5
    a[3, 2] = 1.0
    return ButcherTableau(a, np.array([1, 2, 2, 1]) / 6.0,
                          np.array([0.0, 0.5, 0.5, 1.0]))


def tableau_explicit_trapezoidal() -> ButcherTableau:
    """2-stage scheme with k2 evaluated at the half step, x += dt k2."""
    a = np.zeros((2, 2))
    a[1, 0] = 0.5
    return ButcherTableau(a, np.array([0.0, 1.0]), np.array([0.0, 0.5]))


def _unpack(names, value) -> list[str]:
    return [f"{', '.join(names)}, = {value}"] if names else []


@functools.cache
def _step(deps: tuple, weights: tuple, nodes: tuple, n_bodies: int, width: int):
    """One shared-stage step of a Lie part and a vector part, compiled once
    per process for each tableau's coefficients (by value), body count and
    vector width: ``step(group, frames, y, comp, t, dt, rhs)`` gives the next
    (frames, y, comp).

    The Lie part is the (R rows, r) float poses ``frames``: slopes
    k_j = dexpinv(-Psi_j) V_j, with Psi_j = dt sum_l a_jl k_l and the stage
    poses g_i exp(Psi_j,i), and phi = dt sum_j b_j k_j.  The vector part is
    the flat float list ``y``: stages y_j = y + dt sum_l a_jl F_l and
    dy = dt sum_j b_j F_j, which is the Lie part on R^N (exp is +, dexpinv
    the identity).  ``rhs(j, t_j, stage poses, y_j)`` gives (V_j, F_j), 6n
    and ``width`` floats.  A stage with Psi_j = 0 sits at ``frames`` and ``y``
    and needs no dexpinv evaluation.

    A non-finite ``sum(dy, sum(phi))`` raises FloatingPointError before any
    pose moves.  Otherwise each pose becomes g exp(phi_i); its translation
    increment and dy are added with Kahan compensation ``comp``, three
    entries per body, then y's (zero ``comp``: a plain add).  The group's
    kernels are read when the step runs, so a patched ``advance_parts`` or
    ``dexpinv_apply`` reaches it."""
    m = 6 * n_bodies

    def combine(terms, row, slope, size, base="0.0"):
        # base + c_1 s_l1 + c_2 s_l2 + ... in term order, c = dt * w
        return [" + ".join([base.format(i), *(f"c{row}_{l} * {slope}{l}_{i}" for l, _ in terms)])
                for i in range(size)]

    src = ["advance, dexpinv = group.advance_parts, group.dexpinv_apply",
           *(f"rot{i}, (r{i}_0, r{i}_1, r{i}_2) = frames[{i}]" for i in range(n_bodies)),
           *_unpack([f"y_{i}" for i in range(width)], "y")]
    for j, stage_deps in enumerate(deps):
        tj = f"t + {nodes[j]!r} * dt"
        fj = _unpack([f"f{j}_{i}" for i in range(width)], "f")
        if not stage_deps:
            src += [f"v, f = rhs({j}, {tj}, frames, y)",
                    *_unpack([f"k{j}_{i}" for i in range(m)], "v"), *fj]
            continue
        src += [f"c{j}_{l} = dt * {w!r}" for l, w in stage_deps]
        src += [f"p{j}_{i} = {expr}" for i, expr in enumerate(combine(stage_deps, j, "k", m))]
        psi = [[f"p{j}_{i}" for i in range(6 * b, 6 * b + 6)] for b in range(n_bodies)]
        src += [f"s{b}, (d{b}_0, d{b}_1, d{b}_2) = advance(rot{b}, ({', '.join(psi[b])}))"
                for b in range(n_bodies)]
        stage = ", ".join(f"(s{b}, (r{b}_0 + d{b}_0, r{b}_1 + d{b}_1, r{b}_2 + d{b}_2))"
                          for b in range(n_bodies))
        yj = ", ".join(combine(stage_deps, j, "f", width, base="y_{}"))
        src.append(f"v, f = rhs({j}, {tj}, [{stage}], [{yj}])")
        src += [f"{', '.join(f'k{j}_{i}' for i in range(6 * b, 6 * b + 6))} = dexpinv("
                f"({', '.join('-' + p for p in psi[b])}), v[{6 * b}:{6 * b + 6}])"
                for b in range(n_bodies)]
        src += fj
    s = len(deps)
    src += [f"c{s}_{l} = dt * {w!r}" for l, w in weights]
    src += [f"phi = [{', '.join(combine(weights, s, 'k', m))}]",
            f"dy = [{', '.join(combine(weights, s, 'f', width))}]",
            "if not math.isfinite(sum(dy, sum(phi))):",
            "    raise FloatingPointError('non-finite velocity or chart increment')",
            *_unpack([f"dy_{i}" for i in range(width)], "dy")]
    # the step end: (x, increment) of each compensated sum, translations first
    sums = [(f"r{b}_{i}", f"g{b}_{i}") for b in range(n_bodies) for i in range(3)]
    sums += [(f"y_{i}", f"dy_{i}") for i in range(width)]
    src += [f"rot{b}, (g{b}_0, g{b}_1, g{b}_2) = advance(rot{b}, phi[{6 * b}:{6 * b + 6}])"
            for b in range(n_bodies)]
    src += _unpack([f"e{k}" for k in range(len(sums))], "comp")
    for k, (x, d) in enumerate(sums):  # Kahan's operation order: the bits depend on it
        src += [f"u{k} = {d} - e{k}", f"x{k} = {x} + u{k}", f"e{k} = (x{k} - {x}) - u{k}"]
    poses = ", ".join(f"(rot{b}, (x{3 * b}, x{3 * b + 1}, x{3 * b + 2}))" for b in range(n_bodies))
    ys = ", ".join(f"x{k}" for k in range(3 * n_bodies, len(sums)))
    src.append(f"return [{poses}], [{ys}], [{', '.join(f'e{k}' for k in range(len(sums)))}]")
    return _define("step(group, frames, y, comp, t, dt, rhs)", src, None)


def mk_step(group: CSpaceGroup, poses, v_field, t: float, dt: float,
            tableau: ButcherTableau) -> list[Pose]:
    """One Munthe-Kaas step of gdot = g Vhat for a prescribed velocity field.

    ``v_field(t, poses)`` returns the (n, 6) stacked velocities in the
    group's algebra coordinates.  A non-finite chart increment raises
    FloatingPointError.
    """
    def rhs(j, tj, stage, y):
        poses_j = (poses if stage is frames
                   else [Pose(np.array(rot), np.array(r)) for rot, r in stage])
        return np.asarray(v_field(tj, poses_j), dtype=float).reshape(-1).tolist(), ()

    frames = [(p.R.tolist(), p.r.tolist()) for p in poses]
    step = _step(tableau._deps, tableau._weights, tableau._nodes, len(frames), 0)
    frames, _, _ = step(group, frames, [], [0.0] * 3 * len(frames), t, dt, rhs)
    return [Pose(np.array(rot), np.array(r)) for rot, r in frames]


@dataclass
class TrajectoryRecord:
    """Sampled time series of an integration run."""

    times: np.ndarray          # (N,)
    rotations: np.ndarray      # (N, n, 3, 3)
    positions: np.ndarray      # (N, n, 3)
    velocities: np.ndarray     # (N, n, 6)
    # worst per-sample (norm, Pluecker) invariant defects, quaternion path only
    quat_defects: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return len(self.times)


def _sampling(n_bodies: int, dt: float, t_final: float, stride: int):
    """Sampled step indices (the last is the step count), the empty record
    of a run and its writer.

    Every ``stride``-th step is sampled; the initial and final states
    always are.  The record's fields are views of one (N, 1 + 18n) array,
    so ``write(slot, t, frames, v)`` stores a sample, t with the (R rows, r)
    ``frames`` and the 6n floats ``v``, in one row assignment.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not math.isfinite(t_final):
        raise ValueError("t_final must be finite")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n_steps = max(0, int(round(t_final / dt)))
    sample_idx = list(range(0, n_steps + 1, stride))
    if sample_idx[-1] != n_steps:
        sample_idx.append(n_steps)
    n_samples, n = len(sample_idx), n_bodies
    rows = np.empty((n_samples, 1 + 18 * n))
    rec = TrajectoryRecord(
        times=rows[:, 0],
        rotations=rows[:, 1:1 + 9 * n].reshape(n_samples, n, 3, 3),
        positions=rows[:, 1 + 9 * n:1 + 12 * n].reshape(n_samples, n, 3),
        velocities=rows[:, 1 + 12 * n:].reshape(n_samples, n, 6),
    )

    def write(slot, t, frames, v):
        row = [t]
        for rot, _ in frames:
            for rot_row in rot:
                row += rot_row
        for _, r in frames:
            row += r
        row += v
        rows[slot] = row

    return sample_idx, rec, write


def _run(group: CSpaceGroup, frames, y, dt: float, sample_idx,
         tableau: ButcherTableau, rhs, record) -> None:
    """The fixed-step loop of both charts: the compiled ``_step`` from t = 0
    up to step ``sample_idx[-1]``, with ``record(slot, t, frames, y)`` at the
    initial state and at each sampled step.  The translations of ``frames``
    and ``y`` accumulate compensated (Kahan) so the roundoff of 1e5-step
    runs stays far below the drift scales measured."""
    record(0, 0.0, frames, y)
    slot = 1
    one_step = _step(tableau._deps, tableau._weights, tableau._nodes, len(frames), len(y))
    comp = [0.0] * (3 * len(frames) + len(y))
    t = 0.0
    for step in range(1, sample_idx[-1] + 1):
        try:
            frames, y, comp = one_step(group, frames, y, comp, t, dt, rhs)
        except Exception as exc:
            raise IntegrationError(str(exc), step, t) from exc
        t = step * dt
        if slot < len(sample_idx) and step == sample_idx[slot]:
            record(slot, t, frames, y)
            slot += 1


def integrate(model: MbsModel, state0: MbsState, dt: float, t_final: float,
              tableau: ButcherTableau, stride: int = 1) -> TrajectoryRecord:
    """Fixed-step loop on ``model.group`` from t = 0 to t_final, sampling
    every ``stride`` steps (the initial and final states are always
    recorded).  The vector part of the step is the 6n velocities."""
    sample_idx, rec, write = _sampling(model.n_bodies, dt, t_final, stride)

    def rhs(j, tj, stage, v):
        return v, accelerations(model, stage, v)

    _run(model.group, [(p.R.tolist(), p.r.tolist()) for p in state0.poses],
         state0.velocities.reshape(-1).tolist(), dt, sample_idx, tableau, rhs, write)
    return rec


# ---------------------------------------------------------------------------
# singularity-free global chart: the same dynamics integrated as a plain
# vector-space ODE in quaternion coordinates
# ---------------------------------------------------------------------------

def _quat_chart(group: CSpaceGroup):
    """Width and per-body (pack, unpack, rates, defects) functions of the
    quaternion chart; chart coordinates and rates are flat float sequences,
    ``unpack`` gives the body's (R rows, r) float pair on either group, and
    ``defects`` its (unit norm, Pluecker) invariant defects.  The dualquat
    maps are read from this module's names when a run starts."""
    def unit(y):
        return abs(math.sqrt(sum(x * x for x in y[:4])) - 1.0)

    if group is SE3:
        def defects(y):
            return unit(y), abs(sum(a * b for a, b in zip(y[:4], y[4:])))

        return 8, dq_from_pose, pose_from_dq, reconstruct_rates, defects

    def pack(pose):
        return quat_from_rotation(pose.R).tolist() + pose.r.tolist()

    def unpack(y):
        q0, q1, q2, q3 = y[:4]
        return quat_rotation_rows(q0, q1, q2, q3, q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3), y[4:]

    def defects(y):
        return unit(y), 0.0

    return 7, pack, unpack, euler_reconstruct_rates, defects


def integrate_quaternion(model: MbsModel, state0: MbsState, dt: float, t_final: float,
                         tableau: ButcherTableau, stride: int = 1) -> TrajectoryRecord:
    """Fixed-step RK run of the quaternion-coordinate formulation.

    Dual quaternions parameterize SE(3) with the rates ``1/2 A V``, Euler
    parameters plus position the direct product (``model.group``); the
    rates are tangent to the unit-norm and Pluecker invariants, whose drift
    is recorded per sample.  The step has no Lie part: its vector part is a
    flat float list of every body's chart coordinates, then the 6n velocities.
    """
    width, pack, unpack, chart_rates, chart_defects = _quat_chart(model.group)
    n = model.n_bodies
    nq = width * n
    sample_idx, rec, write = _sampling(n, dt, t_final, stride)
    rec.quat_defects = np.empty((rec.n_samples, 2))

    def rhs(j, tj, stage, y):
        charts = [y[width * i:width * (i + 1)] for i in range(n)]
        vel = y[nq:]
        vdot = accelerations(model, [unpack(q) for q in charts], vel)
        out = []
        for i, q in enumerate(charts):
            out += chart_rates(q, vel[6 * i:6 * i + 6])
        out += vdot
        return (), out

    def record(slot, t, frames, y):
        charts = [y[width * i:width * (i + 1)] for i in range(n)]
        write(slot, t, [unpack(q) for q in charts], y[nq:])
        worst = (0.0, 0.0)
        for q in charts:
            worst = [max(a, b) for a, b in zip(worst, chart_defects(q))]
        rec.quat_defects[slot] = worst

    y = [x for pose in state0.poses for x in pack(pose)] + state0.velocities.reshape(-1).tolist()
    _run(model.group, [], y, dt, sample_idx, tableau, rhs, record)
    return rec
