"""Explicit Runge-Kutta schemes and their Munthe-Kaas lift to the c-space.

One fixed-size step advances the coupled system

    Vdot = F(g, V)        (index-1 accelerations, vector space)
    gdot = g * Vhat       (kinematic reconstruction, Lie group)

with a single Butcher tableau.  The pose part solves the chart equation
``Phidot = dexpinv(-Phi) V(t, g exp(Phi))`` with the chart reset at every
step, so the stage increments stay far from the dexpinv poles; the velocity
part is a plain RK update sharing the same stage coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dualquat import (
    DualQuaternion,
    dq_from_pose,
    euler_reconstruct_rates,
    pose_from_dq,
    quat_from_rotation,
    quat_rotation_rows,
    reconstruct_rates,
)
from .dynamics import MbsModel, MbsState, accelerations
from .liealg import CSpaceGroup, Pose, add3


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
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        s = len(b)
        if a.shape != (s, s) or c.shape != (s,):
            raise ValueError("inconsistent tableau dimensions")
        if np.abs(np.triu(a)).max() != 0.0:
            raise ValueError("tableau must be explicit (strictly lower triangular)")
        if abs(b.sum() - 1.0) > 1e-14:
            raise ValueError("weights must sum to one")
        if np.abs(a.sum(axis=1) - c).max() > 1e-14:
            raise ValueError("nodes must satisfy c_j = sum_l a_jl")
        # nonzero stage couplings and weights as plain floats, precomputed
        # for the stage loops
        object.__setattr__(self, "_deps",
                           [[(l, float(a[j, l])) for l in range(j) if a[j, l] != 0.0]
                            for j in range(s)])
        object.__setattr__(self, "_weights",
                           [(j, float(w)) for j, w in enumerate(b) if w != 0.0])
        object.__setattr__(self, "_nodes", c.tolist())

    @property
    def stages(self) -> int:
        return len(self.b)


def tableau_rk4() -> ButcherTableau:
    """The classical 4th-order scheme."""
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


def _combine(dt: float, terms, rows, base) -> list[float]:
    """base + dt * sum(w * rows[l] for l, w in terms), elementwise on floats."""
    out = base
    for l, w in terms:
        c = dt * w
        out = [o + c * x for o, x in zip(out, rows[l])]
    return out


def _stage_slopes(group: CSpaceGroup, frames, t: float, dt: float,
                  tableau: ButcherTableau, velocity) -> list[list[float]]:
    """Chart slopes k_j = dexpinv(-Psi_j) V_j of one shared-stage step from
    the (R rows, r) float poses ``frames``; ``velocity(j, t_j, stage poses)``
    gives V_j.  Slopes and velocities are flat lists of 6n floats."""
    zeros = [0.0] * (6 * len(frames))
    ks = []
    for j, deps in enumerate(tableau._deps):
        tj = t + tableau._nodes[j] * dt
        if not deps:
            # Psi_j = 0: the stage sits at g and needs no dexpinv evaluation
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


def mk_step(group: CSpaceGroup, poses, v_field, t: float, dt: float,
            tableau: ButcherTableau) -> list[Pose]:
    """One Munthe-Kaas step of gdot = g Vhat for a prescribed velocity field.

    ``v_field(t, poses)`` returns the (n, 6) stacked velocities in the
    group's algebra coordinates.
    """
    def velocity(j, tj, stage):
        poses_j = (poses if stage is frames
                   else [Pose(np.array(rot), np.array(r)) for rot, r in stage])
        return np.asarray(v_field(tj, poses_j), dtype=float).reshape(-1).tolist()

    frames = [(p.R.tolist(), p.r.tolist()) for p in poses]
    ks = _stage_slopes(group, frames, t, dt, tableau, velocity)
    phi = _combine(dt, tableau._weights, ks, [0.0] * (6 * len(frames)))
    _advance(group, frames, phi, [(0.0, 0.0, 0.0)] * len(frames))
    return [Pose(np.array(rot), np.array(r)) for rot, r in frames]


def _coupled_increments(model: MbsModel, group: CSpaceGroup, frames, v0,
                        t: float, dt: float, tableau: ButcherTableau):
    """Shared-stage chart increment Phi and velocity update of one step, as
    flat float lists, from (R rows, r) float poses."""
    fs = []       # accelerations F(g_j, V_j)

    def velocity(j, tj, stage):
        deps = tableau._deps[j]
        vj = _combine(dt, deps, fs, v0) if deps else v0
        fs.append(accelerations(model, stage, vj, tj).reshape(-1).tolist())
        return vj

    ks = _stage_slopes(group, frames, t, dt, tableau, velocity)
    zeros = [0.0] * len(v0)
    return (_combine(dt, tableau._weights, ks, zeros),
            _combine(dt, tableau._weights, fs, zeros))


@dataclass
class TrajectoryRecord:
    """Sampled time series of an integration run."""

    times: np.ndarray          # (N,)
    rotations: np.ndarray      # (N, n, 3, 3)
    positions: np.ndarray      # (N, n, 3)
    velocities: np.ndarray     # (N, n, 6)
    dt: float = 0.0
    # worst per-sample (norm, Pluecker) invariant defects, quaternion path only
    quat_defects: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def state_at(self, k: int) -> MbsState:
        poses = [Pose(rot, pos) for rot, pos in zip(self.rotations[k], self.positions[k])]
        return MbsState(poses, self.velocities[k].copy(), float(self.times[k]))


def _kahan_add(x, dx, comp):
    """Compensated x + dx on float lists: the sum and the roundoff of this
    addition, which the next addition subtracts first."""
    ys = [d - c for d, c in zip(dx, comp)]
    s = [a + y for a, y in zip(x, ys)]
    return s, [(b - a) - y for a, b, y in zip(x, s, ys)]


def _advance(group: CSpaceGroup, frames, phi, comp_r) -> None:
    """A step's end: each (R rows, r) float pose in ``frames`` becomes
    g exp(phi_i), in place, its translation added compensated against
    ``comp_r`` (all zeros: a plain add, as in mk_step)."""
    for i, (rot, r) in enumerate(frames):
        rot, delta = group.advance_parts(rot, phi[6 * i:6 * i + 6])
        r, comp_r[i] = _kahan_add(r, delta, comp_r[i])
        frames[i] = (rot, r)


def _sampling(n_bodies: int, t0: float, dt: float, t_final: float, stride: int):
    """Step count, sampled step indices and the empty record of a run.

    Every ``stride``-th step is sampled; the initial and final states
    always are.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n_steps = max(0, int(round((t_final - t0) / dt)))
    sample_idx = list(range(0, n_steps + 1, stride))
    if sample_idx[-1] != n_steps:
        sample_idx.append(n_steps)
    n_samples = len(sample_idx)
    rec = TrajectoryRecord(
        times=np.empty(n_samples),
        rotations=np.empty((n_samples, n_bodies, 3, 3)),
        positions=np.empty((n_samples, n_bodies, 3)),
        velocities=np.empty((n_samples, n_bodies, 6)),
        dt=dt,
    )
    return n_steps, sample_idx, rec


def integrate(model: MbsModel, group: CSpaceGroup, state0: MbsState,
              dt: float, t_final: float, tableau: ButcherTableau,
              stride: int = 1) -> TrajectoryRecord:
    """Fixed-step loop from state0.t to t_final, sampling every ``stride``
    steps (the initial and final states are always recorded)."""
    n = model.n_bodies
    n_steps, sample_idx, rec = _sampling(n, state0.t, dt, t_final, stride)

    def record(slot, t, frames, v):
        rec.times[slot] = t
        rec.rotations[slot] = [rot for rot, _ in frames]
        rec.positions[slot] = [r for _, r in frames]
        rec.velocities[slot] = np.reshape(v, (n, 6))

    t0 = state0.t
    frames = [(p.R.tolist(), p.r.tolist()) for p in state0.poses]
    v = state0.velocities.reshape(-1).tolist()
    record(0, t0, frames, v)
    slot = 1
    # positions and velocities accumulate compensated (Kahan) so the
    # roundoff of 1e5-step runs stays far below the drift scales measured
    comp_r = [(0.0, 0.0, 0.0)] * n
    comp_v = [0.0] * len(v)
    t = t0
    for step in range(1, n_steps + 1):
        try:
            phi, dv = _coupled_increments(model, group, frames, v, t, dt, tableau)
        except Exception as exc:
            raise IntegrationError(str(exc), step, t) from exc
        if not math.isfinite(sum(dv, sum(phi))):
            raise IntegrationError("non-finite velocity or chart increment", step, t)
        v, comp_v = _kahan_add(v, dv, comp_v)
        _advance(group, frames, phi, comp_r)
        t = t0 + step * dt
        if slot < len(sample_idx) and step == sample_idx[slot]:
            record(slot, t, frames, v)
            slot += 1
    return rec


# ---------------------------------------------------------------------------
# singularity-free global chart: the same dynamics integrated as a plain
# vector-space ODE in quaternion coordinates
# ---------------------------------------------------------------------------

def _quat_chart(group_name: str):
    """Width and per-body (pack, unpack, rates, defects) functions of the
    quaternion chart; chart coordinates and rates are flat float sequences,
    ``unpack`` gives the body's (R rows, r) float pair on either group, and
    ``defects`` its (unit norm, Pluecker) invariant defects."""
    def unit(y):
        return abs(math.sqrt(sum(x * x for x in y[:4])) - 1.0)

    if group_name == "se3":
        def pack(pose):
            return dq_from_pose(pose).as_vector().tolist()

        def unpack(y):
            pose = pose_from_dq(DualQuaternion(y[:4], y[4:]))
            return pose.R.tolist(), pose.r.tolist()

        def rates(y, v):
            return reconstruct_rates(DualQuaternion(y[:4], y[4:]), v)

        def defects(y):
            return unit(y), abs(sum(a * b for a, b in zip(y[:4], y[4:])))

        return 8, pack, unpack, rates, defects

    def pack(pose):
        return quat_from_rotation(pose.R).tolist() + pose.r.tolist()

    def unpack(y):
        return quat_rotation_rows(*y[:4]), y[4:]

    def rates(y, v):
        return euler_reconstruct_rates(y[:4], y[4:], v)

    def defects(y):
        return unit(y), 0.0

    return 7, pack, unpack, rates, defects


def integrate_quaternion(model: MbsModel, group: CSpaceGroup, state0: MbsState,
                         dt: float, t_final: float, tableau: ButcherTableau,
                         stride: int = 1) -> TrajectoryRecord:
    """Fixed-step RK run of the quaternion-coordinate formulation.

    Dual quaternions parameterize SE(3), Euler parameters plus position the
    direct product; the reconstructed rates are tangent to the unit-norm and
    Pluecker invariants, whose drift is recorded per sample.  The state is
    one flat float list: the chart coordinates of every body, then the 6n
    velocities.
    """
    width, pack, unpack, chart_rates, chart_defects = _quat_chart(group.name)
    n = model.n_bodies
    nq = width * n
    n_steps, sample_idx, rec = _sampling(n, state0.t, dt, t_final, stride)
    rec.quat_defects = np.zeros((rec.n_samples, 2))

    def f(t, y):
        charts = [y[width * i:width * (i + 1)] for i in range(n)]
        vel = y[nq:]
        vdot = accelerations(model, [unpack(q) for q in charts], vel, t)
        out = []
        for i, q in enumerate(charts):
            out.extend(chart_rates(q, vel[6 * i:6 * i + 6]))
        out.extend(vdot.reshape(-1).tolist())
        return out

    y = []
    for pose in state0.poses:
        y.extend(pack(pose))
    y.extend(state0.velocities.reshape(-1).tolist())

    def record(slot, t, y):
        rec.times[slot] = t
        for i in range(n):
            q = y[width * i:width * (i + 1)]
            rec.rotations[slot, i], rec.positions[slot, i] = unpack(q)
            rec.quat_defects[slot] = [max(a, b) for a, b in
                                      zip(rec.quat_defects[slot], chart_defects(q))]
        rec.velocities[slot] = np.reshape(y[nq:], (n, 6))
    record(0, state0.t, y)

    slot = 1
    t0 = state0.t
    for step in range(1, n_steps + 1):
        t = t0 + (step - 1) * dt
        try:
            ks = []
            for j in range(tableau.stages):
                deps = tableau._deps[j]
                yj = _combine(dt, deps, ks, y) if deps else y
                ks.append(f(t + tableau._nodes[j] * dt, yj))
            y = _combine(dt, tableau._weights, ks, y)
        except Exception as exc:
            raise IntegrationError(str(exc), step, t) from exc
        if not math.isfinite(sum(y)):
            raise IntegrationError("non-finite velocity or chart increment", step, t)
        if slot < len(sample_idx) and step == sample_idx[slot]:
            record(slot, t0 + step * dt, y)
            slot += 1
    return rec
