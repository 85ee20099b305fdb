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
from .liealg import CSpaceGroup, Pose


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
    name: str = ""

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
                          np.array([0.0, 0.5, 0.5, 1.0]), name="rk4")


def tableau_explicit_trapezoidal() -> ButcherTableau:
    """2-stage scheme with k2 evaluated at the half step, x += dt k2."""
    a = np.zeros((2, 2))
    a[1, 0] = 0.5
    return ButcherTableau(a, np.array([0.0, 1.0]), np.array([0.0, 0.5]),
                          name="explicit-trapezoidal")


TABLEAUS = {"rk4": tableau_rk4, "explicit-trapezoidal": tableau_explicit_trapezoidal}


def _stage_poses(group: CSpaceGroup, poses, psi) -> list[Pose]:
    if psi is None:
        return poses
    return [group.compose(g, group.exp(p)) for g, p in zip(poses, psi)]


def mk_step(group: CSpaceGroup, poses, v_field, t: float, dt: float,
            tableau: ButcherTableau) -> list[Pose]:
    """One Munthe-Kaas step of gdot = g Vhat for a prescribed velocity field.

    ``v_field(t, poses)`` returns the (n, 6) stacked velocities in the
    group's algebra coordinates.
    """
    n = len(poses)
    ks = []
    for j in range(tableau.stages):
        deps = tableau._deps[j]
        if deps:
            psi = dt * sum(w * ks[l] for l, w in deps)
            stage = _stage_poses(group, poses, psi)
            v = np.atleast_2d(np.asarray(v_field(t + tableau.c[j] * dt, stage), dtype=float))
            k = np.empty((n, 6))
            for i in range(n):
                k[i] = group.dexpinv_apply(-psi[i], v[i])
        else:
            # Psi_1 = 0: the first stage needs no dexpinv evaluation
            k = np.atleast_2d(np.asarray(v_field(t, poses), dtype=float)).copy()
        ks.append(k)
    phi = dt * sum(w * k for w, k in zip(tableau.b, ks) if w != 0.0)
    return [group.compose(g, group.exp(p)) for g, p in zip(poses, phi)]


def _combine(dt: float, terms, rows, base) -> list[float]:
    """base + dt * sum(w * rows[l] for l, w in terms), elementwise on floats."""
    out = base
    for l, w in terms:
        c = dt * w
        out = [o + c * x for o, x in zip(out, rows[l])]
    return out


def _coupled_increments(model: MbsModel, group: CSpaceGroup, poses0, v0,
                        t: float, dt: float, tableau: ButcherTableau):
    """Shared-stage chart increment Phi and velocity update of one step.

    Velocities, slopes and both increments are flat lists of 6n floats.
    """
    zeros = [0.0] * len(v0)
    ks = []       # chart slopes dexpinv(-Psi_j) V_j
    fs = []       # accelerations F(g_j, V_j)
    for j in range(tableau.stages):
        deps = tableau._deps[j]
        if deps:
            psi = _combine(dt, deps, ks, zeros)
            vj = _combine(dt, deps, fs, v0)
            stage, k = [], []
            for i, g in enumerate(poses0):
                p = psi[6 * i:6 * i + 6]
                stage.append(group.compose(g, group.exp(p)))
                k.extend(group.dexpinv_apply([-x for x in p], vj[6 * i:6 * i + 6]))
        else:
            stage, vj, k = poses0, v0, v0
        fs.append(accelerations(model, stage, vj, t + float(tableau.c[j]) * dt)
                  .reshape(-1).tolist())
        ks.append(k)
    return (_combine(dt, tableau._weights, ks, zeros),
            _combine(dt, tableau._weights, fs, zeros))


def coupled_step(model: MbsModel, group: CSpaceGroup, state: MbsState,
                 dt: float, tableau: ButcherTableau) -> MbsState:
    """Advance poses and velocities with shared stages of one tableau."""
    v0 = state.velocities.reshape(-1).tolist()
    phi, dv = _coupled_increments(model, group, state.poses, v0, state.t, dt, tableau)
    poses_new = [group.compose(g, group.exp(phi[6 * i:6 * i + 6]))
                 for i, g in enumerate(state.poses)]
    return MbsState(poses_new, np.add(v0, dv).reshape(-1, 6), state.t + dt)


@dataclass
class TrajectoryRecord:
    """Sampled time series of an integration run."""

    times: np.ndarray          # (N,)
    rotations: np.ndarray      # (N, n, 3, 3)
    positions: np.ndarray      # (N, n, 3)
    velocities: np.ndarray     # (N, n, 6)
    group_name: str = ""
    dt: float = 0.0
    # worst per-sample (norm, Pluecker) invariant defects, quaternion path only
    quat_defects: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def n_bodies(self) -> int:
        return self.rotations.shape[1]

    def poses_at(self, k: int) -> list[Pose]:
        return [Pose(self.rotations[k, i], self.positions[k, i])
                for i in range(self.n_bodies)]

    def state_at(self, k: int) -> MbsState:
        return MbsState(self.poses_at(k), self.velocities[k].copy(),
                        float(self.times[k]))


def _kahan_add(x, dx, comp):
    """Compensated x + dx on float lists: the sum and the roundoff of this
    addition, which the next addition subtracts first."""
    ys = [d - c for d, c in zip(dx, comp)]
    s = [a + y for a, y in zip(x, ys)]
    return s, [(b - a) - y for a, b, y in zip(x, s, ys)]


def _sampling(group: CSpaceGroup, n_bodies: int, t0: float, dt: float,
              t_final: float, stride: int):
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
        group_name=group.name,
        dt=dt,
    )
    return n_steps, sample_idx, rec


def integrate(model: MbsModel, group: CSpaceGroup, state0: MbsState,
              dt: float, t_final: float, tableau: ButcherTableau,
              stride: int = 1) -> TrajectoryRecord:
    """Fixed-step loop from state0.t to t_final, sampling every ``stride``
    steps (the initial and final states are always recorded)."""
    n = model.n_bodies
    n_steps, sample_idx, rec = _sampling(group, n, state0.t, dt, t_final, stride)

    def record(slot, t, poses, v):
        rec.times[slot] = t
        for i, p in enumerate(poses):
            rec.rotations[slot, i] = p.R
            rec.positions[slot, i] = p.r
        rec.velocities[slot] = np.reshape(v, (n, 6))

    t0 = state0.t
    poses = list(state0.poses)
    v = state0.velocities.reshape(-1).tolist()
    record(0, t0, poses, v)
    slot = 1
    # positions and velocities accumulate compensated (Kahan) so the
    # roundoff of 1e5-step runs stays far below the drift scales measured
    comp_r = [(0.0, 0.0, 0.0)] * n
    comp_v = [0.0] * len(v)
    t = t0
    for step in range(1, n_steps + 1):
        try:
            phi, dv = _coupled_increments(model, group, poses, v, t, dt, tableau)
        except Exception as exc:
            raise IntegrationError(str(exc), step, t) from exc
        v, comp_v = _kahan_add(v, dv, comp_v)
        for i, g in enumerate(poses):
            r_new, delta = group.advance_parts(g, phi[6 * i:6 * i + 6])
            r, comp_r[i] = _kahan_add(g.r.tolist(), delta.tolist(), comp_r[i])
            poses[i] = Pose(r_new, np.array(r))
        t = t0 + step * dt
        if slot < len(sample_idx) and step == sample_idx[slot]:
            record(slot, t, poses, v)
            slot += 1
    return rec


# ---------------------------------------------------------------------------
# singularity-free global chart: the same dynamics integrated as a plain
# vector-space ODE in quaternion coordinates
# ---------------------------------------------------------------------------

def _quat_chart(group_name: str):
    """Width and per-body (pack, unpack, rates) functions of the quaternion
    chart; chart coordinates and rates are flat float sequences."""
    if group_name == "se3":
        def pack(pose):
            return dq_from_pose(pose).as_vector().tolist()

        def unpack(y):
            return pose_from_dq(DualQuaternion(y[:4], y[4:]))

        def rates(y, v):
            return reconstruct_rates(DualQuaternion(y[:4], y[4:]), v)

        return 8, pack, unpack, rates

    def pack(pose):
        return quat_from_rotation(pose.R).tolist() + pose.r.tolist()

    def unpack(y):
        return Pose(np.array(quat_rotation_rows(*y[:4])), np.array(y[4:]))

    def rates(y, v):
        return euler_reconstruct_rates(y[:4], y[4:], v)

    return 7, pack, unpack, rates


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
    width, pack, unpack, chart_rates = _quat_chart(group.name)
    n = model.n_bodies
    nq = width * n
    n_steps, sample_idx, rec = _sampling(group, n, state0.t, dt, t_final, stride)
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
            pose = unpack(q)
            rec.rotations[slot, i] = pose.R
            rec.positions[slot, i] = pose.r
            norm_defect = abs(math.sqrt(sum(x * x for x in q[:4])) - 1.0)
            plucker = (abs(sum(a * b for a, b in zip(q[:4], q[4:])))
                       if width == 8 else 0.0)
            rec.quat_defects[slot, 0] = max(rec.quat_defects[slot, 0], norm_defect)
            rec.quat_defects[slot, 1] = max(rec.quat_defects[slot, 1], plucker)
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
                ks.append(f(t + float(tableau.c[j]) * dt, yj))
            y = _combine(dt, tableau._weights, ks, y)
        except Exception as exc:
            raise IntegrationError(str(exc), step, t) from exc
        if slot < len(sample_idx) and step == sample_idx[slot]:
            record(slot, t0 + step * dt, y)
            slot += 1
    return rec
