"""Benchmark experiments: published parameters, documented fill-ins, and the
convergence-order fit.

Every builder assembles the model in the velocity representation of one
configuration-space group (body twists for SE(3), mixed velocities for
SO(3)xR3) and fills in any geometry the source text leaves open with the
documented constants below; ``build`` hard-gates the initial state on
|h| < 1e-12 and |J V| < 1e-9.

Where the published data only pins the angular rates, the linear
velocities are recovered from the velocity constraints by a least-squares
solve, so the assembled state is feasible by construction.

The per-sample metric series of a run are its CSV columns, which
``cli.run_metrics`` names and computes in one pass as float64 arrays; the
CSV writer, the sweep summary and the acceptance checklist all read them
from there.  An ``ExperimentSpec`` names no integrator: every run uses
``integrate.tableau_rk4()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    REPRESENTATION,
    Gravity,
    Joint,
    LinearSpring,
    MbsModel,
    MbsState,
    RigidBody,
    check_initial_state,
    constraint_jacobian,
    parallel_axis,
)
from .liealg import Pose, so3_exp

GRAVITY = 9.81
ALUMINIUM_DENSITY = 2700.0  # kg/m^3; reproduces every published mass exactly


def box_inertia(mass: float, lx: float, ly: float, lz: float) -> np.ndarray:
    """COM inertia of a homogeneous box with side lengths (lx, ly, lz)."""
    return mass / 12.0 * np.diag([ly * ly + lz * lz,
                                  lx * lx + lz * lz,
                                  lx * lx + ly * ly])


def aluminium_box(name: str, lx: float, ly: float, lz: float) -> RigidBody:
    mass = ALUMINIUM_DENSITY * lx * ly * lz
    return RigidBody(name, mass, box_inertia(mass, lx, ly, lz))


def cylinder_inertia(mass: float, radius: float, length: float, axis: int) -> np.ndarray:
    """COM inertia of a solid cylinder; ``axis`` is the symmetry direction."""
    perp = mass * (3 * radius * radius + length * length) / 12.0
    d = np.full(3, perp)
    d[axis] = 0.5 * mass * radius * radius
    return np.diag(d)


@dataclass
class ExperimentSpec:
    """One benchmark: model + feasible initial state + run parameters."""

    name: str
    model: MbsModel
    state0: MbsState
    t_final: float
    dts: tuple = (1e-2, 1e-3, 1e-4)
    reference: object = None          # t -> list[Pose], when known analytically
    com_reference: object = None      # t -> (n, 3) COM positions
    energy_datum: float = 0.0         # additive constant on the reported total


def consistent_linear_velocities(model: MbsModel, poses, omegas) -> np.ndarray:
    """Solve the velocity constraints for the linear parts given the angular
    rates; raises if the published rates admit no consistent solution."""
    n = model.n_bodies
    omegas = np.asarray(omegas, dtype=float)
    jac = constraint_jacobian(model, poses)
    j_omega = np.hstack([jac[:, 6 * i:6 * i + 3] for i in range(n)])
    j_lin = np.hstack([jac[:, 6 * i + 3:6 * i + 6] for i in range(n)])
    rhs = -j_omega @ omegas.reshape(-1)
    sol, *_ = np.linalg.lstsq(j_lin, rhs, rcond=None)
    if np.abs(j_lin @ sol - rhs).max() > 1e-10:
        raise ValueError("angular rates are incompatible with the joint constraints")
    vel = np.empty((n, 6))
    vel[:, :3] = omegas
    vel[:, 3:] = sol.reshape(n, 3)
    return vel


# ---------------------------------------------------------------------------
# unconstrained free body (0.8 x 0.4 x 0.1 m aluminium box, 86.4 kg)
# ---------------------------------------------------------------------------

_BOX_DIMS = (0.8, 0.4, 0.1)
_OFFSET_R0 = np.array([0.4, 0.0, 0.0])
_SPIN_OMEGA = np.array([10 * math.pi, 2 * math.pi, 0.0])
_TRANS_V = np.array([10.0, 0.0, 0.0])


def _free_spec(representation, name, body, v0_body, com_ref, reference=None,
               t_final=10.0) -> ExperimentSpec:
    model = MbsModel([body], [], [], representation=representation)
    state = MbsState([Pose.identity()], np.asarray(v0_body, dtype=float)[None, :])
    return ExperimentSpec(name, model, state, t_final, com_reference=com_ref, reference=reference)


def model_free_body_com(representation) -> tuple[ExperimentSpec, ExperimentSpec]:
    """COM reference frame: spatial-rotation and rotation+translation cases."""
    body = aluminium_box("box", *_BOX_DIMS)
    spin = _free_spec(representation, "free-body-com", body,
                      np.concatenate([_SPIN_OMEGA, np.zeros(3)]),
                      lambda t: np.zeros((1, 3)))

    def ref(t):
        return [Pose(so3_exp([0, 0, 2 * math.pi * t]), _TRANS_V * t)]

    # on SE(3) the body-fixed linear velocity equals R^T rdot, which is
    # (10, 0, 0) at t = 0 for either representation
    trans = _free_spec(representation, "free-body-com-trans", body,
                       np.array([0.0, 0.0, 2 * math.pi, 10.0, 0.0, 0.0]),
                       lambda t: np.array([[10.0 * t, 0.0, 0.0]]),
                       reference=ref)
    return spin, trans


def model_free_body_offset(representation) -> tuple[ExperimentSpec, ExperimentSpec]:
    """Reference frame parallel-shifted from the COM by r0 = (0.4, 0, 0)."""
    mass = ALUMINIUM_DENSITY * np.prod(_BOX_DIMS)
    theta_p = parallel_axis(box_inertia(mass, *_BOX_DIMS), mass, _OFFSET_R0)
    body = RigidBody("box_p", mass, theta_p, com_offset=_OFFSET_R0)

    v_spin = np.cross(_OFFSET_R0, _SPIN_OMEGA)
    spin = _free_spec(representation, "free-body-offset", body,
                      np.concatenate([_SPIN_OMEGA, v_spin]),
                      lambda t: _OFFSET_R0[None, :])
    trans = _free_spec(representation, "free-body-offset-trans", body,
                       np.concatenate([_SPIN_OMEGA, v_spin + _TRANS_V]),
                       lambda t: (_OFFSET_R0 + _TRANS_V * t)[None, :])
    return spin, trans


# ---------------------------------------------------------------------------
# heavy top (0.1 x 0.2 x 0.4 m aluminium box pivoted at a fixed point,
# suspended by a spring from the COM to p0 = (1, 0, 0.5))
# ---------------------------------------------------------------------------

_TOP_R0 = np.array([-0.5, 0.0, 0.0])      # pivot in the body COM frame
_TOP_P0 = np.array([1.0, 0.0, 0.5])
_TOP_STIFFNESS = 1.0e4                     # 10 N/mm


def model_heavy_top(representation) -> ExperimentSpec:
    body = aluminium_box("top", 0.1, 0.2, 0.4)   # 21.6 kg, diag(0.36, 0.306, 0.09)
    model = MbsModel(
        [body],
        [Joint("spherical", None, 0, anchor_a=np.zeros(3), anchor_b=_TOP_R0,
               name="pivot")],
        [Gravity([0.0, 0.0, -GRAVITY]),
         LinearSpring(0, np.zeros(3), _TOP_P0, _TOP_STIFFNESS)],
        representation=representation,
    )
    omega0 = np.array([0.0, 0.0, 0.5])
    v0 = np.cross(_TOP_R0, omega0)        # R = I: body and mixed agree
    state = MbsState([Pose(np.eye(3), -_TOP_R0)],
                     np.concatenate([omega0, v0])[None, :])
    # the published initial energy counts the assembly spring energy on top
    # of the conserved total; report the series with that constant offset
    d0 = _TOP_P0 - (-_TOP_R0)
    datum = 0.5 * _TOP_STIFFNESS * float(d0 @ d0)
    return ExperimentSpec("heavy-top", model, state, 8.0, energy_datum=datum)


# ---------------------------------------------------------------------------
# spherical double pendulum (two 0.2 x 0.1 x 0.05 m aluminium links)
# ---------------------------------------------------------------------------

_LINK_A = 0.2


def model_double_pendulum(representation) -> ExperimentSpec:
    # two 2.7 kg links, named apart: model files refer to bodies by name
    links = [aluminium_box(f"link{i}", _LINK_A, 0.1, 0.05) for i in range(2)]
    half = _LINK_A / 2
    joints = [
        Joint("spherical", None, 0, anchor_a=np.zeros(3), anchor_b=[-half, 0, 0],
              name="joint1"),
        Joint("spherical", 0, 1, anchor_a=[half, 0, 0], anchor_b=[-half, 0, 0],
              name="joint2"),
    ]
    model = MbsModel(links, joints, [Gravity([0.0, 0.0, -GRAVITY])],
                     representation=representation)
    poses = [Pose(np.eye(3), np.array([half, 0.0, 0.0])),
             Pose(np.eye(3), np.array([_LINK_A + half, 0.0, 0.0]))]
    omegas = np.array([[10.0, 0.0, 0.0],
                       [10 * math.pi, 10 * math.pi, 20 * math.pi]])
    vel = consistent_linear_velocities(model, poses, omegas)
    state = MbsState(poses, vel)
    return ExperimentSpec("double-pendulum", model, state, 1.0)


# ---------------------------------------------------------------------------
# planar 4-bar (crank - coupler - rocker; geometry is not published, the
# layout below is dimensioned so the published initial rates are feasible)
# ---------------------------------------------------------------------------

_FOURBAR_L0 = 0.5
_FOURBAR_OMEGA0 = 10 * math.pi


def model_four_bar(representation) -> ExperimentSpec:
    k = _FOURBAR_L0 / (3 * math.sqrt(3.0))
    g1 = np.zeros(3)
    g4 = np.array([2 * _FOURBAR_L0, 0.0, 0.0])
    p2 = np.array([0.0, -2 * k, 0.0])      # crank tip (crank and coupler
    p3 = np.array([0.0, -6 * k, 0.0])      # start collinear along -y)
    com1 = np.array([0.0, -k, 0.0])        # crank midpoint
    com2 = np.array([-4 * k, -6 * k, 0.0])  # makes the published v20 feasible
    com3 = 0.5 * (p3 + g4)                 # rocker midpoint

    def bar(name, length):
        mass = ALUMINIUM_DENSITY * 0.02 * 0.02 * length
        return RigidBody(name, mass, box_inertia(mass, 0.02, length, 0.02))

    crank = bar("crank", 2 * k)
    coupler = bar("coupler", 4 * k)
    rocker = bar("rocker", float(np.linalg.norm(g4 - p3)))

    ez = np.array([0.0, 0.0, 1.0])
    rocker_dir = (g4 - p3) / np.linalg.norm(g4 - p3)
    rocker_perp = np.cross(ez, rocker_dir)  # in-plane, locks the rocker spin
    joints = [
        Joint("revolute", None, 0, anchor_a=g1, anchor_b=g1 - com1,
              axis_a=ez, axis_b=ez, name="crank-ground"),
        Joint("revolute", 0, 1, anchor_a=p2 - com1, anchor_b=p2 - com2,
              axis_a=ez, axis_b=ez, name="crank-coupler"),
        Joint("universal", 1, 2, anchor_a=p3 - com2, anchor_b=p3 - com3,
              axis_a=ez, axis_b=rocker_perp, name="coupler-rocker"),
        Joint("spherical", None, 2, anchor_a=g4, anchor_b=g4 - com3,
              name="rocker-ground"),
    ]
    model = MbsModel([crank, coupler, rocker], joints, [],
                     representation=representation)
    poses = [Pose(np.eye(3), com1), Pose(np.eye(3), com2), Pose(np.eye(3), com3)]
    omegas = np.array([[0.0, 0.0, _FOURBAR_OMEGA0],
                       [0.0, 0.0, -_FOURBAR_OMEGA0 / 2],
                       [0.0, 0.0, 0.0]])
    vel = consistent_linear_velocities(model, poses, omegas)
    state = MbsState(poses, vel)
    return ExperimentSpec("four-bar", model, state, 1.0)


# ---------------------------------------------------------------------------
# RP chain: aluminium ring on an offset vertical revolute axis, aluminium
# rod coupled by a prismatic joint sliding along the same axis and a
# longitudinal spring
# ---------------------------------------------------------------------------

_RING_OFFSET = 0.1        # ring COM distance from the revolute axis
_ROD_DROP = 0.15          # initial rod COM depth below the ring plane
_RP_STIFFNESS = 1.0e4


def model_rp_chain(representation) -> ExperimentSpec:
    # ring 0.15/0.08 x 0.05 m: m = 6.82825 kg, diag(0.0507567, ..., 0.0986682)
    ro, ri, h = 0.15, 0.08, 0.05
    m1 = ALUMINIUM_DENSITY * math.pi * (ro * ro - ri * ri) * h
    t_ax = 0.5 * m1 * (ro * ro + ri * ri)
    t_perp = m1 * (3 * (ro * ro + ri * ri) + h * h) / 12.0
    ring = RigidBody("ring", m1, np.diag([t_perp, t_perp, t_ax]))
    rod = aluminium_box("rod", 0.2, 0.04, 0.04)   # 0.864 kg

    ez = np.array([0.0, 0.0, 1.0])
    axis_pt1 = np.array([-_RING_OFFSET, 0.0, 0.0])   # on the z axis, both frames
    joints = [
        Joint("revolute", None, 0, anchor_a=np.zeros(3), anchor_b=axis_pt1,
              axis_a=ez, axis_b=ez, name="revolute1"),
        Joint("prismatic", 0, 1, anchor_a=axis_pt1, anchor_b=axis_pt1,
              axis_a=ez, axis_b=ez, name="prismatic2"),
    ]
    forces = [Gravity([0.0, 0.0, -GRAVITY]),
              LinearSpring(1, axis_pt1, np.array([0.0, 0.0, -_ROD_DROP]),
                           _RP_STIFFNESS)]
    model = MbsModel([ring, rod], joints, forces,
                     representation=representation)
    poses = [Pose(np.eye(3), np.array([_RING_OFFSET, 0.0, 0.0])),
             Pose(np.eye(3), np.array([_RING_OFFSET, 0.0, -_ROD_DROP]))]
    omega = np.array([0.0, 0.0, 20 * math.pi])
    v1 = np.cross(axis_pt1, omega)
    v2 = np.cross(axis_pt1, omega) + np.array([0.0, 0.0, 1.0])  # 1 m/s slide
    state = MbsState(poses, np.vstack([np.concatenate([omega, v1]),
                                       np.concatenate([omega, v2])]))
    return ExperimentSpec("rp-chain", model, state, 2.0)


# ---------------------------------------------------------------------------
# Cardanic transmission: input shaft on a grounded revolute, drive shaft on
# a universal joint whose cross sits on the revolute axis
# ---------------------------------------------------------------------------

_SHAFT_RADIUS = 0.02
_SHAFT_LENGTH = 0.4
_HOOK_DIST = 0.2


def model_cardan(representation) -> ExperimentSpec:
    mass = ALUMINIUM_DENSITY * math.pi * _SHAFT_RADIUS ** 2 * _SHAFT_LENGTH
    shaft1 = RigidBody("input-shaft", mass,
                       cylinder_inertia(mass, _SHAFT_RADIUS, _SHAFT_LENGTH, axis=1))
    shaft2 = RigidBody("drive-shaft", mass,
                       cylinder_inertia(mass, _SHAFT_RADIUS, _SHAFT_LENGTH, axis=1))

    ey = np.array([0.0, 1.0, 0.0])
    hook = np.array([0.0, _HOOK_DIST, 0.0])          # on the revolute axis
    com2 = hook + np.array([0.0, _HOOK_DIST, 0.0])   # shafts initially collinear
    joints = [
        Joint("revolute", None, 0, anchor_a=np.zeros(3), anchor_b=np.zeros(3),
              axis_a=ey, axis_b=ey, name="revolute1"),
        Joint("universal", 0, 1, anchor_a=hook, anchor_b=hook - com2,
              axis_a=[1.0, 0.0, 0.0], axis_b=[0.0, 0.0, 1.0], name="hook2"),
    ]
    model = MbsModel([shaft1, shaft2], joints, [],
                     representation=representation)
    poses = [Pose.identity(), Pose(np.eye(3), com2)]
    omegas = np.array([[0.0, math.pi, 0.0], [math.pi, math.pi, 0.0]])
    vel = consistent_linear_velocities(model, poses, omegas)
    state = MbsState(poses, vel)
    # the drive shaft reaches the hook's transmission singularity (locked
    # cross) near t = 1.45 s with these rates; stop safely before it
    return ExperimentSpec("cardan", model, state, 1.2)


BUILDERS = {
    "free-body-com": lambda g: model_free_body_com(g)[0],
    "free-body-com-trans": lambda g: model_free_body_com(g)[1],
    "free-body-offset": lambda g: model_free_body_offset(g)[0],
    "free-body-offset-trans": lambda g: model_free_body_offset(g)[1],
    "heavy-top": model_heavy_top,
    "double-pendulum": model_double_pendulum,
    "four-bar": model_four_bar,
    "rp-chain": model_rp_chain,
    "cardan": model_cardan,
}


def build(name: str, group: str) -> ExperimentSpec:
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; available: {sorted(BUILDERS)}")
    spec = builder(REPRESENTATION[group])
    check_initial_state(spec.model, spec.state0)
    return spec


def estimate_convergence_order(dts, errors, floor: float = 1e-13):
    """Least-squares slope of log(error) against log(dt).

    Samples at the numerical floor are discarded; returns None when fewer
    than two distinct step sizes are left (no slope to fit).
    """
    dts = np.asarray(dts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > floor
    if np.unique(dts[keep]).size < 2:
        return None
    return float(np.polyfit(np.log(dts[keep]), np.log(errors[keep]), 1)[0])
