import dataclasses
import math
import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from screwmbs import dynamics
from screwmbs.bench import BUILDERS, build
from screwmbs.dynamics import (
    BODY_FIXED,
    MIXED,
    REPRESENTATION,
    Gravity,
    InfeasibleStateError,
    Joint,
    LinearSpring,
    MbsModel,
    MbsState,
    RedundantConstraintError,
    RigidBody,
    accelerations,
    assemble_index1,
    check_initial_state,
    constraint_jacobian,
    force_assembly,
    joint_geometry,
    joint_rows,
    kinetic_energy,
    parallel_axis,
    potential_energy,
    project_velocities,
    solve_index1,
    spatial_inertia,
    total_energy,
    velocity_residual,
)
from screwmbs.integrate import TrajectoryRecord
from screwmbs.liealg import SE3, SO3R3, Pose, hat3, se3_dexp, se3_exp
from screwmbs.modelfile import load_model_file, write_model_file
from oracles import (
    JOINT_DIMS,
    body_frames,
    central_diff,
    joint_acc_rhs,
    mixed_twist_matrix,
    newton_euler_body,
    newton_euler_mixed,
    random_rotation,
    reference_assemble_index1,
    reference_body_rhs,
    reference_constraint_jacobian,
    reference_free_accelerations,
    reference_joint_geometry,
    reference_joint_rows,
    reference_kinetic_energy,
    reference_potential_energy,
    reference_project_velocities,
    reference_split_residual,
    reference_wrenches,
    state_at,
    world_frame_joint_rows,
)

RNG = np.random.default_rng(512)

# benchmark bodies shared across the dynamics tests
BOX_FREE = RigidBody("box", 86.4, np.diag([1.224, 4.68, 5.76]))
TOP_BODY = RigidBody("top", 21.6, np.diag([0.36, 0.306, 0.09]))
TOP_R0 = np.array([-0.5, 0.0, 0.0])
TOP_P0 = np.array([1.0, 0.0, 0.5])
TOP_C = 1.0e4
GRAV = 9.81


def heavy_top_model(representation) -> MbsModel:
    return MbsModel(
        bodies=[TOP_BODY],
        joints=[Joint("spherical", None, 0, anchor_a=np.zeros(3), anchor_b=TOP_R0,
                      name="pivot")],
        forces=[Gravity([0, 0, -GRAV]),
                LinearSpring(0, np.zeros(3), TOP_P0, TOP_C)],
        representation=representation,
    )


def heavy_top_state(representation) -> MbsState:
    omega0 = np.array([0.0, 0.0, 0.5])
    v0 = np.cross(TOP_R0, omega0)
    vel = np.concatenate([omega0, v0])
    if representation == MIXED:
        vel = np.concatenate([omega0, v0])  # R = I initially, frames match
    return MbsState([Pose(np.eye(3), -TOP_R0)], vel[None, :])


class TestSpatialInertia:
    def test_free_body_com(self):
        m = spatial_inertia(BOX_FREE)
        assert_allclose(m[:3, :3], np.diag([1.224, 4.68, 5.76]))
        assert_allclose(m[3:, 3:], 86.4 * np.eye(3))
        assert_allclose(m[:3, 3:], np.zeros((3, 3)), atol=0)

    def test_off_com_parallel_axis(self):
        r0 = np.array([0.4, 0.0, 0.0])
        theta_p = parallel_axis(np.diag([1.224, 4.68, 5.76]), 86.4, r0)
        assert_allclose(theta_p, np.diag([1.224, 18.504, 19.584]), atol=1e-12)
        body = RigidBody("box_p", 86.4, theta_p, com_offset=r0)
        m = spatial_inertia(body)
        assert_allclose(m[3:, :3], -86.4 * hat3(r0))
        assert_allclose(m[:3, 3:], (-86.4 * hat3(r0)).T)
        assert_allclose(m, m.T)
        assert np.linalg.eigvalsh(m).min() > 0

    def test_body_validation(self):
        with pytest.raises(ValueError):
            RigidBody("bad", -1.0, np.eye(3))
        with pytest.raises(ValueError):
            RigidBody("bad", 1.0, -np.eye(3))


def test_representation_fixes_the_group():
    model = build("heavy-top", "se3").model
    assert model.group is SE3
    # a rebuilt model recompiles its group with its representation
    assert dataclasses.replace(model, representation=MIXED).group is SO3R3
    assert dataclasses.replace(model, representation=BODY_FIXED).group is SE3


class TestNewtonEuler:
    def test_rest_passes_wrench_through(self):
        w = RNG.normal(size=6)
        _, rhs = newton_euler_body(BOX_FREE, np.zeros(6), w)
        assert_allclose(rhs, w)

    def test_principal_axis_spin_has_no_gyroscopic_moment(self):
        v = np.array([7.0, 0, 0, 0, 0, 0])
        _, rhs = newton_euler_body(BOX_FREE, v, np.zeros(6))
        assert_allclose(rhs, np.zeros(6), atol=1e-12)

    def test_gyroscopic_moment_matches_cross_product(self):
        omega = np.array([10 * math.pi, 2 * math.pi, 0.0])
        v = np.concatenate([omega, np.zeros(3)])
        _, rhs = newton_euler_body(BOX_FREE, v, np.zeros(6))
        assert_allclose(rhs[:3], -np.cross(omega, BOX_FREE.inertia_ref @ omega),
                        atol=1e-10)

    def test_mixed_at_com_rest_is_linear(self):
        w = np.array([0, 0, 0, 3.0, -1.0, 2.0])
        m, rhs = newton_euler_mixed(BOX_FREE, np.eye(3), np.zeros(6), w)
        assert_allclose(np.linalg.solve(m, rhs)[3:], w[3:] / 86.4)

    def test_mixed_at_com_same_inertia_blocks_as_body(self):
        v = RNG.normal(size=6)
        mb, _ = newton_euler_body(BOX_FREE, v, np.zeros(6))
        mm, _ = newton_euler_mixed(BOX_FREE, np.eye(3), v, np.zeros(6))
        assert_allclose(mm, mb)


def _synthetic_trajectory(joint, n_bodies, representation, rng):
    """Smooth pose curves; velocities in the requested representation."""
    a = rng.uniform(-0.6, 0.6, (n_bodies, 6))
    b = rng.uniform(-0.8, 0.8, (n_bodies, 6))
    c = rng.uniform(-0.5, 0.5, (n_bodies, 6))

    def coords(i, t):
        return a[i] + b[i] * t + c[i] * t * t

    def poses(t):
        return [se3_exp(coords(i, t)) for i in range(n_bodies)]

    def velocities(t):
        out = np.zeros((n_bodies, 6))
        for i in range(n_bodies):
            xdot = b[i] + 2 * c[i] * t
            if representation == MIXED:
                out[i] = mixed_twist_matrix(coords(i, t)) @ xdot
            else:
                out[i] = se3_dexp(-coords(i, t)) @ xdot
        return out

    return poses, velocities


JOINTS = [
    Joint("spherical", None, 0, anchor_a=[0.1, -0.2, 0.3], anchor_b=[0.2, 0.1, -0.1]),
    Joint("spherical", 0, 1, anchor_a=[0.1, 0.0, 0.2], anchor_b=[-0.3, 0.1, 0.0]),
    Joint("revolute", None, 0, anchor_a=[0.0, 0.1, 0.0], anchor_b=[0.2, 0.0, 0.1],
          axis_a=[0, 0, 1.0], axis_b=[0, 1.0, 0]),
    Joint("revolute", 0, 1, anchor_a=[0.2, 0.1, 0.0], anchor_b=[0.0, -0.1, 0.2],
          axis_a=[1.0, 0, 0], axis_b=[0, 0, 1.0]),
    Joint("prismatic", None, 0, anchor_a=[0, 0, 0.0], anchor_b=[0.1, 0.0, -0.2],
          axis_a=[0, 0, 1.0], axis_b=[1.0, 0, 0]),
    Joint("prismatic", 0, 1, anchor_a=[0.1, 0, 0.0], anchor_b=[0.0, 0.2, 0.0],
          axis_a=[0, 1.0, 0], axis_b=[0, 0, 1.0]),
    Joint("universal", None, 0, anchor_a=[0.3, 0, 0.1], anchor_b=[0.0, 0.1, 0.0],
          axis_a=[1.0, 0, 0], axis_b=[0, 1.0, 0]),
    Joint("universal", 0, 1, anchor_a=[0, 0.1, 0.0], anchor_b=[0.2, 0.0, 0.0],
          axis_a=[0, 0, 1.0], axis_b=[1.0, 0, 0]),
]


def _dummy_model(representation, n_bodies, joint):
    bodies = [RigidBody(f"b{i}", 1.0, np.eye(3)) for i in range(n_bodies)]
    return MbsModel(bodies, [joint], [], representation=representation)


@pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
@pytest.mark.parametrize("joint", JOINTS, ids=lambda j: f"{j.kind}-{'g' if j.body_a is None else 'bb'}")
class TestJointDerivativeConsistency:
    """h, J and eta agree with finite differences along arbitrary flows."""

    def test_jacobian_matches_dh_dt(self, joint, representation):
        n = joint.body_b + 1
        model = _dummy_model(representation, n, joint)
        rng = np.random.default_rng(7)
        poses, velocities = _synthetic_trajectory(joint, n, representation, rng)
        for t0 in (0.0, 0.31):
            hdot = central_diff(lambda t: joint_geometry(joint, poses(t), model), t0)
            blocks = joint_rows(joint, poses(t0), np.zeros((n, 6)), model)[0]
            v = velocities(t0)
            jv = sum(blk @ v[i] for i, blk in blocks.items())
            assert np.abs(jv - hdot).max() < 1e-6

    def test_acc_rhs_matches_d2h_dt2(self, joint, representation):
        n = joint.body_b + 1
        model = _dummy_model(representation, n, joint)
        rng = np.random.default_rng(13)
        poses, velocities = _synthetic_trajectory(joint, n, representation, rng)
        t0 = 0.17

        def jv(t):
            blocks = joint_rows(joint, poses(t), np.zeros((n, 6)), model)[0]
            v = velocities(t)
            return sum(blk @ v[i] for i, blk in blocks.items())

        vdot = central_diff(velocities, t0)
        blocks = joint_rows(joint, poses(t0), np.zeros((n, 6)), model)[0]
        j_vdot = sum(blk @ vdot[i] for i, blk in blocks.items())
        eta = joint_acc_rhs(joint, poses(t0), velocities(t0), model)
        # d/dt (J V) = J Vdot - eta
        assert np.abs(central_diff(jv, t0) - (j_vdot - eta)).max() < 1e-5


@pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
@pytest.mark.parametrize("joint", JOINTS, ids=lambda j: f"{j.kind}-{'g' if j.body_a is None else 'bb'}")
def test_relative_frame_rows_match_world_frame_oracle(joint, representation):
    """joint_rows builds its axis-dot rows from Ra^T Rb; on random states off
    the constraint manifold every row equals the world-frame formulation."""
    n = joint.body_b + 1
    model = _dummy_model(representation, n, joint)
    rng = np.random.default_rng(41)
    ground = (np.eye(3).tolist(), [0.0] * 3, [0.0] * 3, [0.0] * 3)
    for _ in range(50):
        poses = [Pose(random_rotation(rng), rng.uniform(-2, 2, 3)) for _ in range(n)]
        v = rng.uniform(-3, 3, (n, 6))
        frames = [(p.R.tolist(), p.r.tolist(), v[i, :3].tolist(), v[i, 3:].tolist())
                  for i, p in enumerate(poses)]
        ref_a, ref_b, ref_eta = world_frame_joint_rows(
            joint, ground if joint.body_a is None else frames[joint.body_a],
            frames[joint.body_b], representation == MIXED)
        blocks, eta = joint_rows(joint, poses, v, model)
        pairs = [(blocks[joint.body_b], ref_b), (eta, ref_eta)]
        if joint.body_a is not None:
            pairs.append((blocks[joint.body_a], ref_a))
        for got, ref in pairs:
            ref = np.asarray(ref)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _bits(values) -> bytes:
    """IEEE bytes of a float sequence: signed zeros and NaN payloads count."""
    values = np.ravel(np.asarray(values, dtype=float)).tolist()
    return struct.pack(f"<{len(values)}d", *values)


@pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
@pytest.mark.parametrize("joint", JOINTS, ids=lambda j: f"{j.kind}-{'g' if j.body_a is None else 'bb'}")
def test_compiled_rows_match_reference_kernel_bitwise(joint, representation):
    """The compiled rows equal the interpreted reference kernel bit for bit on
    random states off the manifold, and propagate a NaN velocity the same way."""
    n = joint.body_b + 1
    model = _dummy_model(representation, n, joint)
    rng = np.random.default_rng(83)
    ground = (np.eye(3).tolist(), [0.0] * 3, [0.0] * 3, [0.0] * 3)
    for trial in range(51):
        poses = [Pose(random_rotation(rng), rng.uniform(-2, 2, 3)) for _ in range(n)]
        v = rng.uniform(-3, 3, (n, 6))
        if trial == 50:
            v[joint.body_b, 1] = math.nan
        frames = [(p.R.tolist(), p.r.tolist(), v[i, :3].tolist(), v[i, 3:].tolist())
                  for i, p in enumerate(poses)]
        ref_a, ref_b, ref_eta = reference_joint_rows(
            joint, ground if joint.body_a is None else frames[joint.body_a],
            frames[joint.body_b], representation == MIXED)
        blocks, eta = joint_rows(joint, poses, v, model)
        assert _bits(eta) == _bits(ref_eta)
        assert _bits(blocks[joint.body_b]) == _bits(ref_b)
        if joint.body_a is not None:
            assert _bits(blocks[joint.body_a]) == _bits(ref_a)
        if trial == 50:
            assert np.isnan(eta).any()


@pytest.mark.parametrize("group", ["se3", "so3xr3"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_assembly_matches_reference_kernel_bitwise(name, group):
    """KKT matrix and right-hand side of every built-in model equal the
    assembly from the reference kernel, at the initial and a random state."""
    spec = build(name, group)
    n = spec.model.n_bodies
    rng = np.random.default_rng(97)
    states = [(spec.state0.poses, spec.state0.velocities),
              ([Pose(random_rotation(rng), rng.uniform(-2, 2, 3)) for _ in range(n)],
               rng.uniform(-3, 3, (n, 6)))]
    for poses, vel in states:
        kkt, rhs = assemble_index1(spec.model, poses, vel)
        ref_kkt, ref_rhs = reference_assemble_index1(spec.model, poses, vel)
        assert _bits(kkt) == _bits(ref_kkt)
        assert _bits(rhs) == _bits(ref_rhs)


def _off_com_chain(representation) -> MbsModel:
    """Two off-COM bodies on a grounded spherical and a revolute joint: in
    the mixed representation both mass blocks carry the R-dependent
    coupling."""
    bodies = [RigidBody(f"link{i}", 2.0 + i, np.diag([0.1, 0.2, 0.25]) + 0.01 * i,
                        com_offset=[0.3, -0.1 * i, 0.05]) for i in range(2)]
    joints = [Joint("spherical", None, 0, anchor_b=[-0.2, 0.0, 0.1]),
              Joint("revolute", 0, 1, anchor_a=[0.2, 0.0, 0.0], anchor_b=[-0.2, 0.1, 0.0],
                    axis_a=[0.0, 0.0, 1.0], axis_b=[0.0, 0.0, 1.0])]
    return MbsModel(bodies, joints, [Gravity([0, 0, -GRAV])],
                    representation=representation)


def _kkt_consumer_cases():
    for name in sorted(BUILDERS):
        for group in ("se3", "so3xr3"):
            spec = build(name, group)
            yield pytest.param(spec.model, spec.state0, id=f"{name}-{group}")
    for representation in (BODY_FIXED, MIXED):
        model = _off_com_chain(representation)
        poses = [Pose(np.eye(3), np.array([0.2, 0.0, -0.1])),
                 Pose(np.eye(3), np.array([0.6, -0.1, -0.1]))]
        yield pytest.param(model, MbsState(poses, np.zeros((2, 6))),
                           id=f"off-com-chain-{representation}")


@pytest.mark.parametrize("model, state0", _kkt_consumer_cases())
def test_kkt_consumers_match_reference_bitwise(model, state0):
    """constraint_jacobian, velocity_residual and project_velocities read the
    step loop's KKT assembly; their bytes equal the former per-joint
    Jacobian and separately assembled projection on random off-manifold
    states."""
    rng = np.random.default_rng(2718)
    n = model.n_bodies
    for _ in range(10):
        poses = [Pose(p.R @ random_rotation(rng, 0.2), p.r + rng.uniform(-0.05, 0.05, 3))
                 for p in state0.poses]
        state = MbsState(poses, state0.velocities + rng.uniform(-2, 2, (n, 6)))
        jac = constraint_jacobian(model, poses)
        ref_jac = reference_constraint_jacobian(model, poses)
        assert _bits(jac) == _bits(ref_jac) and jac.shape == ref_jac.shape
        v = state.velocities.reshape(-1)
        assert _bits([velocity_residual(model, state)]) == \
            _bits([np.linalg.norm(ref_jac @ v)] if model.joints else [0.0])
        out = project_velocities(model, state)
        assert _bits(out.velocities) == \
            _bits(reference_project_velocities(model, state).velocities)


def test_row_templates_compile_once_per_structure():
    """Models share compiled row templates: 50 builds of one model compile
    each of its (row structure, grounded, representation) templates once."""
    dynamics._row_template.cache_clear()
    models = [build("four-bar", "se3").model for _ in range(50)]
    info = dynamics._row_template.cache_info()
    # four-bar: grounded and two-body revolute, universal, grounded spherical
    assert info.misses == info.currsize == 4
    kernels = {k.__code__ for m in models for k in m._row_kernels}
    assert len(kernels) == 4


def _assert_body_terms_match_reference(model, poses, velocities):
    """Q, the applied wrenches and, without joints, Vdot = M^-1 Q from the
    compiled body kernels equal the interpreted reference bit for bit."""
    frames = body_frames(poses, velocities)
    assert _bits(dynamics._body_terms(model._rhs_kernels, *dynamics._frames(poses, velocities))) == \
        _bits(reference_body_rhs(model, frames))
    ref_w = reference_wrenches(model, [f[0] for f in frames], [f[1] for f in frames])
    assert _bits(force_assembly(model, poses)) == _bits(ref_w)
    if not model.joints:
        assert _bits(accelerations(model, poses, velocities)) == \
            _bits(reference_free_accelerations(model, frames))


@pytest.mark.parametrize("group", ["se3", "so3xr3"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_accelerations_flat_list_bitwise(name, group):
    """accelerations gives Vdot as the flat list of 6n floats the stage loop
    works on, with the bits of the (n, 6) index-1 solution (jointed) or of
    the interpreted M^-1 Q (jointless), from Pose lists and from the stage
    loop's float forms alike."""
    spec = build(name, group)
    model, n = spec.model, spec.model.n_bodies
    rng = np.random.default_rng(131)
    states = [(spec.state0.poses, spec.state0.velocities),
              (_off_manifold_poses(rng, n), rng.uniform(-3, 3, (n, 6)))]
    for poses, velocities in states:
        if model.joints:
            ref, _ = solve_index1(model, *assemble_index1(model, poses, velocities))
        else:
            ref = reference_free_accelerations(model, body_frames(poses, velocities))
        floats = ([(p.R.tolist(), p.r.tolist()) for p in poses], velocities.reshape(-1).tolist())
        for args in ((poses, velocities), floats):
            vdot = accelerations(model, *args)
            assert type(vdot) is list and len(vdot) == 6 * n
            assert all(type(x) is float for x in vdot)
            assert _bits(vdot) == _bits(ref)


def _off_manifold_poses(rng, n):
    """Random poses whose R leave SO(3) by up to 5 % per entry."""
    return [Pose(random_rotation(rng) * rng.uniform(0.95, 1.05, (3, 3)), rng.uniform(-2, 2, 3))
            for _ in range(n)]


@pytest.mark.parametrize("group", ["se3", "so3xr3"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_body_kernels_match_reference_bitwise(name, group):
    """The compiled body terms of every built-in model equal the interpreted
    ones on 50 random states off the manifold."""
    model = build(name, group).model
    rng = np.random.default_rng(113)
    for _ in range(50):
        _assert_body_terms_match_reference(model, _off_manifold_poses(rng, model.n_bodies),
                                           rng.uniform(-3, 3, (model.n_bodies, 6)))


def _sprung_off_com_body(representation, joints=()) -> MbsModel:
    """An off-COM body on two springs, one attached off the reference frame
    and one at it, and a body at its COM on one unattached spring, all
    under gravity."""
    bodies = [RigidBody("a", 2.5, np.diag([0.2, 0.3, 0.35]), com_offset=[0.3, -0.1, 0.05]),
              RigidBody("b", 1.5, np.diag([0.1, 0.1, 0.15]))]
    forces = [LinearSpring(0, [0.1, 0.2, -0.3], [1.0, 0.0, 0.5], 40.0),
              Gravity([0.0, 0.0, -GRAV]),
              LinearSpring(1, [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 25.0),
              LinearSpring(0, [0.0, 0.0, 0.0], [-0.5, 0.2, 0.0], 10.0)]
    return MbsModel(bodies, list(joints), forces, representation=representation)


@pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
@pytest.mark.parametrize("jointed", [False, True], ids=["free", "jointed"])
def test_sprung_off_com_body_terms_bitwise(representation, jointed):
    """Off-COM bodies with attached and unattached springs, with and without
    joints, on random states, and on velocities holding -0.0 and a NaN and
    a rotation holding a NaN: signed zeros and NaN propagate as in the
    interpreted kernel."""
    joints = [Joint("spherical", 0, 1, anchor_a=[0.2, 0.0, 0.0])] if jointed else []
    model = _sprung_off_com_body(representation, joints)
    rng = np.random.default_rng(127)
    for _ in range(50):
        _assert_body_terms_match_reference(model, _off_manifold_poses(rng, 2),
                                           rng.uniform(-3, 3, (2, 6)))
    poses = [Pose(np.eye(3), np.zeros(3)), Pose(-np.eye(3), np.array([-0.0, 0.0, -0.0]))]
    signed = np.array([[-0.0, 0.0, -0.0, -0.0, -0.0, 0.0], [0.0, -0.0, -0.0, 0.0, -0.0, -0.0]])
    _assert_body_terms_match_reference(model, poses, signed)
    signed[1, 1] = math.nan  # an angular rate: the mixed Q has no linear-velocity term
    _assert_body_terms_match_reference(model, poses, signed)
    assert np.isnan(dynamics._body_terms(model._rhs_kernels, *dynamics._frames(poses, signed))).any()
    # a NaN rotation reaches every wrench term, also the zero moment arm of
    # an unattached spring
    poses[1].R[0, 1] = math.nan
    _assert_body_terms_match_reference(model, poses, -np.zeros((2, 6)))
    weightless = MbsModel(model.bodies, model.joints, [], representation=representation)
    _assert_body_terms_match_reference(weightless, poses, -np.zeros((2, 6)))


def test_model_file_reload_compiles_no_template(tmp_path):
    """A model file loaded again binds its kernels from the cached
    templates: neither template cache misses."""
    spec = build("rp-chain", "so3xr3")
    path = tmp_path / "rp.yaml"
    write_model_file(path, spec.model, spec.state0)
    load_model_file(path, "so3xr3")
    caches = (dynamics._row_template, dynamics._body_template)
    misses = [c.cache_info().misses for c in caches]
    load_model_file(path, "so3xr3")
    assert [c.cache_info().misses for c in caches] == misses


def test_body_templates_for_the_built_ins():
    """The built-in models compile 12 body templates: per representation,
    right-hand sides for a plain body, an off-COM body and a body with an
    unattached or an attached spring, and Vdot = M^-1 Q with and without
    the COM offset for the free bodies."""
    dynamics._body_template.cache_clear()
    for name in BUILDERS:
        for group in ("se3", "so3xr3"):
            build(name, group)
    assert dynamics._body_template.cache_info().currsize == 12


@pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
@pytest.mark.parametrize("joint", JOINTS, ids=lambda j: f"{j.kind}-{'g' if j.body_a is None else 'bb'}")
def test_split_residual_anchors_coincide(joint, representation):
    """With the anchors coincident and the rotations arbitrary, the position
    part vanishes and the whole residual sits in the orientation part."""
    n = joint.body_b + 1
    model = _dummy_model(representation, n, joint)
    rng = np.random.default_rng(29)
    poses = [Pose(se3_exp(np.concatenate([rng.normal(size=3), [0, 0, 0]])).R,
                  rng.normal(size=3)) for _ in range(n)]
    pa = (joint.anchor_a if joint.body_a is None
          else poses[joint.body_a].r + poses[joint.body_a].R @ joint.anchor_a)
    rb = poses[joint.body_b].R
    poses[joint.body_b] = Pose(rb, pa - rb @ joint.anchor_b)
    h = joint_geometry(joint, poses, model)
    pos, ori = joint.split_residual(h)
    assert len(pos) + len(ori) == joint.dim
    assert np.abs(pos).max() < 1e-14
    if joint.kind == "spherical":
        assert len(ori) == 0
    else:
        assert np.abs(ori).max() > 1e-3


def _signed_zeros(rng, poses) -> list[Pose]:
    """The poses with about a third of the rotation and half of the
    translation entries set to -0.0."""
    out = []
    for p in poses:
        rot, r = p.R.copy(), p.r.copy()
        rot[rng.random((3, 3)) < 0.3] = -0.0
        r[rng.random(3) < 0.5] = -0.0
        out.append(Pose(rot, r))
    return out


@pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
@pytest.mark.parametrize("joint", JOINTS, ids=lambda j: f"{j.kind}-{'g' if j.body_a is None else 'bb'}")
def test_residual_kernel_bitwise(joint, representation):
    """The compiled residual equals the interpreted reference as IEEE bytes,
    from Pose lists and from float poses, off the manifold: non-orthonormal
    R, -0.0 entries, random anchors and axes, and -0.0 anchors, whose signs
    ground's identity and zero operands decide."""
    rng = np.random.default_rng(61)
    axes = [v / np.linalg.norm(v) for v in rng.normal(size=(2, 3))]
    # a spherical joint takes no axes
    axes = {} if joint.kind == "spherical" else {"axis_a": axes[0], "axis_b": axes[1]}
    variants = [joint,
                dataclasses.replace(joint, anchor_a=rng.normal(size=3), anchor_b=rng.normal(size=3),
                                    **axes),
                dataclasses.replace(joint, anchor_a=-np.zeros(3), anchor_b=-np.zeros(3))]
    for j in variants:
        n = j.body_b + 1
        model = _dummy_model(representation, n, j)
        cases = [_off_manifold_poses(rng, n) for _ in range(10)]
        cases += [_signed_zeros(rng, _off_manifold_poses(rng, n)) for _ in range(10)]
        cases.append([Pose(np.where(np.eye(3) == 1.0, 1.0, -0.0), -np.zeros(3))] * n)
        for poses in cases:
            ref = _bits(reference_joint_geometry(j, poses, model))
            assert _bits(joint_geometry(j, poses, model)) == ref
            assert _bits(joint_geometry(j, dynamics._pose_rows(poses), model)) == ref


def test_joint_geometry_binds_nothing_per_call(monkeypatch):
    """joint_geometry and joint_rows call the kernels bound with the model;
    a joint the model does not hold is refused."""
    spec = build("four-bar", "so3xr3")
    poses, velocities = spec.state0.poses, spec.state0.velocities
    monkeypatch.setattr(dynamics, "_bind_rows", None)
    for joint in spec.model.joints:
        joint_geometry(joint, poses, spec.model)
        joint_rows(joint, poses, velocities, spec.model)
    stranger = dataclasses.replace(spec.model.joints[0])
    with pytest.raises(ValueError, match="not one of the model's joints"):
        joint_geometry(stranger, poses, spec.model)
    with pytest.raises(ValueError, match="not one of the model's joints"):
        joint_rows(stranger, poses, velocities, spec.model)


@pytest.mark.parametrize("group", ["se3", "so3xr3"])
def test_dim_and_split_follow_the_kind_table(group):
    """dim and the (position, orientation) split, derived from the row
    descriptors, equal the per-kind rule for every joint of the built-ins
    and of JOINTS."""
    joints = [j for name in BUILDERS for j in build(name, group).model.joints]
    for joint in joints + JOINTS:
        assert joint.dim == JOINT_DIMS[joint.kind]
        h = np.arange(1.0, joint.dim + 1.0)
        pos, ori = joint.split_residual(h)
        ref_pos, ref_ori = reference_split_residual(joint, h)
        assert (pos.tolist(), ori.tolist()) == (ref_pos.tolist(), ref_ori.tolist())
        assert joint.has_orientation == (len(ref_ori) > 0)


def test_joints_compare_by_identity():
    """Two joints with equal fields are two joints: comparing and hashing
    them does not raise, and a model finds its own joint by membership."""
    a = Joint("spherical", None, 0, anchor_b=[1.0, 0.0, 0.0])
    b = Joint("spherical", None, 0, anchor_b=[1.0, 0.0, 0.0])
    assert a == a and a != b
    assert len({a, b}) == 2
    model = MbsModel([BOX_FREE], [a], [])
    assert a in model.joints and b not in model.joints


def test_model_parts_cannot_be_edited_in_place():
    """The compiled layout and kernels describe the bodies, joints and forces
    the model was built with: they are tuples, and a changed model is a new
    one (dataclasses.replace), compiled for its own joints."""
    model = build("double-pendulum", "se3").model
    for part in (model.bodies, model.joints, model.forces):
        assert isinstance(part, tuple)
    with pytest.raises(TypeError):
        model.joints[0] = model.joints[1]
    renamed = dataclasses.replace(model, joints=[dataclasses.replace(j, name=f"j{i}")
                                                 for i, j in enumerate(model.joints)])
    poses = build("double-pendulum", "se3").state0.poses
    for old, new in zip(model.joints, renamed.joints):
        assert _bits(joint_geometry(new, poses, renamed)) == _bits(
            joint_geometry(old, poses, model))


@pytest.mark.parametrize("axes", [{}, {"axis_a": [0, 0, 1.0], "axis_b": [0, 0, 1.0]}])
def test_unknown_joint_kind(axes):
    with pytest.raises(ValueError, match="unknown joint kind 'helical'"):
        Joint("helical", None, 0, **axes)


@pytest.mark.parametrize("axes", [{"axis_a": [0, 0, 2.0], "axis_b": [0, 0, 1]},
                                  {"axis_a": [0, 0, 1.0]}, {"axis_b": [0, 0, 1.0]}])
def test_spherical_joint_takes_no_axis(axes):
    # a spherical joint has no axis rows: a given axis would be kept unread
    with pytest.raises(ValueError, match="spherical joint takes no axis_a or axis_b"):
        Joint("spherical", None, 0, **axes)


@pytest.mark.parametrize("field", ["axis_a", "axis_b"])
def test_nan_axis_is_rejected(field):
    # a NaN norm passes no bound, so the unit check is written to fail it
    axes = {"axis_a": [0.0, 0.0, 1.0], "axis_b": [0.0, 0.0, 1.0], field: [math.nan, 0.0, 0.0]}
    with pytest.raises(ValueError, match=f"{field} must be a unit vector"):
        Joint("revolute", None, 0, **axes)


@pytest.mark.parametrize("field", ["axis_a", "axis_b"])
@pytest.mark.parametrize("axis", [[1.0, 0.0], [0.0, 0.0, 1.0, 0.0]], ids=["2-vector", "4-vector"])
def test_axis_must_be_a_3_vector(field, axis):
    axes = {"axis_a": [0.0, 0.0, 1.0], "axis_b": [0.0, 0.0, 1.0], field: axis}
    with pytest.raises(ValueError, match=f"{field} must be a 3-vector"):
        Joint("revolute", None, 0, **axes)


class TestPaperJacobianForms:
    def test_heavy_top_body_fixed(self):
        model = heavy_top_model(BODY_FIXED)
        # on-manifold at a generic orientation the textbook (r0^, -I) form holds
        r = se3_exp(np.array([0.4, -0.8, 0.3, 0, 0, 0])).R
        poses = [Pose(r, -(r @ TOP_R0))]
        blk = joint_rows(model.joints[0], poses, np.zeros((1, 6)), model)[0][0]
        assert_allclose(blk[:, :3], hat3(TOP_R0), atol=1e-13)
        assert_allclose(blk[:, 3:], -np.eye(3), atol=0)

    def test_heavy_top_mixed(self):
        model = heavy_top_model(MIXED)
        r = se3_exp(np.array([-0.2, 0.5, 0.9, 0, 0, 0])).R
        poses = [Pose(r, -(r @ TOP_R0))]
        blk = joint_rows(model.joints[0], poses, np.zeros((1, 6)), model)[0][0]
        assert_allclose(blk[:, :3], r @ hat3(TOP_R0), atol=1e-13)
        assert_allclose(blk[:, 3:], -np.eye(3), atol=0)
        # acceleration right-hand side R w^ w^ r0 as printed
        omega = np.array([0.7, -0.4, 1.1])
        vel = np.concatenate([omega, RNG.normal(size=3)])[None, :]
        eta = joint_acc_rhs(model.joints[0], poses, vel, model)
        assert_allclose(eta, r @ np.cross(omega, np.cross(omega, TOP_R0)),
                        atol=1e-12)


class TestHeavyTopGeometry:
    @pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
    def test_assembled_configuration(self, representation):
        model = heavy_top_model(representation)
        state = heavy_top_state(representation)
        h = joint_geometry(model.joints[0], state.poses, model)
        assert np.abs(h).max() < 1e-15
        assert velocity_residual(model, state) < 1e-12

    def test_translation_perturbation_is_linear(self):
        model = heavy_top_model(BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        delta = np.array([1e-3, -2e-3, 3e-3])
        poses = [Pose(state.poses[0].R, state.poses[0].r + delta)]
        h = joint_geometry(model.joints[0], poses, model)
        # h = Rb^T (pa - pb): a pure translation enters through -Rb^T delta
        assert_allclose(h, -state.poses[0].R.T @ delta, atol=1e-15)


class TestForceAssembly:
    def test_no_elements_zero_wrench(self):
        model = MbsModel([TOP_BODY], [], [], representation=BODY_FIXED)
        w = force_assembly(model, [Pose.identity()])
        assert_allclose(w, np.zeros((1, 6)))

    def test_heavy_top_initial_spring_force(self):
        model = heavy_top_model(MIXED)
        state = heavy_top_state(MIXED)
        w = force_assembly(model, state.poses)
        expected_f = TOP_C * (TOP_P0 - (-TOP_R0)) + 21.6 * np.array([0, 0, -GRAV])
        assert_allclose(w[0, 3:], expected_f)
        assert_allclose(w[0, :3], np.zeros(3), atol=0)  # spring at the COM

    def test_representations_related_by_frame_transform(self):
        r = se3_exp(np.array([0.3, 0.7, -0.2, 0, 0, 0])).R
        poses = [Pose(r, np.array([0.2, -0.1, 0.4]))]
        body_model = heavy_top_model(BODY_FIXED)
        mixed_model = heavy_top_model(MIXED)
        wb = force_assembly(body_model, poses)[0]
        wm = force_assembly(mixed_model, poses)[0]
        assert_allclose(wb[:3], wm[:3], atol=1e-12)
        assert_allclose(wb[3:], r.T @ wm[3:], atol=1e-12)


class TestIndex1Solve:
    def test_unconstrained_reduces_to_newton_euler(self):
        model = MbsModel([BOX_FREE], [], [Gravity([0, 0, -GRAV])],
                         representation=BODY_FIXED)
        state = MbsState([Pose.identity()], RNG.normal(size=6)[None, :])
        vdot = np.reshape(accelerations(model, state.poses, state.velocities), (-1, 6))
        m, rhs = newton_euler_body(BOX_FREE, state.velocities[0],
                                   force_assembly(model, state.poses)[0])
        assert_allclose(vdot[0], np.linalg.solve(m, rhs), atol=1e-12)

    def test_heavy_top_static_hand_solve(self):
        # independent hand elimination of the 9x9 KKT system at rest
        model = heavy_top_model(BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        state.velocities[:] = 0.0
        kkt, rhs = assemble_index1(model, state.poses, state.velocities)
        vdot, lam = solve_index1(model, kkt, rhs)

        f = TOP_C * (TOP_P0 - (-TOP_R0)) + 21.6 * np.array([0, 0, -GRAV])
        theta_pivot = parallel_axis(TOP_BODY.inertia_ref, 21.6, TOP_R0)
        # torque about the pivot: COM sits at -r0 from the pivot point
        wdot = np.linalg.solve(theta_pivot, np.cross(-TOP_R0, f))
        assert_allclose(vdot[0, :3], wdot, atol=1e-10)
        assert_allclose(vdot[0, 3:], np.cross(TOP_R0, wdot), atol=1e-10)
        assert_allclose(lam, 21.6 * np.cross(TOP_R0, wdot) - f, atol=1e-9)

    @pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
    def test_kkt_residual_on_feasible_state(self, representation):
        model = heavy_top_model(representation)
        state = heavy_top_state(representation)
        kkt, rhs = assemble_index1(model, state.poses, state.velocities)
        vdot, lam = solve_index1(model, kkt, rhs)
        sol = np.concatenate([vdot.reshape(-1), lam])
        assert np.abs(kkt @ sol - rhs).max() < 1e-9

    def test_singular_kkt_names_joints(self):
        # duplicated spherical joint makes the constraint rows dependent
        j = Joint("spherical", None, 0, anchor_b=TOP_R0, name="pivot")
        j2 = Joint("spherical", None, 0, anchor_b=TOP_R0, name="pivot-copy")
        model = MbsModel([TOP_BODY], [j, j2], [], representation=BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        kkt, rhs = assemble_index1(model, state.poses, state.velocities)
        with pytest.raises(RedundantConstraintError, match="pivot-copy"):
            solve_index1(model, kkt, rhs)

    def test_accelerations_redundant_joints_name_them(self):
        # the production right-hand side reports the redundancy as well
        j = Joint("spherical", None, 0, anchor_b=TOP_R0, name="pivot")
        j2 = Joint("spherical", None, 0, anchor_b=TOP_R0, name="pivot-copy")
        model = MbsModel([TOP_BODY], [j, j2], [], representation=BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        with pytest.raises(RedundantConstraintError, match="pivot-copy"):
            accelerations(model, state.poses, state.velocities)

    def test_body_and_mixed_accelerations_agree(self):
        mb = heavy_top_model(BODY_FIXED)
        mm = heavy_top_model(MIXED)
        r = se3_exp(np.array([0.2, -0.3, 0.5, 0, 0, 0])).R
        poses = [Pose(r, -(r @ TOP_R0))]
        omega = np.array([0.3, 0.8, -0.4])
        vb = np.concatenate([omega, np.cross(TOP_R0, omega)])
        vm = np.concatenate([omega, r @ vb[3:]])
        ab = np.reshape(accelerations(mb, poses, vb[None, :]), (-1, 6))[0]
        am = np.reshape(accelerations(mm, poses, vm[None, :]), (-1, 6))[0]
        assert_allclose(am[:3], ab[:3], atol=1e-9)
        # vdot_body = R^T vdot_s - omega x v_body
        assert_allclose(r.T @ am[3:] - np.cross(omega, vb[3:]), ab[3:], atol=1e-9)

    def test_off_com_body_and_mixed_accelerations_agree(self):
        # validates the off-COM mixed mass coupling -m(R r0^) and the
        # quadratic bias R w^ w^ r0 against the frame-invariant body form
        r0 = np.array([0.4, 0.0, 0.0])
        theta_p = parallel_axis(np.diag([1.224, 4.68, 5.76]), 86.4, r0)
        body = RigidBody("box_p", 86.4, theta_p, com_offset=r0)
        grav = [Gravity([0, 0, -GRAV])]
        mb = MbsModel([body], [], grav, representation=BODY_FIXED)
        mm = MbsModel([body], [], grav, representation=MIXED)
        r = se3_exp(np.array([0.4, -0.2, 0.7, 0, 0, 0])).R
        poses = [Pose(r, np.array([0.3, -0.6, 0.2]))]
        omega = np.array([2.0, -1.5, 3.0])
        vb = np.concatenate([omega, np.array([0.5, -0.25, 1.0])])
        vm = np.concatenate([omega, r @ vb[3:]])
        ab = np.reshape(accelerations(mb, poses, vb[None, :]), (-1, 6))[0]
        am = np.reshape(accelerations(mm, poses, vm[None, :]), (-1, 6))[0]
        assert_allclose(am[:3], ab[:3], atol=1e-9)
        assert_allclose(r.T @ am[3:] - np.cross(omega, vb[3:]), ab[3:], atol=1e-9)

    def test_off_com_mixed_power_balance(self):
        # dE/dt along the mixed flow equals the applied wrench power
        r0 = np.array([0.4, 0.0, 0.0])
        theta_p = parallel_axis(np.diag([1.224, 4.68, 5.76]), 86.4, r0)
        body = RigidBody("box_p", 86.4, theta_p, com_offset=r0)
        model = MbsModel([body], [],
                         [Gravity([0, 0, -GRAV]),
                          LinearSpring(0, np.array([0.1, 0, 0.2]),
                                       np.array([1.0, 0, 1.0]), 500.0)],
                         representation=MIXED)
        r = se3_exp(np.array([-0.3, 0.8, 0.1, 0, 0, 0])).R
        state = MbsState([Pose(r, np.array([0.2, 0.4, -0.1]))],
                         np.array([[1.0, -2.0, 0.5, 0.3, 0.8, -0.6]]))
        v = state.velocities[0]
        vdot = np.reshape(accelerations(model, state.poses, state.velocities), (-1, 6))[0]
        m0 = model.spatial_inertia_blocks([r])[0]
        h = 1e-7
        rp = r @ (np.eye(3) + h * hat3(v[:3]))
        rm = r @ (np.eye(3) - h * hat3(v[:3]))
        mdot = (model.spatial_inertia_blocks([rp])[0]
                - model.spatial_inertia_blocks([rm])[0]) / (2 * h)
        tdot = v @ m0 @ vdot + 0.5 * v @ mdot @ v
        w = force_assembly(model, state.poses)[0]
        assert abs(tdot - v @ w) < 1e-7 * max(1.0, abs(v @ w))

    @pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
    def test_instantaneous_power_balance(self, representation):
        # dT/dt must equal the applied-wrench power; the constraint does no
        # work and the gyroscopic terms must cancel against dM/dt
        model = heavy_top_model(representation)
        state = heavy_top_state(representation)
        vdot = np.reshape(accelerations(model, state.poses, state.velocities), (-1, 6))[0]
        v = state.velocities[0]
        blocks = model.spatial_inertia_blocks([p.R for p in state.poses])

        h = 1e-7
        omega = v[:3]
        r_plus = state.poses[0].R @ (np.eye(3) + h * hat3(omega))
        r_minus = state.poses[0].R @ (np.eye(3) - h * hat3(omega))
        mp = model.spatial_inertia_blocks([r_plus])[0]
        mm_ = model.spatial_inertia_blocks([r_minus])[0]
        mdot = (mp - mm_) / (2 * h)

        tdot = v @ blocks[0] @ vdot + 0.5 * v @ mdot @ v
        w = force_assembly(model, state.poses)[0]
        assert abs(tdot - v @ w) < 1e-7 * max(1.0, abs(v @ w))


class TestJointlessAccelerations:
    """Without joints the step skips the KKT solve: Vdot = M^-1 Q."""

    @pytest.mark.parametrize("group", ["se3", "so3xr3"])
    def test_matches_dense_kkt_solve(self, group):
        names = [n for n in BUILDERS if not build(n, group).model.joints]
        assert len(names) == 4
        rng = np.random.default_rng(99)
        cases = []
        for name in names:
            spec = build(name, group)
            cases += [(spec.model, spec.state0.poses, spec.state0.velocities),
                      (spec.model, [se3_exp(rng.normal(size=6))], rng.normal(size=(1, 6)))]
        # two bodies, one off its COM: the (n, 6) shapes cannot broadcast
        # past a mismatch
        pair = MbsModel([BOX_FREE, RigidBody("offset", 2.0, np.diag([0.1, 0.2, 0.3]),
                                             com_offset=[0.1, -0.2, 0.05])],
                        [], [Gravity([0, 0, -GRAV])], representation=REPRESENTATION[group])
        cases.append((pair, [se3_exp(rng.normal(size=6)) for _ in range(2)],
                      rng.normal(size=(2, 6))))
        for model, poses, vel in cases:
            kkt, rhs = assemble_index1(model, poses, vel)
            dense, _ = solve_index1(model, kkt, rhs)
            vdot = np.reshape(accelerations(model, poses, vel), (-1, 6))
            assert vdot.shape == dense.shape == (len(poses), 6)
            assert np.abs(vdot - dense).max() <= 1e-12 * np.abs(dense).max()


class TestDoublePendulumAssembly:
    @pytest.mark.parametrize("group", ["se3", "so3xr3"])
    def test_initial_accelerations_satisfy_constraint_rows(self, group):
        # substitute the solved accelerations back into both joints'
        # acceleration-constraint rows
        from screwmbs.bench import build
        from screwmbs.dynamics import joint_rows

        spec = build("double-pendulum", group)
        kkt, rhs = assemble_index1(spec.model, spec.state0.poses,
                                   spec.state0.velocities)
        vdot, _ = solve_index1(spec.model, kkt, rhs)
        for joint in spec.model.joints:
            blocks, eta = joint_rows(joint, spec.state0.poses,
                                     spec.state0.velocities, spec.model)
            jvdot = sum(blk @ vdot[i] for i, blk in blocks.items())
            assert np.abs(jvdot - eta).max() < 1e-10


class TestVelocityProjection:
    def test_consistent_state_unchanged(self):
        model = heavy_top_model(BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        out = project_velocities(model, state)
        assert_allclose(out.velocities, state.velocities, atol=1e-12)

    def test_redundant_joints_name_them(self):
        # the projection solves through solve_index1, as the step does
        j = Joint("spherical", None, 0, anchor_b=TOP_R0, name="pivot")
        j2 = Joint("spherical", None, 0, anchor_b=TOP_R0, name="pivot-copy")
        model = MbsModel([TOP_BODY], [j, j2], [], representation=BODY_FIXED)
        with pytest.raises(RedundantConstraintError, match="pivot-copy"):
            project_velocities(model, heavy_top_state(BODY_FIXED))

    def test_projection_restores_consistency(self):
        model = heavy_top_model(BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        state.velocities = state.velocities + RNG.normal(size=(1, 6))
        assert velocity_residual(model, state) > 1e-3
        out = project_velocities(model, state)
        assert velocity_residual(model, out) < 1e-12

    def test_check_initial_state_raises(self):
        model = heavy_top_model(BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        state.velocities = state.velocities + 1.0
        with pytest.raises(InfeasibleStateError):
            check_initial_state(model, state)


class TestEnergy:
    @pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
    def test_state_is_the_one_sample_case(self, representation):
        """For one MbsState the energies are floats with the bits of the
        per-state reference loops: the built-ins' initial states, and
        off-COM bodies on springs at random poses off SO(3)."""
        group = "se3" if representation == BODY_FIXED else "so3xr3"
        cases = [(spec.model, spec.state0) for spec in (build(n, group) for n in BUILDERS)]
        rng = np.random.default_rng(7)
        model = _sprung_off_com_body(representation)
        for _ in range(20):
            cases.append((model, MbsState(_off_manifold_poses(rng, 2),
                                          rng.uniform(-3, 3, (2, 6)))))
        for model, state in cases:
            ke, pe = reference_kinetic_energy(model, state), reference_potential_energy(model, state)
            got = (kinetic_energy(model, state), potential_energy(model, state),
                   total_energy(model, state))
            assert all(type(x) is float for x in got)
            assert _bits(got) == _bits([ke, pe, ke + pe])

    @pytest.mark.parametrize("representation", [BODY_FIXED, MIXED])
    def test_record_series_match_per_state(self, representation):
        """Over a record the energies are (N,) series whose entries have the
        bits of the per-state references, on random poses off SO(3) of
        off-COM bodies on springs and under a gravity vector with three
        nonzero entries, alone (a 2-D ``com @ g`` changes bits here) and
        after the springs."""
        rng = np.random.default_rng(11)
        model = _sprung_off_com_body(representation)
        tilted = Gravity([0.7, -0.4, -9.78])
        n = 200
        poses = [_off_manifold_poses(rng, 2) for _ in range(n)]
        record = TrajectoryRecord(np.linspace(0.0, 1.0, n),
                                  np.array([[p.R for p in sample] for sample in poses]),
                                  np.array([[p.r for p in sample] for sample in poses]),
                                  rng.uniform(-3, 3, (n, 2, 6)))
        states = [state_at(record, k) for k in range(n)]
        assert _bits(kinetic_energy(model, record)) == _bits(
            [reference_kinetic_energy(model, state) for state in states])
        for forces in ([tilted], [*model.forces, tilted]):
            model = dataclasses.replace(model, forces=forces)
            assert _bits(potential_energy(model, record)) == _bits(
                [reference_potential_energy(model, state) for state in states])

    def test_heavy_top_kinetic(self):
        model = heavy_top_model(BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        t_expected = 0.5 * (state.velocities[0, :3] @ TOP_BODY.inertia_ref
                            @ state.velocities[0, :3]
                            + 21.6 * state.velocities[0, 3:] @ state.velocities[0, 3:])
        assert_allclose(kinetic_energy(model, state), t_expected)

    def test_total_energy_conserved_value(self):
        # conserved total at the assembled configuration: T + U_g + spring
        model = heavy_top_model(BODY_FIXED)
        state = heavy_top_state(BODY_FIXED)
        d = TOP_P0 - (-TOP_R0)
        expected = kinetic_energy(model, state) + 0.5 * TOP_C * d @ d
        assert_allclose(total_energy(model, state), expected, atol=1e-9)


class TestConstraintJacobianShape:
    def test_double_spherical_chain(self):
        b = RigidBody("link", 2.7, np.diag([0.0028125, 0.0095625, 0.01125]))
        joints = [
            Joint("spherical", None, 0, anchor_b=[-0.1, 0, 0], name="j1"),
            Joint("spherical", 0, 1, anchor_a=[0.1, 0, 0], anchor_b=[-0.1, 0, 0],
                  name="j2"),
        ]
        model = MbsModel([b, b], joints, [Gravity([0, 0, -GRAV])],
                         representation=BODY_FIXED)
        poses = [Pose(np.eye(3), np.array([0.1, 0, 0])),
                 Pose(np.eye(3), np.array([0.3, 0, 0]))]
        for j in joints:
            assert np.abs(joint_geometry(j, poses, model)).max() < 1e-15
        jac = constraint_jacobian(model, poses)
        assert jac.shape == (6, 12)
        assert np.linalg.matrix_rank(jac) == 6
