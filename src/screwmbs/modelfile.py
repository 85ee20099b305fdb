"""Human-readable model definition files.

YAML documents with explicit units in the field names (``mass_kg``,
``stiffness_n_per_m``) to keep unit mistakes visible.  Linear velocities in
the file are always the spatial rates ``rdot`` of the body reference
frames, independent of the run's velocity representation; the loader
converts to body-fixed twists when the SE(3) group is selected.
"""

from __future__ import annotations

import numpy as np
import yaml

from .dynamics import (
    BODY_FIXED,
    Gravity,
    Joint,
    LinearSpring,
    MbsModel,
    MbsState,
    RigidBody,
    check_initial_state,
    project_velocities,
)
from .liealg import GROUPS, Pose, is_rotation, so3_exp


# libyaml's C parser where this PyYAML build has it: the same constructor
# and resolver as SafeLoader, so the same documents, parsed several times
# faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ModelFileError(ValueError):
    """Schema violation in a model definition file."""


def _vec3(section, field, where, default=None):
    if field not in section:
        if default is not None:
            return np.asarray(default, dtype=float)
        raise ModelFileError(f"{where}: missing field {field!r}")
    v = np.asarray(section[field], dtype=float)
    if v.shape != (3,):
        raise ModelFileError(f"{where}: {field!r} must be a 3-vector")
    return v


def _inertia(section, where):
    raw = section.get("inertia_kgm2")
    if raw is None:
        raise ModelFileError(f"{where}: missing field 'inertia_kgm2'")
    arr = np.asarray(raw, dtype=float)
    if arr.shape == (3,):
        arr = np.diag(arr)
    if arr.shape != (3, 3):
        raise ModelFileError(f"{where}: 'inertia_kgm2' must be a diagonal "
                             "3-vector or a 3x3 matrix")
    return arr


def _rotation(section, where):
    if "rotation" not in section or section["rotation"] == "identity":
        return np.eye(3)
    raw = section["rotation"]
    if isinstance(raw, dict) and "rotvec_rad" in raw:
        return so3_exp(_vec3(raw, "rotvec_rad", where))
    arr = np.asarray(raw, dtype=float)
    if arr.shape != (3, 3) or not is_rotation(arr, tol=1e-9):
        raise ModelFileError(f"{where}: 'rotation' must be 'identity', "
                             "{rotvec_rad: [...]}, or a 3x3 rotation matrix")
    return arr


def load_model_file(path, group="se3", project: bool = False):
    """Parse and validate a model file.

    Returns ``(model, state, meta)`` with the model built for the requested
    configuration-space group.  Raises yaml.YAMLError on malformed text,
    ModelFileError on schema violations, InfeasibleStateError when the
    initial state is inconsistent and ``project`` is off.
    """
    group = GROUPS[group] if isinstance(group, str) else group
    with open(path) as fh:
        doc = yaml.load(fh, Loader=_LOADER)
    if not isinstance(doc, dict):
        raise ModelFileError("top level must be a mapping")

    bodies = []
    names = {}
    for i, section in enumerate(doc.get("bodies", [])):
        where = f"bodies[{i}]"
        name = section.get("name", f"body{i}")
        if name in names:
            raise ModelFileError(f"{where}: duplicate body name {name!r}")
        if "mass_kg" not in section:
            raise ModelFileError(f"{where}: missing field 'mass_kg'")
        try:
            body = RigidBody(name, float(section["mass_kg"]), _inertia(section, where),
                             _vec3(section, "com_offset_m", where, default=(0, 0, 0)))
        except ValueError as exc:
            raise ModelFileError(f"{where}: {exc}") from exc
        names[name] = i
        bodies.append(body)
    if not bodies:
        raise ModelFileError("model defines no bodies")

    def body_ref(section, field, where, allow_ground):
        ref = section.get(field)
        if ref is None:
            raise ModelFileError(f"{where}: missing field {field!r}")
        if ref == "ground":
            if not allow_ground:
                raise ModelFileError(f"{where}: {field!r} cannot be ground")
            return None
        if ref not in names:
            raise ModelFileError(f"{where}: unknown body {ref!r}")
        return names[ref]

    joints = []
    for i, section in enumerate(doc.get("joints", [])):
        where = f"joints[{i}]"
        kind = section.get("kind")
        try:
            joints.append(Joint(
                kind,
                body_ref(section, "body_a", where, allow_ground=True),
                body_ref(section, "body_b", where, allow_ground=False),
                anchor_a=_vec3(section, "anchor_a_m", where, default=(0, 0, 0)),
                anchor_b=_vec3(section, "anchor_b_m", where, default=(0, 0, 0)),
                axis_a=section.get("axis_a"),
                axis_b=section.get("axis_b"),
                name=section.get("name", f"{kind}{i}"),
            ))
        except (TypeError, ValueError) as exc:
            raise ModelFileError(f"{where}: {exc}") from exc

    forces = []
    for i, section in enumerate(doc.get("forces", [])):
        where = f"forces[{i}]"
        kind = section.get("kind")
        if kind == "gravity":
            forces.append(Gravity(_vec3(section, "g_mps2", where)))
        elif kind == "linear_spring":
            if "stiffness_n_per_m" not in section:
                raise ModelFileError(f"{where}: missing field 'stiffness_n_per_m'")
            forces.append(LinearSpring(
                body_ref(section, "body", where, allow_ground=False),
                _vec3(section, "attach_m", where, default=(0, 0, 0)),
                _vec3(section, "ground_point_m", where),
                float(section["stiffness_n_per_m"]),
            ))
        else:
            raise ModelFileError(f"{where}: unknown force kind {kind!r}")

    representation = BODY_FIXED if group.name == "se3" else "mixed"
    model = MbsModel(bodies, joints, forces, representation=representation)

    poses = [Pose.identity() for _ in bodies]
    velocities = np.zeros((len(bodies), 6))
    for i, section in enumerate(doc.get("initial_state", [])):
        where = f"initial_state[{i}]"
        idx = body_ref(section, "body", where, allow_ground=False)
        rot = _rotation(section, where)
        poses[idx] = Pose(rot, _vec3(section, "position_m", where, default=(0, 0, 0)))
        omega = _vec3(section, "angular_velocity_radps", where, default=(0, 0, 0))
        rdot = _vec3(section, "linear_velocity_mps", where, default=(0, 0, 0))
        velocities[idx, :3] = omega
        velocities[idx, 3:] = rot.T @ rdot if representation == BODY_FIXED else rdot
    state = MbsState(poses, velocities)

    if project:
        state = project_velocities(model, state)
    check_initial_state(model, state)
    return model, state, {"name": doc.get("name", "model")}


def dump_model(model: MbsModel, state: MbsState, name: str = "model") -> str:
    """Serialize a model and its initial state to the file schema.

    Joints, forces and initial states refer to bodies by name, so the names
    must be unique; raises ModelFileError otherwise.
    """
    names = [body.name for body in model.bodies]
    duplicates = sorted({b for b in names if names.count(b) > 1})
    if duplicates:
        raise ModelFileError(f"duplicate body names {duplicates}: the file "
                             "would refer to bodies ambiguously")

    def listify(a):
        return [float(x) for x in np.asarray(a).reshape(-1)]

    doc = {"name": name, "bodies": [], "joints": [], "forces": [],
           "initial_state": []}
    for body in model.bodies:
        doc["bodies"].append({
            "name": body.name,
            "mass_kg": float(body.mass),
            "inertia_kgm2": [[float(x) for x in row] for row in body.inertia_ref],
            "com_offset_m": listify(body.com_offset),
        })
    for joint in model.joints:
        section = {
            "kind": joint.kind,
            "name": joint.name,
            "body_a": "ground" if joint.body_a is None else model.bodies[joint.body_a].name,
            "body_b": model.bodies[joint.body_b].name,
            "anchor_a_m": listify(joint.anchor_a),
            "anchor_b_m": listify(joint.anchor_b),
        }
        if joint.axis_a is not None:
            section["axis_a"] = listify(joint.axis_a)
            section["axis_b"] = listify(joint.axis_b)
        doc["joints"].append(section)
    for force in model.forces:
        if isinstance(force, Gravity):
            doc["forces"].append({"kind": "gravity", "g_mps2": listify(force.g)})
        else:
            doc["forces"].append({
                "kind": "linear_spring",
                "body": model.bodies[force.body].name,
                "attach_m": listify(force.attach),
                "ground_point_m": listify(force.ground_point),
                "stiffness_n_per_m": float(force.stiffness),
            })
    body_frame = model.representation == BODY_FIXED
    for i, (body, pose) in enumerate(zip(model.bodies, state.poses)):
        v = state.velocities[i]
        rdot = pose.R @ v[3:] if body_frame else v[3:]
        doc["initial_state"].append({
            "body": body.name,
            "rotation": [[float(x) for x in row] for row in pose.R],
            "position_m": listify(pose.r),
            "angular_velocity_radps": listify(v[:3]),
            "linear_velocity_mps": listify(rdot),
        })
    return yaml.safe_dump(doc, sort_keys=False)


def write_model_file(path, model: MbsModel, state: MbsState, name: str = "model"):
    with open(path, "w") as fh:
        fh.write(dump_model(model, state, name))
