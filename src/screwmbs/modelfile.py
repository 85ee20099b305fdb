"""Human-readable model definition files.

YAML documents with explicit units in the field names (``mass_kg``,
``stiffness_n_per_m``) to keep unit mistakes visible.  Linear velocities in
the file are always the spatial rates ``rdot`` of the body reference
frames, independent of the run's velocity representation; the loader
converts to body-fixed twists when the SE(3) group is selected.
"""

from __future__ import annotations

import os

import numpy as np
import yaml

from .dynamics import (
    BODY_FIXED,
    REPRESENTATION,
    Gravity,
    Joint,
    LinearSpring,
    MbsModel,
    MbsState,
    RigidBody,
    check_initial_state,
    project_velocities,
)
from .liealg import Pose, is_rotation, so3_exp


# libyaml's C parser where this PyYAML build has it: the same constructor
# and resolver as SafeLoader, so the same documents, parsed several times
# faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ModelFileError(ValueError):
    """Schema violation in a model definition file."""


def _has_bool(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, list) and any(map(_has_bool, value)))


def _finite(value, field, where) -> np.ndarray:
    """``value`` as a float array; a NaN or infinite entry is an error
    naming the field, as comparisons with NaN pass every range check.  YAML
    booleans are not numbers, though numpy reads them as 0 and 1."""
    if _has_bool(value):
        raise ModelFileError(f"{where}: {field!r} must be numeric")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"{where}: {field!r} must be numeric") from exc
    if not np.isfinite(arr).all():
        raise ModelFileError(f"{where}: {field!r} must be finite")
    return arr


def _number(section, field, where) -> float:
    if field not in section:
        raise ModelFileError(f"{where}: missing field {field!r}")
    v = _finite(section[field], field, where)
    if v.shape != ():
        raise ModelFileError(f"{where}: {field!r} must be a number")
    return float(v)


def _vec3(section, field, where, default=None):
    if field not in section:
        if default is not None:
            return np.asarray(default, dtype=float)
        raise ModelFileError(f"{where}: missing field {field!r}")
    v = _finite(section[field], field, where)
    if v.shape != (3,):
        raise ModelFileError(f"{where}: {field!r} must be a 3-vector")
    return v


def _inertia(section, where):
    raw = section.get("inertia_kgm2")
    if raw is None:
        raise ModelFileError(f"{where}: missing field 'inertia_kgm2'")
    arr = _finite(raw, "inertia_kgm2", where)
    if arr.shape == (3,):
        arr = np.diag(arr)
    if arr.shape != (3, 3):
        raise ModelFileError(f"{where}: 'inertia_kgm2' must be a diagonal "
                             "3-vector or a 3x3 matrix")
    return arr


def _known(section, fields, where) -> None:
    """Reject a key the loader does not read: misspelt, it would be ignored."""
    for key in section:
        if key not in fields:
            raise ModelFileError(f"{where}: unknown field {key!r}")


def _rotation(section, where):
    if "rotation" not in section or section["rotation"] == "identity":
        return np.eye(3)
    raw = section["rotation"]
    if isinstance(raw, dict):
        _known(raw, ("rotvec_rad",), f"{where}: 'rotation'")
        return so3_exp(_vec3(raw, "rotvec_rad", where))
    arr = _finite(raw, "rotation", where)
    if arr.shape != (3, 3) or not is_rotation(arr, tol=1e-9):
        raise ModelFileError(f"{where}: 'rotation' must be 'identity', "
                             "{rotvec_rad: [...]}, or a 3x3 rotation matrix")
    return arr


def _name(section, field, where, default=None) -> str:
    """A body or joint name, or a body reference: a string."""
    name = section.get(field, default)
    if name is None:
        raise ModelFileError(f"{where}: missing field {field!r}")
    if not isinstance(name, str):
        raise ModelFileError(f"{where}: {field!r} must be a string")
    return name


def _sections(doc, key) -> list:
    """The top-level list ``key``; every entry must be a mapping."""
    entries = doc.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ModelFileError(f"{key!r} must be a list of mappings")
    return entries


def load_model_file(path, group: str = "se3", project: bool = False):
    """Parse and validate a model file.

    Returns ``(model, state, meta)`` with the model built for the named
    configuration-space group.  Raises yaml.YAMLError on malformed text,
    ModelFileError on schema violations, InfeasibleStateError when the
    initial state is inconsistent and ``project`` is off.
    """
    with open(path) as fh:
        doc = yaml.load(fh, Loader=_LOADER)
    if not isinstance(doc, dict):
        raise ModelFileError("top level must be a mapping")
    _known(doc, ("name", "bodies", "joints", "forces", "initial_state"), "top level")
    model_name = _name(doc, "name", "top level", default="model")
    if "/" in model_name or os.sep in model_name:  # it is the stem of the CSV paths
        raise ModelFileError(f"top level: 'name' {model_name!r} must not contain a path separator")

    bodies = []
    names = {}
    for i, section in enumerate(_sections(doc, "bodies")):
        where = f"bodies[{i}]"
        _known(section, ("name", "mass_kg", "inertia_kgm2", "com_offset_m"), where)
        name = _name(section, "name", where, default=f"body{i}")
        if name in names:
            raise ModelFileError(f"{where}: duplicate body name {name!r}")
        mass = _number(section, "mass_kg", where)
        inertia = _inertia(section, where)
        com = _vec3(section, "com_offset_m", where, default=(0, 0, 0))
        try:
            body = RigidBody(name, mass, inertia, com)
        except ValueError as exc:
            raise ModelFileError(f"{where}: {exc}") from exc
        names[name] = i
        bodies.append(body)
    if not bodies:
        raise ModelFileError("model defines no bodies")

    def body_ref(section, field, where, allow_ground):
        ref = _name(section, field, where)
        if ref == "ground":
            if not allow_ground:
                raise ModelFileError(f"{where}: {field!r} cannot be ground")
            return None
        if ref not in names:
            raise ModelFileError(f"{where}: unknown body {ref!r}")
        return names[ref]

    joints = []
    for i, section in enumerate(_sections(doc, "joints")):
        where = f"joints[{i}]"
        _known(section, ("kind", "name", "body_a", "body_b", "anchor_a_m", "anchor_b_m",
                         "axis_a", "axis_b"), where)
        kind = section.get("kind")
        axes = {f: _vec3(section, f, where) for f in ("axis_a", "axis_b")
                if section.get(f) is not None}
        # the fields' own errors name the entry already; Joint's do not
        refs = (body_ref(section, "body_a", where, allow_ground=True),
                body_ref(section, "body_b", where, allow_ground=False))
        fields = dict(anchor_a=_vec3(section, "anchor_a_m", where, default=(0, 0, 0)),
                      anchor_b=_vec3(section, "anchor_b_m", where, default=(0, 0, 0)),
                      name=_name(section, "name", where, default=f"{kind}{i}"), **axes)
        try:
            joint = Joint(kind, *refs, **fields)
        except (TypeError, ValueError) as exc:
            raise ModelFileError(f"{where}: {exc}") from exc
        # an unnamed joint goes by its kind in reports and CSV columns
        if any(j.label == joint.label for j in joints):
            raise ModelFileError(f"{where}: duplicate joint name {joint.label!r}")
        joints.append(joint)

    forces = []
    for i, section in enumerate(_sections(doc, "forces")):
        where = f"forces[{i}]"
        kind = section.get("kind")
        if kind == "gravity":
            _known(section, ("kind", "g_mps2"), where)
            forces.append(Gravity(_vec3(section, "g_mps2", where)))
        elif kind == "linear_spring":
            _known(section, ("kind", "body", "attach_m", "ground_point_m", "stiffness_n_per_m"),
                   where)
            spring = (body_ref(section, "body", where, allow_ground=False),
                      _vec3(section, "attach_m", where, default=(0, 0, 0)),
                      _vec3(section, "ground_point_m", where),
                      _number(section, "stiffness_n_per_m", where))
            try:
                forces.append(LinearSpring(*spring))
            except ValueError as exc:
                raise ModelFileError(f"{where}: {exc}") from exc
        else:
            raise ModelFileError(f"{where}: unknown force kind {kind!r}")

    representation = REPRESENTATION[group]
    model = MbsModel(bodies, joints, forces, representation=representation)

    poses = [Pose.identity() for _ in bodies]
    velocities = np.zeros((len(bodies), 6))
    listed = set()
    for i, section in enumerate(_sections(doc, "initial_state")):
        where = f"initial_state[{i}]"
        _known(section, ("body", "rotation", "position_m", "angular_velocity_radps",
                         "linear_velocity_mps"), where)
        idx = body_ref(section, "body", where, allow_ground=False)
        if idx in listed:
            raise ModelFileError(f"{where}: body {bodies[idx].name!r} is listed twice")
        listed.add(idx)
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
    return model, state, {"name": model_name}


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
