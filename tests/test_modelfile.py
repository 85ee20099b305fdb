from dataclasses import replace

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

from screwmbs import bench, modelfile
from screwmbs.dynamics import InfeasibleStateError
from screwmbs.modelfile import (
    ModelFileError,
    dump_model,
    load_model_file,
    write_model_file,
)

HEAVY_TOP_YAML = """
name: heavy-top
bodies:
  - name: top
    mass_kg: 21.6
    inertia_kgm2: [0.36, 0.306, 0.09]
joints:
  - kind: spherical
    name: pivot
    body_a: ground
    body_b: top
    anchor_a_m: [0.0, 0.0, 0.0]
    anchor_b_m: [-0.5, 0.0, 0.0]
forces:
  - kind: gravity
    g_mps2: [0.0, 0.0, -9.81]
  - kind: linear_spring
    body: top
    attach_m: [0.0, 0.0, 0.0]
    ground_point_m: [1.0, 0.0, 0.5]
    stiffness_n_per_m: 1.0e4
initial_state:
  - body: top
    position_m: [0.5, 0.0, 0.0]
    angular_velocity_radps: [0.0, 0.0, 0.5]
    linear_velocity_mps: [0.0, 0.25, 0.0]
"""


@pytest.fixture
def top_file(tmp_path):
    path = tmp_path / "top.yaml"
    path.write_text(HEAVY_TOP_YAML)
    return str(path)


class TestLoad:
    def test_loads_heavy_top(self, top_file):
        model, state, meta = load_model_file(top_file, "se3")
        assert meta["name"] == "heavy-top"
        assert model.bodies[0].mass == 21.6
        assert model.joints[0].kind == "spherical"
        assert_allclose(state.poses[0].r, [0.5, 0, 0])
        assert_allclose(state.velocities[0], [0, 0, 0.5, 0, 0.25, 0])

    def test_matches_builtin(self, top_file):
        model, state, _ = load_model_file(top_file, "se3")
        spec = bench.build("heavy-top", "se3")
        assert_allclose(model.bodies[0].inertia_ref,
                        spec.model.bodies[0].inertia_ref)
        assert_allclose(state.velocities, spec.state0.velocities)

    def test_velocity_conversion_per_group(self, tmp_path):
        # file velocities are spatial rdot; the body-fixed load rotates them
        doc = yaml.safe_load(HEAVY_TOP_YAML)
        doc["initial_state"][0]["rotation"] = {"rotvec_rad": [0.0, 0.0, 1.2]}
        del doc["joints"]  # unconstrained so any state is feasible
        path = tmp_path / "rot.yaml"
        path.write_text(yaml.safe_dump(doc))
        mb, sb, _ = load_model_file(str(path), "se3")
        mm, sm, _ = load_model_file(str(path), "so3xr3")
        rdot = np.array([0, 0.25, 0])
        assert_allclose(sm.velocities[0, 3:], rdot)
        assert_allclose(sb.poses[0].R @ sb.velocities[0, 3:], rdot, atol=1e-15)


class TestRoundtrip:
    @pytest.mark.parametrize("name", sorted(bench.BUILDERS))
    @pytest.mark.parametrize("group", ["se3", "so3xr3"])
    def test_builtin_roundtrip(self, tmp_path, name, group):
        spec = bench.build(name, group)
        path = tmp_path / "model.yaml"
        write_model_file(str(path), spec.model, spec.state0, name)
        model, state, meta = load_model_file(str(path), group)
        assert meta["name"] == name
        for a, b in zip(model.bodies, spec.model.bodies):
            assert a.name == b.name and a.mass == b.mass
            assert_allclose(a.inertia_ref, b.inertia_ref)
        for a, b in zip(model.joints, spec.model.joints):
            assert (a.kind, a.body_a, a.body_b, a.name) == \
                   (b.kind, b.body_a, b.body_b, b.name)
            assert_allclose(a.anchor_a, b.anchor_a)
            assert_allclose(a.anchor_b, b.anchor_b)
        for a, b in zip(state.poses, spec.state0.poses):
            assert_allclose(a.R, b.R, atol=1e-15)
            assert_allclose(a.r, b.r, atol=1e-15)
        assert_allclose(state.velocities, spec.state0.velocities, atol=1e-14)

    def test_dump_is_valid_yaml(self):
        spec = bench.build("cardan", "se3")
        doc = yaml.safe_load(dump_model(spec.model, spec.state0, "cardan"))
        assert {b["name"] for b in doc["bodies"]} == {"input-shaft", "drive-shaft"}

    @pytest.mark.parametrize("name", sorted(bench.BUILDERS))
    def test_c_loader_matches_pure_python(self, name):
        if not yaml.__with_libyaml__:
            pytest.skip("PyYAML built without libyaml")
        assert modelfile._LOADER is yaml.CSafeLoader
        spec = bench.build(name, "se3")
        text = dump_model(spec.model, spec.state0, name)
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        reference = yaml.safe_load(text)
        assert fast == reference
        assert repr(fast) == repr(reference)

    def test_dump_rejects_duplicate_body_names(self):
        spec = bench.build("double-pendulum", "se3")
        model = spec.model
        model.bodies[1] = replace(model.bodies[1], name=model.bodies[0].name)
        with pytest.raises(ModelFileError, match="duplicate body names"):
            dump_model(model, spec.state0)


class TestErrors:
    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("bodies: [unclosed\n")
        with pytest.raises(yaml.YAMLError):
            load_model_file(str(path), "se3")

    def test_tab_indentation_is_a_parse_error(self, tmp_path):
        path = tmp_path / "tabs.yaml"
        path.write_text("bodies:\n\t- name: a\n\t  mass_kg: 1.0\n")
        with pytest.raises(yaml.YAMLError):
            load_model_file(str(path), "se3")

    def test_non_spd_inertia_names_body(self, tmp_path):
        doc = yaml.safe_load(HEAVY_TOP_YAML)
        doc["bodies"][0]["inertia_kgm2"] = [-1.0, 0.3, 0.1]
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ModelFileError, match="top"):
            load_model_file(str(path), "se3")

    def test_missing_mass_field(self, tmp_path):
        doc = yaml.safe_load(HEAVY_TOP_YAML)
        del doc["bodies"][0]["mass_kg"]
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ModelFileError, match="mass_kg"):
            load_model_file(str(path), "se3")

    def test_unknown_body_reference(self, tmp_path):
        doc = yaml.safe_load(HEAVY_TOP_YAML)
        doc["joints"][0]["body_b"] = "nope"
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ModelFileError, match="nope"):
            load_model_file(str(path), "se3")

    def test_infeasible_velocities_cite_residual(self, tmp_path, top_file):
        doc = yaml.safe_load(HEAVY_TOP_YAML)
        doc["initial_state"][0]["linear_velocity_mps"] = [1.0, 0.0, 0.0]
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(InfeasibleStateError, match="residual"):
            load_model_file(str(path), "se3")
        # the projection flag repairs it
        model, state, _ = load_model_file(str(path), "se3", project=True)
        from screwmbs.dynamics import velocity_residual
        assert velocity_residual(model, state) < 1e-12
