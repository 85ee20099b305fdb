import csv
import importlib.util
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from oracles import (
    JOINT_DIMS,
    reference_com_drift,
    reference_energy,
    reference_joint_residuals,
    reference_position_error,
    reference_rotation_error,
)
from screwmbs import acceptance, bench, cli
from screwmbs.acceptance import CheckResult
from screwmbs.dynamics import Gravity, MbsModel, MbsState, parallel_axis
from screwmbs.integrate import integrate, integrate_quaternion, tableau_rk4
from screwmbs.liealg import GROUPS, Pose
from screwmbs.modelfile import dump_model, load_model_file


def run_cli(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return cli.main(args)


class TestExitCodes:
    def test_unknown_model_exits_1(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--model", "nope"], tmp_path, monkeypatch)
        assert exc.value.code == 1

    def test_missing_model_exits_1(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--group", "se3"], tmp_path, monkeypatch)
        assert exc.value.code == 1
        assert "one of the arguments --model --model-file is required" in capsys.readouterr().err

    def test_model_and_model_file_exclude_each_other(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "top.yaml"
        spec = bench.build("heavy-top", "se3")
        path.write_text(dump_model(spec.model, spec.state0, "top"))
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--model", "four-bar", "--model-file", str(path),
                     "--tf", "0.01", "--dt", "1e-3"], tmp_path, monkeypatch)
        assert exc.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("project", [[], ["--project-velocities"]], ids=["plain", "projected"])
    def test_joint_to_itself_exits_1(self, tmp_path, monkeypatch, capsys, project):
        # its two Jacobian blocks would share entries: h = 0 for any motion,
        # yet J V = 0 would fail or be projected onto a wrong J
        path = tmp_path / "self.yaml"
        path.write_text("bodies: [{name: b, mass_kg: 1.0, inertia_kgm2: [0.1, 0.1, 0.1]}]\n"
                        "joints: [{kind: spherical, body_a: b, body_b: b}]\n"
                        "initial_state: [{body: b, angular_velocity_radps: [0, 0, 1]}]\n")
        code = run_cli(["simulate", "--model-file", str(path), "--tf", "0.01", *project],
                       tmp_path, monkeypatch)
        assert code == 1
        assert "joints[0]: joint 'spherical0' connects body 0 to itself" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_simulation_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        # a free body spinning fast enough to cross the dexpinv pole in one
        # chart step
        doc = {
            "name": "wild",
            "bodies": [{"name": "b", "mass_kg": 1.0,
                        "inertia_kgm2": [1.0, 1.0, 1.0]}],
            "initial_state": [{"body": "b",
                               "angular_velocity_radps": [50.0, 0, 0]}],
        }
        path = tmp_path / "wild.yaml"
        path.write_text(yaml.safe_dump(doc))
        code = run_cli(["simulate", "--model-file", str(path), "--group", "se3",
                        "--dt", "0.5", "--tf", "5"], tmp_path, monkeypatch)
        assert code == 2
        assert "step" in capsys.readouterr().err

    @pytest.mark.parametrize("param", ["matrix", "quaternion"])
    def test_non_finite_run_exits_2(self, tmp_path, monkeypatch, capsys, param):
        # a NaN in the gravity vector: the run stops at step 1 with a named
        # error instead of writing NaN rows.  The loader rejects a NaN in the
        # file, so the NaN gravity replaces the loaded one.
        doc = {
            "name": "nan-gravity",
            "bodies": [{"name": "b", "mass_kg": 1.0,
                        "inertia_kgm2": [1.0, 1.0, 1.0]}],
            "forces": [{"kind": "gravity", "g_mps2": [0.0, 0.0, -9.81]}],
        }
        path = tmp_path / "nan.yaml"
        path.write_text(yaml.safe_dump(doc))
        load = cli.load_model_file

        def load_nan_gravity(*args, **kwargs):
            model, state, meta = load(*args, **kwargs)
            model = MbsModel(model.bodies, model.joints, [Gravity([math.nan, 0.0, -9.81])],
                             group=model.group)
            return model, state, meta

        monkeypatch.setattr(cli, "load_model_file", load_nan_gravity)
        code = run_cli(["simulate", "--model-file", str(path), "--param", param,
                        "--dt", "1e-3", "--tf", "0.01", "--out", "nan.csv"],
                       tmp_path, monkeypatch)
        assert code == 2
        assert "step 1 " in capsys.readouterr().err
        assert not (tmp_path / "nan.csv").exists()

    def test_infeasible_file_exits_1(self, tmp_path, monkeypatch, capsys):
        doc = {
            "name": "bad",
            "bodies": [{"name": "b", "mass_kg": 1.0,
                        "inertia_kgm2": [1.0, 1.0, 1.0]}],
            "joints": [{"kind": "spherical", "body_a": "ground", "body_b": "b"}],
            "initial_state": [{"body": "b",
                               "linear_velocity_mps": [1.0, 0, 0]}],
        }
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        args = ["simulate", "--model-file", str(path), "--dt", "1e-3", "--tf", "0.1"]
        assert run_cli(args, tmp_path, monkeypatch) == 1
        # with projection the same file simulates fine
        args.append("--project-velocities")
        assert run_cli(args + ["--out", "ok.csv"], tmp_path, monkeypatch) == 0


class TestBadInput:
    """Malformed files and non-positive or infinite times exit 1 with
    "invalid configuration" and write no CSV."""

    @pytest.mark.parametrize("text, names", [
        ("bodies: [\n", "bad.yaml"),               # malformed YAML, cited by file
        ("bodies: [1, 2]\n", "'bodies'"),          # entries are not mappings
        ("bodies:\n", "'bodies'"),                 # empty section
        ("bodies: [{name: b, mass_kg: 1.0, inertia_kgm2: [1, 1, 1]}]\n"
         "initial_state: [b]\n", "'initial_state'"),
        ("bodies: [{name: b, mass_kg: [1, 2], inertia_kgm2: [1, 1, 1]}]\n",
         "bodies[0]: 'mass_kg' must be a number"),
        ("bodies: [{name: b, mass_kg: true, inertia_kgm2: [1, 1, 1]}]\n",
         "bodies[0]: 'mass_kg' must be numeric"),
        ("bodies: [{name: b, mass_kg: 1.0, inertia_kgm2: [1, 1, 1]}]\n"
         "forces: [{kind: linear_spring, body: [b], ground_point_m: [0, 0, 1],"
         " stiffness_n_per_m: 1.0}]\n", "forces[0]: 'body' must be a string"),
        # the name is the CSV stem when --out is not given: a file name only
        ("name: sub/pend\nbodies: [{name: b, mass_kg: 1.0, inertia_kgm2: [1, 1, 1]}]\n",
         "top level: 'name' 'sub/pend' must not contain a path separator"),
        ("name: [a]\nbodies: [{name: b, mass_kg: 1.0, inertia_kgm2: [1, 1, 1]}]\n",
         "top level: 'name' must be a string"),
        # a key the loader does not read, in each section: misspelt, it
        # would be ignored and its default used
        ("joint: [{kind: spherical, body_a: ground, body_b: b}]\n"
         "bodies: [{name: b, mass_kg: 1.0, inertia_kgm2: [1, 1, 1]}]\n",
         "top level: unknown field 'joint'"),
        ("bodies: [{name: b, mass_kg: 1.0, inertia_kgm2: [1, 1, 1], com_offset: [0.3, 0, 0]}]\n",
         "bodies[0]: unknown field 'com_offset'"),
        ("bodies: [{name: b, mass_kg: 1.0, inertia_kgm2: [1, 1, 1]}]\n"
         "joints: [{kind: spherical, body_a: ground, body_b: b, anchor_m: [0, 0, 1]}]\n",
         "joints[0]: unknown field 'anchor_m'"),
        ("bodies: [{name: b, mass_kg: 1.0, inertia_kgm2: [1, 1, 1]}]\n"
         "forces: [{kind: gravity, g_mps2: [0, 0, -9.81], body: b}]\n",
         "forces[0]: unknown field 'body'"),
        ("bodies: [{name: b, mass_kg: 1.0, inertia_kgm2: [1, 1, 1]}]\n"
         "forces: [{kind: linear_spring, body: b, ground_point_m: [0, 0, 1],"
         " stiffness: 1.0}]\n", "forces[0]: unknown field 'stiffness'"),
        ("bodies: [{name: b, mass_kg: 1.0, inertia_kgm2: [1, 1, 1]}]\n"
         "joints: [{kind: spherical, body_a: ground, body_b: b, axis_a: [0, 0, 2.0],"
         " axis_b: [0, 0, 1]}]\n",
         "joints[0]: spherical joint takes no axis_a or axis_b"),
        ("bodies: [{name: b, mass_kg: 1.0, inertia_kgm2: [1, 1, 1]}]\n"
         "initial_state: [{body: b, angular_velocity: [0, 0, 1]}]\n",
         "initial_state[0]: unknown field 'angular_velocity'"),
        ("bodies: [{name: b, mass_kg: 1.0, inertia_kgm2: [1, 1, 1]}]\n"
         "initial_state: [{body: b, rotation: {rotvec: [0, 0, 1]}}]\n",
         "initial_state[0]: 'rotation': unknown field 'rotvec'"),
    ], ids=["malformed", "non-mapping", "empty", "non-mapping-state", "list-mass",
            "boolean-mass", "list-reference", "path-name", "list-name", "unknown-top-level",
            "unknown-body-field", "unknown-joint-field", "unknown-gravity-field",
            "unknown-spring-field", "spherical-axes", "unknown-state-field",
            "unknown-rotation-field"])
    def test_model_file(self, tmp_path, monkeypatch, capsys, text, names):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        code = run_cli(["simulate", "--model-file", str(path), "--tf", "0.01",
                        "--out", "bad.csv"], tmp_path, monkeypatch)
        err = capsys.readouterr().err
        assert code == 1
        assert "invalid configuration" in err and names in err
        assert not list(tmp_path.glob("*.csv"))

    # an infinite --tf has no step count, an infinite --dt no step
    STEPS = [("--tf", "0"), ("--tf", "-1"), ("--tf", "inf"), ("--dt", "inf")]

    @pytest.mark.parametrize("flag, value", STEPS)
    def test_simulate_bad_step(self, tmp_path, monkeypatch, capsys, flag, value):
        code = run_cli(["simulate", "--model", "heavy-top", flag, value,
                        "--out", "ht.csv"], tmp_path, monkeypatch)
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("flag, value", STEPS)
    def test_sweep_bad_step(self, tmp_path, monkeypatch, capsys, flag, value):
        args = {"--dt": "1e-2", "--tf": "0.01", flag: value}
        code = run_cli(["sweep", "--model", "heavy-top", "--group", "se3",
                        *(x for item in args.items() for x in item), "--out-dir", "out"],
                       tmp_path, monkeypatch)
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    # 0.001 parses to the same float as 1e-3: the same step size
    @pytest.mark.parametrize("dts", [("1e-3", "1e-3"), ("1e-3", "2e-3", "0.001")])
    def test_simulate_repeated_dt(self, tmp_path, monkeypatch, capsys, dts):
        code = run_cli(["simulate", "--model", "heavy-top", "--tf", "0.01",
                        *(x for dt in dts for x in ("--dt", dt)), "--out", "ht.csv"],
                       tmp_path, monkeypatch)
        assert code == 1
        assert "dt = 0.001 s is given more than once" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_sweep_repeated_dt(self, tmp_path, monkeypatch, capsys):
        # two workers would write one CSV from two processes
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        code = run_cli(["sweep", "--model", "heavy-top", "--group", "so3xr3",
                        "--dt", "1e-3", "--dt", "1e-3", "--tf", "0.01", "--out-dir", "out"],
                       tmp_path, monkeypatch)
        assert code == 1
        assert "dt = 0.001 s is given more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # distinct floats that print alike with %g: one would overwrite the other's CSV
    NEAR_DTS = ("--dt", "0.001", "--dt", "0.001000000000001")
    NEAR_DT_ERROR = "dt = 0.001 s and dt = 0.001000000000001 s both name CSVs dt0.001"

    def test_simulate_dts_sharing_a_csv_name(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["simulate", "--model", "heavy-top", *self.NEAR_DTS, "--tf", "0.01",
                        "--out", "ht.csv"], tmp_path, monkeypatch)
        assert code == 1
        assert self.NEAR_DT_ERROR in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_sweep_dts_sharing_a_csv_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        code = run_cli(["sweep", "--model", "heavy-top", "--group", "se3", *self.NEAR_DTS,
                        "--tf", "0.01", "--out-dir", "out"], tmp_path, monkeypatch)
        assert code == 1
        assert self.NEAR_DT_ERROR in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--model", "heavy-top"), ("--group", "se3")])
    def test_sweep_repeated_model_or_group(self, tmp_path, monkeypatch, capsys, flag, value):
        # the repeated combination would write one CSV path twice
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        args = {"--model": "heavy-top", "--group": "se3"}
        code = run_cli(["sweep", *(x for item in args.items() for x in item), flag, value,
                        "--dt", "1e-3", "--tf", "0.01", "--out-dir", "out"],
                       tmp_path, monkeypatch)
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err and f"{flag} {value} is given more than once" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("param", ["matrix", "quaternion"])
    def test_missing_out_dir_fails_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                  param):
        def never(*args, **kwargs):
            raise AssertionError("integrated before checking the output directory")

        monkeypatch.setattr(cli, "integrate", never)
        monkeypatch.setattr(cli, "integrate_quaternion", never)
        for dts in (["1e-3"], ["1e-3", "2e-3"]):  # the --out path, then its stem
            code = run_cli(["simulate", "--model", "heavy-top", "--param", param,
                            "--tf", "0.01", *(x for dt in dts for x in ("--dt", dt)),
                            "--out", os.path.join("missing", "ht.csv")],
                           tmp_path, monkeypatch)
            assert code == 1
            assert "output directory 'missing' does not exist" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()


class TestHorizon:
    """A horizon that is not a whole number of steps would be rounded to one
    by the step loop, silently changing it; it is an invalid configuration."""

    # a dt so small that tf / dt overflows has no whole step count either
    @pytest.mark.parametrize("dt, tf", [("1e-3", "0.0015"), ("1e-3", "0.0004"), ("1e-320", "1")])
    def test_simulate_partial_step_exits_1(self, tmp_path, monkeypatch, capsys, dt, tf):
        code = run_cli(["simulate", "--model", "heavy-top", "--dt", dt, "--tf", tf,
                        "--out", "ht.csv"], tmp_path, monkeypatch)
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_simulate_checks_every_dt_before_writing(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["simulate", "--model", "heavy-top", "--dt", "1e-3", "--dt", "3e-3",
                        "--tf", "0.01", "--out", "ht.csv"], tmp_path, monkeypatch)
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_sweep_partial_step_exits_1(self, tmp_path, monkeypatch, capsys):
        # the default dts of heavy-top start at 1e-2: half a step
        code = run_cli(["sweep", "--model", "heavy-top", "--group", "se3", "--tf", "0.005",
                        "--out-dir", "out"], tmp_path, monkeypatch)
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("group", ["se3", "so3xr3"])
    def test_builtin_horizons_accepted(self, group):
        # cardan's 1.2 s at 1e-4 is 11999.999999999998 steps in floats
        for name in bench.BUILDERS:
            spec = bench.build(name, group)
            cli._check_horizon(spec.t_final, spec.dts)

    def test_simbench_horizons_accepted(self, tmp_path, monkeypatch):
        # every simbench job's --dt/--tf pair, run on the built-in model
        # (the benchmark's model files differ only in initial velocities)
        path = Path(__file__).resolve().parents[1] / "simbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("simbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        for variants in workloads.WORKLOADS.values():
            for variant in variants:
                argv = workloads.Job(variant, "se3", 0).argv(str(tmp_path))
                dt, tf = (argv[argv.index(flag) + 1] for flag in ("--dt", "--tf"))
                assert run_cli(["simulate", "--model", variant.model, "--param", variant.chart,
                                "--dt", dt, "--tf", tf, "--stride", str(variant.stride),
                                "--out", "job.csv"], tmp_path, monkeypatch) == 0


class TestSimulateCsv:
    def test_heavy_top_row_count(self, tmp_path, monkeypatch):
        code = run_cli(["simulate", "--model", "heavy-top", "--group", "se3",
                        "--dt", "1e-3", "--tf", "8", "--out", "ht.csv"],
                       tmp_path, monkeypatch)
        assert code == 0
        with open(tmp_path / "ht.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 8002  # header + 8001 samples
        assert rows[0] == ["t_s", "pivot_pos_residual_m", "kinetic_energy_j",
                           "total_energy_j"]

    def test_com_column_identically_zero(self, tmp_path, monkeypatch):
        code = run_cli(["simulate", "--model", "free-body-com", "--group",
                        "so3xr3", "--dt", "1e-2", "--tf", "10", "--out", "fb.csv"],
                       tmp_path, monkeypatch)
        assert code == 0
        with open(tmp_path / "fb.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            assert all(row["com_drift_m"] == "0" for row in reader)

    def test_deterministic_bytes(self, tmp_path, monkeypatch):
        args = ["simulate", "--model", "double-pendulum", "--group", "so3xr3",
                "--dt", "1e-3", "--tf", "0.05"]
        run_cli(args + ["--out", "a.csv"], tmp_path, monkeypatch)
        run_cli(args + ["--out", "b.csv"], tmp_path, monkeypatch)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_golden_headers(self, tmp_path, monkeypatch):
        run_cli(["simulate", "--model", "rp-chain", "--group", "se3",
                 "--dt", "1e-3", "--tf", "0.01", "--out", "rp.csv"],
                tmp_path, monkeypatch)
        header = (tmp_path / "rp.csv").read_text().splitlines()[0]
        assert header == ("t_s,revolute1_pos_residual_m,revolute1_ori_residual,"
                          "prismatic2_pos_residual_m,prismatic2_ori_residual,"
                          "kinetic_energy_j,total_energy_j")

    def test_quaternion_param(self, tmp_path, monkeypatch):
        code = run_cli(["simulate", "--model", "heavy-top", "--group", "se3",
                        "--param", "quaternion", "--dt", "1e-3", "--tf", "0.05",
                        "--out", "q.csv"], tmp_path, monkeypatch)
        assert code == 0
        assert (tmp_path / "q.csv").exists()

    def test_multiple_dts_suffixed(self, tmp_path, monkeypatch):
        run_cli(["simulate", "--model", "heavy-top", "--dt", "1e-2",
                 "--dt", "5e-3", "--tf", "0.05", "--out", "ht.csv"],
                tmp_path, monkeypatch)
        assert (tmp_path / "ht-se3-dt0.01.csv").exists()
        assert (tmp_path / "ht-se3-dt0.005.csv").exists()

    def test_successive_calls_share_no_parser_state(self, tmp_path, monkeypatch,
                                                    capsys):
        # main reuses one parser per process; a repeatable --dt must start
        # empty on every call, so the second run sees only its own values
        base = ["simulate", "--model", "heavy-top", "--tf", "0.02"]
        assert run_cli(base + ["--dt", "1e-2", "--dt", "5e-3", "--out", "a.csv"],
                       tmp_path, monkeypatch) == 0
        assert run_cli(base + ["--dt", "4e-3", "--out", "b.csv"],
                       tmp_path, monkeypatch) == 0
        assert run_cli(base + ["--out", "c.csv"], tmp_path, monkeypatch) == 0
        written = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
        # without --dt the model's own step sizes apply
        defaults = [f"c-se3-dt{dt:g}.csv" for dt in bench.build("heavy-top", "se3").dts]
        assert written == ["a-se3-dt0.01.csv", "a-se3-dt0.005.csv", "b.csv", *defaults]
        with open(tmp_path / "b.csv") as fh:
            assert len(fh.read().splitlines()) == 1 + 6   # t = 0, 4e-3, ..., 0.02


def _same_bytes(values, reference):
    """Equal IEEE bytes: -0.0 differs from 0.0 and NaN matches NaN."""
    assert np.asarray(values, dtype=float).tobytes() == np.asarray(reference, dtype=float).tobytes()


# records of a 20-step RK4 run: the matrix and quaternion charts, every
# third step (plus the last), and the initial state alone
RECORDS = {
    "matrix": lambda spec: integrate(spec.model, spec.state0, 1e-3, 0.02, tableau_rk4()),
    "quaternion": lambda spec: integrate_quaternion(spec.model, spec.state0, 1e-3, 0.02,
                                                    tableau_rk4()),
    "stride-3": lambda spec: integrate(spec.model, spec.state0, 1e-3, 0.02, tableau_rk4(),
                                       stride=3),
    "one-sample": lambda spec: integrate(spec.model, spec.state0, 1e-3, 0.0, tableau_rk4()),
}

# two chained bodies, both off their COM, on a spring and under a gravity
# vector with three nonzero entries, so that the order of g . com shows
OFF_COM_SPRING_DOC = {
    "name": "off-com-spring",
    "bodies": [{"name": "arm", "mass_kg": 2.0, "inertia_kgm2": [0.3, 0.2, 0.25],
                "com_offset_m": [0.25, 0.0, 0.01]},
               {"name": "tip", "mass_kg": 0.7, "inertia_kgm2": [0.05, 0.04, 0.03],
                "com_offset_m": [0.1, 0.02, 0.0]}],
    "joints": [{"kind": "spherical", "name": "root", "body_a": "ground", "body_b": "arm"},
               {"kind": "spherical", "name": "elbow", "body_a": "arm", "body_b": "tip",
                "anchor_a_m": [0.5, 0.0, 0.0]}],
    "forces": [{"kind": "gravity", "g_mps2": [0.7, -0.4, -9.78]},
               {"kind": "linear_spring", "body": "tip", "attach_m": [0.1, 0.0, 0.05],
                "ground_point_m": [1.0, 0.0, 0.0], "stiffness_n_per_m": 50.0}],
    "initial_state": [{"body": "arm", "angular_velocity_radps": [0.3, -1.2, 2.0]},
                      {"body": "tip", "position_m": [0.5, 0.0, 0.0],
                       "angular_velocity_radps": [-1.0, 0.5, 3.0]}],
}


def _at_rest_spec(group: str) -> bench.ExperimentSpec:
    """Three free bodies under a zero gravity vector with a -0.0 entry; the
    first, off its COM, rests with -0.0 velocities, so its energy terms are
    signed zeros."""
    box = bench.aluminium_box("box", 0.8, 0.4, 0.1)
    off = replace(box, name="box_p", com_offset=np.array([0.4, 0.0, 0.0]),
                  inertia_ref=parallel_axis(box.inertia_ref, box.mass, [0.4, 0.0, 0.0]))
    model = MbsModel([off, box, box], [], [Gravity([0.0, 0.0, -0.0])],
                     group=GROUPS[group])
    velocities = np.array([[-0.0] * 6, [1.0, -2.0, 0.5, 0.0, 0.0, 0.0],
                           [0.0, 0.0, 0.0, 3.0, -1.0, 0.25]])
    state = MbsState([Pose.identity()] * 3, velocities)
    return bench.ExperimentSpec("at-rest", model, state, 0.02)


def _metrics_spec(name: str, group: str, tmp_path) -> bench.ExperimentSpec:
    if name == "at-rest":
        return _at_rest_spec(group)
    if name == "off-com-spring":
        path = tmp_path / "off-com-spring.yaml"
        path.write_text(yaml.safe_dump(OFF_COM_SPRING_DOC))
        model, state, _ = load_model_file(str(path), group, project=True)
        return bench.ExperimentSpec(name, model, state, 0.02)
    return bench.build(name, group)


class TestRunMetrics:
    """The column pass equals the per-sample reference loops, as IEEE bytes."""

    @staticmethod
    def check_columns(spec, record):
        model = spec.model
        cols = cli.run_metrics(spec, record)
        checked = ["t_s"]  # the names below, in CSV order: no column goes unchecked
        _same_bytes(cols["t_s"], record.times)
        for j, joint in enumerate(model.joints):
            pos, ori = reference_joint_residuals(record, model, j)
            _same_bytes(cols[f"{joint.label}_pos_residual_m"], pos)
            _same_bytes(cols.get(f"{joint.label}_ori_residual", [0.0] * len(ori)), ori)
            checked.append(f"{joint.label}_pos_residual_m")
            if JOINT_DIMS[joint.kind] > 3:
                checked.append(f"{joint.label}_ori_residual")
        if spec.reference is not None:
            for i in range(model.n_bodies):
                _same_bytes(cols[f"body{i}_rot_err_rad"],
                            reference_rotation_error(record, spec.reference, i))
                _same_bytes(cols[f"body{i}_pos_err_m"],
                            reference_position_error(record, spec.reference, i))
                checked += [f"body{i}_rot_err_rad", f"body{i}_pos_err_m"]
        if spec.com_reference is not None:
            _same_bytes(cols["com_drift_m"],
                        reference_com_drift(record, model, spec.com_reference))
            checked.append("com_drift_m")
        kin, tot = reference_energy(record, model, spec.energy_datum)
        _same_bytes(cols["kinetic_energy_j"], kin)
        _same_bytes(cols["total_energy_j"], tot)
        assert list(cols) == [*checked, "kinetic_energy_j", "total_energy_j"]

    @pytest.mark.parametrize("name", sorted(bench.BUILDERS))
    @pytest.mark.parametrize("group", ["se3", "so3xr3"])
    def test_columns_match_metric_functions(self, name, group):
        spec = bench.build(name, group)
        self.check_columns(spec, RECORDS["matrix"](spec))

    @pytest.mark.parametrize("name, kind", [
        *((name, kind) for name in sorted(bench.BUILDERS) for kind in list(RECORDS)[1:]),
        *((name, kind) for name in ("off-com-spring", "at-rest") for kind in RECORDS)])
    @pytest.mark.parametrize("group", ["se3", "so3xr3"])
    def test_columns_match_on_every_record(self, tmp_path, group, name, kind):
        """Quaternion-chart, strided and one-sample records, and two models
        no built-in covers: off-COM bodies on a spring in the mixed
        representation, and a body at rest."""
        spec = _metrics_spec(name, group, tmp_path)
        self.check_columns(spec, RECORDS[kind](spec))

    @pytest.mark.parametrize("name", sorted(bench.BUILDERS))
    @pytest.mark.parametrize("group", ["se3", "so3xr3"])
    @pytest.mark.parametrize("chart", ["matrix", "quaternion"])
    def test_csv_header_is_the_column_names(self, tmp_path, name, group, chart):
        """The CSV header is ``run_metrics``' names in order, and each column
        is a float64 array with one entry per sample."""
        spec = bench.build(name, group)
        record = RECORDS[chart](spec)
        cols = cli.run_metrics(spec, record)
        cli.write_run_csv(tmp_path / "run.csv", spec, record)
        with open(tmp_path / "run.csv", newline="") as fh:
            lines = fh.read().split("\r\n")
        assert lines[0].split(",") == list(cols)
        assert len(lines) == 1 + record.n_samples + 1  # the last line ends in CRLF
        for col in cols.values():
            assert type(col) is np.ndarray
            assert col.dtype == np.float64
            assert col.shape == (record.n_samples,)

    @pytest.mark.parametrize("value", [0.0, -0.0, math.inf, -math.inf, math.nan,
                                       5e-324, -2.2250738585072e-308, float(2**53 + 1),
                                       2**53 + 1, 0.1, -1 / 3, 1e300, 12345.0])
    def test_row_format_writes_fmt(self, value):
        row = [value, 1.5, value]
        assert cli._row_format(len(row)) % tuple(row) == ",".join(map(cli._fmt, row))

    @pytest.mark.parametrize("group", ["se3", "so3xr3"])
    def test_residual_columns_follow_the_kind_table(self, group):
        """Each joint has a position column and, when its kind has more
        than three residual entries, an orientation column."""
        for name in bench.BUILDERS:
            spec = bench.build(name, group)
            expect = []
            for joint in spec.model.joints:
                expect.append(f"{joint.label}_pos_residual_m")
                if JOINT_DIMS[joint.kind] > 3:
                    expect.append(f"{joint.label}_ori_residual")
            cols = cli.run_metrics(spec, RECORDS["one-sample"](spec))
            assert [c for c in cols if "_residual" in c] == expect


class TestDuplicateJointLabels:
    """Two joints with one label would share CSV columns: the second
    joint's series would silently replace the first's."""

    DOC = {
        "name": "twin-balls",
        "bodies": [{"name": "link1", "mass_kg": 2.7, "inertia_kgm2": [1.0, 1.0, 1.0]},
                   {"name": "link2", "mass_kg": 2.7, "inertia_kgm2": [1.0, 1.0, 1.0]}],
        "joints": [{"kind": "spherical", "name": "ball", "body_a": "ground",
                    "body_b": "link1", "anchor_b_m": [-0.1, 0, 0]},
                   {"kind": "spherical", "name": "ball", "body_a": "link1",
                    "body_b": "link2", "anchor_a_m": [0.1, 0, 0],
                    "anchor_b_m": [-0.1, 0, 0]}],
        "initial_state": [{"body": "link1", "position_m": [0.1, 0, 0]},
                          {"body": "link2", "position_m": [0.3, 0, 0]}],
    }

    def test_simulate_exits_1_without_csv(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "twins.yaml"
        path.write_text(yaml.safe_dump(self.DOC))
        code = run_cli(["simulate", "--model-file", str(path), "--dt", "1e-3",
                        "--tf", "0.01", "--out", "twins.csv"], tmp_path, monkeypatch)
        assert code == 1
        assert "duplicate joint name 'ball'" in capsys.readouterr().err
        assert not (tmp_path / "twins.csv").exists()

    @pytest.mark.parametrize("names, label", [(("joint1", "joint1"), "joint1"),
                                              (("", ""), "spherical")])
    def test_run_metrics_names_the_label(self, tmp_path, names, label):
        # an unnamed joint is labelled by its kind
        spec = bench.build("double-pendulum", "se3")
        spec.model = replace(spec.model, joints=[replace(j, name=n) for j, n
                                                 in zip(spec.model.joints, names)])
        record = integrate(spec.model, spec.state0, 1e-3, 0.002, tableau_rk4())
        with pytest.raises(ValueError, match=f"duplicate joint label '{label}'"):
            cli.run_metrics(spec, record)
        with pytest.raises(ValueError, match=f"duplicate joint label '{label}'"):
            cli.write_run_csv(tmp_path / "dp.csv", spec, record)
        assert not (tmp_path / "dp.csv").exists()


def test_jointless_simulate_never_imports_scipy_linalg(tmp_path):
    """scipy.linalg (about half of the import time) loads at the first KKT
    solve, which a model without joints never reaches."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = textwrap.dedent(f"""
        import sys
        from screwmbs import cli
        rc = cli.main(["simulate", "--model", "free-body-offset", "--dt", "1e-3",
                       "--tf", "0.01", "--out", {str(tmp_path / "fb.csv")!r}])
        assert rc == 0, rc
        assert "scipy.linalg" not in sys.modules, "scipy.linalg was imported"
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _python_ok(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ``screwmbs``; it must exit 0."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestLeanLapack:
    """The KKT solve binds LAPACK dgesv from ``scipy.linalg._flapack`` alone,
    and only ``sweep`` imports the process pool: a jointed ``simulate``
    loads neither the ``scipy.linalg`` package nor ``multiprocessing``."""

    @pytest.mark.parametrize("source", ["heavy-top", "four-bar-file"])
    def test_jointed_simulate_loads_no_linalg_package_or_pool(self, tmp_path, source):
        if source == "four-bar-file":
            spec = bench.build("four-bar", "se3")
            path = tmp_path / "four-bar.yaml"
            path.write_text(dump_model(spec.model, spec.state0, "four-bar"))
            model = ["--model-file", str(path)]
        else:
            model = ["--model", source]
        _python_ok(f"""
            import sys
            from screwmbs import cli, dynamics
            rc = cli.main(["simulate", *{model!r}, "--dt", "1e-3", "--tf", "0.01",
                           "--out", {str(tmp_path / "run.csv")!r}])
            assert rc == 0, rc
            assert dynamics._dgesv is not None, "no KKT solve ran"
            loaded = [m for m in ("scipy.linalg", "concurrent.futures.process",
                                  "multiprocessing") if m in sys.modules]
            assert not loaded, loaded
        """)

    @pytest.mark.parametrize("first", ["solve", "package"])
    def test_bound_dgesv_is_scipy_lapack_dgesv(self, first):
        solve = """
            from screwmbs import bench, dynamics, integrate
            spec = bench.build("heavy-top", "se3")
            integrate.integrate(spec.model, spec.state0, 1e-3, 2e-3, integrate.tableau_rk4())
        """
        package = """
            import scipy.linalg.lapack
        """
        _python_ok((solve + package if first == "solve" else package + solve) + """
            assert dynamics._dgesv is scipy.linalg.lapack.dgesv
            assert dynamics._load_dgesv() is dynamics._dgesv
        """)

    def test_linalg_package_works_after_lean_load(self):
        _python_ok("""
            import numpy as np
            from screwmbs import bench, dynamics, liealg
            spec = bench.build("heavy-top", "se3")
            kkt, rhs = dynamics.assemble_index1(spec.model, spec.state0.poses,
                                                spec.state0.velocities)
            vdot, _ = dynamics.solve_index1(spec.model, kkt, rhs)
            import scipy.linalg
            w = np.array([0.3, -0.4, 0.5])
            assert np.allclose(scipy.linalg.expm(liealg.hat3(w)), liealg.so3_exp(w),
                               rtol=0, atol=1e-15)
            x = np.linalg.solve(kkt, rhs)
            assert np.allclose(x[:6], vdot.reshape(-1), rtol=0, atol=1e-12)
            *_, sol, info = scipy.linalg.lapack.dgesv(kkt, rhs)
            assert info == 0 and np.array_equal(sol[:6], vdot.reshape(-1))
        """)

    def test_missing_extension_names_its_path(self, tmp_path):
        _python_ok(f"""
            import os, scipy
            from screwmbs import dynamics
            scipy.__path__ = [{str(tmp_path)!r}]
            try:
                dynamics._load_dgesv()
            except ImportError as exc:
                assert os.path.join({str(tmp_path)!r}, "linalg", "_flapack") in str(exc), exc
            else:
                raise AssertionError("no ImportError")
        """)


class TestSweep:
    def test_summary_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
        code = run_cli(["sweep", "--model", "double-pendulum", "--dt", "1e-2",
                        "--dt", "5e-3", "--dt", "2e-3", "--tf", "0.05",
                        "--out-dir", "out"], tmp_path, monkeypatch)
        assert code == 0
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # 3 dt rows per (model, group) combination
        assert len(rows) == 6
        for g in ("se3", "so3xr3"):
            assert sum(r["group"] == g for r in rows) == 3
        assert (tmp_path / "out" / "double-pendulum-se3-dt0.01.csv").exists()


class TestVerifyContract:
    def test_exit_zero_when_all_pass(self, tmp_path, monkeypatch, capsys):
        fake = [CheckResult("1 fake", True, "ok")]

        def fake_run_all(report=None):
            for r in fake:
                if report:
                    report(r.line())
            return fake

        monkeypatch.setattr(acceptance, "run_all", fake_run_all)
        assert run_cli(["verify"], tmp_path, monkeypatch) == 0
        assert "PASS" in capsys.readouterr().out

    def test_exit_nonzero_on_fail(self, tmp_path, monkeypatch, capsys):
        fake = [CheckResult("1 fake", True, "ok"),
                CheckResult("2 fake", False, "broken")]
        monkeypatch.setattr(acceptance, "run_all",
                            lambda report=None: fake)
        assert run_cli(["verify"], tmp_path, monkeypatch) == 1


class TestListModels:
    def test_lists_all(self, tmp_path, monkeypatch, capsys):
        assert run_cli(["list-models"], tmp_path, monkeypatch) == 0
        out = capsys.readouterr().out
        for name in ("heavy-top", "four-bar", "rp-chain", "cardan"):
            assert name in out
