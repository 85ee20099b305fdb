import csv
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import yaml

from screwmbs import acceptance, bench, cli
from screwmbs.acceptance import CheckResult
from screwmbs.dynamics import kinetic_energy, total_energy
from screwmbs.integrate import integrate


def run_cli(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return cli.main(args)


class TestExitCodes:
    def test_unknown_model_exits_1(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--model", "nope"], tmp_path, monkeypatch)
        assert exc.value.code == 1

    def test_missing_model_exits_1(self, tmp_path, monkeypatch, capsys):
        code = run_cli(["simulate", "--group", "se3"], tmp_path, monkeypatch)
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err

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


class TestRunMetrics:
    """The one-pass CSV columns equal the tested bench.metric_* series."""

    @pytest.mark.parametrize("name", sorted(bench.BUILDERS))
    @pytest.mark.parametrize("group", ["se3", "so3xr3"])
    def test_columns_match_metric_functions(self, name, group):
        spec = bench.build(name, group)
        model = spec.model
        record = integrate(model, spec.group, spec.state0, 1e-3, 0.02, spec.tableau)
        cols = cli.run_metrics(spec, record)
        assert list(cols) == cli.csv_columns(spec)
        assert cols["t_s"] == record.times.tolist()
        for j, joint in enumerate(model.joints):
            label = joint.name or joint.kind
            pos, ori = bench.metric_joint_residuals(record, model, j)
            assert cols[f"{label}_pos_residual_m"] == pos.values.tolist()
            assert cols.get(f"{label}_ori_residual", [0.0] * len(ori.values)) \
                == ori.values.tolist()
        if spec.reference is not None:
            for i in range(model.n_bodies):
                assert cols[f"body{i}_rot_err_rad"] == bench.metric_rotation_error(
                    record, spec.reference, i).values.tolist()
                assert cols[f"body{i}_pos_err_m"] == bench.metric_position_error(
                    record, spec.reference, i).values.tolist()
        if spec.com_reference is not None:
            assert cols["com_drift_m"] == bench.metric_com_drift(
                record, model, spec.com_reference).values.tolist()
        states = [record.state_at(k) for k in range(record.n_samples)]
        assert cols["kinetic_energy_j"] == [kinetic_energy(model, s) for s in states]
        assert cols["total_energy_j"] == [total_energy(model, s) + spec.energy_datum
                                          for s in states]


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
