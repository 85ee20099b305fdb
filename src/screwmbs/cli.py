"""Command-line front end: simulate / sweep / verify / list-models.

Every run writes a deterministic CSV (17 significant digits, RFC-4180
quoting is never needed for the numeric payload): time, per-joint position
and orientation residual norms, per-body errors against the analytic
reference where one exists, COM drift where the COM path is known, and the
kinetic/total energies.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np
import yaml

from .bench import BUILDERS, ExperimentSpec, build, estimate_convergence_order
# total_energy is bound here though run_metrics forms the sum itself:
# simbench/tracing.py wraps it under this name
from .dynamics import (  # noqa: F401
    joint_geometry,
    kinetic_energy,
    potential_energy,
    project_velocities,
    stacked_dot,
    total_energy,
)
from .integrate import (
    IntegrationError,
    TrajectoryRecord,
    integrate,
    integrate_quaternion,
    tableau_rk4,
)
from .liealg import GROUPS, rotation_error
from .modelfile import load_model_file

WORKERS_ENV = "SCREWMBS_WORKERS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # invalid configuration exits 1, not 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _norms(x) -> np.ndarray:
    """Euclidean norms of the (N, k) rows of x, each with the bits of
    ``np.linalg.norm`` on the row: the sqrt of one BLAS dot per row."""
    x = np.ascontiguousarray(x)
    return np.sqrt(stacked_dot(x, x))


def run_metrics(spec: ExperimentSpec, record: TrajectoryRecord) -> dict[str, np.ndarray]:
    """The CSV columns of a run in CSV order, each named where it is computed
    as one float64 array over the whole sample axis; ValueError when two
    joints share a label, as their columns would merge.  Every entry has the
    bits of the per-sample evaluation (``tests/oracles.py``): the residual
    kernels run on sample columns with the scalar operations elementwise,
    and each dot product is one BLAS call per sample (``stacked_dot``).  Only
    the analytic references are called per sample."""
    model = spec.model
    rotations, positions = record.rotations, record.positions
    columns = {"t_s": record.times.copy()}  # not a view that pins the record
    times = record.times.tolist()
    if model.joints:
        # the kernels' (R rows, r) poses with (N,) sample columns as entries
        poses = list(zip(np.moveaxis(rotations, 0, -1).copy(),
                         np.moveaxis(positions, 0, -1).copy()))
    for joint in model.joints:
        name = f"{joint.label}_pos_residual_m"
        if name in columns:
            raise ValueError(f"duplicate joint label {joint.label!r}: the CSV "
                             "columns of the two joints would collide")
        pos, ori = joint.split_residual(joint_geometry(joint, poses, model).T)
        columns[name] = _norms(pos)
        if joint.has_orientation:
            columns[f"{joint.label}_ori_residual"] = _norms(ori)
    if spec.reference is not None:
        refs = [spec.reference(t) for t in times]
        for i in range(model.n_bodies):
            columns[f"body{i}_rot_err_rad"] = np.asarray(
                [rotation_error(ref[i].R, rot) for ref, rot in zip(refs, rotations[:, i])])
            columns[f"body{i}_pos_err_m"] = _norms(
                positions[:, i] - np.array([ref[i].r for ref in refs]))
    if spec.com_reference is not None:
        refs = np.array([np.atleast_2d(spec.com_reference(t)) for t in times])
        worst = 0.0
        for i, body in enumerate(model.bodies):
            com = positions[:, i] + np.matmul(rotations[:, i], body.com_offset)
            dist = _norms(com - refs[:, i])
            worst = np.where(dist > worst, dist, worst)  # max(worst, dist): a NaN keeps worst
        columns["com_drift_m"] = worst
    # total_energy(model, record) is this same sum
    ke = kinetic_energy(model, record)
    columns["kinetic_energy_j"] = ke
    columns["total_energy_j"] = ke + potential_energy(model, record) + spec.energy_datum
    return columns


def _row_format(width: int) -> str:
    """The %-format of one CSV row of ``width`` floats, each as ``_fmt``
    writes it."""
    return ",".join(["%.17g"] * width)


def write_run_csv(path, spec: ExperimentSpec, record: TrajectoryRecord) -> dict:
    """Write the run's CSV; returns its columns (``run_metrics``)."""
    columns = run_metrics(spec, record)
    row = _row_format(len(columns))
    lines = [",".join(columns)]
    lines.extend(row % values for values in zip(*(col.tolist() for col in columns.values())))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
    return columns


def _load_spec(args) -> ExperimentSpec:
    if args.model_file:
        model, state, meta = load_model_file(args.model_file, args.group,
                                             project=args.project_velocities)
        spec = ExperimentSpec(meta["name"], model, state, t_final=1.0, dts=(1e-3,))
    else:
        spec = build(args.model, args.group)
        if args.project_velocities:
            spec.state0 = project_velocities(spec.model, spec.state0)
    if args.tf is not None:
        spec.t_final = args.tf
    if args.dt:
        spec.dts = tuple(args.dt)
    return spec


def _out_path(args, spec: ExperimentSpec, dt: float, single: bool) -> str:
    if args.out and single:
        return args.out
    stem = args.out[:-4] if args.out and args.out.endswith(".csv") else (args.out or spec.name)
    return f"{stem}-{spec.model.group.name}-dt{dt:g}.csv"


def _check_steps(args) -> None:
    """Reject a bad or repeated --dt, two dts one CSV name would share (it
    prints dt with %g), and a bad --tf or --stride before any run."""
    steps = [*(args.dt or ()), 1.0 if args.tf is None else args.tf]
    if not all(0.0 < x < math.inf for x in steps) or args.stride < 1:
        raise ValueError("dt and tf must be positive and finite, and stride >= 1")
    for i, dt in enumerate(steps[:-1]):
        if dt in steps[:i]:
            raise ValueError(f"dt = {dt!r} s is given more than once")
        for other in steps[:i]:
            if f"{other:g}" == f"{dt:g}":
                raise ValueError(f"dt = {other!r} s and dt = {dt!r} s both name CSVs dt{dt:g}")


def _check_horizon(t_final: float, dts) -> None:
    """Reject a horizon the step loop would round: dt steps not whole to 1e-9."""
    for dt in dts:
        steps = t_final / dt  # not (...) rejects NaN, and inf before round()
        if not (steps < math.inf and abs(steps - max(1, round(steps))) <= 1e-9 * steps):
            raise ValueError(f"tf = {t_final!r} s is not a whole number of dt = {dt!r} s steps")


def cmd_simulate(args) -> int:
    _check_steps(args)
    out_dir = os.path.dirname(args.out or "")
    if out_dir and not os.path.isdir(out_dir):
        raise ValueError(f"output directory {out_dir!r} does not exist")
    spec = _load_spec(args)
    _check_horizon(spec.t_final, spec.dts)
    single = len(spec.dts) == 1
    for dt in spec.dts:
        if args.param == "quaternion":
            record = integrate_quaternion(spec.model, spec.state0, dt, spec.t_final,
                                          tableau_rk4(), stride=args.stride)
        else:
            record = integrate(spec.model, spec.state0, dt, spec.t_final, tableau_rk4(),
                               stride=args.stride)
        path = _out_path(args, spec, dt, single)
        write_run_csv(path, spec, record)
        print(f"wrote {path} ({record.n_samples} samples)")
    return 0


def _sweep_one(task):
    """Worker: one (model, group, dt) run; returns the summary row."""
    name, group, dt, tf, stride, out_dir = task
    spec = build(name, group)
    if tf:
        spec.t_final = tf
    record = integrate(spec.model, spec.state0, dt, spec.t_final, tableau_rk4(), stride=stride)
    path = os.path.join(out_dir, f"{name}-{group}-dt{dt:g}.csv")
    columns = write_run_csv(path, spec, record)
    max_pos, max_ori = (max([0.0, *(vals.max() for col, vals in columns.items()
                                    if col.endswith(suffix))])
                        for suffix in ("_pos_residual_m", "_ori_residual"))
    energies = columns["total_energy_j"]
    drift = float(np.abs(energies - energies[0]).max())
    return (name, group, dt, max_pos, max_ori, drift)


def cmd_sweep(args) -> int:
    models = args.model or sorted(BUILDERS)
    groups = args.group or ["se3", "so3xr3"]
    _check_steps(args)
    for flag, values in (("--model", models), ("--group", groups)):
        if len(set(values)) < len(values):  # a repeat would rewrite its CSVs
            raise ValueError(f"{flag} {max(values, key=values.count)} is given more than once")
    tasks = []
    for name in models:
        for group in groups:
            spec = build(name, group)
            dts = args.dt or list(spec.dts)
            _check_horizon(args.tf or spec.t_final, dts)
            for dt in dts:
                tasks.append((name, group, dt, args.tf, args.stride, args.out_dir))
    os.makedirs(args.out_dir, exist_ok=True)
    workers = int(os.environ.get(WORKERS_ENV, "0")) or min(4, os.cpu_count() or 1)
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~1.4 MiB: sweep's alone
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(t) for t in tasks]

    # convergence slope of the max position residual per (model, group)
    slopes = {}
    for name in models:
        for group in groups:
            sub = [(r[2], r[3]) for r in rows if r[0] == name and r[1] == group]
            if len(sub) >= 2:
                slopes[name, group] = estimate_convergence_order(
                    [s[0] for s in sub], [s[1] for s in sub])
    path = os.path.join(args.out_dir, "summary.csv")
    with open(path, "w", newline="") as fh:
        fh.write("model,group,dt_s,max_pos_residual_m,max_ori_residual,"
                 "energy_drift_j,residual_order\r\n")
        for name, group, dt, mp, mo, drift in rows:
            slope = slopes.get((name, group))
            stext = "" if slope is None else _fmt(slope)
            fh.write(f"{name},{group},{_fmt(dt)},{_fmt(mp)},{_fmt(mo)},"
                     f"{_fmt(drift)},{stext}\r\n")
    print(f"wrote {path} ({len(rows)} runs)")
    return 0


def cmd_verify(args) -> int:
    # imported here: the checklist's expm oracle pulls in scipy.linalg,
    # which no other command needs before its first KKT solve
    from . import acceptance
    start = time.perf_counter()
    results = acceptance.run_all(report=print)
    elapsed = time.perf_counter() - start
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} criteria passed "
          f"in {elapsed:.0f} s")
    return 1 if failed else 0


def cmd_list_models(args) -> int:
    for name in sorted(BUILDERS):
        spec = build(name, "se3")
        joints = ", ".join(j.kind for j in spec.model.joints) or "unconstrained"
        print(f"{name:24s} {spec.model.n_bodies} bodies; {joints}; "
              f"tf={spec.t_final:g} s; dts={list(spec.dts)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="screwmbs",
                     description="rigid multibody simulation on SE(3) and SO(3)xR3")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one model and write CSV series")
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", choices=sorted(BUILDERS))
    source.add_argument("--model-file", help="path to a YAML model definition")
    sim.add_argument("--group", choices=sorted(GROUPS), default="se3")
    sim.add_argument("--param", choices=["matrix", "quaternion"], default="matrix")
    sim.add_argument("--dt", type=float, action="append",
                     help="step size in s (repeatable)")
    sim.add_argument("--tf", type=float, help="final time in s")
    sim.add_argument("--stride", type=int, default=1)
    sim.add_argument("--out", help="output CSV path (stem when several dts)")
    sim.add_argument("--project-velocities", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="run model x group x dt combinations")
    sweep.add_argument("--model", action="append", choices=sorted(BUILDERS))
    sweep.add_argument("--group", action="append", choices=sorted(GROUPS))
    sweep.add_argument("--dt", type=float, action="append")
    sweep.add_argument("--tf", type=float)
    sweep.add_argument("--stride", type=int, default=1)
    sweep.add_argument("--out-dir", default="sweep-out")
    sweep.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="run the acceptance checklist")
    ver.set_defaults(func=cmd_verify)

    ls = sub.add_parser("list-models", help="list built-in benchmark models")
    ls.set_defaults(func=cmd_list_models)
    return parser


_PARSER = build_parser()  # once per process; argparse keeps no parse state


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except IntegrationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 2
    # ModelFileError and InfeasibleStateError are ValueErrors
    except (ValueError, KeyError, OSError, yaml.YAMLError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
