"""Command-line front end: simulate / sweep / verify / list-models.

Every run writes a deterministic CSV (17 significant digits, RFC-4180
quoting is never needed for the numeric payload): time, per-joint position
and orientation residual norms, per-body errors against the analytic
reference where one exists, COM drift where the COM path is known, and the
kinetic/total energies.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bench import BUILDERS, ExperimentSpec, build, estimate_convergence_order
# total_energy is bound here though run_metrics forms the sum itself:
# simbench/tracing.py wraps it under this name
from .dynamics import (  # noqa: F401
    InfeasibleStateError,
    joint_geometry,
    kinetic_energy,
    potential_energy,
    project_velocities,
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
from .modelfile import ModelFileError, load_model_file

WORKERS_ENV = "SCREWMBS_WORKERS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # invalid configuration exits 1, not 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def csv_columns(spec: ExperimentSpec) -> list[str]:
    """Column set: a pure function of the model and available references."""
    cols = ["t_s"]
    for joint in spec.model.joints:
        label = joint.name or joint.kind
        cols.append(f"{label}_pos_residual_m")
        if joint.dim > 3 or joint.kind == "prismatic":
            cols.append(f"{label}_ori_residual")
    if spec.reference is not None:
        for i in range(spec.model.n_bodies):
            cols.append(f"body{i}_rot_err_rad")
            cols.append(f"body{i}_pos_err_m")
    if spec.com_reference is not None:
        cols.append("com_drift_m")
    cols.append("kinetic_energy_j")
    cols.append("total_energy_j")
    return cols


def run_metrics(spec: ExperimentSpec, record: TrajectoryRecord) -> dict[str, list[float]]:
    """The CSV columns of a run, by name in ``csv_columns`` order, in one
    pass over the samples: each joint residual is evaluated and split once,
    and so is the kinetic energy, which the total reuses."""
    model = spec.model
    offsets = [b.com_offset for b in model.bodies]
    rows = []
    for k in range(record.n_samples):
        t = float(record.times[k])
        state = record.state_at(k)
        row = [t]
        for joint in model.joints:
            pos, ori = joint.split_residual(joint_geometry(joint, state.poses, model))
            row.append(float(np.linalg.norm(pos)))
            if len(ori):
                row.append(float(np.linalg.norm(ori)))
        if spec.reference is not None:
            refs = spec.reference(t)
            for i in range(model.n_bodies):
                row.append(rotation_error(refs[i].R, record.rotations[k, i]))
                row.append(float(np.linalg.norm(record.positions[k, i] - refs[i].r)))
        if spec.com_reference is not None:
            ref = np.atleast_2d(spec.com_reference(t))
            worst = 0.0
            for i, r0 in enumerate(offsets):
                com = record.positions[k, i] + record.rotations[k, i] @ r0
                worst = max(worst, float(np.linalg.norm(com - ref[i])))
            row.append(worst)
        # total_energy(model, state) is this same sum
        ke = kinetic_energy(model, state)
        row.append(ke)
        row.append(ke + potential_energy(model, state) + spec.energy_datum)
        rows.append(row)
    return dict(zip(csv_columns(spec), map(list, zip(*rows))))


def write_run_csv(path, spec: ExperimentSpec, record: TrajectoryRecord) -> dict:
    """Write the run's CSV; returns its columns (``run_metrics``)."""
    columns = run_metrics(spec, record)
    lines = [",".join(columns)]
    lines.extend(",".join(map(_fmt, row)) for row in zip(*columns.values()))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
    return columns


def _load_spec(args) -> ExperimentSpec:
    if args.model_file:
        model, state, meta = load_model_file(args.model_file, args.group,
                                             project=args.project_velocities)
        return ExperimentSpec(meta["name"], GROUPS[args.group], model, state,
                              t_final=args.tf or 1.0,
                              dts=tuple(args.dt) if args.dt else (1e-3,))
    if not args.model:
        raise ValueError("either --model or --model-file is required")
    spec = build(args.model, args.group)
    if args.project_velocities:
        spec.state0 = project_velocities(spec.model, spec.state0)
    if args.tf:
        spec.t_final = args.tf
    if args.dt:
        spec.dts = tuple(args.dt)
    return spec


def _out_path(args, spec: ExperimentSpec, dt: float, single: bool) -> str:
    if args.out and single:
        return args.out
    stem = args.out[:-4] if args.out and args.out.endswith(".csv") else (args.out or spec.name)
    return f"{stem}-{spec.group.name}-dt{dt:g}.csv"


def cmd_simulate(args) -> int:
    spec = _load_spec(args)
    single = len(spec.dts) == 1
    for dt in spec.dts:
        if dt <= 0 or spec.t_final <= 0 or args.stride < 1:
            raise ValueError("dt and tf must be positive and stride >= 1")
        if args.param == "quaternion":
            record = integrate_quaternion(spec.model, spec.group, spec.state0,
                                          dt, spec.t_final, spec.tableau,
                                          stride=args.stride)
        else:
            record = integrate(spec.model, spec.group, spec.state0, dt,
                               spec.t_final, spec.tableau, stride=args.stride)
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
    record = integrate(spec.model, spec.group, spec.state0, dt, spec.t_final,
                       spec.tableau, stride=stride)
    path = os.path.join(out_dir, f"{name}-{group}-dt{dt:g}.csv")
    columns = write_run_csv(path, spec, record)
    pos = [v for col, vals in columns.items() if col.endswith("_pos_residual_m")
           for v in vals]
    ori = [v for col, vals in columns.items() if col.endswith("_ori_residual")
           for v in vals]
    max_pos, max_ori = max([0.0, *pos]), max([0.0, *ori])
    energies = columns["total_energy_j"]
    drift = float(np.abs(np.asarray(energies) - energies[0]).max())
    return (name, group, dt, max_pos, max_ori, drift)


def cmd_sweep(args) -> int:
    models = args.model or sorted(BUILDERS)
    groups = args.group or ["se3", "so3xr3"]
    os.makedirs(args.out_dir, exist_ok=True)
    tasks = []
    for name in models:
        for group in groups:
            dts = args.dt or list(build(name, group).dts)
            for dt in dts:
                tasks.append((name, group, dt, args.tf, args.stride, args.out_dir))
    workers = int(os.environ.get(WORKERS_ENV, "0")) or min(4, os.cpu_count() or 1)
    if workers > 1 and len(tasks) > 1:
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
    sim.add_argument("--model", choices=sorted(BUILDERS))
    sim.add_argument("--model-file", help="path to a YAML model definition")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IntegrationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, ModelFileError,
            InfeasibleStateError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
