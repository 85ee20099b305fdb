"""Microseconds per RK4 step of the step loop, per built-in model,
configuration-space group and chart (matrix and quaternion), and per sample
of the CSV metrics and of the whole CSV output; with ``--kernels``,
microseconds per call of the Lie-group kernels the step loop and the public
API call, and of the quaternion chart's maps.

    python tools/step_table.py [--kernels] [--json]

Run from any directory: the script imports ``screwmbs`` from ``src/`` of its
own checkout.  Each step cell is the smallest process time per step over
REPEATS runs of ``integrate`` (cells ``<model>.<group>``) or
``integrate_quaternion`` (cells ``<model>.<group>.quaternion``) with STEPS
steps and one sample at each end; the free body steps at dt = 1e-4, the
jointed models at dt = 1e-3.  Each metrics cell (``<model>.<group>.metrics``)
is the smallest process time per sample over REPEATS runs of
``cli.run_metrics`` on a run of STEPS steps recorded at every step, at the
same dt; each CSV cell (``<model>.<group>.csv``) is the same for
``cli.write_run_csv`` on that run (metrics, formatting and the write, to
``os.devnull``).  The cells are timed round-robin, every cell
once per round, so a slow spell of a shared host slows one run of every
cell rather than every run of a few, and each cell's minimum discards it.
Each kernel cell is the smallest time per call
over KERNEL_REPEATS ``timeit`` runs of KERNEL_CALLS calls, with
float-sequence arguments as the step loop passes them; ``dexpinv_apply`` is
timed at |xi| = 0.5 (``.closed``) and at a small angle, |xi| = 5e-5
(``.small``), where the same closed form reads Taylor coefficients.  The
chart-map cells (``se3.pose_from_dq``, ``se3.reconstruct_rates``,
``so3xr3.euler_reconstruct_rates``) take a body's flat chart slice, 8 or 7
floats, at the pose exp(closed) as the quaternion chart's step holds it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import timeit
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from screwmbs.bench import build  # noqa: E402
from screwmbs.dualquat import (  # noqa: E402
    dq_from_pose,
    euler_reconstruct_rates,
    pose_from_dq,
    quat_from_rotation,
    reconstruct_rates,
)
from screwmbs.cli import run_metrics, write_run_csv  # noqa: E402
from screwmbs.integrate import integrate, integrate_quaternion, tableau_rk4  # noqa: E402
from screwmbs.liealg import GROUPS as GROUP_OBJECTS, se3_exp, so3_exp  # noqa: E402

MODELS = ("free-body-offset", "heavy-top", "double-pendulum", "cardan", "rp-chain",
          "four-bar")
GROUPS = ("se3", "so3xr3")
STEPS = 300
REPEATS = 25
KERNEL_CALLS = 20000
KERNEL_REPEATS = 5


def _run(integrator, spec, dt: float, stride: int):
    return integrator(spec.model, spec.group, spec.state0, dt, STEPS * dt, tableau_rk4(),
                      stride=stride)


def step_table() -> dict[str, float]:
    """Microseconds per step of every step cell and per sample of every
    metrics and CSV cell, by name, timed round-robin."""
    cells = {}  # name: (timed call, steps or samples it covers)
    for model in MODELS:
        for group in GROUPS:
            spec = build(model, group)
            dt = 1e-4 if not spec.model.joints else 1e-3
            record = _run(integrate, spec, dt, 1)
            for name, integrator in ((f"{model}.{group}", integrate),
                                     (f"{model}.{group}.quaternion", integrate_quaternion)):
                cells[name] = (partial(_run, integrator, spec, dt, STEPS), STEPS)
            cells[f"{model}.{group}.metrics"] = (partial(run_metrics, spec, record),
                                                 record.n_samples)
            cells[f"{model}.{group}.csv"] = (partial(write_run_csv, os.devnull, spec, record),
                                             record.n_samples)
    best = dict.fromkeys(cells, float("inf"))
    for _ in range(REPEATS):
        for name, (call, _) in cells.items():
            start = time.process_time()
            call()
            best[name] = min(best[name], time.process_time() - start)
    return {name: 1e6 * t / cells[name][1] for name, t in best.items()}


def kernel_table() -> dict[str, float]:
    """Microseconds per call of each kernel, by name."""
    rot = so3_exp([0.1, 0.2, 0.3]).tolist()
    v = [0.4, -0.1, 0.3, 1.0, -0.5, 0.2]
    closed = (0.3, -0.4, 0.0, 0.7, 0.1, -0.2)   # |xi| = 0.5
    small = (3e-5, -4e-5, 0.0, 0.7, 0.1, -0.2)   # |xi| = 5e-5
    calls = {"so3_exp": (so3_exp, (list(closed[:3]),)),
             "se3_exp": (se3_exp, (list(closed),))}
    for name in GROUPS:
        group = GROUP_OBJECTS[name]
        calls[f"{name}.dexpinv_apply.closed"] = (group.dexpinv_apply, (closed, v))
        calls[f"{name}.dexpinv_apply.small"] = (group.dexpinv_apply, (small, v))
        calls[f"{name}.advance_parts"] = (group.advance_parts, (rot, closed))
    pose = se3_exp(closed)
    chart = dq_from_pose(pose)
    calls["se3.pose_from_dq"] = (pose_from_dq, (chart,))
    calls["se3.reconstruct_rates"] = (reconstruct_rates, (chart, v))
    calls["so3xr3.euler_reconstruct_rates"] = (
        euler_reconstruct_rates, (quat_from_rotation(pose.R).tolist() + pose.r.tolist(), v))
    table = {}
    for name, (fn, args) in calls.items():
        timer = timeit.Timer("fn(*args)", globals={"fn": fn, "args": args})
        best = min(timer.repeat(KERNEL_REPEATS, KERNEL_CALLS))
        table[name] = 1e6 * best / KERNEL_CALLS
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    parser.add_argument("--kernels", action="store_true",
                        help="time the Lie-group kernels instead of the step loop")
    args = parser.parse_args(argv)
    if args.kernels:
        table = kernel_table()
        if args.json:
            print(json.dumps(table))
        else:
            print(f"{'kernel':32s} {'us/call':>8s}")
            for name, us in table.items():
                print(f"{name:32s} {us:8.2f}")
        return 0
    table = step_table()
    if args.json:
        print(json.dumps(table))
        return 0
    cells = [f"{group}{chart}" for chart in ("", ".quaternion", ".metrics", ".csv")
             for group in GROUPS]
    print(f"{'model':18s}" + "".join(f" {c:>18s}" for c in cells)
          + "  (us/step; .metrics and .csv us/sample)")
    for model in MODELS:
        print(f"{model:18s}" + "".join(f" {table[f'{model}.{c}']:18.1f}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
