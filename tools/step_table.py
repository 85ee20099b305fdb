"""Microseconds per RK4 step of the step loop, per built-in model,
configuration-space group and chart (matrix and quaternion), and per sample
of the CSV metrics and of the whole CSV output; with ``--kernels``,
microseconds per call of the Lie-group kernels the step loop and the public
API call, and of the quaternion chart's maps.

    python tools/step_table.py [--kernels | --startup] [--json]

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

With ``--startup`` it times one-shot ``simulate`` runs instead, start-up
included: STARTUP_RUNS fresh ``python -m screwmbs.cli simulate --model <m>
--dt 1e-3 --tf 0.01`` processes per model, free-body-offset (no joints, so
no KKT solve) and heavy-top (a solve per stage), alternating, the CSV
written to ``os.devnull``.  It reports each model's median wall seconds
(``<m>.wall_s``, spawn to exit) and the largest maximum resident set size of
its runs (``<m>.max_rss_mib``, from ``wait4``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import timeit
from functools import partial
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

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
STARTUP_MODELS = ("free-body-offset", "heavy-top")
STARTUP_RUNS = 7


def _run(integrator, spec, dt: float, stride: int):
    return integrator(spec.model, spec.state0, dt, STEPS * dt, tableau_rk4(), stride=stride)


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


def _simulate_once(model: str, env: dict) -> tuple[float, float]:
    """Wall seconds and maximum RSS in MiB of one fresh ``simulate`` process."""
    argv = [sys.executable, "-m", "screwmbs.cli", "simulate", "--model", model,
            "--dt", "1e-3", "--tf", "0.01", "--out", os.devnull]
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"simulate --model {model} exited {status}")
    return wall, usage.ru_maxrss / 1024.0  # Linux reports KiB


def startup_table() -> dict[str, float]:
    """Median wall seconds and largest max RSS of one-shot ``simulate`` runs
    per model, the models alternating run by run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    runs = {model: [] for model in STARTUP_MODELS}
    for _ in range(STARTUP_RUNS):
        for model in STARTUP_MODELS:
            runs[model].append(_simulate_once(model, env))
    table = {}
    for model, samples in runs.items():
        table[f"{model}.wall_s"] = statistics.median(wall for wall, _ in samples)
        table[f"{model}.max_rss_mib"] = max(rss for _, rss in samples)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--kernels", action="store_true",
                      help="time the Lie-group kernels instead of the step loop")
    mode.add_argument("--startup", action="store_true",
                      help="time one-shot simulate processes, start-up included")
    args = parser.parse_args(argv)
    if args.startup:
        table = startup_table()
        if args.json:
            print(json.dumps(table))
        else:
            print(f"{'model':18s} {'wall s':>8s} {'max RSS MiB':>12s}  "
                  f"(median and largest of {STARTUP_RUNS} runs)")
            for model in STARTUP_MODELS:
                print(f"{model:18s} {table[f'{model}.wall_s']:8.3f} "
                      f"{table[f'{model}.max_rss_mib']:12.1f}")
        return 0
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
