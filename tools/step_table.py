"""Microseconds per RK4 step of the matrix-chart step loop, per built-in
model and configuration-space group.

    python tools/step_table.py [--json]

Run from any directory: the script imports ``screwmbs`` from ``src/`` of its
own checkout.  Each cell is the smallest process time per step over REPEATS
runs of ``integrate`` with STEPS steps and one sample at each end; the free
body steps at dt = 1e-4, the jointed models at dt = 1e-3.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from screwmbs.bench import build  # noqa: E402
from screwmbs.integrate import integrate, tableau_rk4  # noqa: E402

MODELS = ("free-body-offset", "heavy-top", "double-pendulum", "cardan", "rp-chain",
          "four-bar")
GROUPS = ("se3", "so3xr3")
STEPS = 300
REPEATS = 3


def us_per_step(model: str, group: str) -> float:
    spec = build(model, group)
    dt = 1e-4 if not spec.model.joints else 1e-3
    best = float("inf")
    for _ in range(REPEATS):
        start = time.process_time()
        integrate(spec.model, spec.group, spec.state0, dt, STEPS * dt, tableau_rk4(),
                  stride=STEPS)
        best = min(best, time.process_time() - start)
    return 1e6 * best / STEPS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    table = {f"{model}.{group}": us_per_step(model, group)
             for model in MODELS for group in GROUPS}
    if args.json:
        print(json.dumps(table))
        return 0
    print(f"{'model':18s} {'se3 us/step':>12s} {'so3xr3 us/step':>15s}")
    for model in MODELS:
        print(f"{model:18s} {table[f'{model}.se3']:12.1f} {table[f'{model}.so3xr3']:15.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
