"""End-to-end benchmark of ``screwmbs simulate`` on seeded model files.

Run from the repository root:

    python3 simbench/run.py --workload closed-chains --seed 1 --seconds 35 --trace 0

One client in this single process runs ``simulate --model-file ...`` jobs
back to back through ``cli.main`` (a closed loop: each job starts when the
previous one has returned), in whole rounds of the workload's fixed job
mix, until ``--seconds`` have passed.  Every job's CSV is checked by the
gates in ``gates.py``; a job that exits nonzero, raises or fails a gate
counts as failed.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
spends half the time untraced and half traced and prints the per-layer
metrics.  The last line of standard output is one JSON object.

See README.md in this directory for the metrics, the workloads and why
they were chosen.
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "screwmbs" / "__init__.py").is_file():
        sys.exit(f"simbench: no program source at {SRC / 'screwmbs'}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import harness
    sys.exit(harness.main(T_START))
