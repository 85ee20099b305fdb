"""SHA-256 of every file a fixed set of runs writes, one line per file.

    python tools/output_digest.py

Run it in two checkouts and diff the outputs: equal lines mean
byte-identical CSVs.  The runs are

- ``simulate`` for each built-in model x group x chart (matrix and
  quaternion) at dt = 1e-3 up to tf = 0.05 s, and
- ``sweep --tf 0.05 --dt 1e-2 --dt 5e-3`` over every model and group,
  with its summary, and
- each built-in model x group written as a model file
  (``write_model_file``) and run as ``simulate --model-file ...
  --project-velocities`` at dt = 1e-3 up to tf = 0.05 s: the loader, the
  initial-state gate and the velocity projection.  The model files are
  hashed too.

Run from any directory: the script imports ``screwmbs`` from ``src/`` of its
own checkout and writes into a temporary directory that it removes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from screwmbs import cli  # noqa: E402
from screwmbs.bench import BUILDERS, build  # noqa: E402
from screwmbs.modelfile import write_model_file  # noqa: E402

GROUPS = ("se3", "so3xr3")
CHARTS = ("matrix", "quaternion")


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code:
        sys.exit(f"output_digest: screwmbs {' '.join(argv)} exited {code}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "simulate").mkdir()
        for name in sorted(BUILDERS):
            for group in GROUPS:
                for chart in CHARTS:
                    out = root / "simulate" / f"{name}-{group}-{chart}.csv"
                    _run(["simulate", "--model", name, "--group", group,
                          "--param", chart, "--dt", "1e-3", "--tf", "0.05",
                          "--out", str(out)])
        _run(["sweep", "--tf", "0.05", "--dt", "1e-2", "--dt", "5e-3",
              "--out-dir", str(root / "sweep")])
        (root / "model-file").mkdir()
        for name in sorted(BUILDERS):
            for group in GROUPS:
                stem = root / "model-file" / f"{name}-{group}"
                spec = build(name, group)
                write_model_file(f"{stem}.yaml", spec.model, spec.state0, name)
                _run(["simulate", "--model-file", f"{stem}.yaml", "--group", group,
                      "--project-velocities", "--dt", "1e-3", "--tf", "0.05",
                      "--out", f"{stem}.csv"])
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
