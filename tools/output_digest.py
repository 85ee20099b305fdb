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
  hashed too.  One more model file, two off-COM bodies on a grounded
  spherical and a revolute joint, runs the same way on so3xr3: the mixed
  off-COM coupling in the KKT matrix, which no built-in reaches.

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

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from screwmbs import cli  # noqa: E402
from screwmbs.bench import BUILDERS, build  # noqa: E402
from screwmbs.dynamics import MIXED, Gravity, Joint, MbsModel, MbsState, RigidBody  # noqa: E402
from screwmbs.liealg import Pose  # noqa: E402
from screwmbs.modelfile import write_model_file  # noqa: E402

GROUPS = ("se3", "so3xr3")
CHARTS = ("matrix", "quaternion")


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code:
        sys.exit(f"output_digest: screwmbs {' '.join(argv)} exited {code}")


def _off_com_chain() -> tuple[MbsModel, MbsState]:
    """Two off-COM bodies on a grounded spherical and a revolute joint, at a
    feasible rest state: in the mixed representation both mass blocks of the
    KKT matrix carry the R-dependent coupling."""
    bodies = [RigidBody(f"link{i}", 2.0 + i, np.diag([0.1, 0.2, 0.25]) + 0.01 * i,
                        com_offset=[0.3, -0.1 * i, 0.05]) for i in range(2)]
    joints = [Joint("spherical", None, 0, anchor_b=[-0.2, 0.0, 0.1]),
              Joint("revolute", 0, 1, anchor_a=[0.2, 0.0, 0.0], anchor_b=[-0.2, 0.1, 0.0],
                    axis_a=[0.0, 0.0, 1.0], axis_b=[0.0, 0.0, 1.0])]
    model = MbsModel(bodies, joints, [Gravity([0.0, 0.0, -9.81])], representation=MIXED)
    poses = [Pose(np.eye(3), np.array([0.2, 0.0, -0.1])),
             Pose(np.eye(3), np.array([0.6, -0.1, -0.1]))]
    return model, MbsState(poses, np.zeros((2, 6)))


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
        stem = root / "model-file" / "off-com-chain-so3xr3"
        write_model_file(f"{stem}.yaml", *_off_com_chain(), "off-com-chain")
        _run(["simulate", "--model-file", f"{stem}.yaml", "--group", "so3xr3",
              "--project-velocities", "--dt", "1e-3", "--tf", "0.05",
              "--out", f"{stem}.csv"])
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
