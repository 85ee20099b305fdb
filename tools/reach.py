"""The functions of ``src/screwmbs`` that no CLI command enters.

    python tools/reach.py

Under ``sys.setprofile`` it runs, through ``cli.main``:

- ``simulate`` for each built-in model x group x chart (matrix and
  quaternion) at dt = 1e-3 for 4 steps;
- each built-in model x group written as a model file and run as
  ``simulate --model-file ... --project-velocities``;
- ``sweep --tf 0.01`` with ``SCREWMBS_WORKERS=1``, so its runs stay in this
  process;
- ``list-models``;
- ``verify``, most of the probe's time (about 2 minutes in all on a 2-core
  Xeon).

It then prints each function defined in ``src/screwmbs/*.py`` that was never
entered as ``file:line name (n lines)``, then the total.  A function nested
in a never-entered one is counted with it, not listed.  Run from any
directory: the script imports ``screwmbs`` from ``src/`` of its own checkout,
after the profile is installed, so import-time calls count, and writes into
a temporary directory that it removes.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "screwmbs"
GROUPS = ("se3", "so3xr3")
CHARTS = ("matrix", "quaternion")


def _functions(path: Path):
    """(first line, qualified name, line count) of every function in a file;
    the first line is a decorator's when there is one, as in ``co_firstlineno``.
    Functions nested in another function are skipped: they are entered only
    when their parent is."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out.append((first, prefix + child.name, child.end_lineno - first + 1))
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(path.read_text()), "")
    return out


def _run(cli, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    # verify exits 1 while a criterion is red; what it entered still counts
    if code and argv[0] != "verify":
        sys.exit(f"reach: screwmbs {' '.join(argv)} exited {code}")


def _commands(root: Path) -> None:
    from screwmbs import cli
    from screwmbs.bench import BUILDERS, build
    from screwmbs.modelfile import write_model_file

    for name in sorted(BUILDERS):
        for group in GROUPS:
            for chart in CHARTS:
                _run(cli, ["simulate", "--model", name, "--group", group, "--param", chart,
                           "--dt", "1e-3", "--tf", "4e-3",
                           "--out", str(root / f"{name}-{group}-{chart}.csv")])
            stem = root / f"{name}-{group}-file"
            spec = build(name, group)
            write_model_file(f"{stem}.yaml", spec.model, spec.state0, name)
            _run(cli, ["simulate", "--model-file", f"{stem}.yaml", "--group", group,
                       "--project-velocities", "--dt", "1e-3", "--tf", "4e-3",
                       "--out", f"{stem}.csv"])
    _run(cli, ["sweep", "--tf", "0.01", "--out-dir", str(root / "sweep")])
    _run(cli, ["list-models"])
    _run(cli, ["verify"])


def main() -> int:
    os.environ["SCREWMBS_WORKERS"] = "1"
    sys.path.insert(0, str(SRC))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            _commands(Path(tmp))
        finally:
            sys.setprofile(None)

    total_fns = total_lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name, n in _functions(path):
            if (str(path), line) not in entered:
                print(f"{path.relative_to(SRC.parent).as_posix()}:{line} {name} ({n} lines)")
                total_fns += 1
                total_lines += n
    print(f"total: {total_fns} functions, {total_lines} lines never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
