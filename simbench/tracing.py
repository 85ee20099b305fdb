"""Per-layer spans recorded from outside the program.

The benchmark does not edit ``src/``: it replaces module attributes with
timing wrappers for the duration of a traced phase and restores them after.
It wraps the names the callers actually look up.  ``cli`` and ``integrate``
bind ``integrate``, ``accelerations``, ``reconstruct_rates`` and friends at
import, so patching only the defining module would miss those calls.  The
group objects look their kernels up as class attributes (staticmethods).

Each span's self time is its duration minus the durations of the wrapped
calls it made.  Layer names are the defining module's name.
"""

from __future__ import annotations

import time
from collections import defaultdict

from screwmbs import bench, cli, dynamics, integrate
from screwmbs.liealg import DirectProductGroup, SE3Group

# (owner, attribute, span name): one span name may be bound in several
# modules; calls through any of them land in the same span
MODULE_TARGETS = [
    (cli, "main", "cli.main"),
    (cli, "write_run_csv", "cli.write_run_csv"),
    (cli, "load_model_file", "modelfile.load_model_file"),
    (cli, "integrate", "integrate.integrate"),
    (cli, "integrate_quaternion", "integrate.integrate_quaternion"),
    (cli, "joint_geometry", "dynamics.joint_geometry"),
    (dynamics, "joint_geometry", "dynamics.joint_geometry"),
    (cli, "kinetic_energy", "dynamics.kinetic_energy"),
    (dynamics, "kinetic_energy", "dynamics.kinetic_energy"),
    (cli, "total_energy", "dynamics.total_energy"),
    (integrate, "accelerations", "dynamics.accelerations"),
    (dynamics, "assemble_index1", "dynamics.assemble_index1"),
    (dynamics, "force_assembly", "dynamics.force_assembly"),
    (dynamics, "joint_rows", "dynamics.joint_rows"),
    (dynamics, "solve_index1", "dynamics.solve_index1"),
    (integrate, "reconstruct_rates", "dualquat.reconstruct_rates"),
    (integrate, "euler_reconstruct_rates", "dualquat.euler_reconstruct_rates"),
    (integrate, "pose_from_dq", "dualquat.pose_from_dq"),
    (bench, "build", "bench.build"),
]
GROUP_TARGETS = [(SE3Group, "se3"), (DirectProductGroup, "so3xr3")]
GROUP_KERNELS = ("exp", "dexpinv", "advance_parts", "compose")
LAYERS = ("cli", "modelfile", "integrate", "dynamics", "liealg", "dualquat")


class Tracer:
    """Span statistics of wrapped calls: name -> [calls, total s, self s]."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.kkt_rows = 0
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        stats, stack = self.stats, self._stack
        clock = time.perf_counter
        solve = name == "dynamics.solve_index1"

        def span(*args, **kwargs):
            if solve:
                self.kkt_rows += args[1].shape[0]
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                st = stats[name]
                st[0] += 1
                st[1] += elapsed
                st[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed
        return span

    def install(self):
        for owner, attr, name in MODULE_TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        for cls, group in GROUP_TARGETS:
            for kernel in GROUP_KERNELS:
                original = cls.__dict__[kernel]
                self._saved.append((cls, kernel, original))
                setattr(cls, kernel, staticmethod(
                    self._wrap(original.__func__, f"liealg.{group}.{kernel}")))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def total(self, name) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_time(self, prefix) -> float:
        return sum(st[2] for name, st in self.stats.items()
                   if name.startswith(prefix + "."))


def layer_metrics(tracer: Tracer, build_tracer: Tracer, job_wall: float,
                  steps: dict, step_time: dict, step_keys, samples: int,
                  failed_integrations: int, overhead_ratio: float) -> dict:
    """The per-layer metric set, identical in keys on every workload.

    ``tracer`` holds the traced jobs and ``build_tracer`` the model-file
    generation.  ``steps``/``step_time`` map a job type to its integration
    steps and the integrate span time they took; ``job_wall`` is the traced
    jobs' summed wall time, the base of every share.
    """
    st = tracer.stats

    def calls(name):
        return st[name][0] if name in st else 0

    def us_per_call(name, which=1):
        return 1e6 * st[name][which] / st[name][0] if calls(name) else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    n_steps = sum(steps.values())
    n_solves = calls("dynamics.solve_index1")
    put("dynamics.joint_rows.calls", calls("dynamics.joint_rows"), "count")
    put("dynamics.joint_rows.us_per_call", us_per_call("dynamics.joint_rows"), "us")
    put("dynamics.joint_rows.self_share",
        st["dynamics.joint_rows"][2] / job_wall if calls("dynamics.joint_rows") else 0.0,
        "ratio")
    put("dynamics.assemble_index1.self_us_per_call",
        us_per_call("dynamics.assemble_index1", 2), "us")
    put("dynamics.solve_index1.calls", n_solves, "count")
    put("dynamics.solve_index1.us_per_call", us_per_call("dynamics.solve_index1"), "us")
    put("dynamics.kkt_dim", tracer.kkt_rows / n_solves if n_solves else 0.0, "rows")
    put("dynamics.force_assembly.us_per_call", us_per_call("dynamics.force_assembly"), "us")
    put("dynamics.accelerations.calls", calls("dynamics.accelerations"), "count")
    for group in ("se3", "so3xr3"):
        for kernel in GROUP_KERNELS:
            name = f"liealg.{group}.{kernel}"
            put(f"{name}.calls", calls(name), "count")
            put(f"{name}.us_per_call", us_per_call(name), "us")
    for fn in ("reconstruct_rates", "euler_reconstruct_rates", "pose_from_dq"):
        name = f"dualquat.{fn}"
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.us_per_call", us_per_call(name), "us")
    put("integrate.steps", n_steps, "count")
    for fn in ("integrate", "integrate_quaternion"):
        name = f"integrate.{fn}"
        fn_steps = sum(n for key, n in steps.items()
                       if key.endswith(".quaternion") == (fn == "integrate_quaternion"))
        put(f"{name}.self_us_per_step",
            1e6 * st[name][2] / fn_steps if fn_steps and calls(name) else 0.0, "us")
    for key in step_keys:
        put(f"integrate.step_us.{key}",
            1e6 * step_time[key] / steps[key] if steps.get(key) else 0.0, "us")
    put("integrate.failed", failed_integrations, "count")
    write = "cli.write_run_csv"
    put(f"{write}.us_per_sample", 1e6 * st[write][1] / samples if samples else 0.0, "us")
    put(f"{write}.samples", samples, "count")
    put(f"{write}.share", st[write][1] / job_wall, "ratio")
    put("dynamics.joint_geometry.calls", calls("dynamics.joint_geometry"), "count")
    put("dynamics.joint_geometry.us_per_call", us_per_call("dynamics.joint_geometry"), "us")
    put("dynamics.kinetic_energy.us_per_call", us_per_call("dynamics.kinetic_energy"), "us")
    put("dynamics.total_energy.us_per_call", us_per_call("dynamics.total_energy"), "us")
    for layer in LAYERS:
        put(f"{layer}.self_share", tracer.self_time(layer) / job_wall, "ratio")
    put("modelfile.load_model_file.ms_per_call",
        us_per_call("modelfile.load_model_file") / 1e3, "ms")
    build = build_tracer.stats["bench.build"]
    put("bench.build.ms_per_call", 1e3 * build[1] / build[0] if build[0] else 0.0, "ms")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return out


def self_share_table(tracer: Tracer, job_wall: float) -> list[tuple[str, float, int]]:
    """(span, self share of job wall time, calls), largest share first."""
    rows = [(name, st[2] / job_wall, st[0]) for name, st in tracer.stats.items()]
    return sorted(rows, key=lambda r: -r[1])
