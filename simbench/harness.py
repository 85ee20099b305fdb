"""Closed-loop job runner, metrics and report of the simulate benchmark.

``run.py`` is the entry point; it puts this checkout's ``src`` first on the
import path before this module imports the program.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import gates
import screwmbs
import tracing
import workloads
from screwmbs import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".simbench-work"
SETUP_REPEATS = 3
MAX_REPORTED_FAILURES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="end-to-end simulate benchmark")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="generator seed; 7919 is held out for confirming "
                             "a claimed gain")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def host_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


class Tally:
    """Outcome of the timed jobs of one phase."""

    def __init__(self):
        self.times = []
        self.group_time = defaultdict(float)
        self.group_steps = defaultdict(int)
        self.key_steps = defaultdict(int)
        self.key_time = defaultdict(float)
        self.samples = 0
        self.attempted = 0
        self.failed = 0
        self.integration_failures = 0    # exit code 2
        self.failures = []

    def steps_per_s(self, group=None) -> float:
        groups = [group] if group else list(self.group_time)
        return (sum(self.group_steps[g] for g in groups)
                / sum(self.group_time[g] for g in groups))


class Runner:
    """Runs jobs through ``cli.main`` and gates their CSVs."""

    def __init__(self, work_dir: str, info: dict):
        self.work_dir = work_dir
        self.info = info
        self.csv_sha = {}       # csv name -> digest of its first run

    def call(self, job) -> tuple[float, object]:
        """Wall time of one job and its exit code (or the exception)."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = cli.main(job.argv(self.work_dir))
            except Exception as exc:  # a raising job fails; the run goes on
                rc = exc
            return time.perf_counter() - t0, rc

    def gate(self, job) -> list[str]:
        """Failed gates of a job that exited 0, determinism included."""
        try:
            with open(os.path.join(self.work_dir, job.csv_name), "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return [f"no CSV: {exc}"]
        sha = hashlib.sha256(data).hexdigest()
        problems = []
        if self.csv_sha.setdefault(job.csv_name, sha) != sha:
            problems.append("CSV differs from the first run of the same job")
        info = self.info[job.model_file]
        return problems + gates.check(data.decode(errors="replace"), job,
                                      info["joints"], info["grounded"])

    def run(self, job, tally: Tally, tracer=None) -> None:
        before = _integrate_time(tracer)
        elapsed, rc = self.call(job)
        tally.attempted += 1
        tally.times.append(elapsed)
        tally.group_time[job.group] += elapsed
        problems = self.gate(job) if rc == 0 else [f"exit {rc!r}"]
        if problems:
            tally.failed += 1
            tally.integration_failures += rc == 2
            if len(tally.failures) < MAX_REPORTED_FAILURES:
                tally.failures.append(f"{job.csv_name}: {'; '.join(problems)}")
            return
        steps = job.variant.steps
        tally.group_steps[job.group] += steps
        tally.key_steps[job.key] += steps
        tally.key_time[job.key] += _integrate_time(tracer) - before
        tally.samples += job.n_samples

    def cycles(self, jobs, seconds: float, tracer=None) -> Tally:
        """Whole rounds of ``jobs`` until ``seconds`` have passed."""
        tally = Tally()
        deadline = time.perf_counter() + seconds
        while True:
            for job in jobs:
                self.run(job, tally, tracer)
            if time.perf_counter() >= deadline:
                return tally

    def csv_digest(self, jobs) -> str:
        h = hashlib.sha256()
        for job in jobs:
            h.update(job.csv_name.encode() + b"\0"
                     + self.csv_sha.get(job.csv_name, "missing").encode())
        return h.hexdigest()


def _integrate_time(tracer) -> float:
    if tracer is None:
        return 0.0
    return (tracer.total("integrate.integrate")
            + tracer.total("integrate.integrate_quaternion"))


def setup(workload: str, seed: int, work_dir: str):
    """Generate the model files and run one untimed warm-up job."""
    info = workloads.generate(workload, seed, work_dir)
    runner = Runner(work_dir, info)
    runner.call(workloads.job_cycle(workload)[0])
    return info


def tail(times) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: (value, pct)."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(t_start: float, argv=None) -> int:
    """``t_start`` is the clock reading before the program was imported."""
    args = parse_args(argv)
    if Path(screwmbs.__file__).resolve().parent != SRC / "screwmbs":
        sys.exit(f"simbench: imported screwmbs from {screwmbs.__file__}, "
                 f"not from {SRC}")
    import_s = time.perf_counter() - t_start

    work_dir = str(WORK_ROOT / args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        repeats = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            info = setup(args.workload, args.seed, work_dir)
            repeats.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(repeats)

        jobs = workloads.job_cycle(args.workload)
        runner = Runner(work_dir, info)
        host = host_info()
        files_sha = workloads.digest_files(work_dir, info)
        if args.trace:
            untraced = runner.cycles(jobs, args.seconds / 2)
            with tracing.Tracer() as build_tracer:
                workloads.generate(args.workload, args.seed, work_dir)
            with tracing.Tracer() as tracer:
                tally = runner.cycles(jobs, args.seconds / 2, tracer)
            failed = untraced.failed + tally.failed
            attempted = untraced.attempted + tally.attempted
            failures = untraced.failures + tally.failures
        else:
            tally = runner.cycles(jobs, args.seconds)
            failed, attempted, failures = tally.failed, tally.attempted, tally.failures
        csv_sha = runner.csv_digest(jobs)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"simbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host " + json.dumps(host))
    print(f"model files: {len(info)} sha256={files_sha}")
    print(f"job CSVs: {len(jobs)} sha256={csv_sha}")
    for line in failures:
        print(f"FAILED {line}")
    n = len(tally.times)
    if args.trace:
        job_wall = sum(tally.times)
        traced_rate = tally.steps_per_s()
        overhead = untraced.steps_per_s() / traced_rate if traced_rate else 0.0
        step_keys = sorted({job.key for wl in workloads.WORKLOADS
                            for job in workloads.job_cycle(wl)})
        metrics = tracing.layer_metrics(
            tracer, build_tracer, job_wall, tally.key_steps, tally.key_time,
            step_keys, tally.samples,
            untraced.integration_failures + tally.integration_failures, overhead)
        print(f"traced {n} jobs in {job_wall:.3f} s; untraced "
              f"{untraced.steps_per_s():.1f} steps/s, traced "
              f"{tally.steps_per_s():.1f} steps/s (overhead ratio {overhead:.3f})")
        print("self share of traced job wall time:")
        for name, share, calls in tracing.self_share_table(tracer, job_wall):
            print(f"  {name:40s} {100 * share:6.2f} %  {calls:9d} calls")
    else:
        p50 = statistics.median(tally.times)
        tail_s, tail_pct = tail(tally.times)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "steps_per_s.se3": metric(tally.steps_per_s("se3"), "steps/s"),
            "steps_per_s.so3xr3": metric(tally.steps_per_s("so3xr3"), "steps/s"),
            "job_ms_p50": metric(1e3 * p50, "ms"),
            "job_ms_tail": metric(1e3 * tail_s, "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MiB"),
        }
        print(f"setup_s            {setup_s:10.4f} s   (import {import_s:.4f} s "
              f"+ median of {SETUP_REPEATS} set-ups)")
        for group in ("se3", "so3xr3"):
            print(f"steps_per_s.{group:6s} {metrics[f'steps_per_s.{group}']['value']:10.1f} "
                  f"steps/s ({tally.group_steps[group]} steps)")
        print(f"job_ms_p50         {1e3 * p50:10.3f} ms  (n={n})")
        print(f"job_ms_tail        {1e3 * tail_s:10.3f} ms  (p{tail_pct:.1f}, n={n})")
        print(f"failed_ratio       {failed / attempted:10.4f}     ({failed}/{attempted})")
        print(f"peak_rss_mb        {peak_rss_mb:10.1f} MiB")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
