"""Workload definitions and the seeded model-file generator.

A workload is a fixed round-robin of ``simulate --model-file`` jobs.  Each
job variant names a built-in model, a chart, a step count, a step size and
a sample stride.  For every model the generator writes ``FILES_PER_MODEL``
model files: the published initial state with every body's velocity scaled
by its own seeded factor in [1 - SCALE, 1 + SCALE], made feasible again by
``dynamics.project_velocities``.  The program under test only ever sees
these files.

Step counts are sized so that every job of a workload takes about the same
wall time at the commit that defined the benchmark (about 150 ms on a 2-core
Xeon); this keeps the job-time distribution unimodal, so its median does
not hop between job types.  Every horizon stays inside the built-in spec's
``t_final`` (cardan stops long before the Hooke-joint lock near 1.45 s).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace

import numpy as np
from screwmbs import bench, dynamics, modelfile

FILES_PER_MODEL = 2
SCALE = 0.05
GROUPS = ("se3", "so3xr3")


@dataclass(frozen=True)
class Variant:
    model: str
    steps: int
    dt: float
    stride: int
    chart: str = "matrix"


@dataclass(frozen=True)
class Job:
    variant: Variant
    group: str
    file_index: int

    @property
    def key(self) -> str:
        """Job type: model.group[.quaternion], the step_us layer key."""
        v = self.variant
        tail = ".quaternion" if v.chart == "quaternion" else ""
        return f"{v.model}.{self.group}{tail}"

    @property
    def model_file(self) -> str:
        return f"{self.variant.model}-{self.file_index}.yaml"

    @property
    def csv_name(self) -> str:
        return f"{self.key}-{self.file_index}.csv"

    @property
    def n_samples(self) -> int:
        v = self.variant
        return v.steps // v.stride + 1 + (1 if v.steps % v.stride else 0)

    def argv(self, work_dir: str) -> list[str]:
        v = self.variant
        return ["simulate",
                "--model-file", os.path.join(work_dir, self.model_file),
                "--group", self.group,
                "--param", v.chart,
                "--dt", repr(v.dt),
                "--tf", repr(v.steps * v.dt),
                "--stride", str(v.stride),
                "--out", os.path.join(work_dir, self.csv_name)]


WORKLOADS = {
    # constraint rows dominate: 3-body 17-row four-bar, the prismatic chain,
    # the Hooke joint; few samples
    "closed-chains": (
        Variant("four-bar", 40, 1e-3, 10),
        Variant("rp-chain", 40, 1e-3, 10),
        Variant("cardan", 60, 1e-3, 10),
    ),
    # no joints at all: joint_rows is never called; the quaternion chart
    # adds the dualquat layer
    "free-flight": (
        Variant("free-body-offset", 300, 1e-4, 50),
        Variant("free-body-offset", 200, 1e-4, 50, "quaternion"),
        Variant("free-body-com-trans", 300, 1e-4, 50),
        Variant("free-body-com-trans", 200, 1e-4, 50, "quaternion"),
    ),
    # one CSV row per step: the per-sample post-processing path
    "dense-output": (
        Variant("heavy-top", 150, 1e-3, 1),
        Variant("rp-chain", 30, 1e-3, 1),
        Variant("double-pendulum", 80, 1e-3, 1),
    ),
}


def job_cycle(workload: str) -> list[Job]:
    """One round of the fixed model x group mix, files interleaved."""
    variants = WORKLOADS[workload]
    return [Job(v, g, i)
            for i in range(FILES_PER_MODEL)
            for v in variants
            for g in GROUPS]


def models_of(workload: str) -> list[str]:
    return sorted({v.model for v in WORKLOADS[workload]})


def _unique_body_names(model):
    """``modelfile.dump_model`` writes body names verbatim, and the loader
    rejects duplicates (the built-in double pendulum has two bodies named
    ``link``); rename before dumping instead of changing the program."""
    names = [b.name for b in model.bodies]
    if len(set(names)) == len(names):
        return model
    bodies = [replace(b, name=f"{b.name}{i}") for i, b in enumerate(model.bodies)]
    return dynamics.MbsModel(bodies, model.joints, model.forces,
                             representation=model.representation)


def generate(workload: str, seed: int, work_dir: str) -> dict:
    """Write the workload's model files; returns {file name: model info}."""
    rng = np.random.default_rng(seed)
    info = {}
    for model_name in models_of(workload):
        for i in range(FILES_PER_MODEL):
            spec = bench.build(model_name, "se3")
            model = _unique_body_names(spec.model)
            state = spec.state0.copy()
            factors = 1.0 + SCALE * rng.uniform(-1.0, 1.0, size=model.n_bodies)
            state.velocities = state.velocities * factors[:, None]
            state = dynamics.project_velocities(model, state)
            name = f"{model_name}-{i}.yaml"
            modelfile.write_model_file(os.path.join(work_dir, name), model,
                                       state, f"{model_name}-{i}")
            info[name] = {
                "joints": [j.name or j.kind for j in model.joints],
                "grounded": [j.name or j.kind for j in model.joints
                             if j.body_a is None],
            }
    return info


def digest_files(work_dir: str, names) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        with open(os.path.join(work_dir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()
