"""Pass/fail correctness gates on one job's CSV.

Accuracy is a gate, not a metric: a legitimate change to the solve path
moves residuals by roundoff (3e-16 to 5e-16, say), which must not read as
a regression, while a wrong answer must not count as a completed job.
"""

from __future__ import annotations

import csv
import io
import math

# the acceptance spec's gate for the paper's subgroup claim: on SE(3) every
# joint to ground is satisfied to roundoff
GROUNDED_POS_RESIDUAL_M = 1e-9

# Total-energy drift envelope per job type: max_k |E_k - E_0| / KE_0 over
# the run.  Each entry is ten times the largest drift measured at the commit
# that defined the benchmark over seeds 0-19 of every workload, floored at
# 1e-11 so that roundoff-level drifts may move by a few ulps without
# tripping the gate.
ENERGY_DRIFT_ENVELOPE = {
    "four-bar.se3": 1.3e-5,
    "four-bar.so3xr3": 1.3e-5,
    "rp-chain.se3": 1.3e-8,
    "rp-chain.so3xr3": 9.5e-8,
    "cardan.se3": 1e-11,
    "cardan.so3xr3": 1e-11,
    "free-body-offset.se3": 1e-11,
    "free-body-offset.so3xr3": 1e-11,
    "free-body-offset.se3.quaternion": 1e-11,
    "free-body-offset.so3xr3.quaternion": 1e-11,
    "free-body-com-trans.se3": 1e-11,
    "free-body-com-trans.so3xr3": 1e-11,
    "free-body-com-trans.se3.quaternion": 1e-11,
    "free-body-com-trans.so3xr3.quaternion": 1e-11,
    "heavy-top.se3": 1.7e-5,
    "heavy-top.so3xr3": 1.4e-4,
    "double-pendulum.se3": 7.2e-6,
    "double-pendulum.so3xr3": 1.1e-5,
}


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    return header, [[float(x) for x in row] for row in reader]


def energy_drift(header, rows) -> float:
    kin = header.index("kinetic_energy_j")
    tot = header.index("total_energy_j")
    e0, k0 = rows[0][tot], rows[0][kin]
    return max(abs(r[tot] - e0) for r in rows) / k0


def check(text: str, job, joints, grounded) -> list[str]:
    """Failed gates of one job's CSV text; empty when the job is correct."""
    try:
        header, rows = parse_csv(text)
    except (ValueError, StopIteration) as exc:
        return [f"unreadable CSV: {exc}"]
    expected = (["t_s"] + [f"{j}_pos_residual_m" for j in joints]
                + ["kinetic_energy_j", "total_energy_j"])
    missing = [c for c in expected if c not in header]
    if missing:
        return [f"missing columns {missing}"]
    if len(rows) != job.n_samples or any(len(r) != len(header) for r in rows):
        return [f"{len(rows)} rows, expected {job.n_samples} of {len(header)} values"]
    if not all(math.isfinite(x) for r in rows for x in r):
        return ["non-finite value"]
    if not rows[0][header.index("kinetic_energy_j")] > 0.0:
        return ["initial kinetic energy is not positive"]
    failures = []
    t_final = job.variant.steps * job.variant.dt
    if rows[0][0] != 0.0 or abs(rows[-1][0] - t_final) > 1e-9:
        failures.append(f"time span {rows[0][0]}..{rows[-1][0]}, expected 0..{t_final}")
    if job.group == "se3":
        for name in grounded:
            col = header.index(f"{name}_pos_residual_m")
            worst = max(r[col] for r in rows)
            if worst > GROUNDED_POS_RESIDUAL_M:
                failures.append(f"grounded joint {name}: |h| = {worst:.3e} "
                                f"> {GROUNDED_POS_RESIDUAL_M:.0e}")
    drift = energy_drift(header, rows)
    bound = ENERGY_DRIFT_ENVELOPE[job.key]
    if not drift <= bound:
        failures.append(f"energy drift {drift:.3e} > envelope {bound:.1e}")
    return failures
