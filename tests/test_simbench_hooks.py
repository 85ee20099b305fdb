"""simbench's traced run wraps program attributes by name; each must exist."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "simbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("simbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    tracing = _load_tracing()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.MODULE_TARGETS
               if not callable(getattr(owner, attr, None))]
    missing += [f"{cls.__name__}.{kernel}" for cls, _ in tracing.GROUP_TARGETS
                for kernel in tracing.GROUP_KERNELS if kernel not in cls.__dict__]
    assert not missing, f"simbench/tracing.py wraps missing attributes: {missing}"


@pytest.mark.parametrize("group", ["se3", "so3xr3"])
def test_step_loop_reaches_every_traced_layer(monkeypatch, group):
    """The matrix-chart loop must call the traced names, or a refactor that
    bypasses one would silently zero its per-layer metric."""
    import numpy as np

    from screwmbs import bench, dynamics, integrate
    from screwmbs.liealg import GROUPS

    calls = {}

    def counting(name, fn, check=None):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if check:
                check(*args)
            return fn(*args, **kwargs)
        return wrapper

    def solve_args(model, kkt, rhs):
        # the tracer reads the KKT dimension from the second argument
        assert isinstance(kkt, np.ndarray) and kkt.ndim == 2

    monkeypatch.setattr(integrate, "accelerations",
                        counting("accelerations", integrate.accelerations))
    monkeypatch.setattr(dynamics, "assemble_index1",
                        counting("assemble_index1", dynamics.assemble_index1))
    monkeypatch.setattr(dynamics, "solve_index1",
                        counting("solve_index1", dynamics.solve_index1, solve_args))
    cls = type(GROUPS[group])
    for kernel in ("advance_parts", "dexpinv_apply"):
        monkeypatch.setattr(cls, kernel, staticmethod(
            counting(kernel, cls.__dict__[kernel].__func__)))

    spec = bench.build("four-bar", group)
    tab = integrate.tableau_rk4()
    steps, bodies = 2, spec.model.n_bodies
    integrate.integrate(spec.model, spec.state0, 1e-3, steps * 1e-3, tab)
    stages = tab.stages * steps
    assert calls == {
        "accelerations": stages,
        "assemble_index1": stages,
        "solve_index1": stages,
        # stage poses of the three coupled stages plus the step's end
        "advance_parts": stages * bodies,
        "dexpinv_apply": (tab.stages - 1) * steps * bodies,
    }


@pytest.mark.parametrize("group", ["se3", "so3xr3"])
def test_quaternion_chart_reaches_every_traced_layer(monkeypatch, group):
    """The quaternion chart must call the chart maps through ``integrate``'s
    names, which simbench wraps, or its ``dualquat.*`` metrics read 0."""
    from screwmbs import bench, integrate

    tracing = _load_tracing()
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    traced = {attr: span for owner, attr, span in tracing.MODULE_TARGETS
              if owner.__name__ == "screwmbs.integrate"}
    for attr, span in traced.items():
        monkeypatch.setattr(integrate, attr, counting(span, getattr(integrate, attr)))

    spec = bench.build("free-body-offset", group)
    tab = integrate.tableau_rk4()
    steps, bodies = 3, spec.model.n_bodies
    rec = integrate.integrate_quaternion(spec.model, spec.state0, 1e-4, steps * 1e-4, tab,
                                         stride=2)
    stages = tab.stages * steps
    if group == "se3":
        expected = {"dualquat.reconstruct_rates": stages * bodies,
                    # the stage poses, then once per body and recorded sample
                    "dualquat.pose_from_dq": (stages + rec.n_samples) * bodies}
    else:
        expected = {"dualquat.euler_reconstruct_rates": stages * bodies}
    assert calls == {"dynamics.accelerations": stages, **expected}
