"""simbench's traced run wraps program attributes by name; each must exist."""

import importlib.util
from pathlib import Path

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
