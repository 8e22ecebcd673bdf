"""Every method that the benchmark's tracer wraps by name is defined on its
srlab class.

perfbench/tracing.py patches each (class, method) of its METHODS table
through the class's own __dict__.  The benchmark's tests are not part of
this suite, so without this check a renamed method would break only a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_methods() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [f"{qual}.{name}" for qual, names in module.METHODS.items() for name in names]


@pytest.mark.parametrize("target", _traced_methods())
def test_traced_method_is_defined_on_its_class(target):
    layer, cls, name = target.split(".")
    owner = getattr(importlib.import_module(f"srlab.{layer}"), cls)
    assert callable(owner.__dict__.get(name))
