"""The benchmark's traced run wraps library names by string; every name it
lists must exist, so renaming or deleting one fails here and not only in the
traced run."""

import importlib
import importlib.util
from pathlib import Path

from ffdyn.ffield import FieldSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    for _name, module, attr in tracing.SPAN_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"ffdyn.{module}"), attr))
    for _name, module, cls, attr in tracing.SPAN_METHODS:
        owner = getattr(importlib.import_module(f"ffdyn.{module}"), cls)
        assert attr in owner.__dict__
    for attr in tracing.FIELD_CALLS:
        assert attr in FieldSpec.__dict__
