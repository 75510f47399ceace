"""The benchmark's tracer looks liespec's layers up by name.

perfbench/tracing.py wraps every function listed in its TRACED and
LAB_GENERATE tables; a name that no longer resolves makes a traced
benchmark run raise AttributeError.  This keeps a rename or a deletion in
liespec from reaching that far.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_tables():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED, module.LAB_GENERATE


def test_every_traced_name_resolves_on_its_module():
    traced, lab_generate = _tracing_tables()
    names = [(mod, fn) for mod, fns in traced.items() for fn in fns]
    names += [("lab", fn) for fn in lab_generate]
    assert names
    missing = [f"{mod}.{fn}" for mod, fn in names
               if not callable(getattr(importlib.import_module(f"liespec.{mod}"), fn, None))]
    assert missing == []
