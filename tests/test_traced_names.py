"""Every package function the benchmark's tracer patches still exists.

perfbench/tracing.py replaces each (module, attribute) in its patch table with
a timing wrapper, so deleting or renaming one of those functions breaks every
traced benchmark run. Its own tests live outside this suite; this one keeps a
cleanup under src/ from removing a traced name unnoticed.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    table = _load_tracing()._patch_table()
    missing = [f"{module.__name__}.{attr}" for module, attr, _span, _note in table
               if not callable(getattr(module, attr, None))]
    assert table and missing == []
