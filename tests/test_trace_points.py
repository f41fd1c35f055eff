"""Every name the benchmark's per-layer tracer wraps still exists.

``perfbench/tracer.py`` times the layers by replacing names on the
``keypose`` modules (its ``WRAPS`` table).  It skips a name that is gone and
reports that layer's metrics as absent, so a refactor that moves one of
them would go unnoticed; this test reads the table and resolves each entry.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, path) for module, path, *_ in tracer.WRAPS]


@pytest.mark.parametrize("module,path", _wrap_points(), ids=lambda v: v)
def test_wrapped_name_resolves(module, path):
    owner = importlib.import_module(f"keypose.{module}")
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)
