"""Every function the perfbench tracer wraps still exists in magma_tits.

perfbench/tracing.py names its layers by (module, attribute path); a
renamed or deleted function would only show when a traced pass runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
LAYERS = sorted({(module, path) for _layer, module, path, *_opts in
                 tracing.SPAN_LAYERS + tracing.COUNT_LAYERS})


@pytest.mark.parametrize("module, path", LAYERS, ids=["%s.%s" % mp for mp in LAYERS])
def test_traced_attribute_resolves(module, path):
    owner, name = tracing._resolve(importlib.import_module("magma_tits." + module), path)
    assert callable(getattr(owner, name))
