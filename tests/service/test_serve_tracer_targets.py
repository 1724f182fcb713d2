"""The serving benchmark's tracer wraps call sites by name.

``benchmarks/serve/traced_server.py`` skips a target it cannot resolve, so
a renamed or moved call site would leave its span empty with no error at
server start.  Every ``(module, attribute path)`` it lists must resolve to
a callable here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[2] / "benchmarks" / "serve" / "traced_server.py"


def _targets():
    spec = importlib.util.spec_from_file_location("traced_server", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name, path",
    [(module_name, path) for _span, module_name, path in _targets()],
    ids=lambda value: value,
)
def test_tracer_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr))
