"""Every name the benchmark's tracer wraps must exist in the library.

``perfbench/tracer.py`` resolves each entry of ``LAYER_TARGETS`` by name
when a traced run starts; a name deleted from ``springerfiber`` would break
``--trace 1`` and ``perfbench/check_bench.py`` but nothing in this suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def layer_targets() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_TARGETS


@pytest.mark.parametrize("target", layer_targets())
def test_traced_name_resolves(target):
    module_name, *path = target.split(".")
    owner = importlib.import_module(f"springerfiber.{module_name}")
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner)
