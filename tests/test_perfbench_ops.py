"""Every callable the repository benchmark wraps by name still exists.

``perfbench/layers.py`` attributes time per layer by patching the
callables in its ``OPS`` table, addressed as ``module:attr`` or
``module:Class.attr`` strings.  A renamed or deleted target breaks only
traced benchmark runs (``--trace 1``), so the tier-1 suite resolves
every target here.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()

TARGETS = sorted({t for targets in layers.OPS.values() for t in targets})


@pytest.mark.parametrize("target", TARGETS)
def test_ops_target_resolves(target):
    owner, attr = layers.resolve(target)
    assert callable(getattr(owner, attr))
