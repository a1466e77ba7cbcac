"""The evreg functions the benchmark traces by name must keep existing.

perfbench/layers.py wraps each function it names by looking it up on its
evreg module; a renamed or deleted one breaks every traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    yield importlib.import_module("layers")
    # drop the benchmark's own modules so no other test imports them by accident
    for name in set(sys.modules) - before:
        if str(PERFBENCH) in str(getattr(sys.modules[name], "__file__", "")):
            del sys.modules[name]


def test_traced_functions_exist(layers):
    names = [(module, fn) for module, fns in layers.SPANNED.items() for fn in fns]
    names.append(layers.STEP_COUNTER)
    for module, fn in names:
        assert callable(getattr(importlib.import_module(f"evreg.{module}"), fn, None)), (
            f"perfbench traces evreg.{module}.{fn}, which does not exist"
        )
