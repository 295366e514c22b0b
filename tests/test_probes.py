"""The benchmark's trace probes name callables that exist in beamkit.

``beambench/run.py --trace 1`` wraps each probe target by name, so a
renamed or deleted target breaks tracing with an ``AttributeError``.
"""

import importlib
from pathlib import Path

import pytest

BEAMBENCH = Path(__file__).resolve().parents[1] / "beambench"


@pytest.fixture
def probes(monkeypatch):
    monkeypatch.syspath_prepend(str(BEAMBENCH))  # probes imports its sibling spans
    return importlib.import_module("probes")


def test_every_function_probe_resolves(probes):
    for name, module, attr, _ in probes.FUNCTION_SPANS:
        assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_every_method_probe_resolves(probes):
    for name, cls, attr, _ in probes.METHOD_SPANS:
        assert callable(getattr(cls, attr, None)), name
