"""Tests of the benchmark itself: span arithmetic, metric declarations,
wrapper removal and seeded inputs.  Run with

    python3 -m pytest beambench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

import probes
import run
import workloads
from spans import Span, Tracer, span_times

from beamkit.autodiff import LSTM, Tensor
from beamkit.model import build_model, tiny_config
from beamkit.signals import WaveBuffer
from beamkit.stft import StftConfig

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
        Span("a", 11.0, 12.0, None),
    ]
    times = span_times(spans)
    assert times["root"] == pytest.approx((6.0, 10.0, 1))
    assert times["a"] == pytest.approx((3.0, 4.0, 2))
    assert times["leaf"] == pytest.approx((1.0, 1.0, 1))
    assert times["b"] == pytest.approx((1.0, 1.0, 1))


def test_tracer_records_parents_from_nesting():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    spans, _ = tracer.take()
    assert [(s.name, s.parent) for s in spans] == [("outer", None), ("inner", 0), ("inner", 0)]
    assert all(s.start <= s.end for s in spans)
    outer, first, second = spans
    own, total, calls = span_times(spans)["outer"]
    assert own == pytest.approx(total - (first.end - first.start) - (second.end - second.start))
    assert tracer.take() == ([], {})


def _declared(section: str) -> dict:
    entries = BENCHMARK[section]
    assert all(e["better"] in ("higher", "lower") for e in entries)
    return {e["name"]: e["unit"] for e in entries}


def test_end_to_end_metrics_emitted_as_declared():
    metrics = run.end_to_end_metrics([0.3, 0.2, 0.4], [1.0, 3.0, 2.0], 4.0, 2048)
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("end_to_end")
    assert metrics["setup_s"]["value"] == 0.3
    assert metrics["rtf"]["value"] == 0.5
    assert metrics["peak_rss_mb"]["value"] == 2.0


def test_per_layer_metrics_emitted_as_declared():
    declared = _declared("per_layer")
    assert probes.per_layer_units() == declared
    metrics = probes.layer_metrics(([], {}), ([], {}), 1, 1.0, 1.25)
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.25)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def _bindings() -> dict:
    """Every attribute of every beamkit module and of the wrapped classes."""
    owners = {n: m for n, m in sys.modules.items() if n == "beamkit" or n.startswith("beamkit.")}
    owners.update({"LSTM": LSTM, "Tensor": Tensor})
    return {(n, k): v for n, owner in owners.items() for k, v in vars(owner).items()}


def test_wrappers_are_removed_after_the_traced_block():
    import beamkit.training as training

    before = _bindings()
    original_stft = training.stft
    model = build_model(tiny_config(), 0)
    wave = WaveBuffer(np.zeros((2, 1600)), 16000)
    tracer = Tracer()
    with tracer.patched():
        probes.install(tracer)
        probes.instrument_model(tracer, model, training=True)
        assert training.stft is not original_stft
        assert "forward" in vars(model.head)
        training.stft(wave, StftConfig())
    spans, _ = tracer.take()
    assert [s.name for s in spans] == ["stft.stft"]

    assert _bindings().keys() == before.keys()
    assert all(value is before[key] for key, value in _bindings().items())
    assert "forward" not in vars(model) and "forward" not in vars(model.head)
    assert all("forward" not in vars(layer) for layer in model.encoder)
    training.stft(wave, StftConfig())
    assert tracer.take() == ([], {})


def _files(directory: str) -> dict:
    found = {}
    for folder, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, directory)] = fh.read()
    return found


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_sets_the_generated_inputs(name, tmp_path):
    spec = workloads.WORKLOADS[name]
    made = {}
    for label, seed in (("a", 1), ("again", 1), ("b", 2)):
        spec(seed).setup(str(tmp_path / label))
        made[label] = _files(str(tmp_path / label))
    assert made["a"] == made["again"]
    assert made["a"].keys() == made["b"].keys()
    assert all(made["a"][k] != made["b"][k] for k in made["a"] if k.endswith(".wav"))


def test_reference_tolerance_admits_rounding_and_rejects_changes():
    reference = {"x": [1.0, 2.0], "y": 3.0}
    assert workloads.matches_reference({"x": [1.0 + 1e-10, 2.0], "y": 3.0}, reference)
    assert not workloads.matches_reference({"x": [1.001, 2.0], "y": 3.0}, reference)
    assert not workloads.matches_reference({"x": [1.0, 2.0]}, reference)
