"""Where the traced run wraps beamkit, and the per-layer metrics it reports.

Spans are named ``<module>.<layer>`` after the beamkit module that owns
the layer.  Every name is reported on every workload; a layer a
workload never reaches reports zero calls.
"""

from __future__ import annotations

import inspect

from beamkit.autodiff import LSTM, Tensor, conv2d, deconv2d, is_grad_enabled

from spans import Tracer, span_times

# The full config's encoder depth; the tiny config fills enc0-enc2/dec0-dec2.
MAX_DEPTH = 5

ROOT_SPANS = (
    "bench.setup",
    "training.enhance_waveform",
    "training.train",
    "training.evaluate",
)

MODEL_SPANS = (
    *(f"model.enc{i}" for i in range(MAX_DEPTH)),
    *(f"model.dec{i}" for i in range(MAX_DEPTH)),
    "model.temporal",
    "model.head",
    "training.forward",
    "training.validation",
)

_CONV_ARGS = inspect.signature(conv2d)
_DECONV_ARGS = inspect.signature(deconv2d)


def _conv_gflop(args, kwargs):
    """Multiply-adds of a valid conv, from its shapes, as 2 flops each."""
    bound = _CONV_ARGS.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    n, c_in, t_in, f_in = a["x"].shape
    c_out, _, kt, kf = a["weight"].shape
    (st, sf), (dt, df) = a["stride"], a["dilation"]
    t_out = (t_in - (kt - 1) * dt - 1) // st + 1
    f_out = (f_in - (kf - 1) * df - 1) // sf + 1
    return "autodiff.conv2d.gflop", 2e-9 * n * c_out * t_out * f_out * c_in * kt * kf


def _deconv_gflop(args, kwargs):
    bound = _DECONV_ARGS.bind(*args, **kwargs)
    n, c_in, t_in, f_in = bound.arguments["x"].shape
    _, c_out, kt, kf = bound.arguments["weight"].shape
    return "autodiff.deconv2d.gflop", 2e-9 * n * c_in * t_in * f_in * c_out * kt * kf


def _graph_nodes(args, kwargs):
    """Nodes reachable from the loss, counted before backward frees them."""
    seen: set[int] = set()
    stack = [args[0]]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return "autodiff.graph_nodes", len(seen)


# (span name, module, attribute, measure)
FUNCTION_SPANS = (
    ("model.filter_and_sum", "beamkit.model", "filter_and_sum_ri", None),
    ("autodiff.conv2d", "beamkit.autodiff.tensor", "conv2d", _conv_gflop),
    ("autodiff.deconv2d", "beamkit.autodiff.tensor", "deconv2d", _deconv_gflop),
    ("training.loss", "beamkit.metrics", "loss_tensors", None),
    ("training.adam_step", "beamkit.training", "adam_step", None),
    ("stft.stft", "beamkit.stft", "stft", None),
    ("stft.istft", "beamkit.stft", "istft", None),
    ("stft.compress", "beamkit.stft", "compress", None),
    ("rooms.rebuild_scene_audio", "beamkit.rooms", "rebuild_scene_audio", None),
    ("rooms.image_method_rir", "beamkit.rooms", "image_method_rir", None),
    ("rooms.convolve", "beamkit.rooms", "fftconvolve", None),
    ("mvdr.oracle_mvdr_enhance", "beamkit.mvdr", "oracle_mvdr_enhance", None),
    ("mvdr.irm", "beamkit.mvdr", "irm", None),
    ("mvdr.spatial_covariance", "beamkit.mvdr", "spatial_covariance", None),
    ("mvdr.steering_from_covariance", "beamkit.mvdr", "steering_from_covariance", None),
    ("mvdr.mvdr_weights", "beamkit.mvdr", "mvdr_weights", None),
    ("mvdr.apply_utterance_beamformer", "beamkit.mvdr", "apply_utterance_beamformer", None),
    ("metrics.si_snr_db", "beamkit.metrics", "si_snr_db", None),
    ("wavio.read_wav", "beamkit.wavio", "read_wav", None),
    ("wavio.write_wav", "beamkit.wavio", "write_wav", None),
)

METHOD_SPANS = (
    ("autodiff.lstm", LSTM, "forward", None),
    ("autodiff.backward", Tensor, "backward", _graph_nodes),
)

SPAN_NAMES = (
    ROOT_SPANS
    + MODEL_SPANS
    + tuple(s[0] for s in FUNCTION_SPANS)
    + tuple(s[0] for s in METHOD_SPANS)
)


def install(tracer: Tracer):
    """Wrap every module-level and class-level probe; call inside
    ``tracer.patched()`` so they are removed again."""
    for name, module, attr, measure in FUNCTION_SPANS:
        tracer.wrap_function(module, attr, name, measure)
    for name, cls, attr, measure in METHOD_SPANS:
        tracer.wrap(cls, attr, name, measure)


def instrument_model(tracer: Tracer, model, training: bool):
    """Wrap one model's layers.  In training, the whole-model forward is
    ``training.forward`` with gradients and ``training.validation``
    without."""
    for i, layer in enumerate(model.encoder):
        tracer.wrap(layer, "forward", f"model.enc{i}")
    for i, layer in enumerate(model.decoder):
        tracer.wrap(layer, "forward", f"model.dec{i}")
    for block in model.temporal:
        tracer.wrap(block, "forward", "model.temporal")
    tracer.wrap(model.head, "forward", "model.head")
    if training:
        with_grad = tracer.wrapper(model.forward, "training.forward")
        without_grad = tracer.wrapper(model.forward, "training.validation")

        def forward(*args, **kwargs):
            return (with_grad if is_grad_enabled() else without_grad)(*args, **kwargs)

        tracer.replace(model, "forward", forward)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    # A model layer's own code is glue around the autodiff ops it calls,
    # so its time including them is what shows where the forward goes.
    for name in MODEL_SPANS:
        units[f"{name}.total_s"] = "s"
    for name in ("autodiff.conv2d", "autodiff.deconv2d"):
        units[f"{name}.gflop"] = "GFLOP"
        units[f"{name}.gflop_per_s"] = "GFLOP/s"
    units["autodiff.graph_nodes"] = "count"
    units["trace.call_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(setup_part, call_part, traced_calls: int, call_s: float, traced_call_s: float):
    """Per-layer values for one set-up plus one call of the workload.

    ``setup_part`` and ``call_part`` are ``Tracer.take()`` results from
    one traced set-up and from ``traced_calls`` traced calls; call
    figures are averaged per call.  ``call_s`` and ``traced_call_s`` are
    the median untraced and traced call times.
    """
    setup_spans, setup_counts = setup_part
    call_spans, call_counts = call_part
    per_setup = span_times(setup_spans)
    per_calls = span_times(call_spans)

    def layer(name):
        setup = per_setup.get(name, (0.0, 0.0, 0))
        calls = per_calls.get(name, (0.0, 0.0, 0))
        return tuple(a + b / traced_calls for a, b in zip(setup, calls))

    def counted(name):
        return setup_counts.get(name, 0.0) + call_counts.get(name, 0.0) / traced_calls

    values = {}
    for name in SPAN_NAMES:
        values[f"{name}.s"], values[f"{name}.total_s"], values[f"{name}.calls"] = layer(name)
    for name in ("autodiff.conv2d", "autodiff.deconv2d"):
        gflop = counted(f"{name}.gflop")
        seconds = values[f"{name}.s"]
        values[f"{name}.gflop"] = gflop
        values[f"{name}.gflop_per_s"] = gflop / seconds if seconds > 0 else 0.0
    backward_calls = values["autodiff.backward.calls"]
    values["autodiff.graph_nodes"] = (
        counted("autodiff.graph_nodes") / backward_calls if backward_calls else 0.0
    )
    values["trace.call_s"] = call_s
    values["trace.overhead_s"] = traced_call_s - call_s
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}
