"""The settable parameters of public functions and constructors, among
them those whose other values became constants: each list is pinned, so
a new knob is added on purpose."""

import inspect

import pytest

from beamkit._decode import decode
from beamkit.autodiff.checkpoint import load_checkpoint
from beamkit.autodiff.tensor import axis_norm, prelu
from beamkit.config import (
    RirSection,
    RunConfig,
    SimulateSection,
    TrainSection,
    load_run_config,
)
from beamkit.metrics import loss_tensors
from beamkit.rooms import (
    SceneSpec,
    build_corpus,
    image_method_rir,
    read_manifest,
    rebuild_scene_audio,
    sample_scene,
    synthesize_mixture,
)
from beamkit.stft import compress, decompress
from beamkit.training import MetricsRow, OptimState, TrainResult, evaluate
from beamkit.wavio import write_wav

PARAMETERS = {
    loss_tensors: ["estimate", "target"],
    compress: ["spec"],
    decompress: ["spec"],
    write_wav: ["path", "wave"],
    prelu: ["a", "alpha"],
    axis_norm: ["x", "gamma", "beta", "axes", "alpha"],
    OptimState: ["learning_rate", "step_count", "first_moment", "second_moment",
                 "plateau_count", "best_val_loss", "halvings"],
    evaluate: ["system", "manifest_path", "out_dir", "max_scenes", "dump_audio"],
    # The best epoch's parameters are in best_checkpoint, not in the result.
    TrainResult: ["records", "best_epoch", "best_val_loss", "best_checkpoint",
                  "final_checkpoint", "loss_curve_path", "summary_path"],
    MetricsRow: ["scene_id", "snr_db", "values", "saturated"],
    RunConfig: ["seed", "model", "train", "simulate", "enhance", "evaluate", "rir"],
    TrainSection: ["epochs", "batch_size", "learning_rate", "segment_seconds", "seed",
                   "manifest", "val_manifest"],
    # The reflection order is each room's default_max_order, and a corpus
    # records each scene's seed itself.
    image_method_rir: ["room", "array", "source"],
    synthesize_mixture: ["speech", "noise", "scene"],
    build_corpus: ["out_dir", "count", "master_seed", "sampling", "duration"],
    sample_scene: ["rng", "cfg"],
    SceneSpec: ["room", "array", "speech_position", "noise_position", "snr_db"],
    SimulateSection: ["count", "duration_seconds", "sampling"],
    RirSection: ["room_dimensions", "rt60", "source_position", "array_center", "num_mics",
                 "mic_spacing"],
    # The readers of the files a run reads, and their one decoder.
    decode: ["cls", "raw", "label"],
    read_manifest: ["manifest_path"],
    rebuild_scene_audio: ["record", "header"],
    load_checkpoint: ["path"],
    load_run_config: ["config_path", "overrides", "seed"],
}


@pytest.mark.parametrize("function", PARAMETERS, ids=lambda f: f.__name__)
def test_parameters_are_pinned(function):
    assert list(inspect.signature(function).parameters) == PARAMETERS[function]
