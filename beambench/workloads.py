"""The benchmark's workloads: each is one closed-loop client of beamkit.

A workload builds its inputs from its seed in :meth:`setup`, then each
call runs one public beamkit operation on them and :meth:`check`
verifies the result.  :meth:`summary` reduces a result to the figures
``reference.json`` pins for the reference seed.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from beamkit import wavio
from beamkit.model import ModelConfig, build_model, tiny_config
from beamkit.rooms import SceneSampling, build_corpus, read_manifest
from beamkit.training import (
    MetricsRow,
    TrainConfig,
    enhance_waveform,
    evaluate,
    load_trained_model,
    save_model_checkpoint,
    train,
)

# The seed whose outputs reference.json pins; every run enhances, trains
# or evaluates it once as its untimed warm-up call.
REFERENCE_SEED = 0
# Block count of the enhanced-output summary, and the relative tolerance
# on every pinned figure: loose enough for a BLAS summation order, tight
# enough that any change to what is computed fails.
REFERENCE_BLOCKS = 20
REFERENCE_RTOL = 1e-6
# Criterion 07's floor on the mean oracle-MVDR SI-SNR gain.
MVDR_GAIN_FLOOR_DB = 5.0


class CheckError(Exception):
    """A call's output failed one of the workload's checks."""


def _require(condition: bool, message: str):
    if not condition:
        raise CheckError(message)


class EnhanceFull:
    """``enhance_waveform`` with the full model on 9-mic 2 s mixtures."""

    name = "enhance-full"
    root_span = "training.enhance_waveform"
    trains = False
    mixtures = 2
    seconds = 2.0
    audio_seconds = seconds  # audio one call enhances

    def __init__(self, seed: int):
        self.seed = seed
        self.calls = 0
        self.digests: dict[int, str] = {}

    def setup(self, work_dir: str):
        manifest = build_corpus(
            os.path.join(work_dir, "corpus"), self.mixtures, self.seed, duration=self.seconds
        )
        checkpoint = save_model_checkpoint(
            os.path.join(work_dir, "model.bkt"), build_model(ModelConfig(), self.seed)
        )
        self.model, self.stft_cfg, _ = load_trained_model(checkpoint)
        _, scenes = read_manifest(manifest)
        root = os.path.dirname(manifest)
        # Through the module, so the traced set-up sees wavio.read_wav.
        self.inputs = [wavio.read_wav(os.path.join(root, s["mixture_path"])) for s in scenes]

    def prepare(self):
        return self.model

    def run(self, model):
        index = self.calls % len(self.inputs)
        self.calls += 1
        return index, enhance_waveform(model, self.inputs[index], self.stft_cfg)

    def check(self, result):
        index, out = result
        data = out.data
        _require(data.shape == (1, self.inputs[index].num_samples), f"output shape {data.shape}")
        _require(bool(np.all(np.isfinite(data))), "output is not finite")
        digest = hashlib.sha256(data.tobytes()).hexdigest()
        _require(
            self.digests.setdefault(index, digest) == digest,
            f"mixture {index}: output differs from an earlier call",
        )

    def summary(self, result) -> dict:
        _, out = result
        blocks = np.array_split(out.data[0], REFERENCE_BLOCKS)
        return {"block_rms": [float(np.sqrt(np.mean(b**2))) for b in blocks]}

    def throughput(self, call_s: float) -> dict:
        return {"enhance_rtf": call_s / self.audio_seconds}


class TrainTiny:
    """One ``train`` epoch of the tiny model on a 2-mic batch of 2 × 2 s."""

    name = "train-tiny"
    root_span = "training.train"
    trains = True
    examples = 2
    seconds = 2.0
    audio_seconds = examples * seconds  # audio one call trains on

    def __init__(self, seed: int):
        self.seed = seed
        self.first = None

    def setup(self, work_dir: str):
        self.manifest = build_corpus(
            os.path.join(work_dir, "corpus"),
            self.examples,
            self.seed,
            sampling=SceneSampling(num_mics=2),
            duration=self.seconds,
        )
        self.checkpoint = save_model_checkpoint(
            os.path.join(work_dir, "model.bkt"), build_model(tiny_config(), self.seed)
        )

    def prepare(self):
        model, self.stft_cfg, _ = load_trained_model(self.checkpoint)
        return model

    def run(self, model):
        cfg = TrainConfig(
            epochs=1, batch_size=self.examples, segment_seconds=self.seconds, seed=self.seed
        )
        return train(model, self.manifest, cfg, self.stft_cfg)

    def check(self, result):
        losses = self.summary(result)
        _require(all(math.isfinite(v) for v in losses.values()), f"losses {losses}")
        if self.first is None:
            self.first = losses
        _require(losses == self.first, f"losses {losses} differ from {self.first}")

    def summary(self, result) -> dict:
        last = result.records[-1]
        return {"train_final_loss": last["train_loss"], "val_loss": last["val_loss"]}

    def throughput(self, call_s: float) -> dict:
        return {"train_examples_per_s": self.examples / call_s}


class EvaluateMvdr:
    """``evaluate(system="oracle-mvdr")`` over a 9-mic corpus of 6 s scenes."""

    name = "evaluate-mvdr"
    root_span = "training.evaluate"
    trains = False
    scenes = 8
    seconds = 6.0
    audio_seconds = scenes * seconds  # audio one call scores

    def __init__(self, seed: int):
        self.seed = seed
        self.first = None

    def setup(self, work_dir: str):
        self.manifest = build_corpus(
            os.path.join(work_dir, "corpus"), self.scenes, self.seed, duration=self.seconds
        )

    def prepare(self):
        return None

    def run(self, model):
        return evaluate("oracle-mvdr", self.manifest)

    def check(self, result):
        rows = [[getattr(r, f) for f in MetricsRow.METRIC_FIELDS] for r in result.rows]
        _require(len(rows) == self.scenes, f"{len(rows)} rows for {self.scenes} scenes")
        _require(all(math.isfinite(v) for row in rows for v in row), "a metric is not finite")
        gain = self.summary(result)["eval_mvdr_si_snr_gain_db"]
        _require(gain >= MVDR_GAIN_FLOOR_DB, f"mean oracle-MVDR gain {gain:.2f} dB")
        if self.first is None:
            self.first = rows
        _require(rows == self.first, "rows differ from an earlier call")

    def summary(self, result) -> dict:
        gains = [r.mvdr_si_snr_gain_db for r in result.rows]
        return {
            "eval_mvdr_si_snr_gain_db": float(np.mean(gains)),
            "si_snr_mvdr_db": [r.si_snr_mvdr_db for r in result.rows],
        }

    def throughput(self, call_s: float) -> dict:
        return {"eval_scenes_per_s": self.scenes / call_s}


WORKLOADS = {w.name: w for w in (EnhanceFull, TrainTiny, EvaluateMvdr)}


def matches_reference(summary: dict, reference: dict) -> bool:
    """Every pinned figure within ``REFERENCE_RTOL`` of its reference."""
    if summary.keys() != reference.keys():
        return False
    for key, expected in reference.items():
        got = np.atleast_1d(np.asarray(summary[key], dtype=float))
        expected = np.atleast_1d(np.asarray(expected, dtype=float))
        if got.shape != expected.shape or not np.allclose(
            got, expected, rtol=REFERENCE_RTOL, atol=REFERENCE_RTOL * np.max(np.abs(expected))
        ):
            return False
    return True
