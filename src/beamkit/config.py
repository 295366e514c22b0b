"""Run configuration: one validated object per command-line invocation.

A run is configured by a JSON file (any subset of the schema below),
dotted-path overrides (``section.field=value``), and a run-level seed.
Everything is validated at construction — bad values fail before any
work starts — and the effective configuration is echoed into the output
directory for reproducibility.

Schema (all keys optional, defaults shown by ``RunConfig().to_dict()``)::

    {
      "seed": 0,
      "model":    { ... ModelConfig fields ... },
      "train":    { ... TrainConfig fields ...,
                    "manifest": "path", "val_manifest": "path" },
      "simulate": { "count": 40, "duration_seconds": 6.0,
                    "sampling": { ... SceneSampling fields ... } },
      "enhance":  { "checkpoint": "path", "input_wav": "path" },
      "evaluate": { "manifest": "path", "system": "model",
                    "checkpoint": "path", "max_scenes": null,
                    "dump_audio": false },
      "rir":      { "room_dimensions": [6,5,3], "rt60": 0.3,
                    "source_position": [2,3,1.5],
                    "array_center": [3,2.5,1.5], "num_mics": 9,
                    "mic_spacing": 0.04 }
    }

Each key is one :class:`RunConfig` field and each section one dataclass,
decoded and echoed as written.  The ``train`` section is
:class:`TrainSection`: the trainer's :class:`~.training.TrainConfig`
fields plus the manifests it reads.

Type rules, checked by one decoder (:func:`beamkit._decode.decode`)
before any range check: a section is a JSON object without unknown
keys; an integer field takes an integer but not ``true``, ``1.0`` or
``"1"``; a number field takes an integer or a finite float and keeps it
as given; a boolean field takes only ``true``/``false``;
a string field takes only a string; a field whose default is ``null`` also
takes ``null``; a list field takes a JSON list (stored as a tuple) whose
entries follow these rules, with two entries for ranges and three for
``rir`` positions.  A violation is a ``ConfigError`` naming the dotted
field, e.g. ``model.unet_block_depths_encoder[1] must be an integer``,
and so is a range error, e.g. ``simulate.sampling.room_length must
satisfy 0 < low <= high``: each section names the bare field and the
decoder puts the section's path in front.
The records of manifests and checkpoints follow the same rules, except
that their undeclared keys are passed over and a field without a
default is required (a ``list`` or ``dict`` field takes any list or object).
The model's kernels, strides, LSTM depth and spectral compression are
constants, not fields (see :mod:`beamkit.model`), and so are the STFT
front end (see :mod:`beamkit.stft`), the 16 kHz sample rate
(:data:`beamkit.signals.SAMPLE_RATE`) and the image-method reflection
order, which each room sets (:func:`beamkit.rooms.default_max_order`).
An RT60, in ``rir.rt60`` or ``simulate.sampling.rt60_range``, is at most
:data:`beamkit.rooms.MAX_RT60` seconds, and ``simulate.duration_seconds``
at most :data:`beamkit.rooms.MAX_DURATION` seconds.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from ._decode import decode, require_finite
from .errors import ConfigError
from .model import ModelConfig
from .rooms import MAX_DURATION, MAX_RT60, SceneSampling
from .training import SYSTEMS, TrainConfig, check_max_scenes

__all__ = [
    "RunConfig",
    "TrainSection",
    "SimulateSection",
    "EnhanceSection",
    "EvaluateSection",
    "RirSection",
    "load_run_config",
    "apply_overrides",
]

MAX_SEED = 2**64 - 1

EVALUATE_SYSTEMS = ("model", *SYSTEMS)


@dataclass(frozen=True)
class SimulateSection:
    """Corpus synthesis settings (scene count, audio length, sampler)."""

    count: int = 40
    duration_seconds: float = 6.0
    sampling: SceneSampling = field(default_factory=SceneSampling)

    def __post_init__(self):
        require_finite(self)
        if self.count < 0:
            raise ConfigError(f"count must be >= 0, got {self.count}")
        if self.duration_seconds <= 0:
            raise ConfigError(f"duration_seconds must be > 0, got {self.duration_seconds}")
        if self.duration_seconds > MAX_DURATION:
            raise ConfigError(
                f"duration_seconds must not exceed {MAX_DURATION} s, "
                f"got {self.duration_seconds}"
            )


@dataclass(frozen=True)
class EnhanceSection:
    """Single-file enhancement: which checkpoint, which input mixture."""

    checkpoint: str | None = None
    input_wav: str | None = None


@dataclass(frozen=True)
class EvaluateSection:
    """Which system to score on which manifest."""

    manifest: str | None = None
    system: str = "model"
    checkpoint: str | None = None
    max_scenes: int | None = None
    dump_audio: bool = False

    def __post_init__(self):
        if self.system not in EVALUATE_SYSTEMS:
            raise ConfigError(
                f"system must be one of {EVALUATE_SYSTEMS}, "
                f"got {self.system!r}"
            )
        check_max_scenes(self.max_scenes)


@dataclass(frozen=True)
class RirSection:
    """One-shot impulse-response dump: one source traced to a uniform
    linear array, with the nearest-sample taps every corpus scene uses."""

    room_dimensions: tuple[float, float, float] = (6.0, 5.0, 3.0)
    rt60: float = 0.3
    source_position: tuple[float, float, float] = (2.0, 3.0, 1.5)
    array_center: tuple[float, float, float] = (3.0, 2.5, 1.5)
    num_mics: int = 9
    mic_spacing: float = 0.04

    def __post_init__(self):
        require_finite(self)
        if not 0 < self.rt60 <= MAX_RT60:
            raise ConfigError(f"rt60 must be in (0, {MAX_RT60}], got {self.rt60}")
        if self.num_mics < 1:
            raise ConfigError(f"num_mics must be >= 1, got {self.num_mics}")
        if self.mic_spacing <= 0:
            raise ConfigError(f"mic_spacing must be > 0, got {self.mic_spacing}")


@dataclass(frozen=True)
class TrainSection(TrainConfig):
    """The ``train`` section: the trainer's :class:`TrainConfig` fields
    plus the corpus it reads, a training manifest and an optional
    validation manifest.  Checkpoints record only the trainer's fields."""

    manifest: str | None = None
    val_manifest: str | None = None


@dataclass(frozen=True)
class RunConfig:
    """Everything one command invocation needs, validated up front: the
    seed and one section per schema key."""

    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainSection = field(default_factory=TrainSection)
    simulate: SimulateSection = field(default_factory=SimulateSection)
    enhance: EnhanceSection = field(default_factory=EnhanceSection)
    evaluate: EvaluateSection = field(default_factory=EvaluateSection)
    rir: RirSection = field(default_factory=RirSection)

    def __post_init__(self):
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Decode a config dict under the type rules of this module."""
        return decode(cls, raw, "")

    def to_dict(self) -> dict:
        return asdict(self)


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply ``dotted.path=value`` assignments onto a raw config dict.

    Values parse as JSON when possible (numbers, booleans, null, lists)
    and fall back to plain strings, so ``model.bf_type=mask`` and
    ``train.learning_rate=1e-3`` both do what they look like.  Returns a
    new dict; the input is not modified.
    """
    result = json.loads(json.dumps(raw))  # deep copy via JSON (config is JSON data)
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(
                f"override {assignment!r} must look like section.field=value"
            )
        dotted, text = assignment.split("=", 1)
        parts = [p for p in dotted.strip().split(".") if p]
        if not parts:
            raise ConfigError(f"override {assignment!r} names no field")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        target = result
        for part in parts[:-1]:
            node = target.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(
                    f"override {assignment!r} descends into non-object "
                    f"field {part!r}"
                )
            target = node
        target[parts[-1]] = value
    return result


def load_run_config(
    config_path: str | os.PathLike | None,
    overrides: list[str] = (),
    seed: int | None = None,
) -> RunConfig:
    """File → overrides → seed flag, then full validation."""
    if config_path is None:
        raw = {}
    else:
        try:
            with open(os.fspath(config_path), "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{config_path} is not UTF-8 JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{config_path}: config must be an object, got {raw!r}")
    raw = apply_overrides(raw, list(overrides))
    if seed is not None:
        raw["seed"] = seed
    return RunConfig.from_dict(raw)
