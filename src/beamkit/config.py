"""Run configuration: one validated object per command-line invocation.

A run is configured by a JSON file (any subset of the schema below),
dotted-path overrides (``section.field=value``), and a run-level seed.
Everything is validated at construction — bad values fail before any
work starts — and the effective configuration is echoed into the output
directory for reproducibility.

Schema (all keys optional, defaults shown by ``default_config()``)::

    {
      "seed": 0,
      "model":    { ... ModelConfig fields ... },
      "train":    { ... TrainConfig fields ...,
                    "manifest": "path", "val_manifest": "path" },
      "simulate": { "count": 40, "duration_seconds": 6.0, "max_order": null,
                    "sampling": { ... SceneSampling fields ... } },
      "enhance":  { "checkpoint": "path", "input_wav": "path" },
      "evaluate": { "manifest": "path", "system": "model",
                    "checkpoint": "path", "max_scenes": null,
                    "dump_audio": false },
      "rir":      { "room_dimensions": [6,5,3], "rt60": 0.3,
                    "source_position": [2,3,1.5],
                    "array_center": [3,2.5,1.5], "num_mics": 9,
                    "mic_spacing": 0.04, "max_order": null }
    }

Type rules, checked by one decoder before any range check: a section is
a JSON object without unknown keys; an integer field takes an integer but
not ``true``, ``1.0`` or ``"1"``; a number field takes an integer or a
float and keeps it as given; a boolean field takes only ``true``/``false``;
a string field takes only a string; a field whose default is ``null`` also
takes ``null``; a list field takes a JSON list (stored as a tuple) whose
entries follow these rules, with two entries for ranges and three for
``rir`` positions.  A violation is a ``ConfigError`` naming the dotted
field, e.g. ``model.unet_block_depths_encoder[1] must be an integer``.
The model's kernels, strides, LSTM depth and spectral compression are
constants, not fields (see :mod:`beamkit.model`), and so are the STFT
front end (see :mod:`beamkit.stft`) and the 16 kHz sample rate
(:data:`beamkit.signals.SAMPLE_RATE`).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from ._decode import as_object, decode
from .errors import ConfigError
from .model import ModelConfig
from .rooms import SceneSampling
from .training import TrainConfig, check_max_scenes

__all__ = [
    "RunConfig",
    "SimulateSection",
    "EnhanceSection",
    "EvaluateSection",
    "RirSection",
    "load_run_config",
    "apply_overrides",
    "default_config",
]

MAX_SEED = 2**64 - 1

EVALUATE_SYSTEMS = ("model", "identity", "oracle-mvdr")


@dataclass(frozen=True)
class SimulateSection:
    """Corpus synthesis settings (scene count, audio length, sampler)."""

    count: int = 40
    duration_seconds: float = 6.0
    max_order: int | None = None
    sampling: SceneSampling = field(default_factory=SceneSampling)

    def __post_init__(self):
        if self.count < 0:
            raise ConfigError(f"simulate.count must be >= 0, got {self.count}")
        if self.duration_seconds <= 0:
            raise ConfigError(
                f"simulate.duration_seconds must be > 0, got {self.duration_seconds}"
            )
        if self.max_order is not None and self.max_order < 0:
            raise ConfigError(
                f"simulate.max_order must be >= 0 or null, got {self.max_order}"
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
                f"evaluate.system must be one of {EVALUATE_SYSTEMS}, "
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
    max_order: int | None = None

    def __post_init__(self):
        for name in ("room_dimensions", "source_position", "array_center"):
            # Integer coordinates are echoed as floats, e.g. 6.0 for 6.
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        if self.rt60 <= 0:
            raise ConfigError(f"rir.rt60 must be > 0, got {self.rt60}")
        if self.num_mics < 1:
            raise ConfigError(f"rir.num_mics must be >= 1, got {self.num_mics}")
        if self.mic_spacing <= 0:
            raise ConfigError(f"rir.mic_spacing must be > 0, got {self.mic_spacing}")
        if self.max_order is not None and self.max_order < 0:
            raise ConfigError(
                f"rir.max_order must be >= 0 or null, got {self.max_order}"
            )


@dataclass(frozen=True)
class RunConfig:
    """Everything one command invocation needs, validated up front."""

    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    train_manifest: str | None = None
    val_manifest: str | None = None
    simulate: SimulateSection = field(default_factory=SimulateSection)
    enhance: EnhanceSection = field(default_factory=EnhanceSection)
    evaluate: EvaluateSection = field(default_factory=EvaluateSection)
    rir: RirSection = field(default_factory=RirSection)

    def __post_init__(self):
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Decode a config dict under the type rules of this module.

        The manifests are written inside the ``train`` section but held
        on :attr:`train_manifest`/:attr:`val_manifest`, so they are
        lifted out first; the top-level names stay unknown keys.
        """
        raw = dict(as_object(raw, ""))
        train = dict(as_object(raw.get("train", {}), "train"))
        lifted = {
            "train_manifest": train.pop("manifest", None),
            "val_manifest": train.pop("val_manifest", None),
        }
        unknown = lifted.keys() & raw.keys()
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return decode(cls, {**raw, "train": train, **lifted}, "")

    def to_dict(self) -> dict:
        train = self.train.to_dict()
        train["manifest"] = self.train_manifest
        train["val_manifest"] = self.val_manifest
        return {
            "seed": self.seed,
            "model": self.model.to_dict(),
            "train": train,
            "simulate": asdict(self.simulate),
            "enhance": asdict(self.enhance),
            "evaluate": asdict(self.evaluate),
            "rir": asdict(self.rir),
        }


def default_config() -> dict:
    """The full schema with every default filled in (JSON-serializable)."""
    return RunConfig().to_dict()


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
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{config_path} is not valid JSON: {exc}") from exc
    raw = apply_overrides(raw, list(overrides))
    if seed is not None:
        raw["seed"] = seed
    return RunConfig.from_dict(raw)
