"""Adam optimizer, plateau schedule, trainer, and evaluation harness.

The trainer consumes a scene-corpus manifest, crops every utterance to a
fixed-length leading segment, and runs mini-batch gradient descent on
the spectral loss with per-epoch validation, plateau-driven learning
rate halving, and best-checkpoint tracking.  Everything is seeded and
single-threaded, so reruns with the same inputs are byte-identical —
loss curves, checkpoints, and metric tables alike.

The evaluation harness regenerates each manifest scene from its
recorded seed (bit-exactly), runs the system under test next to the
always-computed oracle mask-based MVDR baseline, and reports SI-SNR and
SNR per scene with per-mixing-SNR aggregate means.  Its schema is two
tables: :data:`ESTIMATES` × :data:`METRICS` gives every metric column,
gain column and summary column, and :data:`SYSTEMS` names the systems
besides a trained model.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from ._decode import require_finite
from .autodiff import Tensor, is_grad_enabled, load_checkpoint, no_grad, save_checkpoint
from .errors import (
    CheckpointError,
    ConfigError,
    ConfigMismatchError,
    DivergenceError,
    NonFiniteError,
    ValidationError,
)
from .metrics import SATURATION_DB, loss_tensors, si_snr_db, snr_db
from .model import ModelConfig, NeuralBeamformer, build_model, ri_stack
from .mvdr import oracle_mvdr_enhance
from .rooms import read_manifest, rebuild_scene_audio
from .signals import REFERENCE_CHANNEL, SAMPLE_RATE, WaveBuffer
from .stft import StftConfig, compress, decompress, istft, stft
from .wavio import read_wav, write_wav

__all__ = [
    "TrainConfig",
    "OptimState",
    "TrainResult",
    "MetricsRow",
    "EvaluationResult",
    "ESTIMATES", "METRICS", "SYSTEMS",
    "adam_step",
    "lr_schedule",
    "train",
    "evaluate",
    "save_model_checkpoint",
    "enhance_waveform",
    "load_trained_model",
    "write_jsonl",
    "format_aligned",
]

CHECKPOINT_META_KIND = "model_checkpoint"


# ---------------------------------------------------------------------------
# configuration


# The paper's fixed training recipe: Adam's coefficients, and the number
# of epochs without a better validation loss before the rate halves.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
PLATEAU_PATIENCE = 2


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the desk-scale trainer.

    Each batch is one forward pass and one backward pass of the mean
    spectral loss (weights :data:`~.metrics.LOSS_WEIGHT_RI` and
    :data:`~.metrics.LOSS_WEIGHT_MAG`), followed by one Adam step with
    :data:`ADAM_BETA1`, :data:`ADAM_BETA2` and :data:`ADAM_EPSILON`.  The
    learning rate starts at ``learning_rate`` and halves after
    :data:`PLATEAU_PATIENCE` epochs without a better validation loss.
    ``learning_rate=0`` is allowed as a diagnostic mode that freezes the
    parameters while exercising the full loop.
    """

    epochs: int = 20
    batch_size: int = 2
    learning_rate: float = 5e-4
    segment_seconds: float = 2.0
    seed: int = 0

    def __post_init__(self):
        require_finite(self)
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0.0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.segment_seconds <= 0.0:
            raise ConfigError(f"segment_seconds must be > 0, got {self.segment_seconds}")

    def to_dict(self) -> dict:
        """The trainer's fields only, as a checkpoint records them."""
        return {f.name: getattr(self, f.name) for f in fields(TrainConfig)}


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimState:
    """What changes as a run trains: the learning rate, the Adam moments
    and step count, and the plateau-halving schedule state.

    The learning rate starts at the value it is built with and never
    increases: :func:`lr_schedule` halves it whenever validation loss
    fails to improve for :data:`PLATEAU_PATIENCE` consecutive epochs.  A
    zero learning rate is the diagnostic freeze mode; otherwise it stays
    positive (halving cannot reach zero).
    """

    learning_rate: float
    step_count: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)
    plateau_count: int = 0
    best_val_loss: float = math.inf
    halvings: int = 0


def adam_step(params: dict, state: OptimState) -> OptimState:
    """One Adam update (bias-corrected) applied to ``params`` in place.

    ``params`` maps names to leaf tensors; each update reads the tensor's
    ``.grad`` (``None`` counts as a zero gradient) and the coefficients
    :data:`ADAM_BETA1`, :data:`ADAM_BETA2` and :data:`ADAM_EPSILON`.
    Parameters are visited in sorted-name order so the update sequence is
    deterministic.  Returns ``state`` for chaining.
    """
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    for name in sorted(params):
        param = params[name]
        grad = np.zeros_like(param.data) if param.grad is None else param.grad
        if grad.shape != param.data.shape:
            raise ValidationError(
                f"gradient for {name!r} has shape {grad.shape}, parameter "
                f"has {param.data.shape}"
            )
        if name not in state.first_moment:
            state.first_moment[name] = np.zeros_like(param.data)
            state.second_moment[name] = np.zeros_like(param.data)
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        param.data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return state


def lr_schedule(state: OptimState, validation_loss: float) -> OptimState:
    """Plateau rule: halve the learning rate after
    :data:`PLATEAU_PATIENCE` stalls.

    An epoch improves only if its validation loss is strictly below the
    best seen so far (no minimum delta).  Improvement resets the stall
    counter; once the counter reaches the patience the learning rate is
    halved and the counter resets.
    """
    if not math.isfinite(validation_loss):
        raise ValidationError(
            f"validation loss must be finite, got {validation_loss}"
        )
    if validation_loss < state.best_val_loss:
        state.best_val_loss = validation_loss
        state.plateau_count = 0
    else:
        state.plateau_count += 1
        if state.plateau_count >= PLATEAU_PATIENCE:
            state.learning_rate *= 0.5
            state.halvings += 1
            state.plateau_count = 0
    return state


# ---------------------------------------------------------------------------
# structured records


def write_jsonl(path: str | os.PathLike, records: list[dict]) -> str:
    """Write records as line-delimited JSON with sorted keys."""
    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def format_aligned(records: list[dict], columns: list[str]) -> str:
    """Render records as an aligned-column text table."""

    def cell(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    rows = [[cell(record.get(col)) for col in columns] for record in records]
    widths = [
        max(len(col), *(len(row[i]) for row in rows)) if rows else len(col)
        for i, col in enumerate(columns)
    ]
    lines = ["  ".join(col.rjust(widths[i]) for i, col in enumerate(columns))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# corpus loading


def _load_examples(
    manifest_path: str | os.PathLike, model_cfg: ModelConfig, segment_seconds: float
):
    """Manifest → list of (input_planes, target_planes) training pairs.

    Each utterance is cropped to its leading ``segment_seconds`` (the
    full utterance if shorter), transformed, compressed (:func:`compress`),
    and stacked into real/imaginary planes.
    All utterances must share a length so batches stack, and every WAV
    must be at :data:`~.signals.SAMPLE_RATE`.
    """
    header, scenes = read_manifest(manifest_path)
    if not scenes:
        raise ValidationError(f"{manifest_path}: manifest lists no scenes")
    root = os.path.dirname(os.path.abspath(os.fspath(manifest_path)))

    examples = []
    segment = None
    for record in scenes:
        mixture = read_wav(os.path.join(root, record["mixture_path"]), expect_rate=SAMPLE_RATE)
        target = read_wav(os.path.join(root, record["target_path"]), expect_rate=SAMPLE_RATE)
        if mixture.num_channels != model_cfg.mics:
            raise ConfigMismatchError(
                f"scene {record['id']} has {mixture.num_channels} channels, "
                f"model expects {model_cfg.mics}"
            )
        if target.num_channels != 1:
            raise ValidationError(
                f"scene {record['id']} target must be mono, got "
                f"{target.num_channels} channels"
            )
        want = int(round(segment_seconds * SAMPLE_RATE))
        take = min(want, mixture.num_samples, target.num_samples)
        if segment is None:
            segment = take
        elif take != segment:
            raise ValidationError(
                f"scene {record['id']} yields a {take}-sample segment; "
                f"previous scenes yielded {segment} (batching needs equal "
                "lengths)"
            )
        mixture = WaveBuffer(mixture.data[:, :segment], SAMPLE_RATE)
        target = WaveBuffer(target.data[:, :segment], SAMPLE_RATE)

        mix_spec = stft(mixture)
        tgt_spec = stft(target)
        mix_spec = compress(mix_spec)
        tgt_spec = compress(tgt_spec)
        examples.append((ri_stack(mix_spec), ri_stack(tgt_spec)))
    return examples


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    """Loss curve records, the best validation epoch and loss, and the
    paths written under ``out_dir`` (None without one).  The best
    epoch's parameters are in ``best_checkpoint``."""

    records: list
    best_epoch: int
    best_val_loss: float
    best_checkpoint: str | None = None
    final_checkpoint: str | None = None
    loss_curve_path: str | None = None
    summary_path: str | None = None


def _batch_loss(model, examples, indices) -> tuple[float, float, float]:
    """Loss of the batch of ``examples`` at ``indices``, stacked in that
    order; ``total`` is backpropagated when gradients are enabled.

    Returns the ``(total, ri, mag)`` per-bin mean loss values.
    """
    inputs = np.stack([examples[i][0] for i in indices])
    targets = np.stack([examples[i][1] for i in indices])
    total, ri, mag = loss_tensors(model.forward(Tensor(inputs)), Tensor(targets))
    if is_grad_enabled():
        total.backward()
    return float(total.data), float(ri.data), float(mag.data)


def _batches(indices, size: int) -> list:
    """``indices`` cut into consecutive batches of ``size`` (the last may
    be shorter)."""
    return [indices[start : start + size] for start in range(0, len(indices), size)]


def _size_weighted_means(rows: list[tuple]) -> list[float]:
    """Per-example means of per-batch ``(size, value, ...)`` rows."""
    count = sum(row[0] for row in rows)
    return [sum(row[k] * row[0] for row in rows) / count for k in range(1, len(rows[0]))]


def train(
    model: NeuralBeamformer,
    manifest_path: str | os.PathLike,
    cfg: TrainConfig = TrainConfig(),
    stft_cfg: StftConfig = StftConfig(),
    val_manifest_path: str | os.PathLike | None = None,
    out_dir: str | os.PathLike | None = None,
) -> TrainResult:
    """Mini-batch training with per-epoch validation and plateau halving.

    Scenes come from ``manifest_path``; validation runs over
    ``val_manifest_path`` when given, else over the training set.  With
    ``out_dir`` set, the loss curve (line-delimited JSON), an aligned
    text summary, and best/final checkpoints are written there.  The
    model is left holding its final-epoch parameters; the best
    validation epoch and loss are returned, and with ``out_dir`` set
    that epoch's parameters are saved to ``checkpoint_best.bkt``.
    ``stft_cfg`` is the fixed front end; it has nothing to set.

    Raises
    ------
    DivergenceError
        When any batch produces a non-finite loss or activation; the
        error names the 1-based epoch and batch.
    """
    examples = _load_examples(manifest_path, model.cfg, cfg.segment_seconds)
    if val_manifest_path is not None:
        val_examples = _load_examples(val_manifest_path, model.cfg, cfg.segment_seconds)
    else:
        val_examples = examples

    params = dict(model.named_parameters())
    state = OptimState(cfg.learning_rate)
    rng = np.random.default_rng(np.random.SeedSequence((int(cfg.seed), 0x7261494E)))

    out_dir = os.fspath(out_dir) if out_dir is not None else None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    records: list[dict] = []
    best_epoch = 0
    best_path = os.path.join(out_dir, "checkpoint_best.bkt") if out_dir else None
    final_path = os.path.join(out_dir, "checkpoint_final.bkt") if out_dir else None

    val_batches = _batches(range(len(val_examples)), cfg.batch_size)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(examples))
        epoch_lr = state.learning_rate
        batch_losses: list[tuple[int, float, float, float]] = []
        for batch_index, batch in enumerate(_batches(order, cfg.batch_size), 1):
            # The shuffle chooses each batch's composition; stacking in
            # sorted index order makes equal-composition batches
            # bit-identical regardless of the draw order.
            picked = np.sort(batch)
            model.zero_grad()
            try:
                losses = _batch_loss(model, examples, picked)
                if not math.isfinite(losses[0]):
                    raise DivergenceError(epoch, batch_index)
                adam_step(params, state)
            except NonFiniteError as exc:
                raise DivergenceError(epoch, batch_index, str(exc)) from exc
            batch_losses.append((len(picked), *losses))
        model.zero_grad()

        train_loss, train_ri, train_mag = _size_weighted_means(batch_losses)
        with no_grad():
            val_loss = _size_weighted_means(
                [(len(b), *_batch_loss(model, val_examples, b)) for b in val_batches]
            )[0]
        if not math.isfinite(val_loss):
            raise DivergenceError(epoch, 0, "validation loss is not finite")

        improved = val_loss < state.best_val_loss
        if improved:
            best_epoch = epoch
            if best_path is not None:
                save_model_checkpoint(best_path, model, cfg, epoch, val_loss)
        lr_schedule(state, val_loss)

        records.append(
            {
                "kind": "epoch",
                "epoch": epoch,
                "train_loss": train_loss,
                "train_ri": train_ri,
                "train_mag": train_mag,
                "val_loss": val_loss,
                "learning_rate": epoch_lr,
                "halvings": state.halvings,
                "improved": bool(improved),
            }
        )

    curve_path = summary_path = None
    if out_dir is not None:
        save_model_checkpoint(final_path, model, cfg, cfg.epochs, records[-1]["val_loss"])
        curve_path = write_jsonl(os.path.join(out_dir, "loss_curve.jsonl"), records)
        summary_path = os.path.join(out_dir, "training_summary.txt")
        columns = ["epoch", "train_loss", "val_loss", "train_ri", "train_mag",
                   "learning_rate", "halvings", "improved"]
        with open(summary_path, "w", encoding="utf-8") as fh:
            fh.write(format_aligned(records, columns))

    return TrainResult(
        records=records,
        best_epoch=best_epoch,
        best_val_loss=state.best_val_loss,
        best_checkpoint=best_path,
        final_checkpoint=final_path,
        loss_curve_path=curve_path,
        summary_path=summary_path,
    )


def save_model_checkpoint(
    path: str | os.PathLike,
    model: NeuralBeamformer,
    train_cfg: TrainConfig = TrainConfig(),
    epoch: int = 0,
    val_loss: float = 0.0,
) -> str:
    """Save the model's current parameters with enough metadata for
    :func:`load_trained_model`; ``train_cfg``, ``epoch`` and ``val_loss``
    are recorded as provenance, which loading does not decode."""
    meta = {
        "kind": CHECKPOINT_META_KIND,
        "model": model.cfg.to_dict(),
        "train": train_cfg.to_dict(),
        "epoch": int(epoch),
        "val_loss": float(val_loss),
    }
    save_checkpoint(path, model.state_dict(), meta)
    return os.fspath(path)


def load_trained_model(path: str | os.PathLike) -> tuple[NeuralBeamformer, StftConfig, dict]:
    """Rebuild a model from a checkpoint: ``(model, StftConfig(), meta)``.

    Any fault of the file is a CheckpointError: another ``kind``, a
    ``model`` entry that is missing or does not decode (such as one with
    the ``freq_bins`` of a settable front end), or tensors that do not fit
    it.  Any ``stft`` entry is ignored, as are the provenance entries."""
    tensors, meta = load_checkpoint(path)
    if meta.get("kind") != CHECKPOINT_META_KIND:
        raise CheckpointError(
            f"{path}: checkpoint metadata: kind {meta.get('kind')!r} is not "
            f"{CHECKPOINT_META_KIND!r}"
        )
    try:
        model_cfg = ModelConfig.from_dict(meta.get("model"))
    except ConfigError as exc:
        raise CheckpointError(f"{path}: checkpoint metadata: {exc}") from exc
    model = build_model(model_cfg, seed=0)
    try:
        model.load_state_dict(tensors)
    except ConfigMismatchError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return model, StftConfig(), meta


# ---------------------------------------------------------------------------
# evaluation


# The first table: every estimate is scored by every metric against the
# reference-channel speech image, in the column ``<metric>_<estimate>_db``.
ESTIMATES = ("noisy", "enhanced", "mvdr")
METRICS = {"si_snr": si_snr_db, "snr": snr_db}


def _column(metric: str, estimate: str) -> str:
    return f"{metric}_{estimate}_db"


# Gain column -> (metric, estimate): the estimate's score minus the noisy
# input's.  The system's gains keep their unprefixed names; the others
# are prefixed with their estimate.
_GAINS = {
    f"{'' if estimate == 'enhanced' else estimate + '_'}{metric}_gain_db": (metric, estimate)
    for estimate in ESTIMATES
    if estimate != "noisy"
    for metric in METRICS
}


@dataclass(frozen=True)
class MetricsRow:
    """Per-scene metrics of the :data:`ESTIMATES` (the noisy mixture, the
    system and the oracle MVDR baseline) under the :data:`METRICS`.

    ``values`` maps each of :attr:`METRIC_FIELDS` to its score; every
    metric column and every gain in :attr:`GAIN_FIELDS` reads as an
    attribute, e.g. ``row.si_snr_mvdr_db`` and ``row.mvdr_si_snr_gain_db``.
    ``saturated`` names every metric column that hit the ±60 dB cap.
    """

    scene_id: str
    snr_db: float
    values: dict
    saturated: tuple = ()

    METRIC_FIELDS = tuple(_column(m, e) for m in METRICS for e in ESTIMATES)
    GAIN_FIELDS = tuple(_GAINS)

    def __post_init__(self):
        for name, value in self.values.items():
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        unknown = set(self.saturated) - set(self.METRIC_FIELDS)
        if unknown:
            raise ValidationError(f"unknown saturated flags: {sorted(unknown)}")

    def __getattr__(self, name):
        # ``values`` is absent while pickle or copy rebuilds a row.
        values = self.__dict__.get("values", {})
        if name in values:
            return values[name]
        if name in _GAINS:
            metric, estimate = _GAINS[name]
            return values[_column(metric, estimate)] - values[_column(metric, "noisy")]
        raise AttributeError(name)

    def to_dict(self) -> dict:
        columns = {name: getattr(self, name) for name in self.METRIC_FIELDS + self.GAIN_FIELDS}
        return {"kind": "scene_metrics", "scene_id": self.scene_id, "snr_db": self.snr_db,
                **columns, "saturated": list(self.saturated)}


@dataclass
class EvaluationResult:
    rows: list
    aggregates: list
    metrics_path: str | None = None
    summary_path: str | None = None


def enhance_waveform(
    model: NeuralBeamformer, mixture: WaveBuffer, stft_cfg: StftConfig = StftConfig()
) -> WaveBuffer:
    """Full waveform pipeline: transform, enhance, undo compression, invert.
    ``stft_cfg`` is the fixed front end; it has nothing to set."""
    enhanced = model.enhance_spectrogram(stft(mixture))
    return istft(decompress(enhanced))


def _mvdr_waveform(mixture, speech_img, noise_img) -> np.ndarray:
    def reference_stft(img: WaveBuffer):
        # The oracle mask reads only the reference channel of each image.
        ref = img.data[REFERENCE_CHANNEL : REFERENCE_CHANNEL + 1]
        return stft(WaveBuffer(ref, img.sample_rate))

    enhanced = oracle_mvdr_enhance(
        stft(mixture), reference_stft(speech_img), reference_stft(noise_img)
    )
    return istft(enhanced).data[0]


# The second table: named systems ``(mixture, speech_image, noise_image,
# mvdr_estimate) -> mono samples``.
SYSTEMS = {
    "identity": lambda mixture, speech_img, noise_img, mvdr_est: mixture.data[REFERENCE_CHANNEL],
    "oracle-mvdr": lambda mixture, speech_img, noise_img, mvdr_est: mvdr_est,
}


def _system_callable(system):
    """Resolve an :func:`evaluate` system, a model or a :data:`SYSTEMS`
    name, into one function of the :data:`SYSTEMS` signature."""
    if isinstance(system, NeuralBeamformer):
        return lambda mixture, *_: enhance_waveform(system, mixture).data[0]
    if isinstance(system, str) and system in SYSTEMS:
        return SYSTEMS[system]
    named = ", ".join(map(repr, SYSTEMS))
    raise ConfigError(f"system must be a model or one of {named}, got {system!r}")


def check_max_scenes(max_scenes) -> None:
    """Reject an :func:`evaluate` scene cap that is neither None nor an int ≥ 1."""
    if max_scenes is not None and (
        isinstance(max_scenes, bool)
        or not isinstance(max_scenes, (int, np.integer))
        or max_scenes < 1
    ):
        raise ConfigError(
            f"max_scenes must be an integer >= 1 or null, got {max_scenes!r}"
        )


def evaluate(
    system,
    manifest_path: str | os.PathLike,
    out_dir: str | os.PathLike | None = None,
    max_scenes: int | None = None,
    dump_audio: bool = False,
) -> EvaluationResult:
    """Score a system against the noisy mixture and the oracle MVDR.

    ``system`` is a trained model or a name in :data:`SYSTEMS`
    (``"identity"`` passes the noisy reference channel through,
    ``"oracle-mvdr"`` is the baseline itself); anything else is a
    ConfigError before any scene is regenerated.  A new system is one
    more :data:`SYSTEMS` entry.

    Every scene is regenerated bit-exactly from its manifest seed, so
    the oracle columns have access to the true source images.  Each of
    the :data:`ESTIMATES` is scored once by each of the :data:`METRICS`
    into a :class:`MetricsRow`.  Rows are aggregated into per-mixing-SNR
    means plus an overall mean.  With ``out_dir`` set, rows and
    aggregates go to ``metrics.jsonl`` and an aligned table to
    ``metrics_summary.txt``; ``dump_audio`` adds each scene's enhanced
    output under ``audio/``.
    """
    enhance = _system_callable(system)
    check_max_scenes(max_scenes)

    header, scenes = read_manifest(manifest_path)
    if max_scenes is not None:
        scenes = scenes[:max_scenes]
    if not scenes:
        raise ValidationError(f"{manifest_path}: manifest lists no scenes")
    if dump_audio and out_dir is None:
        raise ConfigError("dump_audio requires an output directory")

    audio_dir = None
    if dump_audio:
        audio_dir = os.path.join(os.fspath(out_dir), "audio")
        os.makedirs(audio_dir, exist_ok=True)

    rows = [_score_scene(record, header, enhance, audio_dir) for record in scenes]
    aggregates = _aggregate(rows)

    metrics_path = summary_path = None
    if out_dir is not None:
        out_dir = os.fspath(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = write_jsonl(
            os.path.join(out_dir, "metrics.jsonl"),
            [row.to_dict() for row in rows] + aggregates,
        )
        summary_path = os.path.join(out_dir, "metrics_summary.txt")
        # The summary shows the gains in the first metric only.
        headline = next(iter(METRICS))
        gains = [name for name, (metric, _) in _GAINS.items() if metric == headline]
        columns = ["bucket", "count", *MetricsRow.METRIC_FIELDS, *gains]
        with open(summary_path, "w", encoding="utf-8") as fh:
            fh.write(format_aligned(aggregates, columns))

    return EvaluationResult(rows, aggregates, metrics_path, summary_path)


def _score_scene(record: dict, header: dict, enhance, audio_dir: str | None) -> MetricsRow:
    """Regenerate one manifest scene, run the system and the oracle MVDR
    on it, and score every estimate.  A function of its own, so that one
    scene's audio is freed before the next scene is regenerated."""
    _, mixture, speech_img, noise_img = rebuild_scene_audio(record, header)
    reference = speech_img.data[REFERENCE_CHANNEL]
    mvdr_est = _mvdr_waveform(mixture, speech_img, noise_img)
    enhanced = enhance(mixture, speech_img, noise_img, mvdr_est)

    if audio_dir is not None:
        write_wav(os.path.join(audio_dir, f"{record['id']}_enhanced.wav"),
                  WaveBuffer(enhanced, SAMPLE_RATE))

    estimates = dict(zip(ESTIMATES, (mixture.data[REFERENCE_CHANNEL], enhanced, mvdr_est)))
    values = {
        _column(metric, estimate): score(estimates[estimate], reference)
        for metric, score in METRICS.items()
        for estimate in ESTIMATES
    }
    saturated = tuple(name for name, value in values.items() if abs(value) >= SATURATION_DB)
    return MetricsRow(record["id"], float(record["snr_db"]), values, saturated)


def _aggregate(rows: list) -> list[dict]:
    """Mean metrics per mixing-SNR bucket plus an overall row."""

    def mean_record(bucket, subset) -> dict:
        record = {"kind": "aggregate", "bucket": bucket, "count": len(subset)}
        for name in MetricsRow.METRIC_FIELDS + MetricsRow.GAIN_FIELDS:
            record[name] = float(np.mean([getattr(r, name) for r in subset]))
        return record

    buckets = sorted({row.snr_db for row in rows})
    records = [
        mean_record(bucket, [r for r in rows if r.snr_db == bucket])
        for bucket in buckets
    ]
    records.append(mean_record("all", rows))
    return records
