"""Image-method room impulse responses and multichannel scene synthesis.

A scene is a shoebox room with uniform wall absorption derived from a
target reverberation time, a uniform linear microphone array, and two
point sources (speech and noise).  RIRs come from the classical
image-source construction: every mirror image of a source across the six
walls (and their repetitions) contributes an attenuated, delayed impulse

    amplitude = beta ** reflection_order / (4 * pi * distance)

with ``beta = sqrt(1 - alpha)`` the uniform wall reflection coefficient
and the delay ``distance / c * fs`` rounded to the nearest sample, where
``c`` is :data:`SPEED_OF_SOUND` (343 m/s) and ``fs`` the pipeline's
:data:`~.signals.SAMPLE_RATE` (16 kHz).

Everything here is deterministic given a :class:`numpy.random.Generator`;
corpus scenes derive their streams from ``(master_seed, scene_index)`` so
regeneration is bit-exact and schedule-independent.  A corpus manifest's
header records every :class:`SceneSampling` field, so the seed and the
header together say which scene was built.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np
from scipy.signal import fftconvolve

from ._decode import decode, decode_value
from .errors import (
    ConfigError,
    EmptySignalError,
    GenerationError,
    GeometryError,
    ManifestSchemaError,
    ValidationError,
)
from .signals import SAMPLE_RATE, WaveBuffer, noise_like, speech_like
from .wavio import write_wav

__all__ = [
    "RoomSpec",
    "ArraySpec",
    "SceneSpec",
    "SceneSampling",
    "absorption_from_rt60",
    "default_max_order",
    "image_method_rir",
    "synthesize_mixture",
    "sample_scene",
    "doa_separation_deg",
    "build_corpus",
    "read_manifest",
    "rebuild_scene_audio",
    "MANIFEST_SCHEMA_VERSION",
    "MANIFEST_NAME",
    "SPEED_OF_SOUND",
]

MANIFEST_SCHEMA_VERSION = 2
MANIFEST_NAME = "manifest.jsonl"

# Meters per second; every room uses it.
SPEED_OF_SOUND = 343.0

# Fields every manifest record must carry (``max_order`` and ``count`` are
# informational and may be absent).
_HEADER_FIELDS = ("duration", "sample_rate", "sampling")
_SCENE_FIELDS = ("id", "seed", "snr_db", "mixture_path", "target_path")
# Typed record fields: the annotation their value decodes as (the config
# rules: no bools, no strings for numbers, integers where an integer is
# meant, only strings for text), the range it must lie in (None: any
# value of the type), and that range as an error states it.
_HEADER_NUMBERS = {
    "duration": (float, lambda v: 0.0 < v < math.inf, "positive and finite"),
    "sample_rate": (int, lambda v: v == SAMPLE_RATE, str(SAMPLE_RATE)),
    "max_order": (int | None, lambda v: v is None or v >= 0, "null or >= 0"),
}
_SCENE_VALUES = {
    # The id names the audio ``evaluate --dump-audio`` writes.
    "id": (
        str,
        lambda v: v not in ("", ".", "..") and os.path.basename(v) == v,
        "a file name without a directory",
    ),
    "seed": (tuple[int, ...], lambda v: all(x >= 0 for x in v), "a list of integers >= 0"),
    "snr_db": (float, math.isfinite, "finite"),
    "mixture_path": (str, None, None),
    "target_path": (str, None, None),
}


@dataclass(frozen=True)
class RoomSpec:
    """Shoebox room geometry and target reverberation time.  Sound
    travels at :data:`SPEED_OF_SOUND` in every room.

    Parameters
    ----------
    dimensions : tuple of 3 floats
        (length, width, height) in meters, all positive.
    rt60 : float
        Target reverberation time in seconds, positive.
    """

    dimensions: tuple[float, float, float]
    rt60: float

    def __post_init__(self):
        dims = tuple(float(d) for d in self.dimensions)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise GeometryError(f"room dimensions must be three positive values, got {dims}")
        if self.rt60 <= 0:
            raise ValidationError(f"rt60 must be positive, got {self.rt60}")
        object.__setattr__(self, "dimensions", dims)

    @property
    def volume(self) -> float:
        lx, ly, lz = self.dimensions
        return lx * ly * lz

    @property
    def surface_area(self) -> float:
        lx, ly, lz = self.dimensions
        return 2.0 * (lx * ly + lx * lz + ly * lz)

    def contains(self, point: np.ndarray, margin: float = 0.0) -> bool:
        """True if ``point`` lies strictly inside the room by ``margin``."""
        p = np.asarray(point, dtype=np.float64)
        dims = np.asarray(self.dimensions)
        return bool(np.all(p > margin) and np.all(p < dims - margin))


@dataclass(frozen=True)
class ArraySpec:
    """Microphone positions in meters, shape ``(num_mics, 3)``."""

    mic_positions: np.ndarray

    def __post_init__(self):
        pos = np.array(self.mic_positions, dtype=np.float64)  # a copy: the caller's stays writable
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise GeometryError(
                f"mic_positions must have shape (num_mics, 3), got {pos.shape}"
            )
        pos.setflags(write=False)
        object.__setattr__(self, "mic_positions", pos)

    @classmethod
    def uniform_linear(
        cls, center: Sequence[float], num_mics: int = 9, spacing: float = 0.04
    ) -> "ArraySpec":
        """Uniform linear array along the x axis, centered at ``center``."""
        if num_mics < 1:
            raise GeometryError(f"num_mics must be >= 1, got {num_mics}")
        if spacing <= 0:
            raise GeometryError(f"spacing must be positive, got {spacing}")
        offsets = (np.arange(num_mics) - (num_mics - 1) / 2.0) * spacing
        pos = np.tile(np.asarray(center, dtype=np.float64), (num_mics, 1))
        pos[:, 0] += offsets
        return cls(pos)

    @property
    def num_mics(self) -> int:
        return self.mic_positions.shape[0]

    @property
    def center(self) -> np.ndarray:
        return self.mic_positions.mean(axis=0)


@dataclass(frozen=True)
class SceneSpec:
    """One acoustic scene: room, array, two point sources, and a target SNR.

    Parameters
    ----------
    room : RoomSpec
    array : ArraySpec
        All mics must be strictly inside the room.
    speech_position, noise_position : array_like of 3 floats
        Source positions in meters, strictly inside the room.
    snr_db : float
        Reference-channel speech-to-noise ratio after reverberation.
    seed : tuple of ints or None
        Entropy that deterministically regenerates this scene (and its
        source audio) when it came from a corpus build.
    """

    room: RoomSpec
    array: ArraySpec
    speech_position: np.ndarray
    noise_position: np.ndarray
    snr_db: float
    seed: tuple[int, ...] | None = None

    def __post_init__(self):
        sources = {
            name: np.array(getattr(self, name), dtype=np.float64)  # copies, frozen below
            for name in ("speech_position", "noise_position")
        }
        _check_inside(self.room, self.array, **sources)
        for name, p in sources.items():
            p.setflags(write=False)
            object.__setattr__(self, name, p)
        if self.seed is not None:
            object.__setattr__(self, "seed", tuple(int(s) for s in self.seed))


def _check_inside(room: RoomSpec, array: ArraySpec, **sources: np.ndarray):
    """Raise GeometryError unless each named source is a 3-vector and it
    and every microphone lie strictly inside ``room``."""
    for name, p in sources.items():
        if p.shape != (3,):
            raise GeometryError(f"{name} must be a 3-vector, got shape {p.shape}")
    for name, p in [*sources.items(), *(("microphone", m) for m in array.mic_positions)]:
        if not room.contains(p):
            raise GeometryError(
                f"{name} {p.tolist()} is not strictly inside room {room.dimensions}"
            )


def absorption_from_rt60(room: RoomSpec) -> float:
    """Invert Sabine's formula for a uniform absorption coefficient.

    ``alpha = 0.161 * volume / (surface * rt60)``, clamped to ``(0, 1]``.
    A clamp at 1 means the requested reverberation time is shorter than
    the room can produce: the walls reflect nothing and only the direct
    path remains.
    """
    return min(0.161 * room.volume / (room.surface_area * room.rt60), 1.0)


def default_max_order(room: RoomSpec) -> int:
    """Smallest reflection order whose images lie beyond the RT60 horizon.

    Images of order ``k`` are at least ``k * min_dimension`` away, so any
    order above ``c * rt60 / min_dimension`` can only produce taps past the
    truncation point.  Bounded at 30 to keep worst-case lattices tractable.
    """
    min_dim = min(room.dimensions)
    order = math.ceil(SPEED_OF_SOUND * room.rt60 / min_dim) + 1
    return min(30, order)


def _image_lattice(room: RoomSpec, source: np.ndarray, max_order: int):
    """All image-source positions and reflection orders up to ``max_order``.

    Positions come as a ``(3, images)`` array, one contiguous row per axis.
    Image coordinates along axis ``a`` are ``(1 - 2q) * s_a + 2 m L_a`` for
    parity ``q`` in {0, 1} and integer ``m``; the number of wall bounces the
    image encodes is ``sum_a |m_a - q_a| + |m_a|``.
    """
    dims = np.asarray(room.dimensions)
    reach = (max_order + 1) // 2
    m = np.arange(-reach, reach + 1)

    pos_axis = []  # (2, M) per axis: rows are q = 0, 1
    ord_axis = []
    for a in range(3):
        pos_axis.append(np.stack([source[a] + 2 * m * dims[a], -source[a] + 2 * m * dims[a]]))
        ord_axis.append(np.stack([2 * np.abs(m), np.abs(m - 1) + np.abs(m)]))

    order = (
        ord_axis[0][:, :, None, None, None, None]
        + ord_axis[1][None, None, :, :, None, None]
        + ord_axis[2][None, None, None, None, :, :]
    )
    keep = order <= max_order
    orders = order[keep].astype(np.float64)

    shape = keep.shape
    px = np.broadcast_to(pos_axis[0][:, :, None, None, None, None], shape)[keep]
    py = np.broadcast_to(pos_axis[1][None, None, :, :, None, None], shape)[keep]
    pz = np.broadcast_to(pos_axis[2][None, None, None, None, :, :], shape)[keep]
    return np.stack([px, py, pz]), orders


def _image_distances(images: np.ndarray, mic: np.ndarray) -> np.ndarray:
    """Distance from each ``(3, images)`` column to ``mic``.

    Summed as ``(dx² + dy²) + dz²`` over contiguous rows, the order
    ``np.linalg.norm(..., axis=1)`` uses on ``(images, 3)`` rows, so the
    result is bit-identical to it without striding over 3-element rows.
    """
    sq = images - mic[:, None]
    np.square(sq, out=sq)
    return np.sqrt((sq[0] + sq[1]) + sq[2])


def image_method_rir(
    room: RoomSpec,
    array: ArraySpec,
    source: Sequence[float],
    max_order: int | None = None,
) -> np.ndarray:
    """Image-method impulse responses from one source position to every mic.

    Sound travels at :data:`SPEED_OF_SOUND`, and each image lands on the
    sample nearest its delay at :data:`~.signals.SAMPLE_RATE`.

    Parameters
    ----------
    room : RoomSpec
    array : ArraySpec
        All mics must be strictly inside the room.
    source : array_like of 3 floats
        Source position in meters, strictly inside the room.
    max_order : int, optional
        Highest total reflection order to include; 0 keeps only the direct
        path.  Defaults to :func:`default_max_order`.

    Returns
    -------
    numpy.ndarray
        Read-only float64 taps of shape ``(num_mics, num_taps)``, with
        ``num_taps = ceil(rt60 * SAMPLE_RATE)`` (never fewer than the
        direct-path delay plus a small margin).
    """
    src = np.asarray(source, dtype=np.float64)
    _check_inside(room, array, source=src)
    if max_order is None:
        max_order = default_max_order(room)
    if max_order < 0:
        raise ValidationError(f"max_order must be >= 0, got {max_order}")

    mics = array.mic_positions
    direct = np.linalg.norm(mics - src, axis=1)
    if np.any(direct < 1e-3):
        raise GeometryError("source coincides with a microphone")

    beta = math.sqrt(1.0 - absorption_from_rt60(room))

    samples_per_meter = SAMPLE_RATE / SPEED_OF_SOUND
    num_taps = max(
        math.ceil(room.rt60 * SAMPLE_RATE),
        int(np.max(direct) * samples_per_meter) + 64,
    )

    images, orders = _image_lattice(room, src, max_order)
    gains = beta**orders  # 0**0 == 1 keeps the direct path when beta == 0

    taps = np.zeros((mics.shape[0], num_taps), dtype=np.float64)
    for p in range(mics.shape[0]):
        dist = _image_distances(images, mics[p])
        amp = gains / (4.0 * np.pi * dist)
        idx = np.round(dist * samples_per_meter).astype(np.int64)
        ok = idx < num_taps
        np.add.at(taps[p], idx[ok], amp[ok])
    taps.setflags(write=False)
    return taps


def synthesize_mixture(
    speech: WaveBuffer,
    noise: WaveBuffer,
    scene: SceneSpec,
    max_order: int | None = None,
) -> tuple[WaveBuffer, WaveBuffer, WaveBuffer]:
    """Reverberate both sources and mix them at the scene's target SNR.

    Each mono source is convolved with its image-method RIRs (truncated to
    the source length), the noise image is scaled so the reference-channel
    (mic 0) energy ratio matches ``scene.snr_db``, and the mixture is the
    exact sum of the two returned parts.

    Parameters
    ----------
    speech, noise : WaveBuffer
        Mono sources at :data:`~.signals.SAMPLE_RATE`.
    scene : SceneSpec
    max_order : int, optional
        Forwarded to :func:`image_method_rir`.

    Returns
    -------
    (mixture, reverberant_speech, reverberant_noise)
        Each with ``scene.array.num_mics`` channels and the speech length;
        ``mixture.data == reverberant_speech.data + reverberant_noise.data``
        holds bit-exactly.
    """
    for name, source in (("speech", speech), ("noise", noise)):
        if source.sample_rate != SAMPLE_RATE:
            raise ValidationError(
                f"{name} rate {source.sample_rate} Hz, expected {SAMPLE_RATE} Hz"
            )
    s = speech.mono()
    n = noise.mono()
    if len(n) < len(s):
        raise ValidationError(
            f"noise ({len(n)} samples) must be at least as long as speech ({len(s)})"
        )
    n = n[: len(s)]

    if not np.any(s):
        raise EmptySignalError("speech source has zero energy; cannot set SNR")
    if not np.any(n):
        raise EmptySignalError("noise source has zero energy; cannot set SNR")

    room, array = scene.room, scene.array
    speech_rir = image_method_rir(room, array, scene.speech_position, max_order)
    noise_rir = image_method_rir(room, array, scene.noise_position, max_order)

    speech_img = fftconvolve(s[np.newaxis, :], speech_rir, axes=-1)[:, : len(s)]
    noise_img = fftconvolve(n[np.newaxis, :], noise_rir, axes=-1)[:, : len(s)]

    e_speech = float(np.sum(speech_img[0] ** 2))
    e_noise = float(np.sum(noise_img[0] ** 2))
    if e_speech == 0.0:
        raise EmptySignalError("reverberant speech has zero reference-channel energy")
    if e_noise == 0.0:
        raise EmptySignalError("reverberant noise has zero reference-channel energy")
    gain = math.sqrt(e_speech / e_noise * 10.0 ** (-scene.snr_db / 10.0))
    noise_img = gain * noise_img

    # The noise part is re-derived as mixture - speech so the decomposition
    # holds at the bit level under that evaluation order (plain float
    # addition loses the low bits of the smaller addend).
    mixture = speech_img + noise_img
    noise_part = mixture - speech_img
    return (
        WaveBuffer(mixture, SAMPLE_RATE),
        WaveBuffer(speech_img, SAMPLE_RATE),
        WaveBuffer(noise_part, SAMPLE_RATE),
    )


def doa_separation_deg(center, a, b) -> float:
    """Angle in degrees between the directions of points ``a`` and ``b``
    seen from ``center``."""
    u = np.asarray(a) - center
    v = np.asarray(b) - center
    cosine = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0))))


@dataclass(frozen=True)
class SceneSampling:
    """Ranges and grids the random scene generator draws from.

    Defaults reproduce the training recipe: rooms from 3x3x2.5 m up to
    10x10x3 m, RT60 in [0.05, 0.7] s, a 9-mic 4 cm linear array at 1.5 m
    height, source distances on the {0.5, 1, 2, 3} m grid with at least
    5 degrees of angular separation, and SNR on the 7-point grid
    {-6, ..., +6} dB in 2 dB steps.
    """

    room_length: tuple[float, float] = (3.0, 10.0)
    room_width: tuple[float, float] = (3.0, 10.0)
    room_height: tuple[float, float] = (2.5, 3.0)
    rt60_range: tuple[float, float] = (0.05, 0.7)
    num_mics: int = 9
    mic_spacing: float = 0.04
    array_height: float = 1.5
    array_wall_margin: float = 0.5
    source_distances: tuple[float, ...] = (0.5, 1.0, 2.0, 3.0)
    source_wall_margin: float = 0.1
    min_doa_deg: float = 5.0
    snr_grid_db: tuple[float, ...] = (-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0)
    rejection_budget: int = 10_000

    def __post_init__(self):
        for name in ("room_length", "room_width", "room_height", "rt60_range"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise ConfigError(f"{name} must satisfy 0 < low <= high, got ({lo}, {hi})")
        if self.num_mics < 1 or self.mic_spacing <= 0:
            raise ConfigError("array must have >= 1 mics with positive spacing")
        if not self.source_distances or not self.snr_grid_db:
            raise ConfigError("source_distances and snr_grid_db must be non-empty")
        if self.rejection_budget < 1:
            raise ConfigError("rejection_budget must be positive")


def _draw_source(
    rng: np.random.Generator, center: np.ndarray, cfg: SceneSampling
) -> np.ndarray:
    """One candidate source: grid distance times a uniform 3-D direction."""
    distance = rng.choice(np.asarray(cfg.source_distances))
    while True:
        direction = rng.standard_normal(3)
        norm = np.linalg.norm(direction)
        if norm > 1e-12:
            break
    return center + distance * direction / norm


def sample_scene(
    rng: np.random.Generator,
    cfg: SceneSampling = SceneSampling(),
    seed: tuple[int, ...] | None = None,
) -> SceneSpec:
    """Draw one scene satisfying every sampled-mode constraint.

    Room dimensions, RT60, array placement and SNR are drawn directly;
    source positions are rejection-sampled (distance and direction redrawn
    jointly) until both sources sit at least ``source_wall_margin`` inside
    the room and their directions from the array center differ by at least
    ``min_doa_deg`` degrees.

    Raises
    ------
    GenerationError
        If ``cfg.rejection_budget`` candidate draws are exhausted.
    """
    dims = (
        rng.uniform(*cfg.room_length),
        rng.uniform(*cfg.room_width),
        rng.uniform(*cfg.room_height),
    )
    room = RoomSpec(dims, rt60=rng.uniform(*cfg.rt60_range))

    half_aperture = (cfg.num_mics - 1) * cfg.mic_spacing / 2.0
    lo = cfg.array_wall_margin + half_aperture
    hi_x = dims[0] - lo
    hi_y = dims[1] - cfg.array_wall_margin
    if hi_x <= lo or hi_y <= cfg.array_wall_margin:
        raise GeometryError(f"room {dims} too small for the array with its wall margin")
    center = np.array(
        [
            rng.uniform(lo, hi_x),
            rng.uniform(cfg.array_wall_margin, hi_y),
            cfg.array_height,
        ]
    )
    array = ArraySpec.uniform_linear(center, cfg.num_mics, cfg.mic_spacing)

    draws = 0

    def budgeted_draw() -> np.ndarray:
        nonlocal draws
        draws += 1
        if draws > cfg.rejection_budget:
            raise GenerationError(
                f"exhausted {cfg.rejection_budget} source draws for room {dims}"
            )
        return _draw_source(rng, center, cfg)

    speech = budgeted_draw()
    while not room.contains(speech, cfg.source_wall_margin):
        speech = budgeted_draw()

    noise = budgeted_draw()
    while not (
        room.contains(noise, cfg.source_wall_margin)
        and doa_separation_deg(center, speech, noise) >= cfg.min_doa_deg
    ):
        noise = budgeted_draw()

    snr_db = float(rng.choice(np.asarray(cfg.snr_grid_db)))
    return SceneSpec(
        room=room,
        array=array,
        speech_position=speech,
        noise_position=noise,
        snr_db=snr_db,
        seed=seed,
    )


def _scene_record(scene: SceneSpec, scene_id: str, paths: dict, num_samples: int):
    return {
        "kind": "scene",
        "id": scene_id,
        "seed": list(scene.seed) if scene.seed is not None else None,
        "room": {
            "dimensions": list(scene.room.dimensions),
            "rt60": scene.room.rt60,
            "speed_of_sound": SPEED_OF_SOUND,
        },
        "array": {"mic_positions": scene.array.mic_positions.tolist()},
        "speech_position": scene.speech_position.tolist(),
        "noise_position": scene.noise_position.tolist(),
        "snr_db": scene.snr_db,
        "sample_rate": SAMPLE_RATE,
        "num_samples": num_samples,
        **paths,
    }


def build_corpus(
    out_dir: str | os.PathLike,
    count: int,
    master_seed: int,
    sampling: SceneSampling = SceneSampling(),
    duration: float = 6.0,
    max_order: int | None = None,
) -> str:
    """Synthesize a corpus of mixture/target pairs plus a manifest.

    Every scene derives its RNG stream from ``(master_seed, scene_index)``,
    so a rebuild with the same arguments is byte-identical file for file
    and scenes are independent of generation order.  The manifest is
    line-delimited JSON: a header record (schema version, every
    :class:`SceneSampling` field and the other knobs that affect the audio)
    followed by one record per scene holding every scene field, the seed
    pair, and the relative audio paths.  All audio is at
    :data:`~.signals.SAMPLE_RATE`, which the header and every scene record
    state as ``sample_rate``.

    Parameters
    ----------
    out_dir : path-like
        Created if missing; audio goes to ``audio/`` below it.
    count : int
        Number of scenes; 0 is allowed and produces an empty manifest.
    master_seed : int
        Root of every per-scene seed.
    sampling : SceneSampling
    duration : float
        Source length per scene in seconds (~6 s chunks by default).
    max_order : int, optional
        Reflection-order override forwarded to the RIR generator.

    Returns
    -------
    str
        Path of the manifest file.
    """
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")

    out_dir = os.fspath(out_dir)
    audio_dir = os.path.join(out_dir, "audio")
    os.makedirs(audio_dir, exist_ok=True)

    header = {
        "kind": "manifest_header",
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "count": count,
        "master_seed": int(master_seed),
        "duration": duration,
        "sample_rate": SAMPLE_RATE,
        "max_order": max_order,
        "sampling": asdict(sampling),
    }

    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="utf-8") as manifest:
        manifest.write(json.dumps(header) + "\n")
        for index in range(count):
            seed = (int(master_seed), index)
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            scene = sample_scene(rng, sampling, seed=seed)
            mixture, speech_img, _ = _synthesize_scene_audio(scene, rng, duration, max_order)

            scene_id = f"scene_{index:06d}"
            mix_rel = f"audio/{scene_id}_mixture.wav"
            target_rel = f"audio/{scene_id}_target.wav"
            write_wav(os.path.join(out_dir, mix_rel), mixture, encoding="float32")
            target = WaveBuffer(speech_img.data[0], SAMPLE_RATE)
            write_wav(os.path.join(out_dir, target_rel), target, encoding="float32")

            record = _scene_record(
                scene,
                scene_id,
                {"mixture_path": mix_rel, "target_path": target_rel},
                mixture.num_samples,
            )
            manifest.write(json.dumps(record) + "\n")
    return manifest_path


def _synthesize_scene_audio(
    scene: SceneSpec,
    rng: np.random.Generator,
    duration: float,
    max_order: int | None,
):
    speech = speech_like(duration, rng)
    noise = noise_like(duration, rng)
    return synthesize_mixture(speech, noise, scene, max_order=max_order)


def read_manifest(manifest_path: str | os.PathLike) -> tuple[dict, list[dict]]:
    """Load a corpus manifest, checking its schema version.

    Returns
    -------
    (header, scenes)
        The header record and the list of scene records.

    Raises
    ------
    ManifestSchemaError
        On a file that is not UTF-8, a line that is not a JSON object, a
        missing/invalid header, a schema version this code does not
        understand, a header or scene record lacking a required field, an
        ill-typed or out-of-range number (header ``duration``,
        ``max_order``; scene ``seed``, ``snr_db``), a header
        ``sample_rate`` other than :data:`~.signals.SAMPLE_RATE`, a
        scene ``id``, ``mixture_path`` or ``target_path`` that is not a
        string, an ``id`` that is not a plain file name, or a header ``sampling`` object that lacks a
        :class:`SceneSampling` field or holds an unknown or ill-typed one.
        A version 1 manifest recorded only part of the sampler, so it
        cannot say which scenes it holds and is refused.
    """
    with open(os.fspath(manifest_path), "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ManifestSchemaError(f"{manifest_path}: not UTF-8 text ({exc})") from exc
    if not lines:
        raise ManifestSchemaError(f"{manifest_path}: empty manifest")
    header = _parse_record(manifest_path, 1, lines[0])
    if header.get("kind") != "manifest_header":
        raise ManifestSchemaError(f"{manifest_path}: first record is not a manifest header")
    version = header.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise ManifestSchemaError(
            f"{manifest_path}: schema version {version!r} unsupported "
            f"(this build reads version {MANIFEST_SCHEMA_VERSION})"
        )
    _require(header, _HEADER_FIELDS, f"{manifest_path}:1: manifest header")
    _check_values(header, _HEADER_NUMBERS, f"{manifest_path}:1: manifest header")
    _sampling_from_header(header)  # an ill-typed sampling fails here, before any scene
    scenes = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record = _parse_record(manifest_path, line_no, line)
        if record.get("kind") != "scene":
            raise ManifestSchemaError(f"{manifest_path}:{line_no}: unknown record kind")
        where = f"{manifest_path}:{line_no}: scene record"
        _require(record, _SCENE_FIELDS, where)
        _check_values(record, _SCENE_VALUES, where)
        scenes.append(record)
    return header, scenes


def _parse_record(manifest_path, line_no: int, line: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ManifestSchemaError(f"{manifest_path}:{line_no}: invalid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise ManifestSchemaError(f"{manifest_path}:{line_no}: record is not a JSON object")
    return record


def _require(record, fields, where: str):
    """Raise ManifestSchemaError naming the first of ``fields`` missing
    from the JSON object ``record``."""
    if not isinstance(record, dict):
        raise ManifestSchemaError(f"{where} is not a JSON object")
    for name in fields:
        if name not in record:
            raise ManifestSchemaError(f"{where} lacks field {name!r}")


def _check_values(record: dict, rules: dict, where: str):
    """Raise ManifestSchemaError naming the first field of ``rules`` that
    ``record`` holds with an ill-typed or out-of-range value."""
    for name, (annotation, in_range, bound) in rules.items():
        if name not in record:
            continue
        try:
            value = decode_value(annotation, record[name], name)
        except ConfigError as exc:
            raise ManifestSchemaError(f"{where} field {exc}") from exc
        if in_range is not None and not in_range(value):
            raise ManifestSchemaError(
                f"{where} field {name} must be {bound}, got {record[name]!r}"
            )


def rebuild_scene_audio(record: dict, header: dict):
    """Regenerate one manifest scene's audio from its seed, bit-exactly.

    Returns
    -------
    (scene, mixture, reverberant_speech, reverberant_noise)
    """
    if record.get("seed") is None:
        raise ManifestSchemaError("scene record carries no seed; cannot regenerate")
    seed = tuple(record["seed"])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sampling = _sampling_from_header(header)
    scene = sample_scene(rng, sampling, seed=seed)
    mixture, speech_img, noise_img = _synthesize_scene_audio(
        scene, rng, header["duration"], header.get("max_order")
    )
    return scene, mixture, speech_img, noise_img


def _sampling_from_header(header: dict) -> SceneSampling:
    sampling = header["sampling"]
    _require(
        sampling, [f.name for f in fields(SceneSampling)], "manifest header field 'sampling'"
    )
    try:
        return decode(SceneSampling, sampling, "sampling")
    except ConfigError as exc:
        raise ManifestSchemaError(f"manifest header field {exc}") from exc
