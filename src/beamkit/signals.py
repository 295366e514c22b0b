"""Waveform container and deterministic synthetic test signals.

The synthesis routines here stand in for recorded corpora at desk scale:
one speech-shaped source and one pink-noise source, each at the pipeline's
:data:`SAMPLE_RATE` and an RMS of ``SOURCE_RMS``.  They are fully
deterministic given a :class:`numpy.random.Generator`, so any scene built
from them can be regenerated bit for bit from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySignalError, ValidationError

__all__ = [
    "SAMPLE_RATE",
    "REFERENCE_CHANNEL",
    "WaveBuffer",
    "rms",
    "speech_like",
    "noise_like",
]

# The pipeline's sample rate in Hz: every corpus, every RIR and every
# waveform the model reads or writes is at this rate.
SAMPLE_RATE = 16000

# The microphone every single-channel quantity is taken at: the SNR that
# scales a scene's noise, its target, the noisy input it is scored by,
# and the reference of the beamformers.
REFERENCE_CHANNEL = 0

# RMS level of every synthesized source.
SOURCE_RMS = 0.1


@dataclass
class WaveBuffer:
    """Multichannel waveform held as float64 with an explicit sample rate.

    Parameters
    ----------
    data : numpy.ndarray
        Samples with shape ``(channels, num_samples)``.  A 1-D array is
        promoted to a single channel.  Stored as float64.
    sample_rate : int
        Sampling rate in Hz; a positive ``int`` or numpy integer (not a
        float, not a bool).
    """

    data: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ValidationError(
                f"waveform must be 1-D or 2-D (channels, samples), got ndim={arr.ndim}"
            )
        if arr.shape[1] == 0:
            raise EmptySignalError("waveform has zero samples")
        rate = self.sample_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, np.integer)) or rate <= 0:
            raise ValidationError(f"sample_rate must be a positive integer, got {rate!r}")
        self.data = arr
        self.sample_rate = int(rate)

    @property
    def num_channels(self) -> int:
        return self.data.shape[0]

    @property
    def num_samples(self) -> int:
        return self.data.shape[1]

    def mono(self) -> np.ndarray:
        """Return the sole channel; raise if the buffer is multichannel."""
        if self.num_channels != 1:
            raise ValidationError(
                f"expected a mono buffer, got {self.num_channels} channels"
            )
        return self.data[0]


def rms(x: np.ndarray) -> float:
    """Root-mean-square level of an array, over all elements."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise EmptySignalError("cannot take RMS of an empty array")
    return float(np.sqrt(np.mean(x**2)))


def _normalize_rms(x: np.ndarray, target: float) -> np.ndarray:
    level = rms(x)
    if level == 0.0:
        raise EmptySignalError("signal has zero energy; cannot normalize")
    return x * (target / level)


def _harmonic_bank(phase: np.ndarray, amplitudes, offsets: np.ndarray) -> np.ndarray:
    """``Σ_k a_k · sin(k·phase + θ_k)`` for ``k = 1..K``, evaluated as
    ``Im(Σ_k c_k · z^k)`` with ``z = exp(i·phase)`` and
    ``c_k = a_k · exp(i·θ_k)``: one complex ``exp``, then Horner's rule
    (one in-place multiply and one add per harmonic) instead of one
    ``sin`` over every sample per harmonic.
    """
    z = np.exp(1j * phase)
    coeffs = np.asarray(amplitudes) * np.exp(1j * np.asarray(offsets))
    acc = np.full(phase.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= z
        acc += c
    acc *= z
    return acc.imag


def speech_like(duration: float, rng: np.random.Generator) -> WaveBuffer:
    """Synthesize a speech-shaped test signal at :data:`SAMPLE_RATE` and an
    RMS of ``SOURCE_RMS``.

    A harmonic source with a drifting pitch contour is filtered through a
    randomized three-resonance spectral envelope and gated by a syllabic
    (2-5 Hz) amplitude envelope, with a weak wideband component standing in
    for fricatives.  This is not speech, but it shares the coarse spectral
    and temporal structure that the enhancement pipeline cares about.

    The harmonic sum ``Σ_k a_k · sin(k·φ + θ_k)`` is evaluated by Horner's
    rule on ``z = exp(i·φ)`` (see :func:`_harmonic_bank`), one complex
    multiply-add per harmonic and sample.  It agrees with the direct
    ``np.sin`` sum within 1e-9 of the peak sample; the bound comes from
    the float64 spacing at ``k·φ`` of about 4e5 rad, where the direct sum
    itself is only that accurate.

    Parameters
    ----------
    duration : float
        Length in seconds, positive and finite.
    rng : numpy.random.Generator
        Source of all randomness; equal states give bit-identical output.

    Returns
    -------
    WaveBuffer
        Mono buffer of ``round(duration * SAMPLE_RATE)`` samples.
    """
    if not 0 < duration < math.inf:
        raise ValidationError(f"duration must be positive and finite, got {duration}")
    n = int(round(duration * SAMPLE_RATE))
    if n == 0:
        raise EmptySignalError("requested duration rounds to zero samples")
    t = np.arange(n, dtype=np.float64) / SAMPLE_RATE

    # Pitch contour: slow drift plus vibrato around a per-utterance base.
    f0 = rng.uniform(90.0, 220.0)
    drift = 0.12 * f0 * np.sin(2 * np.pi * rng.uniform(0.2, 0.6) * t + rng.uniform(0, 2 * np.pi))
    vibrato = 0.02 * f0 * np.sin(2 * np.pi * rng.uniform(4.0, 7.0) * t)
    inst_freq = f0 + drift + vibrato
    phase = 2 * np.pi * np.cumsum(inst_freq) / SAMPLE_RATE

    # Three randomized resonances shape the harmonic amplitudes.
    centers = np.array(
        [rng.uniform(300, 800), rng.uniform(900, 1800), rng.uniform(2000, 3200)]
    )
    widths = np.array([rng.uniform(80, 150), rng.uniform(120, 250), rng.uniform(200, 400)])
    gains = np.array([1.0, rng.uniform(0.3, 0.8), rng.uniform(0.1, 0.4)])

    top = min(4000.0, 0.45 * SAMPLE_RATE)
    num_harmonics = max(1, int(top / (f0 * 1.15)))
    amplitudes = [
        np.sum(gains * np.exp(-0.5 * ((k * f0 - centers) / widths) ** 2)) / k**0.5
        for k in range(1, num_harmonics + 1)
    ]
    voiced = _harmonic_bank(phase, amplitudes, rng.uniform(0, 2 * np.pi, num_harmonics))

    # Syllabic gating: smoothed positive modulation at a few Hz with pauses.
    syllable_rate = rng.uniform(2.0, 5.0)
    gate = 0.5 * (1 + np.sin(2 * np.pi * syllable_rate * t + rng.uniform(0, 2 * np.pi)))
    gate = gate**1.5
    pause = 0.5 * (1 + np.sin(2 * np.pi * rng.uniform(0.3, 0.8) * t + rng.uniform(0, 2 * np.pi)))
    gate *= 0.25 + 0.75 * pause

    # Weak wideband component so the signal is not purely harmonic.
    hiss = rng.standard_normal(n)
    hiss -= np.mean(hiss)

    # Fricative-like bursts: short high-band noise events at a level
    # comparable to the voiced signal.  Real speech keeps substantial
    # 3-8 kHz energy in such bursts, and downstream spatial processing
    # needs the upper bins to carry genuine source structure.
    burst_env = np.zeros(n)
    num_bursts = max(1, int(round(duration * rng.uniform(1.5, 3.5))))
    for _ in range(num_bursts):
        width = max(2, int(rng.uniform(0.04, 0.12) * SAMPLE_RATE))
        start = int(rng.uniform(0, max(1, n - width)))
        stop = min(n, start + width)
        ramp = np.hanning(width)[: stop - start]
        burst_env[start:stop] = np.maximum(burst_env[start:stop], ramp)
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE)
    low_edge, high_edge = 2500.0, 0.47 * SAMPLE_RATE
    band = 1.0 / (1.0 + np.exp(-(freqs - low_edge) / 200.0))
    band /= 1.0 + np.exp((freqs - high_edge) / 200.0)
    frication = np.fft.irfft(spectrum * band, n=n)
    frication *= 0.4 * rms(voiced) / max(rms(frication), 1e-12)

    out = gate * (voiced + 0.05 * hiss * rms(voiced)) + burst_env * frication

    return WaveBuffer(_normalize_rms(out, SOURCE_RMS), SAMPLE_RATE)


def noise_like(duration: float, rng: np.random.Generator) -> WaveBuffer:
    """Synthesize stationary pink noise at :data:`SAMPLE_RATE` and an RMS of
    ``SOURCE_RMS``.

    White Gaussian noise gets a 1/sqrt(f) magnitude slope that flattens
    below a 50 Hz corner, as hardware pinking filters do; without the
    corner nearly all energy would sit in the first few analysis bins.

    Parameters
    ----------
    duration : float
        Length in seconds, positive and finite.
    rng : numpy.random.Generator
        Source of all randomness.

    Returns
    -------
    WaveBuffer
        Mono buffer of ``round(duration * SAMPLE_RATE)`` samples.
    """
    if not 0 < duration < math.inf:
        raise ValidationError(f"duration must be positive and finite, got {duration}")
    n = int(round(duration * SAMPLE_RATE))
    if n == 0:
        raise EmptySignalError("requested duration rounds to zero samples")

    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE)
    freqs[0] = freqs[1] if n > 1 else 1.0
    out = np.fft.irfft(spectrum * (1.0 / np.sqrt(np.maximum(freqs, 50.0))), n=n)
    out = out - np.mean(out)
    return WaveBuffer(_normalize_rms(out, SOURCE_RMS), SAMPLE_RATE)
