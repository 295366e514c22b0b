"""STFT analysis/synthesis and magnitude power compression.

The front end is the paper's and is fixed: 20 ms frames
(:data:`FRAME_LENGTH` = 320 samples at :data:`~.signals.SAMPLE_RATE`), a
10 ms hop (:data:`FRAME_SHIFT` = 160), a :data:`FFT_SIZE` = 320 point
transform giving :data:`FREQ_BINS` = 161 one-sided bins, and a periodic
Hann window (:data:`ANALYSIS_WINDOW`).

Conventions
-----------
* Frame ``t`` covers samples ``[t * FRAME_SHIFT, t * FRAME_SHIFT +
  FRAME_LENGTH)`` with no center padding, and the tail is zero-padded so
  the final partial frame is kept: ``T = ceil(num_samples / FRAME_SHIFT)``.
* Synthesis is windowed overlap-add, normalized pointwise by the summed
  squared window.  Reconstruction is exact (to rounding) everywhere the
  normalizer is nonzero; the fully-overlapped interior is exposed by
  :func:`cola_interior`.
* Spectra are stored frequency-major: ``(freq_bins, frames, channels)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigMismatchError, EmptySignalError, ValidationError
from .signals import SAMPLE_RATE, WaveBuffer

__all__ = [
    "FRAME_LENGTH",
    "FRAME_SHIFT",
    "FFT_SIZE",
    "FREQ_BINS",
    "ANALYSIS_WINDOW",
    "StftConfig",
    "ComplexSpectrogram",
    "stft",
    "istft",
    "compress",
    "decompress",
    "cola_interior",
]

FRAME_LENGTH = 320
FRAME_SHIFT = 160
FFT_SIZE = 320
FREQ_BINS = FFT_SIZE // 2 + 1  # 161

# The periodic Hann window of FRAME_LENGTH samples, float64, read-only: the
# symmetric window of FRAME_LENGTH + 1 points without its last, in the
# arithmetic of scipy's ``general_cosine``, so it equals
# ``scipy.signal.get_window("hann", FRAME_LENGTH)`` bit for bit.
ANALYSIS_WINDOW = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, FRAME_LENGTH + 1)))[:-1]
ANALYSIS_WINDOW.setflags(write=False)

# Floor for the squared-window overlap-add normalizer in istft.  Inside the
# full-overlap region the normalizer is >= 0.5, so the floor only engages
# on the edge taper, where it caps the inversion gain instead of letting
# the division blow up on spectrograms that are not exact transforms of
# any waveform.
NORM_FLOOR = 1e-2

# The power the model's input and target magnitudes are compressed to.
COMPRESSION_EXPONENT = 0.5


@dataclass(frozen=True)
class StftConfig:
    """The STFT front end as a value: it has no fields, and every
    instance describes the module constants (:data:`FRAME_LENGTH`,
    :data:`FRAME_SHIFT`, :data:`FFT_SIZE`, :data:`FREQ_BINS` and
    :data:`ANALYSIS_WINDOW`).

    ``StftConfig()`` is what :func:`stft`, :func:`istft` and
    :func:`cola_interior` accept as their configuration argument.
    """


@dataclass
class ComplexSpectrogram:
    """Complex STFT tensor, frequency-major.

    :func:`stft` makes every spectrogram with the module's geometry, and
    :func:`istft` accepts only that geometry.  Other bin counts can be
    described (``filter_and_sum`` and MVDR work on any), so the geometry
    stays on the value.

    Parameters
    ----------
    data : numpy.ndarray
        Complex bins of shape ``(freq_bins, frames, channels)``; any
        other rank is a :class:`~.errors.ValidationError`.
    frame_shift, frame_length, fft_size : int
        Frame geometry the bins were produced with.
    num_samples : int or None
        Original waveform length, kept so synthesis can trim exactly.
    """

    data: np.ndarray
    frame_shift: int = FRAME_SHIFT
    frame_length: int = FRAME_LENGTH
    fft_size: int = FFT_SIZE
    num_samples: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != 3:
            raise ValidationError(
                f"spectrogram must be (freq, frames, channels), got ndim={arr.ndim}"
            )
        expected_f = self.fft_size // 2 + 1
        if arr.shape[0] != expected_f:
            raise ValidationError(
                f"expected {expected_f} frequency bins for fft_size "
                f"{self.fft_size}, got {arr.shape[0]}"
            )
        if arr.shape[1] < 1:
            raise ValidationError("spectrogram must contain at least one frame")
        # A finite sum has only finite terms, so one reduction decides the
        # common case exactly; only a sum that overflows needs the
        # elementwise test (the rule of the autodiff engine's finite check).
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.reduce(arr, axis=None)
        if not np.isfinite(total) and not np.isfinite(arr).all():
            raise ValidationError("spectrogram contains non-finite values")
        self.data = arr

    @property
    def num_frames(self) -> int:
        return self.data.shape[1]

    @property
    def num_channels(self) -> int:
        return self.data.shape[2]

    def with_data(self, data: np.ndarray) -> "ComplexSpectrogram":
        """A copy of this spectrogram's metadata wrapped around new bins."""
        return ComplexSpectrogram(
            data,
            frame_shift=self.frame_shift,
            frame_length=self.frame_length,
            fft_size=self.fft_size,
            num_samples=self.num_samples,
        )


def stft(wave: WaveBuffer, cfg: StftConfig = StftConfig()) -> ComplexSpectrogram:
    """Short-time Fourier transform of every channel of a waveform.

    Frames are a strided view of one zero-padded channel buffer, reused
    for every channel; each channel in turn is windowed into one reused
    frame buffer, and transformed straight into its column of the
    output.  No copy of every channel's frames is made, so the peak
    transient is about one channel's frames on top of the output.  The
    bins equal those of gathering all frames at once.

    Parameters
    ----------
    wave : WaveBuffer
        Input waveform at :data:`~.signals.SAMPLE_RATE`, any channel
        count, at least one sample.  A waveform at another rate is a
        :class:`~.errors.ValidationError`: this is the one way into the
        spectral domain, so every spectrogram, and every waveform
        :func:`istft` returns, is at that rate.
    cfg : StftConfig
        The fixed front end; it has nothing to set.  ``T = ceil(num_samples
        / FRAME_SHIFT)`` frames are produced, the final frame zero-padded.

    Returns
    -------
    ComplexSpectrogram
        Bins as a C-contiguous ``(FREQ_BINS, T, channels)`` array,
        channels on the fastest axis.
    """
    if wave.sample_rate != SAMPLE_RATE:
        raise ValidationError(
            f"waveform rate {wave.sample_rate} Hz, expected {SAMPLE_RATE} Hz"
        )
    x = np.asarray(wave.data, dtype=np.float64)
    if x.shape[1] == 0:
        raise EmptySignalError("cannot transform an empty waveform")
    if not np.all(np.isfinite(x)):
        raise ValidationError("waveform contains non-finite samples")

    channels, num_samples = x.shape
    num_frames = -(-num_samples // FRAME_SHIFT)  # ceil division
    padded = np.zeros((num_frames - 1) * FRAME_SHIFT + FRAME_LENGTH, dtype=np.float64)
    frames = sliding_window_view(padded, FRAME_LENGTH)[::FRAME_SHIFT]  # (T, length) view
    windowed = np.empty((num_frames, FRAME_LENGTH), dtype=np.float64)

    spec = np.empty((FREQ_BINS, num_frames, channels), dtype=np.complex128)
    for c in range(channels):
        padded[:num_samples] = x[c]  # the zero tail is never written
        np.multiply(frames, ANALYSIS_WINDOW, out=windowed)
        np.fft.rfft(windowed, n=FFT_SIZE, axis=-1, out=spec[:, :, c].T)

    return ComplexSpectrogram(spec, num_samples=num_samples)


def istft(spec: ComplexSpectrogram, cfg: StftConfig = StftConfig()) -> WaveBuffer:
    """Inverse STFT by windowed overlap-add with squared-window normalization.

    Parameters
    ----------
    spec : ComplexSpectrogram
        Bins with the module's frame geometry; any other geometry is a
        :class:`~.errors.ConfigMismatchError`.
    cfg : StftConfig
        The fixed front end; it has nothing to set.

    Returns
    -------
    WaveBuffer
        Waveform at :data:`~.signals.SAMPLE_RATE` of length
        ``(T - 1) * FRAME_SHIFT + FRAME_LENGTH``,
        trimmed to ``spec.num_samples`` when that is known.  The
        squared-window normalizer is floored at 1e-2 before division:
        where window coverage vanishes (the taper at the very start and
        end) the least-squares inversion is ill-conditioned, and for
        spectrograms that are not exact transforms of any waveform — every
        enhanced or beamformed spectrogram — an unfloored division
        amplifies the inconsistent part without bound.  Samples inside
        the full-overlap region are unaffected (their normalizer is
        ≥ 0.5), so round-trip reconstruction on the interior is unchanged.
    """
    for name, value in (
        ("frame_shift", FRAME_SHIFT), ("frame_length", FRAME_LENGTH), ("fft_size", FFT_SIZE)
    ):
        if getattr(spec, name) != value:
            raise ConfigMismatchError(
                f"spectrogram {name}={getattr(spec, name)} is not the "
                f"front end's {name}={value}"
            )

    shift, length = FRAME_SHIFT, FRAME_LENGTH
    num_frames = spec.num_frames
    phases = length // shift  # frames that overlap each shift-sized block

    window = ANALYSIS_WINDOW
    frames = np.fft.irfft(spec.data.transpose(2, 1, 0), n=FFT_SIZE, axis=-1)
    frames = frames[:, :, :length] * window  # (ch, T, length)

    # Block b receives piece r of frame b - r.  Adding the pieces from the
    # last phase down sums each block over ascending frames, the order of
    # a frame-by-frame overlap-add, so the result is bit-identical to it.
    out = np.zeros((spec.num_channels, num_frames + phases - 1, shift), dtype=np.float64)
    norm = np.zeros((num_frames + phases - 1, shift), dtype=np.float64)
    pieces = frames.reshape(spec.num_channels, num_frames, phases, shift)
    for r in reversed(range(phases)):
        out[:, r : r + num_frames] += pieces[:, :, r]
        norm[r : r + num_frames] += window[r * shift : (r + 1) * shift] ** 2

    out = out.reshape(spec.num_channels, -1) / np.maximum(norm.reshape(-1), NORM_FLOOR)

    if spec.num_samples is not None:
        out = out[:, : spec.num_samples]
    return WaveBuffer(out, SAMPLE_RATE)


def cola_interior(num_samples: int, cfg: StftConfig = StftConfig()) -> slice:
    """Sample range with full analysis-window overlap coverage.

    Every sample from ``FRAME_LENGTH - FRAME_SHIFT`` onward is covered by
    the maximal number of overlapping frames (the zero-padded tail
    included), so reconstruction there is exact to rounding.  ``cfg`` is
    the fixed front end; it has nothing to set.

    Returns
    -------
    slice
        ``slice(FRAME_LENGTH - FRAME_SHIFT, num_samples)``.
    """
    return slice(FRAME_LENGTH - FRAME_SHIFT, num_samples)


def _power_scale(z: np.ndarray, exponent: float) -> np.ndarray:
    """Map each bin ``z`` to ``|z| ** exponent`` with the phase of ``z``.

    Implemented as ``z * |z| ** (exponent - 1)`` so values on the real and
    imaginary axes stay exactly on them; ``z = 0`` maps to 0 (the phase of
    zero is defined as 0).
    """
    z = np.asarray(z, dtype=np.complex128)
    magnitude = np.abs(z)
    scale = np.zeros_like(magnitude)
    nonzero = magnitude > 0.0
    scale[nonzero] = magnitude[nonzero] ** (exponent - 1.0)
    return z * scale


def compress(spec):
    """Power-compress magnitudes, leaving phase untouched.

    Each bin ``z`` maps to ``|z| ** COMPRESSION_EXPONENT * exp(j * arg z)``;
    zero maps to zero.  The exponent is fixed at 0.5, the one the model is
    trained and run with.  Accepts either a :class:`ComplexSpectrogram`
    (metadata is preserved) or a raw complex array/scalar.
    """
    if isinstance(spec, ComplexSpectrogram):
        return spec.with_data(_power_scale(spec.data, COMPRESSION_EXPONENT))
    return _power_scale(spec, COMPRESSION_EXPONENT)


def decompress(spec):
    """Invert :func:`compress`: each bin maps to
    ``|z| ** (1 / COMPRESSION_EXPONENT)`` with phase preserved; the
    exponent is fixed, as in :func:`compress`.  Accepts a
    :class:`ComplexSpectrogram` or a raw complex array/scalar.
    """
    if isinstance(spec, ComplexSpectrogram):
        return spec.with_data(_power_scale(spec.data, 1.0 / COMPRESSION_EXPONENT))
    return _power_scale(spec, 1.0 / COMPRESSION_EXPONENT)
