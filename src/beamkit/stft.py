"""STFT analysis/synthesis and magnitude power compression.

Conventions
-----------
* Analysis uses a periodic window; frame ``t`` covers samples
  ``[t * frame_shift, t * frame_shift + frame_length)`` with no center
  padding, and the tail is zero-padded so the final partial frame is kept:
  ``T = ceil(num_samples / frame_shift)``.
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
from scipy.signal import get_window

from .errors import ConfigError, ConfigMismatchError, EmptySignalError, ValidationError
from .signals import WaveBuffer

__all__ = [
    "StftConfig",
    "ComplexSpectrogram",
    "stft",
    "istft",
    "compress",
    "decompress",
    "cola_interior",
]

_SUPPORTED_WINDOWS = ("hann", "rect")

# Floor for the squared-window overlap-add normalizer in istft.  Inside the
# full-overlap region the normalizer is >= 0.5 for every supported window,
# so the floor only engages on the edge taper, where it caps the inversion
# gain instead of letting the division blow up on spectrograms that are not
# exact transforms of any waveform.
NORM_FLOOR = 1e-2

# The power the model's input and target magnitudes are compressed to.
COMPRESSION_EXPONENT = 0.5


@dataclass(frozen=True)
class StftConfig:
    """Frame geometry and analysis window for the STFT front end.

    Parameters
    ----------
    frame_length : int
        Analysis frame length in samples (default 320 = 20 ms at 16 kHz).
    frame_shift : int
        Hop between frames in samples; must divide ``frame_length``
        (default 160, i.e. 50% overlap).
    fft_size : int
        FFT length, at least ``frame_length`` (default 320).
    window : str
        ``"hann"`` (periodic) or ``"rect"``.  The window must satisfy
        constant overlap-add at the chosen shift, checked at construction.
    """

    frame_length: int = 320
    frame_shift: int = 160
    fft_size: int = 320
    window: str = "hann"

    def __post_init__(self):
        if self.frame_length <= 0 or self.frame_shift <= 0:
            raise ConfigError(
                f"frame_length and frame_shift must be positive, got "
                f"{self.frame_length}, {self.frame_shift}"
            )
        if self.frame_shift > self.frame_length:
            raise ConfigError(
                f"frame_shift ({self.frame_shift}) must not exceed "
                f"frame_length ({self.frame_length})"
            )
        if self.frame_length % self.frame_shift != 0:
            raise ConfigError(
                f"frame_shift ({self.frame_shift}) must divide "
                f"frame_length ({self.frame_length})"
            )
        if self.fft_size < self.frame_length:
            raise ConfigError(
                f"fft_size ({self.fft_size}) must be at least "
                f"frame_length ({self.frame_length})"
            )
        if self.window not in _SUPPORTED_WINDOWS:
            raise ConfigError(
                f"window must be one of {_SUPPORTED_WINDOWS}, got {self.window!r}"
            )
        self._check_cola()

    @property
    def freq_bins(self) -> int:
        """Number of one-sided frequency bins, ``fft_size // 2 + 1``."""
        return self.fft_size // 2 + 1

    def analysis_window(self) -> np.ndarray:
        """The periodic analysis window as float64 of ``frame_length`` samples."""
        if self.window == "hann":
            return get_window("hann", self.frame_length, fftbins=True).astype(np.float64)
        return np.ones(self.frame_length, dtype=np.float64)

    def _check_cola(self):
        """Reject windows whose overlapped sum is not constant at this shift."""
        w = self.analysis_window()
        span = 4 * self.frame_length
        acc = np.zeros(span + self.frame_length)
        for start in range(0, span, self.frame_shift):
            acc[start : start + self.frame_length] += w
        interior = acc[self.frame_length : span]
        if np.max(np.abs(interior - interior[0])) > 1e-8 * max(interior[0], 1.0):
            raise ConfigError(
                f"window {self.window!r} does not satisfy constant overlap-add "
                f"at shift {self.frame_shift}"
            )


@dataclass
class ComplexSpectrogram:
    """Complex STFT tensor, frequency-major.

    Parameters
    ----------
    data : numpy.ndarray
        Complex bins of shape ``(freq_bins, frames, channels)``.  A 2-D
        array is promoted to a single channel.
    frame_shift, frame_length, fft_size : int
        Frame geometry the bins were produced with.
    sample_rate : int
        Sampling rate of the originating waveform in Hz.
    num_samples : int or None
        Original waveform length, kept so synthesis can trim exactly.
    window : str
        Analysis window the bins were produced with; synthesis must use
        the same one.
    """

    data: np.ndarray
    frame_shift: int = 160
    frame_length: int = 320
    fft_size: int = 320
    sample_rate: int = 16000
    num_samples: int | None = None
    window: str = "hann"

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.ndim != 3:
            raise ValidationError(
                f"spectrogram must be (freq, frames[, channels]), got ndim={arr.ndim}"
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
    def freq_bins(self) -> int:
        return self.data.shape[0]

    @property
    def num_frames(self) -> int:
        return self.data.shape[1]

    @property
    def num_channels(self) -> int:
        return self.data.shape[2]

    def channel(self, index: int) -> np.ndarray:
        """One channel as a 2-D complex view of shape ``(freq_bins, frames)``."""
        return self.data[:, :, index]

    def with_data(self, data: np.ndarray) -> "ComplexSpectrogram":
        """A copy of this spectrogram's metadata wrapped around new bins."""
        return ComplexSpectrogram(
            data,
            frame_shift=self.frame_shift,
            frame_length=self.frame_length,
            fft_size=self.fft_size,
            sample_rate=self.sample_rate,
            num_samples=self.num_samples,
            window=self.window,
        )


def stft(wave: WaveBuffer, cfg: StftConfig) -> ComplexSpectrogram:
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
        Input waveform, any channel count, at least one sample.
    cfg : StftConfig
        Frame geometry; ``T = ceil(num_samples / frame_shift)`` frames are
        produced, the final frame zero-padded.

    Returns
    -------
    ComplexSpectrogram
        Bins as a C-contiguous ``(cfg.freq_bins, T, channels)`` array,
        channels on the fastest axis.
    """
    x = np.asarray(wave.data, dtype=np.float64)
    if x.shape[1] == 0:
        raise EmptySignalError("cannot transform an empty waveform")
    if not np.all(np.isfinite(x)):
        raise ValidationError("waveform contains non-finite samples")

    shift, length = cfg.frame_shift, cfg.frame_length
    channels, num_samples = x.shape
    num_frames = -(-num_samples // shift)  # ceil division
    padded = np.zeros((num_frames - 1) * shift + length, dtype=np.float64)
    frames = sliding_window_view(padded, length)[::shift]  # (T, length) view
    windowed = np.empty((num_frames, length), dtype=np.float64)
    window = cfg.analysis_window()

    spec = np.empty((cfg.freq_bins, num_frames, channels), dtype=np.complex128)
    for c in range(channels):
        padded[:num_samples] = x[c]  # the zero tail is never written
        np.multiply(frames, window, out=windowed)
        np.fft.rfft(windowed, n=cfg.fft_size, axis=-1, out=spec[:, :, c].T)

    return ComplexSpectrogram(
        spec,
        frame_shift=shift,
        frame_length=length,
        fft_size=cfg.fft_size,
        sample_rate=wave.sample_rate,
        num_samples=num_samples,
        window=cfg.window,
    )


def istft(spec: ComplexSpectrogram, cfg: StftConfig) -> WaveBuffer:
    """Inverse STFT by windowed overlap-add with squared-window normalization.

    Parameters
    ----------
    spec : ComplexSpectrogram
        Bins produced with a geometry compatible with ``cfg``.
    cfg : StftConfig
        Must match the geometry and window recorded on ``spec``.

    Returns
    -------
    WaveBuffer
        Waveform of length ``(T - 1) * frame_shift + frame_length``, trimmed
        to ``spec.num_samples`` when that is known.  The squared-window
        normalizer is floored at 1e-2 before division: where window
        coverage vanishes (the taper at the very start and end) the
        least-squares inversion is ill-conditioned, and for spectrograms
        that are not exact transforms of any waveform — every enhanced or
        beamformed spectrogram — an unfloored division amplifies the
        inconsistent part without bound.  Samples inside the full-overlap
        region are unaffected (their normalizer is ≥ 0.5), so round-trip
        reconstruction on the interior is unchanged.
    """
    for name in ("frame_shift", "frame_length", "fft_size", "window"):
        if getattr(spec, name) != getattr(cfg, name):
            raise ConfigMismatchError(
                f"spectrogram {name}={getattr(spec, name)} does not match "
                f"config {name}={getattr(cfg, name)}"
            )

    shift, length = cfg.frame_shift, cfg.frame_length
    num_frames = spec.num_frames
    phases = length // shift  # frames that overlap each shift-sized block

    window = cfg.analysis_window()
    frames = np.fft.irfft(spec.data.transpose(2, 1, 0), n=cfg.fft_size, axis=-1)
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
    return WaveBuffer(out, spec.sample_rate)


def cola_interior(num_samples: int, cfg: StftConfig) -> slice:
    """Sample range with full analysis-window overlap coverage.

    Every sample from ``frame_length - frame_shift`` onward is covered by
    the maximal number of overlapping frames (the zero-padded tail included),
    so reconstruction there is exact to rounding.

    Returns
    -------
    slice
        ``slice(frame_length - frame_shift, num_samples)``.
    """
    return slice(cfg.frame_length - cfg.frame_shift, num_samples)


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


def _check_exponent(exponent: float):
    if not (0.0 < exponent <= 1.0):
        raise ValidationError(f"compression exponent must be in (0, 1], got {exponent}")


def compress(spec, exponent: float = COMPRESSION_EXPONENT):
    """Power-compress magnitudes, leaving phase untouched.

    Each bin ``z`` maps to ``|z| ** exponent * exp(j * arg z)``; zero maps
    to zero.  Accepts either a :class:`ComplexSpectrogram` (metadata is
    preserved) or a raw complex array/scalar.

    Parameters
    ----------
    spec : ComplexSpectrogram or array_like
    exponent : float
        In ``(0, 1]``; :data:`COMPRESSION_EXPONENT` (0.5) by default, the
        exponent the model is trained and run with; 1.0 is the identity.
    """
    _check_exponent(exponent)
    if isinstance(spec, ComplexSpectrogram):
        return spec.with_data(_power_scale(spec.data, exponent))
    return _power_scale(spec, exponent)


def decompress(spec, exponent: float = COMPRESSION_EXPONENT):
    """Invert :func:`compress`: each bin maps to ``|z| ** (1/exponent)``
    with phase preserved.

    Parameters
    ----------
    spec : ComplexSpectrogram or array_like
    exponent : float
        The exponent the data was compressed with, in ``(0, 1]``;
        :data:`COMPRESSION_EXPONENT` by default.
    """
    _check_exponent(exponent)
    if isinstance(spec, ComplexSpectrogram):
        return spec.with_data(_power_scale(spec.data, 1.0 / exponent))
    return _power_scale(spec, 1.0 / exponent)
