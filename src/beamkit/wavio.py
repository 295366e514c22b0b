"""WAV file reading and writing.

Files are written as 32-bit float.  Both 32-bit float and 16-bit integer
PCM files are read, since input audio may come from elsewhere; PCM16
samples are scaled by ``x = int / 32768``.  Samples on disk are
channel-interleaved; in memory a :class:`WaveBuffer` holds float64 of
shape ``(channels, samples)``.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.io import wavfile

from .errors import WavFormatError
from .signals import WaveBuffer

__all__ = ["read_wav", "write_wav", "PCM16_SCALE"]

PCM16_SCALE = 32768.0


def read_wav(path: str | os.PathLike, expect_rate: int | None = None) -> WaveBuffer:
    """Read a PCM16 or float32 WAV file into a float64 WaveBuffer.

    Parameters
    ----------
    path : path-like
        File to read.
    expect_rate : int, optional
        If given, raise :class:`WavFormatError` unless the file's sample
        rate matches (the enhancement pipeline requires 16 kHz inputs).

    Returns
    -------
    WaveBuffer
        Channels in file order, samples scaled to nominal [-1, 1) for PCM16
        and passed through unchanged for float32.
    """
    try:
        rate, data = wavfile.read(os.fspath(path))
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise WavFormatError(f"cannot parse WAV file {path}: {exc}") from exc

    if data.dtype == np.int16:
        samples = data.astype(np.float64) / PCM16_SCALE
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise WavFormatError(
            f"unsupported WAV encoding {data.dtype} in {path}; "
            "only PCM16 and float32 are supported"
        )

    if samples.ndim == 1:
        samples = samples[:, np.newaxis]
    # Disk layout is (samples, channels); WaveBuffer wants (channels, samples).
    buffer = WaveBuffer(samples.T, rate)

    if expect_rate is not None and buffer.sample_rate != expect_rate:
        raise WavFormatError(
            f"{path}: sample rate {buffer.sample_rate} Hz, expected {expect_rate} Hz "
            "(resampling is out of scope)"
        )
    return buffer


def write_wav(path: str | os.PathLike, wave: WaveBuffer):
    """Write a WaveBuffer to disk as 32-bit float, which is lossless for
    values representable in single precision.

    Parameters
    ----------
    path : path-like
        Destination file; parent directory must exist.
    wave : WaveBuffer
        Data to write; channels become interleaved WAV channels in order.
    """
    payload = wave.data.T.astype(np.float32)  # (samples, channels)
    if payload.shape[1] == 1:
        payload = payload[:, 0]
    wavfile.write(os.fspath(path), wave.sample_rate, payload)
