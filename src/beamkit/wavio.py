"""WAV file reading and writing: a small RIFF/WAVE codec.

Files are written as 32-bit float, in the layout ``scipy.io.wavfile.write``
gives a float32 array, byte for byte: ``RIFF``/``WAVE``, an 18-byte
``fmt `` chunk (format tag 3, IEEE float, with a zero ``cbSize``), a
``fact`` chunk holding the frame count, then ``data``.

Both 32-bit float and 16-bit integer PCM files are read, since input audio
may come from elsewhere; PCM16 samples are scaled by ``x = int / 32768``.
Either may carry a plain or a ``WAVE_FORMAT_EXTENSIBLE`` ``fmt `` chunk.
Chunks other than ``fmt `` and ``data`` (``fact``, ``LIST``, ...) are
skipped, with the pad byte that follows an odd-sized chunk.  A
:class:`~.errors.WavFormatError` refuses every other encoding (8-, 24-,
32- or 64-bit PCM, 64-bit float, compressed formats), big-endian RIFX and
RF64 files, a missing or short ``fmt `` chunk, a missing ``data`` chunk,
a ``data`` chunk shorter than its header says, and a payload that is not
a whole number of frames.

Samples on disk are channel-interleaved; in memory a :class:`WaveBuffer`
holds float64 of shape ``(channels, samples)``.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import WavFormatError
from .signals import WaveBuffer

__all__ = ["read_wav", "write_wav", "PCM16_SCALE"]

PCM16_SCALE = 32768.0

_RIFF = struct.Struct("<4sI4s")
_CHUNK = struct.Struct("<4sI")
_FMT = struct.Struct("<HHIIHH")  # tag, channels, rate, bytes/s, block align, bits

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# An extensible chunk names its format by a GUID: the tag, then this tail.
_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_EXTENSIBLE_FMT_SIZE = 40

# (format tag, bits per sample) -> the sample type read_wav decodes.
_DECODED = {(_PCM, 16): np.dtype("<i2"), (_IEEE_FLOAT, 32): np.dtype("<f4")}
# The numpy names other common encodings are reported by.
_REFUSED = {(_PCM, 8): "uint8", (_PCM, 24): "int32", (_PCM, 32): "int32",
            (_PCM, 64): "int64", (_IEEE_FLOAT, 64): "float64"}


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
    with open(os.fspath(path), "rb") as fh:
        raw = fh.read()
    rate, frames = _parse(raw, path)
    if expect_rate is not None and rate != expect_rate:
        raise WavFormatError(
            f"{path}: sample rate {rate} Hz, expected {expect_rate} Hz "
            "(resampling is out of scope)"
        )
    if frames.dtype == np.int16:
        samples = frames.astype(np.float64) / PCM16_SCALE
    else:
        samples = frames.astype(np.float64)
    # Disk layout is (samples, channels); WaveBuffer wants (channels, samples).
    return WaveBuffer(samples.T, rate)


def _parse(raw: bytes, path) -> tuple[int, np.ndarray]:
    """The sample rate and a read-only ``(frames, channels)`` view of the
    samples of the WAV file whose bytes are ``raw``."""

    def refuse(reason: str):
        return WavFormatError(f"cannot parse WAV file {path}: {reason}")

    if len(raw) < _RIFF.size:
        raise refuse("shorter than a RIFF header")
    riff, _, wave = _RIFF.unpack_from(raw)
    if riff != b"RIFF" or wave != b"WAVE":
        # RIFX (big-endian) and RF64 files are refused here too.
        raise refuse(f"not a little-endian RIFF/WAVE file ({riff!r}, {wave!r})")

    chunks = {}  # the first chunk of each id: id -> (payload offset, size)
    pos = _RIFF.size
    while pos + _CHUNK.size <= len(raw):
        cid, size = _CHUNK.unpack_from(raw, pos)
        pos += _CHUNK.size
        chunks.setdefault(cid, (pos, size))
        pos += size + (size & 1)
    if b"fmt " not in chunks:
        raise refuse("no fmt chunk")
    if b"data" not in chunks:
        raise refuse("no data chunk")

    start, size = chunks[b"fmt "]
    fmt = raw[start : start + size]
    if len(fmt) < _FMT.size:
        raise refuse(f"fmt chunk of {len(fmt)} bytes, need {_FMT.size}")
    tag, channels, rate, _, block_align, bits = _FMT.unpack_from(fmt)
    if tag == _EXTENSIBLE:
        if len(fmt) < _EXTENSIBLE_FMT_SIZE:
            raise refuse(f"extensible fmt chunk of {len(fmt)} bytes, "
                         f"need {_EXTENSIBLE_FMT_SIZE}")
        guid = fmt[24:_EXTENSIBLE_FMT_SIZE]
        if guid[2:] == _GUID_TAIL:
            tag = int.from_bytes(guid[:2], "little")
    dtype = _DECODED.get((tag, bits))
    if dtype is None:
        name = _REFUSED.get((tag, bits), f"{bits}-bit format {tag:#06x}")
        raise WavFormatError(
            f"unsupported WAV encoding {name} in {path}; "
            "only PCM16 and float32 are supported"
        )
    if channels < 1 or block_align != channels * dtype.itemsize:
        raise refuse(f"{channels} channels of {bits} bits in blocks of {block_align} bytes")

    start, size = chunks[b"data"]
    if start + size > len(raw):
        raise refuse(f"data chunk holds {len(raw) - start} of its {size} bytes")
    if size % block_align:
        raise refuse(f"data chunk of {size} bytes is not whole {block_align}-byte frames")
    frames = np.frombuffer(raw, dtype, size // dtype.itemsize, start)
    return rate, frames.reshape(-1, channels)


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
    payload = np.ascontiguousarray(wave.data.T, dtype="<f4")  # (samples, channels)
    frames, channels = payload.shape
    # "WAVE", then the fmt, fact and data chunks.
    riff_size = 4 + (_CHUNK.size + _FMT.size + 2) + (_CHUNK.size + 4) + _CHUNK.size
    header = b"".join([
        _RIFF.pack(b"RIFF", riff_size + payload.nbytes, b"WAVE"),
        _CHUNK.pack(b"fmt ", _FMT.size + 2),
        _FMT.pack(_IEEE_FLOAT, channels, wave.sample_rate,
                  wave.sample_rate * 4 * channels, 4 * channels, 32),
        b"\x00\x00",  # cbSize: no extension
        _CHUNK.pack(b"fact", 4), struct.pack("<I", frames),
        _CHUNK.pack(b"data", payload.nbytes),
    ])
    with open(os.fspath(path), "wb") as fh:
        fh.write(header)
        fh.write(payload)
