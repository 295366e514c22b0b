"""WAV files built chunk by chunk, for tests of the reader: plain and
extensible ``fmt `` chunks, and chunks of any id before or after them."""

import struct

import numpy as np

PCM, IEEE_FLOAT, EXTENSIBLE = 1, 3, 0xFFFE
# KSDATAFORMAT_SUBTYPE_PCM / _IEEE_FLOAT after their two-byte format tag.
GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def chunk(cid: bytes, body: bytes) -> bytes:
    """One RIFF chunk, with the pad byte that an odd size needs."""
    return struct.pack("<4sI", cid, len(body)) + body + b"\0" * (len(body) & 1)


def fmt_chunk(tag: int, channels: int, bits: int, rate: int = 16000,
              extensible: bool = False) -> bytes:
    """A ``fmt `` chunk: 16 bytes for PCM, 18 (``cbSize`` 0) for float,
    40 when ``extensible``, naming ``tag`` by its subformat GUID."""
    block = channels * bits // 8
    body = struct.pack("<HHIIHH", EXTENSIBLE if extensible else tag, channels, rate,
                       rate * block, block, bits)
    if extensible:
        body += struct.pack("<HHIH", 22, bits, 0, tag) + GUID_TAIL
    elif tag != PCM:
        body += b"\0\0"
    return chunk(b"fmt ", body)


def wav_file(frames: np.ndarray, tag: int, extensible: bool = False, rate: int = 16000,
             before: bytes = b"", after: bytes = b"") -> bytes:
    """The bytes of a WAV file holding ``frames`` (``(frames, channels)``,
    little-endian) under format ``tag``, with the chunks ``before`` ahead
    of ``fmt `` and ``after`` between it and ``data``."""
    fmt = fmt_chunk(tag, frames.shape[1], frames.dtype.itemsize * 8, rate, extensible)
    body = b"WAVE" + before + fmt + after + chunk(b"data", frames.tobytes())
    return b"RIFF" + struct.pack("<I", len(body)) + body
