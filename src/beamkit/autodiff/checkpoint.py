"""Named-tensor checkpoint container.

Byte layout (all integers little-endian):

    offset  size          content
    0       8             magic b"BKTENSR\\0"
    8       4             format version (uint32), currently 1
    12      8             header length H in bytes (uint64)
    20      H             UTF-8 JSON header
    20+H    ...           tensor payload

The JSON header holds ``{"meta": {...}, "tensors": [...]}`` where each
tensor entry records ``name``, ``dtype`` (a little-endian numpy dtype
string such as "<f8"), ``shape``, ``offset`` (bytes from payload start),
and ``nbytes``.  Payload bytes are the tensors' C-order data,
concatenated in header order.  Writing is deterministic: keys are
sorted, and there are no timestamps.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .._decode import decode_record
from ..errors import CheckpointError, ConfigError

__all__ = ["save_checkpoint", "load_checkpoint", "TensorEntry", "CHECKPOINT_VERSION", "MAGIC"]

MAGIC = b"BKTENSR\x00"
CHECKPOINT_VERSION = 1
_ALLOWED_DTYPES = ("<f8", "<f4", "<i8", "<i4")


@dataclass(frozen=True)
class _Header:
    tensors: list  # of TensorEntry records
    meta: dict


@dataclass(frozen=True)
class TensorEntry:
    """One record of the header's ``tensors`` list: which bytes hold which array."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int

    def __post_init__(self):
        if self.dtype not in _ALLOWED_DTYPES:
            raise ConfigError(f"dtype must be one of {_ALLOWED_DTYPES}, got {self.dtype!r}")
        if not all(d >= 0 for d in self.shape):
            raise ConfigError(f"shape must be a list of integers >= 0, got {list(self.shape)}")
        expected = math.prod(self.shape) * np.dtype(self.dtype).itemsize
        if self.nbytes != expected:
            raise ConfigError(f"nbytes must be {expected} for this shape, got {self.nbytes}")


def save_checkpoint(path: str | os.PathLike, tensors: dict[str, np.ndarray], meta: dict):
    """Write named arrays plus a JSON-serializable metadata dict.

    Arrays are stored little-endian in C order; float64/float32 and
    int64/int32 are supported.
    """
    entries = []
    payloads = []
    offset = 0
    # Iterate in name order so the byte stream is independent of dict
    # insertion order — identical state must produce identical files.
    for name in sorted(tensors):
        array = tensors[name]
        array = np.ascontiguousarray(array)
        dtype = array.dtype.newbyteorder("<")
        dtype_str = dtype.str
        if dtype_str not in _ALLOWED_DTYPES:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {array.dtype}")
        data = array.astype(dtype, copy=False).tobytes(order="C")
        entries.append(
            {
                "name": name,
                "dtype": dtype_str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": len(data),
            }
        )
        payloads.append(data)
        offset += len(data)

    header = json.dumps(
        {"meta": meta, "tensors": entries}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")

    with open(os.fspath(path), "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for data in payloads:
            fh.write(data)


def load_checkpoint(path: str | os.PathLike) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns
    -------
    (tensors, meta)
        Arrays come back with their stored dtypes and shapes.

    Raises
    ------
    CheckpointError
        On a bad magic number or version, a malformed header or tensor
        entry (see :class:`TensorEntry`), a tensor listed twice or out of
        payload order, or a truncated payload.
    """
    with open(os.fspath(path), "rb") as fh:
        blob = fh.read()

    if len(blob) < 20 or blob[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", blob[8:12])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version} unsupported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    (header_len,) = struct.unpack("<Q", blob[12:20])
    if len(blob) < 20 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        raw = json.loads(blob[20 : 20 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    header = decode_record(_Header, raw, f"{path}: header", CheckpointError)

    payload = memoryview(blob)[20 + header_len :]
    tensors: dict[str, np.ndarray] = {}
    end = 0  # the payload is the tensors' bytes, concatenated in header order
    for index, record in enumerate(header.tensors):
        entry = decode_record(TensorEntry, record, f"{path}: tensor entry {index}", CheckpointError)
        if entry.name in tensors:
            raise CheckpointError(f"{path}: tensor {entry.name!r} is listed twice")
        if entry.offset != end:
            raise CheckpointError(
                f"{path}: tensor {entry.name!r} starts at {entry.offset}, not {end}"
            )
        end += entry.nbytes
        if end > len(payload):
            raise CheckpointError(f"{path}: truncated payload for tensor {entry.name!r}")
        dtype = np.dtype(entry.dtype)
        flat = np.frombuffer(payload, dtype, entry.nbytes // dtype.itemsize, entry.offset)
        tensors[entry.name] = flat.reshape(entry.shape).copy()
    return tensors, header.meta
