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

import numpy as np

from ..errors import CheckpointError

__all__ = ["save_checkpoint", "load_checkpoint", "CHECKPOINT_VERSION", "MAGIC"]

MAGIC = b"BKTENSR\x00"
CHECKPOINT_VERSION = 1
_ALLOWED_DTYPES = ("<f8", "<f4", "<i8", "<i4")


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
        On a bad magic number, unsupported version, malformed header or
        tensor entry, or truncated payload.
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
        header = json.loads(blob[20 : 20 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc

    if not (
        isinstance(header, dict)
        and isinstance(header.get("tensors"), list)
        and isinstance(header.get("meta"), dict)
    ):
        raise CheckpointError(f"{path}: header lacks a 'tensors' list or a 'meta' object")

    payload = blob[20 + header_len :]
    tensors: dict[str, np.ndarray] = {}
    for index, entry in enumerate(header["tensors"]):
        _check_entry(path, index, entry, len(payload))
        dtype = np.dtype(entry["dtype"])
        array = np.frombuffer(
            payload, dtype=dtype, count=entry["nbytes"] // dtype.itemsize, offset=entry["offset"]
        ).reshape(entry["shape"])
        tensors[entry["name"]] = array.copy()
    return tensors, header["meta"]


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_entry(path, index: int, entry, payload_len: int):
    """Raise :class:`CheckpointError` unless ``entry`` describes a readable tensor."""
    if not isinstance(entry, dict) or not {"name", "dtype", "shape", "offset", "nbytes"} <= entry.keys():
        raise CheckpointError(
            f"{path}: tensor entry {index} needs name, dtype, shape, offset and nbytes"
        )
    name, shape = entry["name"], entry["shape"]
    if not isinstance(name, str):
        raise CheckpointError(f"{path}: tensor entry {index} has a non-string name")
    if entry["dtype"] not in _ALLOWED_DTYPES:
        raise CheckpointError(f"{path}: tensor {name!r} has unsupported dtype {entry['dtype']!r}")
    if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
        raise CheckpointError(f"{path}: tensor {name!r} has invalid shape {shape!r}")
    if not (_is_count(entry["offset"]) and _is_count(entry["nbytes"])):
        raise CheckpointError(f"{path}: tensor {name!r} has an invalid offset or nbytes")
    expected = math.prod(shape) * np.dtype(entry["dtype"]).itemsize
    if expected != entry["nbytes"]:
        raise CheckpointError(
            f"{path}: tensor {name!r} of shape {shape} needs {expected} bytes, "
            f"header says {entry['nbytes']}"
        )
    if entry["offset"] + entry["nbytes"] > payload_len:
        raise CheckpointError(f"{path}: truncated payload for tensor {name!r}")
