"""The one decoder from JSON-shaped dicts to the dataclasses of every
record beamkit reads: the run config, a checkpoint's header, tensor
entries (:class:`~.autodiff.checkpoint.TensorEntry`) and model entry,
and a manifest's :class:`~.rooms.ManifestHeader` and
:class:`~.rooms.SceneRecord`.  Its type rules are stated in
:mod:`beamkit.config`; each class's ``__post_init__`` holds its ranges."""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError

# Scalar annotation -> (its name in errors, accepted-value test).  ``bool``
# is an ``int`` subclass, so integer and number fields test for it.
_SCALARS = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("null", lambda v: v is None),
    list: ("a list", lambda v: isinstance(v, list)),
    dict: ("an object", lambda v: isinstance(v, dict)),
}


def decode(cls, raw, label: str):
    """Build dataclass ``cls`` from the dict ``raw``; an omitted field
    keeps its default, and one without a default is required.  ``label``
    is the dotted path of ``raw`` (empty at the root) and prefixes every
    field an error names, the range errors of ``cls``'s constructor
    included: those name the bare field."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{label or 'config'} must be an object, got {raw!r}")
    required, decoders = _record(cls)
    unknown = raw.keys() - decoders.keys()
    if unknown:
        where = f"{label} " if label else ""
        raise ConfigError(f"unknown {where}config fields: {sorted(unknown)}")
    for name in required:
        if name not in raw:
            raise ConfigError(f"{label} lacks field {name!r}".lstrip())
    kwargs = {
        name: decoders[name](value, f"{label}.{name}" if label else name)
        for name, value in raw.items()
    }
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        if not label:
            raise
        raise type(exc)(f"{label}.{exc}") from exc


def decode_record(cls, raw, where: str, error: type[Exception]):
    """Dataclass ``cls`` from ``raw``, a record of a file, passing over the
    keys ``cls`` does not declare.  A failure is one ``error`` led by
    ``where``: ``<where> lacks field 'x'``, ``<where> field x must ...``,
    ``<where> has unknown x config fields: [...]``."""
    if not isinstance(raw, dict):
        raise error(f"{where} is not a JSON object")
    declared = _record(cls)[1]
    try:
        return decode(cls, {name: raw[name] for name in declared if name in raw}, "")
    except ConfigError as exc:
        # Only a missing or an unknown field's error does not begin with the field.
        detail = str(exc)
        if detail.startswith("unknown "):
            detail = f"has {detail}"
        elif not detail.startswith("lacks field"):
            detail = f"field {detail}"
        raise error(f"{where} {detail}") from exc


# A record is decoded many times (a checkpoint lists one per tensor), so
# each class's fields and each annotation's decoder are worked out once.
@functools.cache
def _record(cls):
    """Dataclass ``cls``'s required field names, and each field's decoder
    in field order."""
    hints = get_type_hints(cls)
    required = tuple(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    )
    return required, {f.name: _decoder(hints[f.name]) for f in fields(cls)}


@functools.cache
def _decoder(tp):
    """The function ``(value, path) -> value`` that checks ``value``
    against annotation ``tp`` (a dataclass, a tuple, a scalar or
    ``X | None``) and raises a ConfigError naming ``path`` otherwise.  A
    number field refuses NaN and ±inf."""
    if is_dataclass(tp):
        return functools.partial(decode, tp)
    args = get_args(tp)
    if get_origin(tp) is tuple:
        return _tuple_decoder(args)
    options = args or (tp,)  # the members of ``X | None``, or one scalar type
    tests = tuple(_SCALARS[option][1] for option in options)
    accepts = tests[0] if len(tests) == 1 else lambda v: any(test(v) for test in tests)
    expected = " or ".join(_SCALARS[option][0] for option in options)

    def decode_scalar(value, path):
        if accepts(value):
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{path} must be finite, got {value!r}")
            return value
        raise ConfigError(f"{path} must be {expected}, got {value!r}")

    return decode_scalar


def _tuple_decoder(args):
    """:func:`_decoder` of ``tuple[args]``: a list of ``len(args)``
    entries, or of any length for ``tuple[X, ...]``."""
    variadic = args[-1] is Ellipsis
    entries = tuple(map(_decoder, args[:1] if variadic else args))
    shape = "a list" if variadic else f"a list of {len(args)} entries"

    def decode_tuple(value, path):
        if not isinstance(value, (list, tuple)) or not variadic and len(value) != len(entries):
            raise ConfigError(f"{path} must be {shape}, got {value!r}")
        each = entries * len(value) if variadic else entries
        try:
            return tuple(entry(v, path) for entry, v in zip(each, value))
        except ConfigError:
            # Only a failing list pays for its entries' paths: the pass is
            # repeated with them, and the first bad entry raises again.
            for i, (entry, v) in enumerate(zip(each, value)):
                entry(v, f"{path}[{i}]")
            raise

    return decode_tuple


def require_finite(section) -> None:
    """A ConfigError naming the first float field of dataclass ``section``,
    or float entry of a tuple field, that holds NaN or ±inf."""
    for f in fields(section):
        value = getattr(section, f.name)
        entries = enumerate(value) if isinstance(value, tuple) else [(None, value)]
        for i, entry in entries:
            if isinstance(entry, float) and not math.isfinite(entry):
                where = f.name if i is None else f"{f.name}[{i}]"
                raise ConfigError(f"{where} must be finite, got {entry!r}")
