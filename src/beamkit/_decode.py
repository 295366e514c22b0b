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
    hints = _type_hints(cls)
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        where = f"{label} " if label else ""
        raise ConfigError(f"unknown {where}config fields: {sorted(unknown)}")
    for f in fields(cls):
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{label} lacks field {f.name!r}".lstrip())
    kwargs = {
        name: decode_value(hints[name], value, f"{label}.{name}" if label else name)
        for name, value in raw.items()
    }
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        if not label:
            raise
        raise type(exc)(f"{label}.{exc}") from exc


# Resolving the annotations is most of a small record's decoding time.
_type_hints = functools.cache(get_type_hints)


def decode_record(cls, raw, where: str, error: type[Exception]):
    """Dataclass ``cls`` from ``raw``, a record of a file, passing over the
    keys ``cls`` does not declare.  A failure is one ``error`` led by
    ``where``: ``<where> lacks field 'x'``, ``<where> field x must ...``."""
    if not isinstance(raw, dict):
        raise error(f"{where} is not a JSON object")
    declared = [f.name for f in fields(cls)]
    try:
        return decode(cls, {name: raw[name] for name in declared if name in raw}, "")
    except ConfigError as exc:
        # Only a missing field's error does not begin with the field.
        detail = str(exc) if str(exc).startswith("lacks field") else f"field {exc}"
        raise error(f"{where} {detail}") from exc


def decode_value(tp, value, path: str):
    """``value`` checked against annotation ``tp`` (a dataclass, a tuple,
    a scalar or ``X | None``); a ConfigError names ``path`` otherwise.
    A number field refuses NaN and ±inf."""
    if is_dataclass(tp):
        return decode(tp, value, path)
    args = get_args(tp)
    if get_origin(tp) is tuple:
        variadic = args[-1] is Ellipsis
        if not isinstance(value, (list, tuple)) or not variadic and len(value) != len(args):
            shape = "a list" if variadic else f"a list of {len(args)} entries"
            raise ConfigError(f"{path} must be {shape}, got {value!r}")
        types = args[:1] * len(value) if variadic else args
        return tuple(
            decode_value(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(types, value))
        )
    options = args or (tp,)  # the members of ``X | None``, or one scalar type
    if any(_SCALARS[option][1](value) for option in options):
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{path} must be finite, got {value!r}")
        return value
    expected = " or ".join(_SCALARS[option][0] for option in options)
    raise ConfigError(f"{path} must be {expected}, got {value!r}")


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
