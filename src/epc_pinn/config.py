"""The one constructor of the config dataclasses from parsed JSON, and so
the only reader of what their base, JsonConfig, writes with to_dict.

from_json checks each value against its field's type before the dataclass
and its __post_init__ range rules see it: an int is a JSON integer (not a
bool, not 2.0); a float is an int or a float, not a bool, with a finite
float value, and an int is kept as given; a str is a string;
tuple[T, ...] and list[T] are a list of T, of the exact length for a
fixed-length tuple; dict[str, T] is an object of T; a dataclass is an
object, read recursively, or a built instance; Any is any value. No
other type is read, X | None included. Unknown keys and missing keys
without a default are rejected. Every rejection is a ConfigError naming
the dotted key path, e.g. train.hidden_dims[0].
"""

from __future__ import annotations

import dataclasses
import functools
import math
import reprlib
import typing

from .errors import ConfigError


@functools.cache
def _fields(cls: type) -> tuple[dict[str, object], tuple[str, ...]]:
    """The resolved field types, and the fields without a default."""
    hints, fields = typing.get_type_hints(cls), dataclasses.fields(cls)
    no_default = dataclasses.MISSING
    required = tuple(f.name for f in fields if f.default is no_default is f.default_factory)
    return {f.name: hints[f.name] for f in fields}, required


def _join(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _reject(where: str, expected: str, value: object) -> typing.NoReturn:
    raise ConfigError(f"{where}: expected {expected}, got {reprlib.repr(value)}")


def from_json(cls, payload, where: str = ""):
    """An instance of the dataclass cls from a JSON object, with missing
    keys at their defaults; where is the key path of payload."""
    if isinstance(payload, cls):
        return payload
    if not isinstance(payload, dict):
        _reject(where or cls.__name__, "an object", payload)
    fields, required = _fields(cls)
    for problem, keys in (("unknown", sorted(map(str, payload.keys() - fields))),
                          ("missing", [k for k in required if k not in payload])):
        if keys:
            raise ConfigError(f"{problem} key(s): {', '.join(_join(where, k) for k in keys)}")
    kwargs = {k: _value(fields[k], v, _join(where, k)) for k, v in payload.items()}
    try:
        return cls(**kwargs)
    except ConfigError as exc:  # a range rule: name the section
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from None


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _value(tp, value, where: str):
    """value checked against the field type tp."""
    if tp is int or tp is float:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if tp is int and not (number and isinstance(value, int)):
            _reject(where, "an integer", value)
        if tp is float and not (number and _finite(value)):
            _reject(where, "a finite number", value)
        return value
    if tp is str and not isinstance(value, str):
        _reject(where, "a string", value)
    if tp is str or tp is typing.Any:
        return value
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (tuple, list):
        if not isinstance(value, (list, tuple)):
            _reject(where, "a list", value)
        if origin is list or args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            _reject(where, f"a list of {len(args)} entries", value)
        return origin(_value(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if origin is dict:
        if not isinstance(value, dict):
            _reject(where, "an object", value)
        return {_value(args[0], k, where): _value(args[1], v, _join(where, str(k)))
                for k, v in value.items()}
    raise TypeError(f"{where}: unsupported field type {tp!r}")


class JsonConfig:
    """Base of the config dataclasses: to_dict; from_json reads it back."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
