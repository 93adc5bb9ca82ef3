"""Strict JSON-to-dataclass reading driven by field annotations.

One recursive reader serves every configuration section. A JSON object is laid
over a base instance field by field, and each value is checked against its
annotation: int, float, str, bool, X | None, tuple[X, ...] and nested
dataclasses. Unknown keys fail with their dotted path. Numbers must be finite,
because Python's json module accepts NaN and Infinity. The reader checks keys
and types only; each dataclass checks its own ranges when it is constructed.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import typing

from .errors import ConfigError

__all__ = ["load_json", "parse_dataclass"]

_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", bool: "a boolean"}


def load_json(path: str):
    """Read one JSON document, with an unreadable file or bad JSON as ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, no permission, a read error
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, or nested too deep
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None


@functools.cache
def _field_hints(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def parse_dataclass(cls, raw, path: str = "", base=None):
    """Lay the JSON object raw over base, reading each key by its annotation.

    Keys absent from raw keep base's values. Without a base they take the
    class defaults, and a field with no default must be present.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'} must be a JSON object")
    hints = _field_hints(cls)
    values = {}
    for key, value in raw.items():
        where = _join(path, key)
        if key not in hints:
            raise ConfigError(f"unknown config key: {where}")
        values[key] = _read(hints[key], value, where, getattr(base, key, None))
    if base is not None:
        return dataclasses.replace(base, **values)
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in values:
            raise ConfigError(f"missing config key: {_join(path, f.name)}")
    return cls(**values)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _read(hint, raw, path: str, base=None):
    if dataclasses.is_dataclass(hint):
        return parse_dataclass(hint, raw, path, base)
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        if raw is None:
            return None
        (hint,) = set(args) - {type(None)}
        return _read(hint, raw, path)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        if not isinstance(raw, list):
            raise ConfigError(f"config key {path} must be a list")
        return tuple(_read(args[0], item, f"{path}[{i}]") for i, item in enumerate(raw))
    if hint is float:
        # exact for ints too: rejects NaN, infinities and ints past float range
        ok = type(raw) in (int, float) and abs(raw) <= sys.float_info.max
    else:
        ok = type(raw) is hint
    if not ok:
        raise ConfigError(f"config key {path} must be {_KIND_NAMES[hint]}")
    return hint(raw)
