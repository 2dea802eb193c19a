"""Flat dotted-key configuration files with a strict key schema.

Syntax: one ``key = value`` per line, ``#`` comments, blank lines ignored.
A file or preset line, a ``--set`` override and a ``--grid`` axis are each read
by ``parse_entry``: split at the first ``=``, the stripped key checked against
``SCHEMA``, the value read by ``parse_value`` as JSON where possible (numbers,
booleans, lists, quoted strings), else as the bare string.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from importlib import resources

from .closure import DEFAULT_MAX_DERIVED
from .evaluation import TIE_WEIGHT
from .manifest import read_text
from .training import TrainConfig


class ConfigError(Exception):
    pass


# non-training key -> (its default, what its value must be, the check of that)
EXTRAS = {
    "closure.max_derived": (DEFAULT_MAX_DERIVED, "an int >= 0",
                            lambda v: type(v) is int and v >= 0),
    "eval.pool": (None, "a string or null", lambda v: v is None or isinstance(v, str)),
    "eval.head_pool": (None, "a string or null", lambda v: v is None or isinstance(v, str)),
    "eval.tie_mode": ("optimistic", " or ".join(map(repr, TIE_WEIGHT)),
                      lambda v: isinstance(v, str) and v in TIE_WEIGHT),
}

# key -> (TrainConfig field, converter) or None for non-training keys; a
# training key's converter is the type of its field's default
SCHEMA: dict[str, tuple[str, type] | None] = {
    **{f"train.{f.name}": (f.name, type(f.default)) for f in fields(TrainConfig)},
    **dict.fromkeys(EXTRAS),
}

PRESETS = resources.files("elgeo").joinpath("presets")
PRESET_NAMES = tuple(sorted(p.name.removesuffix(".cfg") for p in PRESETS.iterdir()
                            if p.name.endswith(".cfg")))


def parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def parse_values(raw: str) -> list:
    """A ``--grid`` axis's values: the JSON list ``[raw]`` where that parses
    (``0.01,0.001``, ``"strict","relaxed"``), else each comma-separated value."""
    values = parse_value(f"[{raw}]")
    return values if isinstance(values, list) else [parse_value(v) for v in raw.split(",")]


def parse_entry(entry: str, where: str, read=parse_value) -> tuple[str, object]:
    """The one ``key = value`` rule: split at the first ``=``, check the stripped
    key against SCHEMA and read the value with ``read``; ``where`` leads each error."""
    key, eq, rhs = entry.partition("=")
    key = key.strip()
    if not eq:
        raise ConfigError(f"{where}expected 'key = value'")
    if key not in SCHEMA:
        raise ConfigError(f"{where}unknown config key: {key!r}")
    return key, read(rhs)


def parse_config_text(text: str, source: str = "<config>") -> dict:
    return dict(parse_entry(line, f"{source}:{lineno}: ")
                for lineno, line in enumerate(text.split("\n"), 1)
                if line.strip() and not line.lstrip().startswith("#"))


def load_config_file(path: str) -> dict:
    return parse_config_text(read_text(path), source=path)


def load_preset(name: str) -> dict:
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset: {name!r} (choose from {', '.join(PRESET_NAMES)})")
    text = PRESETS.joinpath(f"{name}.cfg").read_text("utf-8")
    return parse_config_text(text, source=f"preset:{name}")


def apply_overrides(values: dict, overrides: list[str]) -> dict:
    """Apply CLI ``key=value`` strings on top of file values."""
    return {**values, **dict(parse_entry(item, f"--set {item!r}: ") for item in overrides)}


# field type -> the value types it takes; no field but a bool one takes a bool
ACCEPTS = {int: int, float: (int, float), str: str, bool: bool, tuple: (list, tuple)}


def to_train_config(values: dict) -> TrainConfig:
    """The TrainConfig of ``values``; each value must be of its field's type (see
    ``ACCEPTS``), the tuple field taking a list of strings or one comma-separated
    string.  Anything else raises ConfigError."""
    kwargs = {}
    for key, val in values.items():
        spec = SCHEMA[key]
        if spec is None:
            continue
        attr, conv = spec
        if conv is tuple and isinstance(val, str):
            val = [v for v in val.split(",") if v]
        if (isinstance(val, bool) is not (conv is bool) or not isinstance(val, ACCEPTS[conv])
                or conv is tuple and not all(isinstance(v, str) for v in val)):
            expected = "a list of strings" if conv is tuple else conv.__name__
            raise ConfigError(f"{key} expects {expected}, got {val!r}")
        try:
            kwargs[attr] = conv(val)
        except OverflowError:   # an int past float's range
            raise ConfigError(f"{key} is too large for a float") from None
    try:
        return TrainConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def extras(values: dict) -> dict:
    """The non-training keys: each default, overridden by its value in ``values``,
    which must pass the key's check in ``EXTRAS``, else ConfigError."""
    out = {key: default for key, (default, _, _) in EXTRAS.items()}
    for key, val in values.items():
        if SCHEMA[key] is None:
            _, expected, ok = EXTRAS[key]
            if not ok(val):
                raise ConfigError(f"{key} expects {expected}, got {val!r}")
            out[key] = val
    return out


def resolved(cfg: TrainConfig, values: dict) -> dict:
    """Full key=value view with every default materialized (for manifests): the
    fields of ``cfg``, which is ``to_train_config(values)``, then the extras of ``values``."""
    return {**{f"train.{k}": v for k, v in asdict(cfg).items()}, **extras(values)}
