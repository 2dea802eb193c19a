"""Flat dotted-key configuration files with a strict key schema.

Syntax: one ``key = value`` per line, ``#`` comments, blank lines ignored.
Values are parsed as JSON where possible (numbers, booleans, lists, quoted
strings) and fall back to bare strings.  Unknown keys are rejected.
"""

from __future__ import annotations

import json
from dataclasses import fields
from importlib import resources

from .closure import DEFAULT_MAX_DERIVED
from .manifest import read_text
from .training import TrainConfig


class ConfigError(Exception):
    pass


# non-training keys and their defaults
DEFAULT_EXTRAS = {
    "closure.max_derived": DEFAULT_MAX_DERIVED,
    "eval.pool": None,
    "eval.head_pool": None,
    "eval.tie_mode": "optimistic",
}

# key -> (TrainConfig field, converter) or None for non-training keys; a
# training key's converter is the type of its field's default
SCHEMA: dict[str, tuple[str, type] | None] = {
    **{f"train.{f.name}": (f.name, type(f.default)) for f in fields(TrainConfig)},
    **dict.fromkeys(DEFAULT_EXTRAS),
}

PRESET_NAMES = (
    "relu-original", "leaky-relaxed", "neg-losses", "neg-filter",
    "ablate-leaky", "ablate-relaxed", "ablate-losses", "ablate-filter",
)


def parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown config key: {key!r}")
        values[key] = parse_value(rhs)
    return values


def load_config_file(path: str) -> dict:
    return parse_config_text(read_text(path), source=path)


def load_preset(name: str) -> dict:
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset: {name!r} (choose from {', '.join(PRESET_NAMES)})")
    text = resources.files("elgeo").joinpath(f"presets/{name}.cfg").read_text("utf-8")
    return parse_config_text(text, source=f"preset:{name}")


def apply_overrides(values: dict, overrides: list[str]) -> dict:
    """Apply CLI ``key=value`` strings on top of file values."""
    out = dict(values)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value: {item!r}")
        key, _, rhs = item.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key: {key!r}")
        out[key] = parse_value(rhs)
    return out


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
        kwargs[attr] = conv(val)
    try:
        return TrainConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def extras(values: dict) -> dict:
    out = dict(DEFAULT_EXTRAS)
    for key, val in values.items():
        if SCHEMA[key] is None:
            out[key] = val
    return out


def resolved(values: dict) -> dict:
    """Full key=value view with every default materialized (for manifests)."""
    cfg = to_train_config(values)
    out = {f"train.{k}": v for k, v in cfg.to_dict().items()}
    out.update(extras(values))
    return out
