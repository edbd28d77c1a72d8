"""Pipeline config file: one JSON document defaulting the CLI's inputs.

Strict by design: unknown keys anywhere are rejected so a typo cannot
silently fall back to a default, and a value of the wrong type is
rejected before any subcommand reads it.
"""

import json
import os
import sys
from pathlib import Path

from ._records import loads
from .errors import ConfigError

# Section -> key -> type. ``load_config`` checks a config file
# against it, and the CLI resolves each section's keys from it.
SECTIONS = {
    "paths": {"output_dir": str},
    "dataset": {
        "seed": int, "colour": str, "group_split": str, "split_fraction": float,
        "stratified": bool,
    },
    "train": {
        "learning_rate": float, "momentum": float, "batch_size": int, "max_epochs": int,
        "patience": int, "min_delta": float, "seed": int,
    },
}

OUTPUT_DIR_ENV = "BRIDGECAP_OUT"


def _fits(value, kind) -> bool:
    # bool is an int in Python: only a bool key takes one. A float key
    # also takes an int. A number must fit an int64 or a finite double.
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
        return False
    limit = {int: 2**63 - 1, float: sys.float_info.max}.get(kind)
    return limit is None or -limit <= value <= limit


def _describe(shape) -> str:
    if isinstance(shape, tuple):
        return " or ".join(map(_describe, shape))
    kind = shape if isinstance(shape, type) else type(shape)
    return {list: "a list", dict: "a JSON object"}.get(kind) or getattr(shape, "__name__", "null")


def check(value, shape, where: str) -> None:
    """Raise ConfigError, naming the path below ``where``, unless the
    parsed JSON ``value`` has ``shape``. A shape is a JSON scalar type
    (``str``, ``int``, ``float`` or ``bool``: a bool is never an int, a
    float also takes an int, and a number must fit an int64 or a finite
    double), ``None`` for null, ``dict`` for any object, a tuple of
    alternative shapes, ``[shape]`` for a list of ``shape``, or a dict for
    an object with only those keys, where a ``str`` key means any key. No
    key is required: each reader checks the keys it cannot do without.
    """
    if isinstance(shape, tuple):
        for alternative in shape:
            try:
                return check(value, alternative, where)
            except ConfigError:
                pass
    elif isinstance(shape, dict):
        if isinstance(value, dict):
            unknown = set() if str in shape else set(value) - set(shape)
            if unknown:
                raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
            for key, item in value.items():
                check(item, shape.get(key, shape.get(str)), f"{where}.{key}")
            return
    elif isinstance(shape, list):
        if isinstance(value, list):
            for i, item in enumerate(value):
                check(item, shape[0], f"{where}[{i}]")
            return
    elif value is None if shape is None else _fits(value, shape):
        return
    raise ConfigError(f"{where} must be {_describe(shape)}, got {json.dumps(value)}")


def read_json(path, what: str):
    """The JSON value of the UTF-8 file at ``path``, whatever the locale;
    ``what`` names it in the ConfigError raised when it cannot be read,
    and in ``_records.loads``' FormatError when it is not JSON."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    return loads(data, f"{what} {path}")


def load_config(path) -> dict:
    cfg = read_json(path, "config")
    check(cfg, SECTIONS, "config")
    return cfg


def resolve_output_dir(flag_value, cfg: dict) -> Path:
    """Output directory precedence: explicit flag, then the environment
    override, then the config file, then the working directory."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(cfg.get("paths", {}).get("output_dir") or ".")
