"""Pipeline config file: one JSON document defaulting the CLI's inputs.

Strict by design: unknown keys anywhere are rejected so a typo cannot
silently fall back to a default, and a value of the wrong type is
rejected before any subcommand reads it.
"""

import json
import os
from pathlib import Path

from .errors import ConfigError

# Section -> key -> type. ``validate_config`` checks a config file
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
    # also takes an int.
    accepted = (int, float) if kind is float else kind
    return isinstance(value, accepted) and isinstance(value, bool) == (kind is bool)


def _check(section, keys: dict, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(section).__name__}")
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    for key, value in section.items():
        kind = keys[key]
        if isinstance(kind, dict):
            _check(value, kind, f"{where}.{key}")
        elif not _fits(value, kind):
            raise ConfigError(f"{where}.{key} must be {kind.__name__}, got {json.dumps(value)}")


def validate_config(cfg: dict) -> dict:
    _check(cfg, SECTIONS, "config")
    return cfg


def read_json(path, what: str):
    """Parse the JSON file at ``path``; ``what`` names it in the
    ConfigError raised when it cannot be read or is not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_config(path) -> dict:
    return validate_config(read_json(path, "config"))


def resolve_output_dir(flag_value, cfg: dict) -> Path:
    """Output directory precedence: explicit flag, then the environment
    override, then the config file, then the working directory."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(cfg.get("paths", {}).get("output_dir") or ".")
