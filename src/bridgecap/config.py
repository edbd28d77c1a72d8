"""Pipeline config file: one JSON document defaulting the CLI's inputs.

Strict by design: unknown keys anywhere are rejected so a typo cannot
silently fall back to a default, and the paths a subcommand relies on
must exist before it starts.
"""

import json
import os
from pathlib import Path

from .errors import ConfigError

_TOP_KEYS = {"paths", "dataset", "train"}
_PATH_KEYS = {"output_dir"}
_DATASET_KEYS = {"seed", "colour", "group_split", "split_fraction", "stratified"}
_TRAIN_KEYS = {
    "learning_rate", "momentum", "batch_size", "max_epochs", "patience",
    "min_delta", "seed",
}

OUTPUT_DIR_ENV = "BRIDGECAP_OUT"


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    if "paths" in cfg:
        _check_keys(cfg["paths"], _PATH_KEYS, "config.paths")
    if "dataset" in cfg:
        _check_keys(cfg["dataset"], _DATASET_KEYS, "config.dataset")
    if "train" in cfg:
        _check_keys(cfg["train"], _TRAIN_KEYS, "config.train")
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


def require_paths(*paths) -> None:
    """Fail fast when a referenced input is missing."""
    for p in paths:
        if p is not None and not Path(p).exists():
            raise ConfigError(f"referenced path does not exist: {p}")


def resolve_output_dir(flag_value, cfg: dict | None = None) -> Path:
    """Output directory precedence: explicit flag, then the environment
    override, then the config file, then the working directory."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    if cfg and cfg.get("paths", {}).get("output_dir"):
        return Path(cfg["paths"]["output_dir"])
    return Path(".")
