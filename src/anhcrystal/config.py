"""Flat key-value run configuration and manifests.

The configuration file holds one ``key = value`` pair per line (``#`` starts
a comment).  Lists (``h``, ``dims``) are comma separated; ``beta = inf``
selects zero temperature.  Every run writes its full configuration, the
package version, and the seed to a manifest next to the results so a run can
be reproduced byte for byte.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .params import ModelParams

_FLOAT_KEYS = {"m", "a", "b", "delta", "J", "beta", "c"}
_INT_KEYS = {"d", "nu", "slices_per_unit", "matsubara_cutoff", "samples", "seed",
             "order"}
_LIST_KEYS = {"h", "dims"}
_STR_KEYS = {"backend", "mode", "boundary", "observable"}
KEYS = _FLOAT_KEYS | _INT_KEYS | _LIST_KEYS | _STR_KEYS

DEFAULTS = {
    "m": 1.0, "a": 1.0, "b": 0.5, "delta": 1.0, "J": 0.25, "beta": 2.0,
    "h": (0.0,), "d": 1, "nu": 1, "dims": (8,),
    "slices_per_unit": 16, "matsubara_cutoff": 50_000, "samples": 100_000,
    "seed": 1, "backend": "reweight", "order": 3, "mode": "lowT",
    "boundary": "periodic", "c": 1.0,
}


class ConfigError(ValueError):
    pass


def parse_value(key: str, raw: str):
    """The value of ``key`` from its text, on a file line or in a flag alike."""
    if key not in KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    raw = raw.strip()
    try:
        if key in _LIST_KEYS:
            parts = raw.replace(",", " ").split()
            return tuple(float(p) if key == "h" else int(p) for p in parts)
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)  # float reads "inf" and "infinity" in any case
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {raw!r}") from None
    return raw


def parse_config_text(text: str) -> dict:
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        out[key] = parse_value(key, raw)
    return out


def load_config(path: str | Path | None, overrides: dict | None = None) -> dict:
    cfg = dict(DEFAULTS)
    if path is not None:
        cfg.update(parse_config_text(Path(path).read_text()))
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = value
    return cfg


def model_params(cfg: dict) -> ModelParams:
    return ModelParams(
        m=cfg["m"], a=cfg["a"], b=cfg["b"], delta=cfg["delta"], J=cfg["J"],
        beta=cfg["beta"], h=tuple(cfg["h"]), d=cfg["d"], nu=cfg["nu"],
        dims=tuple(cfg["dims"]),
    )


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, tuple):
        return list(value)
    return value


def write_manifest(out_dir: Path, subcommand: str, cfg: dict, version: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "subcommand": subcommand,
        "version": version,
        "config": {k: _jsonable(v) for k, v in sorted(cfg.items())},
    }
    path = out_dir / f"{subcommand}.manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
