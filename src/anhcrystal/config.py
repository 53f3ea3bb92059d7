"""Flat key-value run configuration and manifests.

The configuration file holds one ``key = value`` pair per line (``#`` starts
a comment).  Lists (``h``, ``dims``, ``tau_grid``, ``sizes``, ``h_values``)
are comma separated, and an empty list is written as nothing after the
``=``; ``beta = inf`` selects zero temperature.  Every input of every
subcommand is a key, and a command-line flag only overrides one, so the
manifest each run writes next to its results (its full configuration, the
package version, and the seed) determines the run: a configuration file
written from it reproduces the results byte for byte.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .params import ModelParams

_FLOAT_KEYS = {"m", "a", "b", "delta", "J", "beta", "c", "extent"}
_INT_KEYS = {"d", "nu", "slices_per_unit", "matsubara_cutoff", "samples", "seed",
             "order", "sites", "grid"}
_LIST_KEYS = {"h", "dims", "tau_grid", "sizes", "h_values"}  # dims and sizes of ints
_STR_KEYS = {"backend", "mode", "boundary", "observable", "check"}
KEYS = _FLOAT_KEYS | _INT_KEYS | _LIST_KEYS | _STR_KEYS
CHOICES = {"backend": ("reweight", "mcmc"), "mode": ("lowT", "highT"),
           "check": ("trees", "bf", "newton-leibniz", "residuals"), "sites": (1, 2)}

DEFAULTS = {
    "m": 1.0, "a": 1.0, "b": 0.5, "delta": 1.0, "J": 0.25, "beta": 2.0,
    "h": (0.0,), "d": 1, "nu": 1, "dims": (8,),
    "slices_per_unit": 16, "matsubara_cutoff": 50_000, "samples": 100_000,
    "seed": 1, "backend": "reweight", "order": 3, "mode": "lowT",
    "boundary": "periodic", "c": 1.0,
    "tau_grid": (0.25, 0.5, 1.0), "sites": 1, "grid": 512, "extent": 8.0,
    "check": "trees", "sizes": (), "h_values": (0.1, 0.05, 0.0),
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
            kind = int if key in ("dims", "sizes") else float
            return tuple(kind(p) for p in raw.replace(",", " ").split())
        value = raw
        if key in _INT_KEYS:
            value = int(raw)
        elif key in _FLOAT_KEYS:
            value = float(raw)  # float reads "inf" and "infinity" in any case
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {raw!r}") from None
    if key in CHOICES and value not in CHOICES[key]:
        raise ConfigError(f"{key} must be one of {', '.join(map(str, CHOICES[key]))}, "
                          f"got {raw!r}")
    return value


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
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read configuration file {path}: {exc.strerror}") from None
        cfg.update(parse_config_text(text))
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
