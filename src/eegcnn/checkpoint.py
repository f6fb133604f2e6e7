"""Checkpoint serialization.

Byte layout (documented so other implementations can read these files):

  1. UTF-8 JSON header, one line, terminated by a single ``\\n``:
     {"format_version": 1,
      "config": {"in_channels", "out_channels", "kernel", "classes"},
      "seed": <int>}
  2. Raw little-endian float64 arrays, C order, no separators, in this order:
     conv_weight [out, in, kernel], conv_bias [out],
     fc_weight [classes, out], fc_bias [classes].
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .model import ModelConfig, ModelParams

FORMAT_VERSION = 1
_FIELD_ORDER = ("conv_weight", "conv_bias", "fc_weight", "fc_bias")


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


def save_checkpoint(path: str | Path, params: ModelParams, seed: int) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(params.config),
        "seed": seed,
    }
    arrays = params.arrays()
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for name in _FIELD_ORDER:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[ModelParams, int]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint file not found: {path}")
    blob = path.read_bytes()
    nl = blob.find(b"\n")
    if nl < 0:
        raise CheckpointError(f"{path}: missing header terminator")
    try:
        header = json.loads(blob[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: bad JSON header ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format_version {header.get('format_version')}"
        )
    cfg, seed = _header_config(path, header), _header_int(path, header, "seed")
    shapes = {
        "conv_weight": (cfg.out_channels, cfg.in_channels, cfg.kernel),
        "conv_bias": (cfg.out_channels,),
        "fc_weight": (cfg.classes, cfg.out_channels),
        "fc_bias": (cfg.classes,),
    }
    body = blob[nl + 1 :]
    expected = 8 * sum(int(np.prod(s)) for s in shapes.values())
    if len(body) != expected:
        raise CheckpointError(f"{path}: payload is {len(body)} bytes, expected {expected}")
    arrays = {}
    offset = 0
    for name in _FIELD_ORDER:
        n = int(np.prod(shapes[name]))
        arrays[name] = np.frombuffer(body, dtype="<f8", count=n, offset=offset).reshape(
            shapes[name]
        ).astype(np.float64)
        offset += 8 * n
    return ModelParams(**arrays), seed


def _header_config(path: Path, header: dict) -> ModelConfig:
    """The header's model config, which must hold exactly the ModelConfig fields."""
    if not isinstance(header.get("config"), dict):
        raise CheckpointError(f"{path}: header key 'config' is missing or not an object")
    config = header["config"]
    names = [f.name for f in fields(ModelConfig)]
    for key in config:
        if key not in names:
            raise CheckpointError(f"{path}: unknown header key 'config.{key}'")
    kwargs = {key: _header_int(path, config, key, "config.") for key in names}
    try:
        return ModelConfig(**kwargs)
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad header config ({exc})") from exc


def _header_int(path: Path, obj: dict, key: str, prefix: str = "") -> int:
    value = obj.get(key)
    if type(value) is not int:
        what = "is missing" if key not in obj else f"must be an integer, got {value!r}"
        raise CheckpointError(f"{path}: header key '{prefix}{key}' {what}")
    return value
