"""Checkpoint serialization.

Byte layout (documented so other implementations can read these files):

  1. UTF-8 JSON header, one line, terminated by a single ``\\n``:
     {"format_version": 1,
      "config": {"in_channels", "out_channels", "kernel", "classes"},
      "seed": <int>}
  2. Raw little-endian float64 arrays, C order, no separators, in
     ``ModelConfig.param_shapes()`` order:
     conv_weight [out, in, kernel], conv_bias [out],
     fc_weight [classes, out], fc_bias [classes].

This is the order format_version 1 has always used, so files written by
earlier versions load and re-save to the same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .model import ModelConfig, ModelParams

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


def save_checkpoint(path: str | Path, params: ModelParams, seed: int) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "config": asdict(params.config),
        "seed": seed,
    }
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for name in params.config.param_shapes():
            fh.write(np.ascontiguousarray(getattr(params, name), dtype="<f8").tobytes())


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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: bad JSON header ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format_version {header.get('format_version')}"
        )
    cfg, seed = _header_config(path, header), _header_int(path, header, "seed")
    shapes = cfg.param_shapes()
    sizes = [math.prod(shape) for shape in shapes.values()]
    body = blob[nl + 1 :]
    if len(body) != 8 * sum(sizes):
        raise CheckpointError(f"{path}: payload is {len(body)} bytes, expected {8 * sum(sizes)}")
    blocks = np.split(np.frombuffer(body, dtype="<f8").astype(np.float64), np.cumsum(sizes)[:-1])
    arrays = {name: b.reshape(shape) for (name, shape), b in zip(shapes.items(), blocks)}
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
