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
earlier versions load and re-save to the same bytes. Every value must be
finite: a NaN or infinite weight is rejected, since every prediction made
with it would be meaningless.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .data import check_object, is_int, parse_json
from .model import ModelConfig, ModelParams

FORMAT_VERSION = 1

# header values: key -> (test, what the value must be)
_HEADER_VALUES = {
    "format_version": (lambda v: is_int(v) and v == FORMAT_VERSION, "the integer 1"),
    "config": (lambda v: isinstance(v, dict), "an object"),
    "seed": (is_int, "an integer"),
}
_CONFIG_VALUES = {f.name: (is_int, "an integer") for f in fields(ModelConfig)}


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
    blob = path.read_bytes()
    nl = blob.find(b"\n")
    if nl < 0:
        raise CheckpointError(f"{path}: missing header terminator")
    header = parse_json(path, blob[:nl], CheckpointError)
    check_object(path, header, "", _HEADER_VALUES, CheckpointError)
    check_object(path, header["config"], "config.", _CONFIG_VALUES, CheckpointError)
    unknown = sorted(header["config"].keys() - _CONFIG_VALUES.keys())
    if unknown:
        raise CheckpointError(f"{path}: unknown header key 'config.{unknown[0]}'")
    try:
        cfg = ModelConfig(**header["config"])
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad header config ({exc})") from exc
    shapes = cfg.param_shapes()
    sizes = [math.prod(shape) for shape in shapes.values()]
    body = blob[nl + 1 :]
    if len(body) != 8 * sum(sizes):
        raise CheckpointError(f"{path}: payload is {len(body)} bytes, expected {8 * sum(sizes)}")
    blocks = np.split(np.frombuffer(body, dtype="<f8").astype(np.float64), np.cumsum(sizes)[:-1])
    arrays = {name: b.reshape(shape) for (name, shape), b in zip(shapes.items(), blocks)}
    for name, block in arrays.items():
        if not np.isfinite(block).all():
            raise CheckpointError(f"{path}: {name} holds non-finite values")
    return ModelParams(**arrays), header["seed"]
