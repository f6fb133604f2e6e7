"""Checkpoint serialization.

Byte layout (documented so other implementations can read these files):

  1. UTF-8 JSON header, one line, terminated by a single ``\\n``:
     {"format_version": 1,
      "config": {"in_channels", "out_channels", "kernel", "classes": 2},
      "seed": <int>}
  2. ``ModelParams.flat`` as raw little-endian float64 values: the blocks of
     ``ModelConfig.param_shapes()``, each in C order, one after another with
     no separators:
     conv_weight [out, in, kernel], conv_bias [out],
     fc_weight [2, out], fc_bias [2].

This is the order format_version 1 has always used, so files written by
earlier versions load and re-save to the same bytes. Every value must be
finite: a NaN or infinite weight is rejected, since every prediction made
with it would be meaningless.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .data import check_object, is_int, parse_json
from .model import CLASSES, ModelConfig, ModelParams

FORMAT_VERSION = 1

# header values: key -> (test, what the value must be)
_HEADER_VALUES = {
    "format_version": (lambda v: is_int(v) and v == FORMAT_VERSION, "the integer 1"),
    "config": (lambda v: isinstance(v, dict), "an object"),
    "seed": (is_int, "an integer"),
}
_CONFIG_VALUES = {
    **{f.name: (is_int, "an integer") for f in fields(ModelConfig)},
    "classes": (lambda v: is_int(v) and v == CLASSES, f"the integer {CLASSES}"),
}


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


def save_checkpoint(path: str | Path, params: ModelParams, seed: int) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "config": {**asdict(params.config), "classes": CLASSES},
        "seed": seed,
    }
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(params.flat.astype("<f8").tobytes())


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
        cfg = ModelConfig(**{f.name: header["config"][f.name] for f in fields(ModelConfig)})
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad header config ({exc})") from exc
    body = blob[nl + 1 :]
    if len(body) != 8 * cfg.size:
        raise CheckpointError(f"{path}: payload is {len(body)} bytes, expected {8 * cfg.size}")
    params = ModelParams(cfg, np.frombuffer(body, dtype="<f8").astype(np.float64))
    for name, block in params.arrays().items():
        if not np.isfinite(block).all():
            raise CheckpointError(f"{path}: {name} holds non-finite values")
    return params, header["seed"]
