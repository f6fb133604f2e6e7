"""The checkpoint byte layout, built by hand from the eegcnn.checkpoint docstring."""

import struct

import numpy as np
import pytest

from eegcnn.checkpoint import load_checkpoint, save_checkpoint
from eegcnn.model import ModelParams

# in_channels, out_channels, kernel, classes: in, out and classes differ, so a
# swapped dimension or block changes the bytes
LAYOUTS = [(2, 4, 5, 3), (5, 3, 1, 2), (1, 2, 3, 4)]


def by_hand(in_c, out_c, kernel, classes, seed):
    """The blocks in file order, and the bytes of their checkpoint file."""
    rng = np.random.default_rng(seed)
    blocks = {
        "conv_weight": rng.standard_normal((out_c, in_c, kernel)),
        "conv_bias": rng.standard_normal(out_c),
        "fc_weight": rng.standard_normal((classes, out_c)),
        "fc_bias": rng.standard_normal(classes),
    }
    header = (
        f'{{"config": {{"classes": {classes}, "in_channels": {in_c}, "kernel": {kernel}, '
        f'"out_channels": {out_c}}}, "format_version": 1, "seed": {seed}}}\n'
    )
    body = b"".join(struct.pack(f"<{b.size}d", *b.ravel().tolist()) for b in blocks.values())
    return blocks, header.encode("utf-8") + body


@pytest.mark.parametrize("layout", LAYOUTS)
def test_load_reads_documented_layout(tmp_path, layout):
    blocks, blob = by_hand(*layout, seed=sum(layout))
    path = tmp_path / "hand.bin"
    path.write_bytes(blob)
    params, seed = load_checkpoint(path)
    assert seed == sum(layout)
    for name, want in blocks.items():
        got = getattr(params, name)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("layout", LAYOUTS)
def test_save_writes_documented_layout(tmp_path, layout):
    blocks, blob = by_hand(*layout, seed=7)
    path = tmp_path / "saved.bin"
    save_checkpoint(path, ModelParams(**blocks), seed=7)
    assert path.read_bytes() == blob

