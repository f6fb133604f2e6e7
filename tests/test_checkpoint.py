"""The checkpoint byte layout, built by hand from the eegcnn.checkpoint docstring."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eegcnn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from conftest import edited_json, make_params, mutated_bytes

# in_channels, out_channels, kernel, classes: in, out and the 2 classes differ,
# so a swapped dimension or block changes the bytes
LAYOUTS = [(3, 4, 5, 2), (5, 3, 1, 2), (1, 4, 3, 2)]


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
    save_checkpoint(path, make_params(**blocks), seed=7)
    assert path.read_bytes() == blob



def test_first_non_finite_block_named(tmp_path):
    blocks, _ = by_hand(*LAYOUTS[0], seed=2)
    blocks["conv_bias"][-1] = np.inf
    blocks["fc_weight"][0, 0] = np.nan
    path = tmp_path / "bad.bin"
    save_checkpoint(path, make_params(**blocks), seed=2)
    with pytest.raises(CheckpointError, match=r"conv_bias holds non-finite values$"):
        load_checkpoint(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_damaged_checkpoint_loads_or_raises_checkpoint_error(tmp_path, data):
    """The header edited, or the bytes of the header, the payload or the
    whole file damaged: the checkpoint loads, or the reader raises
    CheckpointError (exit 3), never another error."""
    _, blob = by_hand(*LAYOUTS[0], seed=1)
    nl = blob.index(b"\n")
    header, payload = blob[:nl], blob[nl:]
    part = data.draw(st.sampled_from(["header json", "header", "payload", "file"]))
    if part == "header json":
        blob = json.dumps(data.draw(edited_json(json.loads(header)))).encode() + payload
    elif part == "header":
        blob = data.draw(mutated_bytes(header)) + payload
    elif part == "payload":
        blob = header + data.draw(mutated_bytes(payload))
    else:
        blob = data.draw(mutated_bytes(blob))
    path = tmp_path / "fuzz.bin"
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
