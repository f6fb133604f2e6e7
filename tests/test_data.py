import csv
import importlib
import io
import json
import os
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import eegcnn.cli
import eegcnn.data
import eegcnn.experiments

from eegcnn.data import (
    PARTITIONS,
    CsvFormatError,
    Manifest,
    ManifestEntry,
    ManifestError,
    SplitError,
    SubjectRecording,
    epoch_recording,
    load_manifest,
    load_split,
    load_subject_csv,
    save_split,
    split_dataset,
    write_csv,
    write_subject_csv,
)
from eegcnn.experiments import group_psd, run_sweep, sweep_configs
from eegcnn.metrics import evaluate
from eegcnn.model import ModelConfig
from eegcnn.synth import synthetic_dataset
from eegcnn.train import TrainConfig, train

from conftest import (DEEP_NESTING, JSON_VALUES, OVER_LONG_INT, make_recording, needs_fork,
                      needs_openblas, reference_save_split, reference_write_csv)


def _manifest(channels, fs=500.0, names=None):
    names = [f"ch{i}" for i in range(channels)] if names is None else names
    return Manifest(entries=[ManifestEntry("S000", "s0.csv", 0)], fs=fs, channel_names=names)


def _write_csv(path, rows, header):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestLoadSubjectCsv:
    def test_well_formed_shape(self, tmp_path):
        rows = [[float(r * 10 + c) for c in range(3)] for r in range(10)]
        path = tmp_path / "s0.csv"
        man = _manifest(3)
        _write_csv(path, rows, man.channel_names)
        rec = load_subject_csv(path, man.entries[0], man)
        assert rec.samples.shape == (3, 10)
        # columns are channels; transposed into rows
        assert rec.samples[1, 4] == 41.0
        assert rec.label == 0 and rec.fs == 500.0

    def test_non_numeric_cell_names_row(self, tmp_path):
        rows = [[1.0, 2.0]] * 6
        rows[3] = [1.0, "oops"]  # row 4 counting the header as row 0
        path = tmp_path / "s0.csv"
        man = _manifest(2)
        _write_csv(path, rows, man.channel_names)
        with pytest.raises(CsvFormatError, match="row 4"):
            load_subject_csv(path, man.entries[0], man)

    def test_one_minute_59_channels(self, tmp_path):
        rec = make_recording(channels=59, n_samples=30000)
        path = tmp_path / "s0.csv"
        write_subject_csv(path, rec, [f"ch{i}" for i in range(59)])
        man = _manifest(59)
        loaded = load_subject_csv(path, man.entries[0], man)
        assert loaded.samples.shape == (59, 30000)

    def test_missing_file(self, tmp_path):
        man = _manifest(2)
        with pytest.raises(FileNotFoundError):
            load_subject_csv(tmp_path / "nope.csv", man.entries[0], man)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "s0.csv"
        path.write_text("ch0,ch1\n1,2\n3\n")
        man = _manifest(2)
        with pytest.raises(CsvFormatError, match="row 2"):
            load_subject_csv(path, man.entries[0], man)

    def test_channel_count_mismatch(self, tmp_path):
        path = tmp_path / "s0.csv"
        _write_csv(path, [[1.0, 2.0]], ["a", "b"])
        man = _manifest(3)
        with pytest.raises(CsvFormatError, match="channels"):
            load_subject_csv(path, man.entries[0], man)

    @pytest.mark.parametrize("header, col", [
        pytest.param(["ch1", "ch0", "ch2"], 0, id="reordered"),
        pytest.param(["x", "y", "z"], 0, id="other-names"),
        pytest.param(["ch0", "ch1 ", "ch2"], 1, id="stray-space"),
        pytest.param(["\ufeffch0", "ch1", "ch2"], 0, id="byte-order-mark"),
    ])
    def test_header_must_name_manifest_channels_in_order(self, tmp_path, header, col):
        path = tmp_path / "s0.csv"
        _write_csv(path, [[1.0, 2.0, 3.0]], header)
        man = _manifest(3)
        with pytest.raises(CsvFormatError) as exc:
            load_subject_csv(path, man.entries[0], man)
        assert str(exc.value) == (f"{path}: header column {col} is {header[col]!r}, "
                                  f"the manifest's channel {col} is {man.channel_names[col]!r}")

    @pytest.mark.parametrize("big_row", [0, 2])
    def test_cell_over_field_limit_names_row(self, tmp_path, big_row):
        # a blank line sends the file past the loadtxt path to the row scan,
        # where csv.reader refuses a cell over its 131072-byte field limit
        rows = ["1,2", "3,4", "5,6"]
        rows[big_row] = "0." + "0" * 200_000 + ",1"
        path = tmp_path / "s0.csv"
        path.write_text("ch0,ch1\n" + "\n".join(rows) + "\n\n7,8\n")
        man = _manifest(2)
        with pytest.raises(CsvFormatError, match=f"row {big_row + 1}: field larger") as exc:
            load_subject_csv(path, man.entries[0], man)
        assert str(path) in str(exc.value)

    def test_header_cell_over_field_limit(self, tmp_path):
        path = tmp_path / "s0.csv"
        path.write_text("a," + "b" * 200_000 + "\n1,2\n")
        man = _manifest(2)
        with pytest.raises(CsvFormatError, match="header row: field larger"):
            load_subject_csv(path, man.entries[0], man)

    @pytest.mark.parametrize("first", ["1", "1_0"], ids=["loadtxt", "scan"])
    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e999"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell, first):
        # np.loadtxt rejects the underscore float() reads, so "1_0" sends the
        # file to the row scan
        path = tmp_path / "s0.csv"
        path.write_text(f"ch0,ch1\n{first},2\n3,4\n5,{cell}\n6,nan\n")
        man = _manifest(2)
        with pytest.raises(CsvFormatError) as exc:
            load_subject_csv(path, man.entries[0], man)
        value = repr(float(cell))
        assert str(exc.value) == f"{path}: non-finite value {value} at row 3, column 1 (ch1)"

    @pytest.mark.parametrize("text", [b"ch0,\xffch1\n1,2\n", b"ch0,ch1\n1,2\n3,\xff\n"],
                             ids=["header", "body"])
    def test_not_utf8_names_file(self, tmp_path, text):
        path = tmp_path / "s0.csv"
        path.write_bytes(text)
        man = _manifest(2)
        with pytest.raises(CsvFormatError, match="not UTF-8 text") as exc:
            load_subject_csv(path, man.entries[0], man)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("name", ["a\rb", "a\nb", "a\x00b", "\x1c"])
    def test_write_rejects_control_characters_in_names(self, tmp_path, name):
        # csv.writer leaves a lone \r unquoted, so the file would not load back
        rec = make_recording(channels=2, n_samples=4)
        with pytest.raises(ValueError, match="printable"):
            write_subject_csv(tmp_path / "s0.csv", rec, ["c", name])
        assert not (tmp_path / "s0.csv").exists()

    def test_round_trip_exact(self, tmp_path):
        rec = make_recording(channels=4, n_samples=100, seed=3)
        path = tmp_path / "rt.csv"
        names = [f"ch{i}" for i in range(4)]
        write_subject_csv(path, rec, names)
        man = Manifest(entries=[ManifestEntry("S000", "rt.csv", 0)], fs=500.0, channel_names=names)
        loaded = load_subject_csv(path, man.entries[0], man)
        np.testing.assert_array_equal(loaded.samples, rec.samples)


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["n", "float", "numpy", "none"],
              [[1, 0.1, np.float64(1e-05), None], [2, 1e16, np.float32(0.5), "x,y"]])
    assert path.read_bytes() == b'n,float,numpy,none\n1,0.1,1e-05,\n2,1e+16,0.5,"x,y"\n'


_NUMBERS = st.integers() | st.floats(allow_subnormal=True) | st.sampled_from([-0.0, 5e-324])
_CELLS = (_NUMBERS | st.booleans() | st.none() | st.floats().map(np.float64)
          | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
          | st.text(alphabet=' ,"\n\ra1.-e'))
# rows of only ints and floats, which write_csv joins itself, and rows of any cells
_ROWS = st.lists(_NUMBERS) | st.lists(_CELLS)


@given(rows=st.lists(_ROWS | _ROWS.map(tuple), max_size=4))
@example(rows=[[0.0, -0.0, float("inf"), -float("inf"), float("nan"), 5e-324, 2**70], [], ()])
@example(rows=[[True, 1], [np.float64(0.5), 0.5], [None, 1.0], [1.0, "x,y"], [""]])
@settings(max_examples=300, deadline=None)
def test_write_csv_matches_the_csv_writer(tmp_path_factory, rows):
    base = tmp_path_factory.getbasetemp()
    write_csv(base / "got.csv", ["a", "b,c"], rows)
    reference_write_csv(base / "want.csv", ["a", "b,c"], rows)
    assert (base / "got.csv").read_bytes() == (base / "want.csv").read_bytes()


def reference_load_subject_csv(path, entry, manifest):
    """The row-by-row csv.reader + float() loader that load_subject_csv used
    before it parsed with np.loadtxt, kept as its oracle: every file must load
    to the same bits or fail with the same error under both."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"subject file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        n_channels = len(header)
        if n_channels != len(manifest.channel_names):
            raise CsvFormatError(
                f"{path}: {n_channels} channels in header, manifest declares "
                f"{len(manifest.channel_names)}"
            )
        rows = []
        for row_idx, row in enumerate(reader, start=1):
            if len(row) != n_channels:
                raise CsvFormatError(
                    f"{path}: row {row_idx} has {len(row)} cells, expected {n_channels}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                for col_idx, cell in enumerate(row):
                    try:
                        float(cell)
                    except ValueError:
                        raise CsvFormatError(
                            f"{path}: non-numeric cell {cell!r} at row {row_idx}, "
                            f"column {col_idx} ({header[col_idx]})"
                        ) from None
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    for row_idx, row in enumerate(rows, start=1):
        for col_idx, value in enumerate(row):
            if not np.isfinite(value):
                raise CsvFormatError(f"{path}: non-finite value {value!r} at row {row_idx}, "
                                     f"column {col_idx} ({header[col_idx]})")
    samples = np.asarray(rows, dtype=np.float64).T  # [channels, time]
    return SubjectRecording(
        subject_id=entry.subject_id, label=entry.label, fs=manifest.fs, samples=samples
    )


_SPELLINGS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.6E}"),
    st.integers(-10**6, 10**6).map(str),
    st.integers(0, 10**6).map(lambda i: f"{i:_}"),
    st.sampled_from([
        "inf", "-Infinity", "+inf", "nan", "NaN", "-nan", "1e5", "1E-5", ".5", "5.", "-0",
        "1_0", "1__0", "_1", "1_", "1_0.5e1_0", "0x10", "1d5", "1e", "e1", "", "--1", "1.2.3",
        "abc", "\u0661\u0662", "1\x00",
    ]),
)
_PADDING = st.sampled_from(["", "", "", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u2003"])


@st.composite
def _cells(draw):
    cell = draw(_PADDING) + draw(_SPELLINGS) + draw(_PADDING)
    quoting = draw(st.sampled_from(["none", "none", "none", "quoted", "quote-then-text",
                                    "space-then-quoted", "line-break"]))
    if quoting == "quoted":
        return '"' + cell.replace('"', '""') + '"'
    if quoting == "quote-then-text":
        return f'"{cell}"5'
    if quoting == "space-then-quoted":
        return f' "{cell}"'
    if quoting == "line-break":
        return f'"{cell}\n"'
    return cell


@st.composite
def _csv_files(draw):
    """(channel count, file text) covering the cases that separate the readers."""
    n = draw(st.integers(1, 3))
    row = st.lists(_cells(), min_size=n, max_size=n).map(",".join)
    ragged = st.lists(_cells(), min_size=0, max_size=n + 1).map(",".join)
    blank = st.just("")
    header = draw(st.one_of(st.just(",".join(f"c{i}" for i in range(n))), row))
    lines = [header] + draw(st.lists(st.one_of(row, row, row, ragged, blank), max_size=6))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    tail = draw(st.sampled_from(["keep", "keep", "drop-last-end", "blank-line", "empty-file"]))
    if tail == "drop-last-end":
        text = text[: -len(ends[-1])]
    elif tail == "blank-line":
        text += ends[-1]
    elif tail == "empty-file":
        text = ""
    return n, text


class TestLoadSubjectCsvMatchesReference:
    @given(case=_csv_files())
    @example(case=(2, "a,b\n1_000,2\n3,4\n"))
    @example(case=(2, "a,b\n1,2\n\n3,4\n"))
    @example(case=(2, "a,b\n1,2\n3,4\n\n"))
    @example(case=(2, "a,b\r\n1,2\r\n"))
    @example(case=(2, "a,b\n\x1c1,2\n"))
    @example(case=(2, 'a,b\n"1\n",2\n'))
    @example(case=(2, '"x\n"1","2"\n3,4\n'))  # header over two lines
    @example(case=(2, "a,b\n"))
    @example(case=(2, ""))
    @settings(max_examples=400, deadline=None)
    def test_same_result_or_same_error(self, tmp_path_factory, case):
        n, text = case
        path = tmp_path_factory.getbasetemp() / "differential.csv"
        path.write_text(text, encoding="utf-8", newline="")
        # the manifest names the header's channels, as a consistent cohort's does
        header = next(csv.reader(io.StringIO(text, newline="")), [])
        man = _manifest(n, names=header if len(header) == n else None)

        def outcome(reader):
            try:
                rec = reader(path, man.entries[0], man)
            except Exception as exc:  # the error is part of the result compared
                return type(exc), str(exc)
            return rec.samples.shape, rec.samples.strides, rec.samples.tobytes()

        expected = outcome(reference_load_subject_csv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome(load_subject_csv) == expected

    def test_line_count_across_chunk_boundaries(self, tmp_path, monkeypatch):
        text = "h\r\n1\r2\n\r\n3\r\r\n\n4"
        path = tmp_path / "lines.csv"
        path.write_bytes(text.encode())
        expected = sum(1 for _ in io.StringIO(text, newline="")) - 1  # csv.reader's lines
        for size in range(1, len(text) + 1):
            monkeypatch.setattr(eegcnn.data, "_CHUNK_BYTES", size)
            assert eegcnn.data._count_body_lines(path) == expected

    def test_well_formed_file_skips_row_scan(self, tmp_path, monkeypatch):
        rec = make_recording(channels=4, n_samples=50, seed=1)
        path = tmp_path / "s0.csv"
        write_subject_csv(path, rec, [f"ch{i}" for i in range(4)])
        monkeypatch.setattr(eegcnn.data, "_scan_body", None)
        man = _manifest(4)
        loaded = load_subject_csv(path, man.entries[0], man)
        assert loaded.samples.tobytes() == rec.samples.tobytes()


def _mostly(valid):
    """``valid`` three times in four, else any JSON value."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else JSON_VALUES)


# manifests with mostly valid values, so the checks past the top level are
# reached; JSON_VALUES covers missing keys and other documents
_SUBJECT_LIKE = st.fixed_dictionaries({
    "id": _mostly(st.text(max_size=2)),
    "file": _mostly(st.text(max_size=4)),
    "label": _mostly(st.sampled_from(["PD", "Control"])),
})
_MANIFEST_LIKE = st.fixed_dictionaries({
    "fs": _mostly(st.floats(min_value=1e-3, max_value=1e4)),
    "channels": _mostly(st.lists(st.text(max_size=3), max_size=3)),
    "subjects": _mostly(st.lists(_mostly(_SUBJECT_LIKE), max_size=4)),
})


class TestManifest:
    def test_load(self, tmp_path):
        doc = {
            "fs": 500,
            "channels": ["c0", "c1"],
            "subjects": [
                {"id": "A", "file": "a.csv", "label": "PD"},
                {"id": "B", "file": "b.csv", "label": "Control"},
            ],
        }
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(doc))
        man = load_manifest(p)
        assert man.fs == 500.0
        assert [e.label for e in man.entries] == [1, 0]

    def test_duplicate_ids_rejected(self, tmp_path):
        doc = {
            "fs": 500,
            "channels": ["c0"],
            "subjects": [
                {"id": "A", "file": "a.csv", "label": "PD"},
                {"id": "A", "file": "b.csv", "label": "Control"},
            ],
        }
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(p)

    def test_unknown_label_rejected(self, tmp_path):
        doc = {"fs": 500, "channels": ["c0"],
               "subjects": [{"id": "A", "file": "a.csv", "label": "Sick"}]}
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="label"):
            load_manifest(p)


    @pytest.mark.parametrize("text", [DEEP_NESTING, "{", "\udcff", OVER_LONG_INT])
    def test_unparsable_rejected(self, tmp_path, text):
        p = tmp_path / "manifest.json"
        p.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(ManifestError, match="invalid JSON"):
            load_manifest(p)

    def test_file_resolved_against_manifest_dir(self, tmp_path):
        absolute = str(tmp_path / "elsewhere" / "c.csv")
        doc = {"fs": 500, "channels": ["c0"], "subjects": [
            {"id": "A", "file": "a.csv", "label": "PD"},
            {"id": "B", "file": "sub/b.csv", "label": "Control"},
            {"id": "C", "file": absolute, "label": "PD"},
        ]}
        (tmp_path / "m").mkdir()
        p = tmp_path / "m" / "manifest.json"
        p.write_text(json.dumps(doc))
        files = [e.file for e in load_manifest(p).entries]
        assert files == [str(tmp_path / "m" / "a.csv"), str(tmp_path / "m" / "sub" / "b.csv"),
                         absolute]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_mostly(_MANIFEST_LIKE))
    @example(doc={"fs": 10**400, "channels": [], "subjects": []})
    @example(doc={"fs": 1, "channels": [], "subjects": [{"id": "A", "file": "", "label": "PD"}]})
    def test_any_json_gives_manifest_or_manifest_error(self, tmp_path, doc):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps(doc))
        try:
            manifest = load_manifest(p)
        except ManifestError:
            return
        assert len(manifest.entries) == len(doc["subjects"])


class TestEpochRecording:
    def test_twelve_epochs(self):
        rec = make_recording(n_samples=30000)
        eps = epoch_recording(rec, 5.0)
        assert len(eps) == 12
        assert all(ep.data.shape == (3, 2500) for ep in eps)
        assert [ep.epoch_index for ep in eps] == list(range(12))

    def test_remainder_discarded(self):
        rec = make_recording(n_samples=2600)
        eps = epoch_recording(rec, 5.0)
        assert len(eps) == 1
        np.testing.assert_array_equal(eps[0].data, rec.samples[:, :2500])

    def test_too_short_gives_empty(self):
        rec = make_recording(n_samples=2499)
        assert epoch_recording(rec, 5.0) == []

    def test_non_integer_epoch_len_rejected(self):
        rec = make_recording(n_samples=3000, fs=500.0)
        with pytest.raises(ValueError):
            epoch_recording(rec, 0.0101)

    def test_epochs_are_consecutive(self):
        rec = make_recording(n_samples=7500)
        eps = epoch_recording(rec, 5.0)
        np.testing.assert_array_equal(eps[2].data, rec.samples[:, 5000:7500])

    def test_epochs_are_views_of_the_recording(self):
        rec = make_recording(n_samples=7500)
        assert all(np.shares_memory(ep.data, rec.samples) for ep in epoch_recording(rec, 5.0))


def _subjects(n, n_samples=5000):
    return [
        make_recording(subject_id=f"S{i:03d}", label=i % 2, n_samples=n_samples, seed=i)
        for i in range(n)
    ]


class TestSplitDataset:
    def test_46_subjects_split_28_9_9(self):
        split = split_dataset(_subjects(46, n_samples=2500), seed=11)
        counts = {"train": 0, "validation": 0, "test": 0}
        for part in split.subject_assignment.values():
            counts[part] += 1
        assert counts == {"train": 28, "validation": 9, "test": 9}

    def test_same_seed_same_assignment(self):
        subs = _subjects(10)
        a = split_dataset(subs, seed=5)
        b = split_dataset(subs, seed=5)
        assert a.subject_assignment == b.subject_assignment

    def test_five_subjects_split_3_1_1(self):
        split = split_dataset(_subjects(5, n_samples=2500), seed=0)
        counts = [list(split.subject_assignment.values()).count(p)
                  for p in ("train", "validation", "test")]
        assert counts == [3, 1, 1]

    def test_order_independence(self):
        subs = _subjects(8)
        a = split_dataset(subs, seed=2)
        b = split_dataset(list(reversed(subs)), seed=2)
        assert a.subject_assignment == b.subject_assignment

    def test_too_few_subjects(self):
        with pytest.raises(ValueError):
            split_dataset(_subjects(2))

    def test_empty_test_partition_rejected(self):
        with pytest.raises(ValueError, match="train/validation/test = 2/1/0"):
            split_dataset(_subjects(3))

    @given(n=st.integers(min_value=4, max_value=30), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_subject_exclusivity_and_epoch_conservation(self, n, seed):
        subs = _subjects(n)
        split = split_dataset(subs, seed=seed)
        # every subject lands in exactly one partition
        assert set(split.subject_assignment) == {s.subject_id for s in subs}
        for part in ("train", "validation", "test"):
            for ep in split.partition(part):
                assert split.subject_assignment[ep.subject_id] == part
        total = len(split.train) + len(split.validation) + len(split.test)
        expected = sum(s.n_samples // 2500 for s in subs)
        assert total == expected


class TestSplitDirectory:
    def test_round_trip(self, tmp_path):
        split = split_dataset(_subjects(6), seed=3)
        save_split(tmp_path / "a", split, 500.0)
        loaded, fs = load_split(tmp_path / "a")
        assert fs == 500.0
        assert loaded.seed == 3
        assert loaded.subject_assignment == split.subject_assignment
        for name in PARTITIONS:
            got, want = loaded.partition(name), split.partition(name)
            assert ([(e.subject_id, e.epoch_index, e.label) for e in got]
                    == [(e.subject_id, e.epoch_index, e.label) for e in want])
            for g, w in zip(got, want):
                assert g.data.dtype == np.float64 and g.data.shape == w.data.shape
                assert g.data.tobytes() == w.data.tobytes()
        save_split(tmp_path / "b", loaded, fs)
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == ["split.json", *(f"{n}_data.npy" for n in sorted(PARTITIONS))]
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == names
        for name in names:
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    @pytest.mark.parametrize("cut, shape", [((slice(None), slice(1)), "(1, 2500)"),
                                            ((Ellipsis, slice(-100)), "(3, 2400)")])
    def test_partitions_of_different_shapes_rejected(self, tmp_path, cut, shape):
        save_split(tmp_path, split_dataset(_subjects(6), seed=3), 500.0)
        stack = np.load(tmp_path / "validation_data.npy")
        np.save(tmp_path / "validation_data.npy", stack[cut])
        with pytest.raises(SplitError, match=re.escape(
                f"{tmp_path}: the partitions' epochs differ in shape (channels, samples): "
                f"train (3, 2500), validation {shape}, test (3, 2500)")):
            load_split(tmp_path)

    def test_cli_reader_is_the_library_reader(self):
        assert eegcnn.cli._read_split is eegcnn.data.load_split

    @pytest.mark.parametrize("layout, n_samples", [(np.ascontiguousarray, 5000),
                                                   (np.asfortranarray, 5000),
                                                   (np.ascontiguousarray, 2500)])
    def test_partition_files_are_np_save_of_the_stack(self, tmp_path, layout, n_samples):
        # np.asfortranarray is the layout of load_subject_csv's samples; 2500
        # samples is one epoch per subject, so validation and test hold one each
        subjects = [replace(s, samples=layout(s.samples)) for s in _subjects(5, n_samples)]
        split = split_dataset(subjects, seed=3)
        (tmp_path / "want").mkdir()
        reference_save_split(tmp_path / "want", split)
        save_split(tmp_path / "got", split, 500.0)
        for name in PARTITIONS:
            got = (tmp_path / "got" / f"{name}_data.npy").read_bytes()
            assert got == (tmp_path / "want" / f"{name}_data.npy").read_bytes()
        if n_samples == 2500:
            assert len(split.validation) == len(split.test) == 1

    @pytest.mark.parametrize("short_epoch, message", [
        (True, "all input arrays must have the same shape"),
        (False, "need at least one array to stack"),
    ])
    def test_partition_that_np_stack_rejects_is_not_written(self, tmp_path, short_epoch,
                                                            message):
        split = split_dataset(_subjects(5), seed=3)
        first = split.validation[0]
        eps = [*split.validation, replace(first, data=first.data[:, :-1])] if short_epoch else []
        with pytest.raises(ValueError, match=message):
            save_split(tmp_path, replace(split, validation=eps), 500.0)
        assert not (tmp_path / "validation_data.npy").exists()

    def test_save_holds_no_copy_of_the_cohort(self, tmp_path):
        # numpy reports its buffers to tracemalloc, so this does not depend on
        # how the C heap lays them out; one copy would be the cohort's bytes
        subjects = synthetic_dataset(n_subjects=10, channels=8, fs=100.0, n_epochs=6, seed=0)
        cohort = sum(s.samples.nbytes for s in subjects)
        tracemalloc.start()
        try:
            save_split(tmp_path, split_dataset(subjects, seed=0), 100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cohort / 4, (peak, cohort)


    @pytest.mark.parametrize("use", ["read every partition", "psd"])
    def test_reading_holds_no_copy_of_the_split(self, tmp_path, use):
        # the acceptance cohort (20 subjects x 12 epochs, 8 channels) at 100 Hz:
        # psd keeps one channel mean per epoch (1/8 of the split) only for the
        # PSD_BLOCK epochs that go through Welch together, and each epoch's PSD
        subjects = synthetic_dataset(n_subjects=20, channels=8, fs=100.0, n_epochs=12, seed=0)
        split_bytes = sum(s.samples.nbytes for s in subjects)  # 12 whole epochs each
        save_split(tmp_path / "split", split_dataset(subjects, seed=0), 100.0)
        tracemalloc.start()
        try:
            if use == "psd":
                out = tmp_path / "psd"
                assert eegcnn.cli.main(["psd", "--split", str(tmp_path / "split"),
                                        "--out", str(out)]) == 0
            else:
                split, _ = load_split(tmp_path / "split")
                for name in PARTITIONS:
                    for _ in split.partition(name):
                        pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < split_bytes / 4, (peak, split_bytes)


class TestStoredEpochs:
    """``load_split``'s partitions read each epoch from its file when used."""

    @pytest.fixture
    def saved(self, tmp_path):
        """(the split save_split wrote, the split load_split reads back)."""
        split = split_dataset(_subjects(6), seed=3)
        save_split(tmp_path, split, 500.0)
        return split, load_split(tmp_path)[0]

    def test_indexing_slicing_and_joining(self, saved):
        split, loaded = saved
        want = [*split.train, *split.validation, *split.test]
        joined = loaded.train + loaded.validation + loaded.test
        assert isinstance(joined, eegcnn.data.StoredEpochs)
        for got, picked in ((joined, want), (joined[::-2], want[::-2])):
            assert len(got) == len(picked)
            assert ([(g.data.tobytes(), g.subject_id, g.epoch_index, g.label) for g in got]
                    == [(w.data.tobytes(), w.subject_id, w.epoch_index, w.label)
                        for w in picked])
        assert joined[-1].data.tobytes() == want[-1].data.tobytes()
        with pytest.raises(IndexError):
            joined[len(joined)]

    @pytest.mark.parametrize("n_cpus", [1, pytest.param(2, marks=[needs_fork, needs_openblas])])
    def test_consumers_give_the_bytes_of_the_split_in_memory(self, tmp_path, cpus, monkeypatch,
                                                             n_cpus):
        # the split that save_split wrote is the oracle; with two CPUs train and
        # run_sweep read the files in forked workers too
        monkeypatch.setattr(importlib.import_module("eegcnn.train"), "TRAIN_POOL_MIN_WORK", 0)
        monkeypatch.setattr(eegcnn.experiments, "SWEEP_POOL_MIN_WORK", 0)
        split = split_dataset(synthetic_dataset(n_subjects=10, channels=3, fs=100.0, n_epochs=2,
                                                seed=1), seed=0)
        save_split(tmp_path, split, 100.0)
        loaded, fs = load_split(tmp_path)
        config = TrainConfig(batch_size=3, learning_rate=3e-3, epochs=2, seed=4)
        model = ModelConfig(3, 4, 3)
        pools = cpus(n_cpus)
        results = []
        for data in (split, loaded):
            history = train(data, config, model)
            psd = group_psd(data.train + data.validation + data.test, fs)
            results.append((
                history.epochs, history.best_epoch, history.best_checkpoint.flat.tobytes(),
                evaluate(history.best_checkpoint, data.test),
                run_sweep(data, config, sweep_configs(model, "kernel_size", (1, 3))),
                psd.freqs.tobytes(), *(psd.mean[lb].tobytes() for lb in (0, 1)),
                *(psd.sem[lb].tobytes() for lb in (0, 1)),
            ))
        assert results[1] == results[0]
        assert pools == ([1, 2] * 2 if n_cpus == 2 else [])

    def test_each_read_is_a_fresh_array(self, saved):
        _, loaded = saved
        first = loaded.test[0]
        first.data[...] = 0.0
        assert loaded.test[0].data.any()

    @pytest.mark.parametrize("damage", ["truncate", "nan", "remove"])
    def test_file_changed_after_load(self, tmp_path, saved, damage):
        _, loaded = saved
        path = tmp_path / "test_data.npy"
        last = loaded.test[-1]
        step = last.data.nbytes
        if damage == "truncate":  # the last epoch's read comes back short
            os.truncate(path, path.stat().st_size - step // 2)
            match = (f"{path}: epoch {last.epoch_index} of {last.subject_id} reads "
                     f"{step - step // 2} of its {step} bytes at offset ")
        elif damage == "nan":
            with path.open("r+b") as fh:
                fh.seek(path.stat().st_size - step)
                fh.write(np.array(np.nan).tobytes())
            match = (f"{path}: non-finite values in epoch {last.epoch_index} of "
                     f"{last.subject_id}")
        else:  # the file that was loaded stays open, so its epochs still read
            path.unlink()
            assert loaded.test[-1].data.tobytes() == last.data.tobytes()
            return
        with pytest.raises(SplitError, match=re.escape(match)):
            loaded.test[-1]
        assert loaded.test[0].data.shape == last.data.shape  # the epochs before it still read

    def test_file_replaced_after_load(self, tmp_path, saved):
        """A file that replaces a partition by name, as a later ``prepare``
        into the same directory does, does not reach a split loaded before."""
        _, loaded = saved
        path = tmp_path / "train_data.npy"
        want = [ep.data.tobytes() for ep in loaded.train]
        np.save(tmp_path / "reversed.npy", np.load(path)[::-1])
        os.replace(tmp_path / "reversed.npy", path)
        assert np.load(path)[0].tobytes() == want[-1]
        assert loaded.train[0].data.tobytes() == want[0]
        assert [ep.data.tobytes() for ep in loaded.train] == want

    @pytest.mark.parametrize("damage", ["missing", "directory"])
    def test_partition_file_that_cannot_be_opened_is_named(self, tmp_path, damage):
        save_split(tmp_path, split_dataset(_subjects(6), seed=3), 500.0)
        path = tmp_path / "validation_data.npy"
        path.unlink()
        if damage == "directory":
            path.mkdir()
        with pytest.raises(OSError, match=re.escape(str(path))):
            load_split(tmp_path)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc")
    def test_each_file_closes_with_the_last_sequence_that_reads_it(self, tmp_path):
        save_split(tmp_path, split_dataset(_subjects(6), seed=3), 500.0)
        before = len(os.listdir("/proc/self/fd"))
        split = load_split(tmp_path)[0]
        assert len(os.listdir("/proc/self/fd")) == before + 3
        kept = split.test[1:]
        del split
        assert len(os.listdir("/proc/self/fd")) == before + 1
        del kept
        assert len(os.listdir("/proc/self/fd")) == before
        (tmp_path / "test_data.npy").write_bytes(b"junk")  # fails after two files are open
        try:
            load_split(tmp_path)
        except SplitError:
            pass
        assert len(os.listdir("/proc/self/fd")) == before

    def test_fortran_order_rejected(self, tmp_path, saved):
        # np.load reads such a file, but one epoch's bytes would not be one epoch
        path = tmp_path / "train_data.npy"
        np.save(path, np.asfortranarray(np.load(path)))
        with pytest.raises(SplitError, match=re.escape(
                f"{path}: not a readable 3-D float64 array (its data is in Fortran order)")):
            load_split(tmp_path)


class TestSubjectRecordingInvariants:
    def test_non_finite_rejected(self):
        samples = np.ones((2, 10))
        samples[1, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SubjectRecording("S", 0, 500.0, samples)

    def test_bad_fs_rejected(self):
        with pytest.raises(ValueError):
            SubjectRecording("S", 0, 0.0, np.ones((2, 10)))
