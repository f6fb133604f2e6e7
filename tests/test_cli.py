import importlib
import io
import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eegcnn.cli
import eegcnn.experiments
import eegcnn.interpret
import eegcnn.preprocess
from eegcnn.cli import SETTINGS, build_parser, main, resolve_settings
from eegcnn.checkpoint import CheckpointError, save_checkpoint
from eegcnn.data import (
    PARTITIONS as _PARTITIONS,
    ConfigError,
    CsvFormatError,
    DatasetSplit,
    EegcnnError,
    ManifestError,
    SplitError,
    load_split as _read_split,
    save_split as _write_split,
    write_subject_csv,
)
from eegcnn.interpret import POOL_MIN_WORK
from eegcnn.model import ModelConfig, init_params
from eegcnn.preprocess import usable_cpus
from eegcnn.synth import synthetic_dataset
from eegcnn.train import TrainingDivergedError

from conftest import (DEEP_NESTING, OVER_LONG_INT, edited_json, make_epoch, make_params,
                      mutated_bytes, needs_fork, needs_openblas)

FS = 100.0
CHANNELS = 3
# the package binds the name ``train`` to the function, so fetch the module
train_module = importlib.import_module("eegcnn.train")


def write_cohort(root, n_epochs):
    """A 6-subject manifest and CSVs of n_epochs * 5 s each; returns root."""
    subjects = synthetic_dataset(
        n_subjects=6, channels=CHANNELS, fs=FS, n_epochs=n_epochs,
        f0=3.0, f1=25.0, snr_db=20.0, seed=1,
    )
    names = [f"ch{i}" for i in range(CHANNELS)]
    entries = []
    for sub in subjects:
        fname = f"{sub.subject_id}.csv"
        write_subject_csv(root / fname, sub, names)
        entries.append({
            "id": sub.subject_id,
            "file": fname,
            "label": "PD" if sub.label else "Control",
        })
    manifest = {"fs": FS, "channels": names, "subjects": entries}
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    return write_cohort(tmp_path_factory.mktemp("dataset"), n_epochs=4)


@pytest.fixture(scope="module")
def prepared(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("prepared")
    rc = main(["prepare", "--manifest", str(dataset_dir / "manifest.json"),
               "--out", str(out), "--seed", "7"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(prepared, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    rc = main(["train", "--split", str(prepared), "--out", str(out),
               "--epochs", "5", "--learning-rate", "0.003",
               "--in-channels", str(CHANNELS), "--out-channels", str(CHANNELS),
               "--kernel", "7", "--seed", "0"])
    assert rc == 0
    return out


class TestPrepare:
    def test_split_index_written(self, prepared):
        index = json.loads((prepared / "split.json").read_text())
        assert index["seed"] == 7
        assert set(index["subject_assignment"].values()) <= {"train", "validation", "test"}
        counts = [list(index["subject_assignment"].values()).count(p)
                  for p in ("train", "validation", "test")]
        assert counts == [4, 1, 1]

    def test_rerun_byte_identical(self, dataset_dir, tmp_path):
        out2 = tmp_path / "again"
        rc = main(["prepare", "--manifest", str(dataset_dir / "manifest.json"),
                   "--out", str(out2), "--seed", "7"])
        assert rc == 0

        out3 = tmp_path / "andagain"
        rc = main(["prepare", "--manifest", str(dataset_dir / "manifest.json"),
                   "--out", str(out3), "--seed", "7"])
        assert rc == 0
        assert (out2 / "split.json").read_bytes() == (out3 / "split.json").read_bytes()
        for name in ("train", "validation", "test"):
            assert (out2 / f"{name}_data.npy").read_bytes() == \
                   (out3 / f"{name}_data.npy").read_bytes()

    def test_single_subject_rejected(self, dataset_dir, tmp_path):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        manifest["subjects"] = manifest["subjects"][:1]
        solo = tmp_path / "solo.json"
        # subject file paths resolve relative to the manifest location
        solo_dir = dataset_dir
        (solo_dir / "solo.json").write_text(json.dumps(manifest))
        rc = main(["prepare", "--manifest", str(solo_dir / "solo.json"),
                   "--out", str(tmp_path / "out"), "--seed", "0"])
        assert rc == 2

    def test_empty_partition_rejected(self, dataset_dir, tmp_path, capsys):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        manifest["subjects"] = manifest["subjects"][:3]
        (dataset_dir / "three.json").write_text(json.dumps(manifest))
        rc = main(["prepare", "--manifest", str(dataset_dir / "three.json"),
                   "--out", str(tmp_path / "out"), "--seed", "0"])
        assert rc == 2
        assert "train/validation/test = 2/1/0" in capsys.readouterr().err

    def test_no_epochs_rejected(self, tmp_path, capsys):
        # 10 s recordings give no 20 s epoch, so every partition would be empty
        cohort = write_cohort(tmp_path, n_epochs=2)
        out = tmp_path / "out"
        rc = main(["prepare", "--manifest", str(cohort / "manifest.json"), "--out", str(out),
                   "--epoch-seconds", "20"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: epoch_seconds 20 leaves the train/validation/test partition(s) without "
            "epochs; the shortest recording, S000, is 10 s\n")
        assert not out.exists()

    def test_header_must_name_manifest_channels_in_order(self, dataset_dir, tmp_path, capsys):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        manifest["channels"] = ["ch1", "ch0", "ch2"]
        (dataset_dir / "reordered.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        rc = main(["prepare", "--manifest", str(dataset_dir / "reordered.json"),
                   "--out", str(out)])
        assert rc == 3
        first = dataset_dir / manifest["subjects"][0]["file"]
        assert f"{first}: header column 0 is 'ch0', the manifest's channel 0 is 'ch1'" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("damage, message", [
        (b"nan", "non-finite value nan at row 7, column 1 (ch1)"),
        (b"\xff", "not UTF-8 text (invalid start byte)"),
    ], ids=["nan-cell", "not-utf8"])
    def test_bad_subject_csv_exits_3(self, dataset_dir, tmp_path, capsys, damage, message):
        cohort = tmp_path / "cohort"
        shutil.copytree(dataset_dir, cohort)
        manifest = json.loads((cohort / "manifest.json").read_text())
        path = cohort / manifest["subjects"][1]["file"]
        lines = path.read_bytes().split(b"\n")
        cells = lines[7].split(b",")
        cells[1] = damage
        lines[7] = b",".join(cells)
        path.write_bytes(b"\n".join(lines))
        out = tmp_path / "out"
        rc = main(["prepare", "--manifest", str(cohort / "manifest.json"), "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--epoch-seconds", "0.001",
         "epoch_seconds * fs must be a positive integer, got 0.001 * 100.0"),
        ("--epoch-seconds", "1e308",
         "epoch_seconds * fs must be a positive integer, got 1e+308 * 100.0"),
    ], ids=["seed", "short-epoch", "overflowing-epoch"])
    def test_bad_split_setting_rejected_before_loading(
            self, dataset_dir, tmp_path, capsys, monkeypatch, flag, value, message):
        def no_load(*args):
            raise AssertionError("prepare loaded the subjects")

        monkeypatch.setattr(eegcnn.cli.pre, "load_filtered", no_load)
        out = tmp_path / "out"
        rc = main(["prepare", "--manifest", str(dataset_dir / "manifest.json"),
                   "--out", str(out), flag, value])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_high_filter_order(self, dataset_dir, tmp_path):
        # the polynomial form of this filter had a pole outside the unit circle
        rc = main(["prepare", "--manifest", str(dataset_dir / "manifest.json"),
                   "--out", str(tmp_path / "out"), "--cutoff-hz", "0.5", "--filter-order", "10"])
        assert rc == 0

    @pytest.mark.parametrize("order", [2**63 - 1, 2**62])
    def test_filter_order_beyond_one_array_rejected_before_loading(
            self, dataset_dir, tmp_path, capsys, monkeypatch, order):
        """2**63 - 1 exited 0 with a split that was not high-passed at all
        (scipy overflowed into the identity filter); 2**62 exited 2 with
        numpy's unnamed "array is too big"."""
        def no_load(*args):
            raise AssertionError("prepare read a CSV")

        monkeypatch.setattr(eegcnn.preprocess, "load_subject_csv", no_load)
        out = tmp_path / "out"
        rc = main(["prepare", "--manifest", str(dataset_dir / "manifest.json"),
                   "--out", str(out), "--filter-order", str(order)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: filter_order {order} is too high") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the pooled case forks worker processes")
    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["serial", "pool"])
    @pytest.mark.parametrize("first, second", [("short", "huge"), ("huge", "short")])
    def test_filter_error_names_the_first_bad_file(self, dataset_dir, tmp_path, capsys,
                                                   monkeypatch, cpus, first, second):
        """A recording no longer than the filter's edge padding exits 2 and
        names the file and filter_order; samples that the filter overflows
        exit 4 and name the file (they used to exit 2 with "non-finite sample
        values in subject ..."). With subjects 2 and 4 bad, subject 2 reports,
        whether the subjects load in this process or in forked workers."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        cohort = tmp_path / "cohort"
        shutil.copytree(dataset_dir, cohort)
        manifest = json.loads((cohort / "manifest.json").read_text())
        paths = [cohort / manifest["subjects"][i]["file"] for i in (2, 4)]
        for path, damage in zip(paths, (first, second)):
            lines = path.read_text().splitlines()
            if damage == "short":  # 12 samples; order 4 pads 15
                lines = lines[:13]
            else:  # alternating +-1.7e308
                lines[1:] = [",".join([f"{(-1) ** i * 1.7e308!r}"] * CHANNELS)
                             for i in range(len(lines) - 1)]
            path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main(["prepare", "--manifest", str(cohort / "manifest.json"), "--out", str(out)])
        assert capsys.readouterr().err == {
            "short": f"error: {paths[0]}: signal length 12 too short for the edge padding of "
                     "filter_order 4 (needs > 15)\n",
            "huge": f"error: {paths[0]}: the samples overflow the high-pass filter\n",
        }[first]
        assert rc == {"short": 2, "huge": 4}[first]
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_missing_manifest(self, tmp_path):
        rc = main(["prepare", "--manifest", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 3

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods() or usable_cpus() < 2,
        reason="needs two CPUs, so prepare loads the subjects in worker processes",
    )
    def test_dead_worker_exits_2(self, dataset_dir, tmp_path, capsys, monkeypatch):
        parent, load = os.getpid(), eegcnn.preprocess.load_subject_csv

        def die_in_worker(*args):
            if os.getpid() != parent:
                os._exit(1)
            return load(*args)

        monkeypatch.setattr(eegcnn.preprocess, "load_subject_csv", die_in_worker)
        first = json.loads((dataset_dir / "manifest.json").read_text())["subjects"][0]["file"]
        out = tmp_path / "out"
        rc = main(["prepare", "--manifest", str(dataset_dir / "manifest.json"), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: out of memory in prepare: a worker process died before "
            f"{dataset_dir / first} was loaded\n")
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("key, value", [
        ("top level", []), ("fs", None), ("fs", "nan"), ("fs", "500"), ("fs", True),
        ("fs", 0), ("fs", float("inf")), pytest.param("fs", 10**400, id="huge-fs"),
        ("channels", "ch0"), ("channels", [0, 1, 2]), ("subjects", {}), ("subjects[0]", ["x"]),
        ("subjects[0].id", 3), ("subjects[0].file", ["x"]), ("subjects[0].label", ["PD"]),
        ("subjects[0].label", "Sick"), ("channels", ["ch0", "a\rb", "ch2"]), ("channels", []),
        # open() raises a bare ValueError on these, so the manifest check rejects them
        pytest.param("subjects[0].file", "S000.csv\x00x", id="nul-file"),
        pytest.param("subjects[0].file", "S000\ud800.csv", id="unencodable-file"),
    ])
    def test_bad_manifest_value(self, dataset_dir, tmp_path, capsys, key, value):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        if key == "top level":
            manifest = value
        elif key.startswith("subjects[0]"):
            leaf = key.removeprefix("subjects[0]").lstrip(".")
            if leaf:
                manifest["subjects"][0][leaf] = value
            else:
                manifest["subjects"][0] = value
        else:
            manifest[key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["prepare", "--manifest", str(tmp_path / "manifest.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _train_on_edited_index(prepared, tmp_path, key, edit):
    """Run train on a copy of the split whose split.json had ``edit(parent,
    leaf)`` applied at ``key`` (dotted, ``[0]`` for a list index)."""
    split_dir = tmp_path / "split"
    shutil.copytree(prepared, split_dir)
    index = json.loads((split_dir / "split.json").read_text())
    *parents, leaf = key.replace("[0]", ".0").split(".")
    obj = index
    for part in parents:
        obj = obj[int(part)] if part.isdigit() else obj[part]
    edit(obj, leaf)
    (split_dir / "split.json").write_text(json.dumps(index))
    return main(["train", "--split", str(split_dir), "--out", str(tmp_path / "o")])


def _split_with_empty_partition(prepared, tmp_path, name):
    """A copy of the split whose ``name`` partition holds no epochs."""
    split_dir = tmp_path / "split"
    shutil.copytree(prepared, split_dir)
    index = json.loads((split_dir / "split.json").read_text())
    index["partitions"][name] = []
    (split_dir / "split.json").write_text(json.dumps(index))
    np.save(split_dir / f"{name}_data.npy", np.zeros((0, CHANNELS, int(5 * FS))))
    return split_dir


@pytest.mark.parametrize("command, partition", [
    ("train", "validation"), ("sweep", "test"), ("evaluate", "test"),
])
def test_empty_partition_exits_3_and_writes_nothing(prepared, trained, tmp_path, capsys,
                                                    command, partition):
    split_dir = _split_with_empty_partition(prepared, tmp_path, partition)
    out = tmp_path / "o"
    model = ["--in-channels", str(CHANNELS), "--epochs", "1"]
    extra = {
        "train": model,
        "sweep": [*model, "--sweep-parameter", "kernel_size", "--sweep-values", "3"],
        "evaluate": ["--checkpoint", str(trained / "checkpoint.bin")],
    }[command]
    rc = main([command, "--split", str(split_dir), "--out", str(out), *extra])
    assert rc == 3
    assert f"partition '{partition}' holds no epochs" in capsys.readouterr().err
    assert not out.exists()


class TestTrain:
    def test_outputs_written(self, trained):
        assert (trained / "checkpoint.bin").exists()
        history = json.loads((trained / "history.json").read_text())
        assert len(history["epochs"]) == 5

    def test_log_lines_parseable(self, prepared, tmp_path, capsys):
        rc = main(["train", "--split", str(prepared), "--out", str(tmp_path / "t"),
                   "--epochs", "1", "--in-channels", str(CHANNELS),
                   "--out-channels", "2", "--kernel", "3"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch,")]
        assert len(lines) == 1
        fields = lines[0].split(",")
        assert fields[0] == "epoch" and fields[2] == "train_loss"
        float(fields[3]), float(fields[5]), float(fields[7])

    @staticmethod
    def _diverge(prepared, out, *extra):
        return main(["train", "--split", str(prepared), "--out", str(out), "--epochs", "1",
                     "--in-channels", str(CHANNELS), "--learning-rate", "1e300", *extra])

    # the error line is all it prints: a numpy warning fails the test
    @pytest.mark.filterwarnings("error")
    def test_diverged_run_leaves_no_out(self, prepared, tmp_path, capsys):
        assert self._diverge(prepared, tmp_path / "t") == 4
        assert capsys.readouterr().err == "error: non-finite loss at epoch 0, batch 1\n"
        assert not (tmp_path / "t").exists()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_validation_loss_exits_4(self, prepared, tmp_path, capsys):
        # one batch, so the first non-finite result is the validation loss,
        # which must not reach history.json as "val_loss": NaN
        assert self._diverge(prepared, tmp_path / "t", "--batch-size", "1000") == 4
        assert capsys.readouterr().err == "error: non-finite validation loss at epoch 0\n"
        assert not (tmp_path / "t").exists()

    def test_missing_split(self, tmp_path):
        rc = main(["train", "--split", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == 3

    @needs_fork
    @needs_openblas
    def test_dead_worker_exits_2(self, prepared, tmp_path, capsys, monkeypatch, cpus):
        parent, backward = os.getpid(), train_module.backward

        def die_in_worker(*args):
            if os.getpid() != parent:
                os._exit(1)
            return backward(*args)

        monkeypatch.setattr(train_module, "backward", die_in_worker)
        monkeypatch.setattr(train_module, "TRAIN_POOL_MIN_WORK", 0)
        pools = cpus(2)
        out = tmp_path / "t"
        rc = main(["train", "--split", str(prepared), "--out", str(out), "--epochs", "1",
                   "--in-channels", str(CHANNELS)])
        assert pools == [1]
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: out of memory in train: a worker process died before epoch 0, batch 0 was "
            "trained\n")
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("key", [
        "partitions", "seed", "fs", "subject_assignment", "partitions.validation",
        "partitions.train[0].label", "partitions.test[0].subject_id",
    ])
    def test_split_index_missing_key(self, prepared, tmp_path, capsys, key):
        rc = _train_on_edited_index(prepared, tmp_path, key, lambda obj, leaf: obj.pop(leaf))
        assert rc == 3
        assert f"missing key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("fs", "x"), ("fs", 0), ("fs", -500.0), ("fs", True),
        ("seed", 1.5), ("seed", "7"),
        ("partitions.validation[0].label", "PD"), ("partitions.train[0].label", 2),
        ("partitions.train[0].label", True), ("partitions.test[0].epoch_index", "0"),
        ("partitions.train[0].subject_id", 3),
    ])
    def test_split_index_wrong_value_type(self, prepared, tmp_path, capsys, key, value):
        rc = _train_on_edited_index(prepared, tmp_path, key,
                                    lambda obj, leaf: obj.__setitem__(leaf, value))
        assert rc == 3
        err = capsys.readouterr().err
        assert str(tmp_path / "split" / "split.json") in err and f"'{key}' must be" in err

    def test_split_assignment_value_rejected(self, prepared, tmp_path, capsys):
        subject = min(json.loads((prepared / "split.json").read_text())["subject_assignment"])
        rc = _train_on_edited_index(prepared, tmp_path, f"subject_assignment.{subject}",
                                    lambda obj, leaf: obj.__setitem__(leaf, "banana"))
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'split' / 'split.json'}: 'subject_assignment.{subject}' "
            f"must be one of train, validation, test, got 'banana'\n")

    @pytest.mark.parametrize("leaked", ["train", "unassigned"])
    def test_epoch_of_subject_assigned_elsewhere_rejected(self, prepared, tmp_path, capsys,
                                                          leaked):
        # evaluate used to score a train subject's epoch listed under test
        index = json.loads((prepared / "split.json").read_text())
        subject, owner = (index["partitions"]["train"][0]["subject_id"], "'train'") \
            if leaked == "train" else ("S999", "None")
        rc = _train_on_edited_index(prepared, tmp_path, "partitions.test[0].subject_id",
                                    lambda obj, leaf: obj.__setitem__(leaf, subject))
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'split' / 'split.json'}: partitions.test[0].subject_id "
            f"'{subject}' is assigned to {owner}\n")

    @pytest.mark.parametrize("name, damage", [
        ("train", "truncate"), ("validation", "garbage"), ("test", "empty"),
        ("train", "2-D"), ("validation", "float32"), ("test", "huge shape"), ("train", "nan"),
        ("test", "Fortran order"),
    ])
    def test_bad_data_array(self, prepared, tmp_path, capsys, name, damage):
        split_dir = tmp_path / "split"
        shutil.copytree(prepared, split_dir)
        path = split_dir / f"{name}_data.npy"
        blob = path.read_bytes()
        stack = np.load(path)
        if damage == "truncate":
            path.write_bytes(blob[: len(blob) - 100])
        elif damage == "garbage":
            path.write_bytes(b"not an array" * 20)
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "2-D":
            np.save(path, stack.reshape(stack.shape[0], -1))
        elif damage == "huge shape":  # a header that declares far more data than memory holds
            header = np.lib.format.header_data_from_array_1_0(stack)
            buf = io.BytesIO()
            np.lib.format.write_array_header_1_0(buf, {**header, "shape": (10**6,) * 3})
            path.write_bytes(buf.getvalue() + stack.tobytes())
        elif damage == "nan":
            stack[-1, 0, 0] = np.nan
            np.save(path, stack)
        elif damage == "Fortran order":  # np.load reads it; a read of one epoch would not
            np.save(path, np.asfortranarray(stack))
        else:
            np.save(path, stack.astype(np.float32))
        rc = main(["train", "--split", str(split_dir), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert str(path) in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, prepared, tmp_path):
        cfg = {"split": str(prepared), "out": str(tmp_path / "cfg_out"),
               "epochs": 3, "in_channels": CHANNELS, "out_channels": 2, "kernel": 3}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(cfg_path), "--epochs", "2"])
        assert rc == 0
        history = json.loads((tmp_path / "cfg_out" / "history.json").read_text())
        assert len(history["epochs"]) == 2  # flag wins over file


@pytest.mark.parametrize("damage", ["truncate", "nan"])
@pytest.mark.parametrize("command", [
    "train", pytest.param("pooled train", marks=[needs_fork, needs_openblas]), "evaluate", "psd",
])
def test_partition_changed_after_load_exits_3(prepared, trained, tmp_path, capsys, monkeypatch,
                                              cpus, command, damage):
    """A partition file that changes once load_split has checked it: the read
    of the changed epoch, short or with a NaN, exits 3 in one line naming the
    file, also from a train worker, and no --out is created."""
    split_dir = tmp_path / "split"
    shutil.copytree(prepared, split_dir)
    name = "train" if "train" in command else "test"
    path = split_dir / f"{name}_data.npy"
    n, channels, samples = np.load(path, mmap_mode="r").shape
    step = 8 * channels * samples
    args = {
        "evaluate": ["--checkpoint", str(trained / "checkpoint.bin")],
        "psd": [],
    }.get(command, ["--epochs", "1", "--in-channels", str(CHANNELS)])
    if command == "pooled train":
        # the last epoch's place in the first epoch's shuffle is the worker's
        # slot of its batch of 2
        seed = next(s for s in range(100)
                    if np.random.default_rng([s, 1]).permutation(n).tolist().index(n - 1) % 2)
        args += ["--seed", str(seed)]
        monkeypatch.setattr(train_module, "TRAIN_POOL_MIN_WORK", 0)
        pools = cpus(2)
    load_split = eegcnn.data.load_split

    def load_then_damage(split_dir):
        loaded = load_split(split_dir)
        with path.open("r+b") as fh:  # the last epoch
            if damage == "truncate":
                fh.truncate(path.stat().st_size - step // 2)
            else:
                fh.seek(path.stat().st_size - step)
                fh.write(np.array(np.nan).tobytes())
        return loaded

    monkeypatch.setattr(eegcnn.data, "load_split", load_then_damage)
    out = tmp_path / "o"
    rc = main([command.split()[-1], "--split", str(split_dir), "--out", str(out), *args])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    assert ("reads " if damage == "truncate" else "non-finite values in epoch ") in err
    assert not out.exists()
    if command == "pooled train":
        assert pools == [1]
    assert multiprocessing.active_children() == []


class TestEvaluate:
    def test_report_files(self, prepared, trained, tmp_path):
        out = tmp_path / "eval"
        rc = main(["evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
                   "--split", str(prepared), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "metrics.json").read_text())
        index = json.loads((prepared / "split.json").read_text())
        assert report["n_epochs"] == len(index["partitions"]["test"])
        csv_lines = (out / "metrics.csv").read_text().splitlines()
        assert csv_lines[0] == "precision,recall,f1,auc,accuracy"

    def test_checkpoint_must_fit_split(self, prepared, tmp_path, capsys):
        path = tmp_path / "model.bin"
        save_checkpoint(path, init_params(0, ModelConfig(CHANNELS + 1, 2, 3)), 0)
        rc = main(["evaluate", "--checkpoint", str(path), "--split", str(prepared),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"checkpoint {path}: in_channels is {CHANNELS + 1}, but the split in " \
            f"{prepared} has" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_probabilities_exit_4(self, prepared, tmp_path, capsys):
        """Finite weights near 1e300 overflow the forward pass; metrics of its
        NaN logits would all read 0."""
        params = init_params(0, ModelConfig(CHANNELS, 2, 3))
        params.flat[:] *= 1e300
        path = tmp_path / "model.bin"
        save_checkpoint(path, params, 0)
        rc = main(["evaluate", "--checkpoint", str(path), "--split", str(prepared),
                   "--out", str(tmp_path / "o")])
        assert rc == 4
        n = len(json.loads((prepared / "split.json").read_text())["partitions"]["test"])
        assert capsys.readouterr().err == \
            f"error: non-finite logits for {n} of {n} epochs\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    def test_one_infinite_logit_exits_4(self, prepared, tmp_path, capsys):
        """Finite weights whose fc GEMM overflows one logit give logits
        [-inf, 1e307]; their softmax, [0, 1], scored every epoch as PD."""
        # every pooled activation is relu(2) = 2, so logit 0 is -2e308 - 2e308
        params = make_params(np.zeros((2, CHANNELS, 3)), np.array([2.0, 2.0]),
                             np.array([[-1e308, -1e308], [2.5e306, 2.5e306]]), np.zeros(2))
        path = tmp_path / "model.bin"
        save_checkpoint(path, params, 0)
        rc = main(["evaluate", "--checkpoint", str(path), "--split", str(prepared),
                   "--out", str(tmp_path / "o")])
        assert rc == 4
        n = len(json.loads((prepared / "split.json").read_text())["partitions"]["test"])
        assert capsys.readouterr().err == f"error: non-finite logits for {n} of {n} epochs\n"
        assert not (tmp_path / "o").exists()

    def test_missing_checkpoint(self, prepared, tmp_path, capsys):
        missing = tmp_path / "none.bin"
        rc = main(["evaluate", "--checkpoint", str(missing),
                   "--split", str(prepared), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert str(missing) in capsys.readouterr().err


def _edited_checkpoint(trained, tmp_path, key, edit):
    """A copy of the trained checkpoint whose header had ``edit(parent,
    leaf)`` applied at ``key`` (``leaf`` or ``config.leaf``)."""
    blob = (trained / "checkpoint.bin").read_bytes()
    nl = blob.index(b"\n")
    header = json.loads(blob[:nl])
    *parents, leaf = key.split(".")
    edit(header[parents[0]] if parents else header, leaf)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(json.dumps(header).encode() + blob[nl:])
    return bad


@pytest.mark.parametrize("command", ["evaluate", "probe"])
@pytest.mark.parametrize("key", ["config", "seed", "config.extra", "config.kernel"])
def test_bad_checkpoint_header(prepared, trained, tmp_path, capsys, command, key):
    """A header missing `key` (or, for config.extra, holding it) exits 3."""
    edit = (lambda obj, leaf: obj.__setitem__(leaf, 1)) if key == "config.extra" \
        else (lambda obj, leaf: obj.pop(leaf))
    bad = _edited_checkpoint(trained, tmp_path, key, edit)
    argv = [command, "--checkpoint", str(bad), "--out", str(tmp_path / "o")]
    argv += ["--split", str(prepared)] if command == "evaluate" else ["--fs", str(FS)]
    rc = main(argv)
    assert rc == 3
    err = capsys.readouterr().err
    assert str(bad) in err and f"'{key}'" in err


@pytest.mark.parametrize("command", ["evaluate", "probe"])
@pytest.mark.parametrize("block, value", [("conv_weight", np.nan), ("fc_bias", -np.inf)])
def test_non_finite_checkpoint(prepared, tmp_path, capsys, command, block, value):
    """A NaN or infinite weight exits 3 naming the block; evaluate used to
    score every epoch as class 0 and exit 0."""
    params = init_params(0, ModelConfig(CHANNELS, 2, 3))
    getattr(params, block).flat[-1] = value
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, 0)
    argv = [command, "--checkpoint", str(path), "--out", str(tmp_path / "o")]
    argv += ["--split", str(prepared)] if command == "evaluate" else ["--fs", str(FS)]
    rc = main(argv)
    assert rc == 3
    assert capsys.readouterr().err == f"error: {path}: {block} holds non-finite values\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("format_version", True), ("format_version", 1.0), ("format_version", 2),
    ("seed", 1.5), ("config", [1]), ("config.kernel", 3.0), ("config.classes", "2"),
    ("config.classes", 3),
])
def test_bad_checkpoint_header_value(prepared, trained, tmp_path, capsys, key, value):
    """A header value of the wrong type, or a format_version other than 1 or
    a config.classes other than 2, exits 3 and names the key. A 3-class
    model's class-2 predictions used to drop out of the scores."""
    bad = _edited_checkpoint(trained, tmp_path, key,
                             lambda obj, leaf: obj.__setitem__(leaf, value))
    rc = main(["evaluate", "--checkpoint", str(bad), "--split", str(prepared),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(bad) in err and f"'{key}' must be" in err
    assert not (tmp_path / "o").exists()


def test_non_binary_checkpoint_probe_exits_3(trained, tmp_path, capsys):
    """probe used to run on a 3-class checkpoint."""
    bad = _edited_checkpoint(trained, tmp_path, "config.classes",
                             lambda obj, leaf: obj.__setitem__(leaf, 3))
    rc = main(["probe", "--checkpoint", str(bad), "--out", str(tmp_path / "o"), "--fs", str(FS)])
    assert rc == 3
    assert capsys.readouterr().err == \
        f"error: {bad}: 'config.classes' must be the integer 2, got 3\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", [DEEP_NESTING, "\udcff", OVER_LONG_INT])
@pytest.mark.parametrize("reader", ["split", "checkpoint"])
def test_unparsable_json_exits_3(prepared, trained, tmp_path, capsys, reader, text):
    """A split index or checkpoint header too deeply nested, not UTF-8, or
    holding an integer too long to convert."""
    raw = text.encode("utf-8", "surrogateescape")
    split_dir, ckpt_path = prepared, trained / "checkpoint.bin"
    if reader == "split":
        split_dir = tmp_path / "split"
        shutil.copytree(prepared, split_dir)
        bad = split_dir / "split.json"
        bad.write_bytes(raw)
    else:
        bad = ckpt_path = tmp_path / "bad.bin"
        blob = (trained / "checkpoint.bin").read_bytes()
        bad.write_bytes(raw + blob[blob.index(b"\n"):])
    rc = main(["evaluate", "--checkpoint", str(ckpt_path), "--split", str(split_dir),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert str(bad) in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_split(tmp_path_factory):
    """Name -> bytes of each file of a valid split of six 2-channel epochs."""
    epochs = [make_epoch(label=i % 2, seed=i, subject_id=f"S{i}") for i in range(6)]
    split = DatasetSplit(train=epochs[:2], validation=epochs[2:4], test=epochs[4:], seed=3,
                         subject_assignment={f"S{i}": _PARTITIONS[i // 2] for i in range(6)})
    out = tmp_path_factory.mktemp("tiny_split")
    _write_split(out, split, FS)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.filterwarnings("ignore:Reading `.npy` or `.npz` file required additional header")
def test_any_damaged_split_loads_or_raises_split_error(tiny_split, tmp_path, data):
    """split.json edited, or the bytes of one file damaged: the split loads,
    or the reader raises SplitError (exit 3), never another error."""
    files = dict(tiny_split)
    name = data.draw(st.sampled_from(sorted(files)))
    if name == "split.json" and data.draw(st.booleans()):
        files[name] = json.dumps(data.draw(edited_json(json.loads(files[name])))).encode()
    else:
        files[name] = data.draw(mutated_bytes(files[name]))
    for file_name, blob in files.items():
        (tmp_path / file_name).write_bytes(blob)
    try:
        _read_split(tmp_path)
    except SplitError:
        pass


class TestProbe:
    def test_outputs(self, trained, tmp_path):
        out = tmp_path / "probe"
        rc = main(["probe", "--checkpoint", str(trained / "checkpoint.bin"),
                   "--out", str(out), "--repeats-sine", "1",
                   "--fs", str(FS), "--epoch-len", "500"])
        assert rc == 0
        lines = (out / "sensitivity.csv").read_text().splitlines()
        assert len(lines) == CHANNELS + 1  # header + one row per pool output
        assert len(lines[0].split(",")) == 52  # label column + 0..50 Hz grid
        responses = sorted(out.glob("filter_response_ch*.csv"))
        assert len(responses) == CHANNELS

    @pytest.mark.parametrize("extra", [
        ["--epoch-len", "50"],  # shorter than one 1 s Welch window
        ["--fs", "-100"],
        ["--fs", "0"],
        ["--epoch-len", "0"],
        ["--fs", "0.4", "--epoch-len", "10"],  # a 1 s Welch window of 0 samples
    ])
    def test_bad_spec_writes_nothing(self, trained, tmp_path, capsys, extra):
        out = tmp_path / "probe"
        rc = main(["probe", "--checkpoint", str(trained / "checkpoint.bin"),
                   "--out", str(out), "--repeats-sine", "1",
                   "--fs", str(FS), "--epoch-len", "500", *extra])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_out_of_memory_exits_2(self, trained, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 44.0 GiB")

        monkeypatch.setattr(eegcnn.interpret, "relu_arc_sums", no_memory)
        out = tmp_path / "probe"
        rc = main(["probe", "--checkpoint", str(trained / "checkpoint.bin"), "--out", str(out),
                   "--repeats-sine", "1", "--fs", str(FS)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: out of memory in probe: Unable to allocate 44.0 GiB\n")
        assert not out.exists()

    # the error line is all it prints: a numpy warning fails the test
    @pytest.mark.filterwarnings("error")
    def test_non_finite_map_exits_4(self, trained, tmp_path, capsys):
        out = tmp_path / "probe"
        rc = main(["probe", "--checkpoint", str(trained / "checkpoint.bin"),
                   "--out", str(out), "--repeats-sine", "1",
                   "--fs", str(FS), "--epoch-len", "500", "--amplitude", "1e308"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "error: sensitivity map has" in err and "non-finite cells, the first at" in err
        assert err.count("\n") == 1
        assert not out.exists()

    # an epoch long enough that the 51-frequency sweep's arc sums run in workers
    POOLED_EPOCH_LEN = str(2 * POOL_MIN_WORK // 51)

    @needs_fork
    @pytest.mark.filterwarnings("error")
    def test_non_finite_map_from_workers_exits_4(self, trained, tmp_path, capsys, cpus):
        """The workers run under the command's np.errstate: a warning in one
        would come back as its error, not as a printed line."""
        pools = cpus(2)
        out = tmp_path / "probe"
        rc = main(["probe", "--checkpoint", str(trained / "checkpoint.bin"),
                   "--out", str(out), "--repeats-sine", "1", "--fs", str(FS),
                   "--epoch-len", self.POOLED_EPOCH_LEN, "--amplitude", "1e308"])
        assert pools == [2]
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: sensitivity map has") and err.count("\n") == 1
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_dead_worker_exits_2(self, trained, tmp_path, capsys, monkeypatch, cpus):
        parent, arc_sums = os.getpid(), eegcnn.interpret.relu_arc_sums

        def die_in_worker(*args):
            if os.getpid() != parent:
                os._exit(1)
            return arc_sums(*args)

        monkeypatch.setattr(eegcnn.interpret, "relu_arc_sums", die_in_worker)
        cpus(2)
        out = tmp_path / "probe"
        rc = main(["probe", "--checkpoint", str(trained / "checkpoint.bin"), "--out", str(out),
                   "--repeats-sine", "1", "--fs", str(FS), "--epoch-len", self.POOLED_EPOCH_LEN])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: out of memory in probe: a worker process died before the arc sums from "
            "0 Hz were done\n")
        assert not out.exists()
        assert multiprocessing.active_children() == []


class TestSweep:
    def test_ablation_csv(self, prepared, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--split", str(prepared), "--out", str(out),
                   "--sweep-parameter", "kernel_size", "--sweep-values", "3,5",
                   "--epochs", "2", "--in-channels", str(CHANNELS),
                   "--out-channels", "2"])
        assert rc == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert len(lines) == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_point_succeeded(self, prepared, tmp_path, capsys):
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({"learning_rate": 1e300}))  # every point diverges
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfg), "--split", str(prepared), "--out", str(out),
                   "--sweep-parameter", "kernel_size", "--sweep-values", "3,5",
                   "--epochs", "2", "--in-channels", str(CHANNELS), "--out-channels", "2"])
        assert rc == 4
        err = capsys.readouterr().err
        for value in (3, 5):
            assert f"sweep value {value} failed: TrainingDivergedError" in err
        assert "no sweep point succeeded" in err
        assert not out.exists()

    def test_out_of_memory_ends_the_sweep(self, prepared, tmp_path, capsys, monkeypatch):
        """A point that runs out of memory is no failed point: the sweep ends
        as train does (it exited 4, or 0 with the point's row missing)."""
        def no_memory(*args):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(eegcnn.experiments, "train", no_memory)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--split", str(prepared), "--out", str(out),
                   "--sweep-parameter", "kernel_size", "--sweep-values", "3,5",
                   "--epochs", "1", "--in-channels", str(CHANNELS), "--out-channels", "2"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: out of memory in sweep: Unable to allocate 8.00 TiB\n")
        assert not out.exists()

    SWEEP_FLAGS = ["--sweep-parameter", "kernel_size", "--sweep-values", "3,5", "--epochs", "2",
                   "--in-channels", str(CHANNELS), "--out-channels", "2"]

    @needs_fork
    @needs_openblas
    def test_pooled_ablation_csv_equals_in_process(self, prepared, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(eegcnn.experiments, "SWEEP_POOL_MIN_WORK", 0)
        written = []
        for n_cpus in (2, 1):
            pools = cpus(n_cpus)
            out = tmp_path / f"sweep{n_cpus}"
            assert main(["sweep", "--split", str(prepared), "--out", str(out),
                         *self.SWEEP_FLAGS]) == 0
            written.append((out / "ablation.csv").read_bytes())
        assert pools == [2]
        assert written[0] == written[1]
        assert multiprocessing.active_children() == []

    @needs_fork
    @needs_openblas
    def test_dead_worker_exits_2(self, prepared, tmp_path, capsys, monkeypatch, cpus):
        parent, train = os.getpid(), eegcnn.experiments.train

        def die_in_worker(*args):
            if os.getpid() != parent:
                os._exit(1)
            return train(*args)

        monkeypatch.setattr(eegcnn.experiments, "train", die_in_worker)
        monkeypatch.setattr(eegcnn.experiments, "SWEEP_POOL_MIN_WORK", 0)
        cpus(2)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--split", str(prepared), "--out", str(out), *self.SWEEP_FLAGS])
        assert rc == 2
        # the points start largest first, so kernel 5 is the first without a result
        assert capsys.readouterr().err == (
            "error: out of memory in sweep: a worker process died before sweep value 5 was "
            "trained\n")
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_missing_values_rejected(self, prepared, tmp_path):
        rc = main(["sweep", "--split", str(prepared), "--out", str(tmp_path / "o"),
                   "--sweep-parameter", "kernel_size"])
        assert rc == 2

    def test_bad_parameter_rejected(self, prepared, tmp_path, capsys):
        rc = main(["sweep", "--split", str(prepared), "--out", str(tmp_path / "o"),
                   "--sweep-parameter", "kernel", "--sweep-values", "3,5"])
        assert rc == 2
        assert "unknown sweep parameter 'kernel'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--sweep-parameter", "kernel_size", "--sweep-values", "3,4"], "kernel must be odd"),
        (["--sweep-parameter", "out_channels", "--sweep-values", "2,0"],
         "all model dimensions must be positive"),
        (["--sweep-parameter", "kernel_size", "--sweep-values", "3", "--epochs", "0"],
         "epochs must be >= 1"),
    ], ids=["even-kernel", "zero-channels", "zero-epochs"])
    def test_bad_point_rejected(self, prepared, tmp_path, capsys, flags, message):
        rc = main(["sweep", "--split", str(prepared), "--out", str(tmp_path / "o"),
                   "--in-channels", str(CHANNELS), *flags])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [
        ["--sweep-parameter", "kernel_size", "--sweep-values", "3,5", "--kernel", "4",
         "--out-channels", "2"],
        ["--sweep-parameter", "out_channels", "--sweep-values", "1,2", "--out-channels", "0",
         "--kernel", "3"],
    ], ids=["even-kernel", "zero-channels"])
    def test_swept_setting_not_checked(self, prepared, tmp_path, flags):
        """Every point replaces the swept setting, so a value of it that no
        model could take does not stop the sweep."""
        out = tmp_path / "sweep"
        rc = main(["sweep", "--split", str(prepared), "--out", str(out),
                   "--epochs", "1", "--in-channels", str(CHANNELS), *flags])
        assert rc == 0
        rows = (out / "ablation.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == flags[3].split(",")

    def test_kernel_one_and_repeated_value(self, prepared, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--split", str(prepared), "--out", str(out),
                   "--sweep-parameter", "kernel_size", "--sweep-values", "1,3,1",
                   "--epochs", "1", "--in-channels", str(CHANNELS), "--out-channels", "2"])
        assert rc == 0
        rows = (out / "ablation.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["1", "3"]


class TestChannelCount:
    """train and sweep check the split's channel count against in_channels
    before any training."""

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_mismatch_rejected(self, prepared, tmp_path, capsys, command):
        argv = [command, "--split", str(prepared), "--out", str(tmp_path / "o"), "--epochs", "1"]
        if command == "sweep":
            argv += ["--sweep-parameter", "kernel_size", "--sweep-values", "3,5"]
        rc = main(argv)  # in_channels keeps its default of 59
        assert rc == 2
        err = capsys.readouterr().err
        assert f"in_channels is 59, but the split in {prepared} has {CHANNELS} channels" in err
        assert not (tmp_path / "o").exists()

    def test_partitions_disagree(self, prepared, tmp_path, capsys):
        split_dir = tmp_path / "split"
        shutil.copytree(prepared, split_dir)
        stack = np.load(split_dir / "test_data.npy")
        np.save(split_dir / "test_data.npy", stack[:, : CHANNELS - 1])
        rc = main(["train", "--split", str(split_dir), "--out", str(tmp_path / "o"),
                   "--epochs", "1", "--in-channels", str(CHANNELS)])
        assert rc == 3  # the split itself is inconsistent, whatever in_channels is
        assert f"test ({CHANNELS - 1}, 500)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


_PATH = (str, None)
_TRAIN = {
    "batch_size": (int, 2), "learning_rate": (float, 1e-4), "epochs": (int, 80), "seed": (int, 0),
}
_MODEL = {"in_channels": (int, 59), "out_channels": (int, 59), "kernel": (int, 11)}
# command -> setting -> (type, default), None marking a required setting
EXPECTED_SETTINGS = {
    "prepare": {"manifest": _PATH, "out": _PATH, "seed": (int, 0), "cutoff_hz": (float, 1.0),
                "filter_order": (int, 4), "epoch_seconds": (float, 5.0)},
    "train": {"split": _PATH, "out": _PATH, **_TRAIN, **_MODEL},
    "evaluate": {"checkpoint": _PATH, "split": _PATH, "out": _PATH},
    "probe": {"checkpoint": _PATH, "out": _PATH, "fs": (float, 500.0), "epoch_len": (int, 2500),
              "amplitude": (float, 1.0), "repeats_sine": (int, 100), "seed": (int, 0)},
    "sweep": {"split": _PATH, "out": _PATH, "sweep_parameter": _PATH,
              "sweep_values": (tuple, None), **_TRAIN, **_MODEL},
    "psd": {"split": _PATH, "out": _PATH},
}
PAIRS = [(c, k) for c, table in EXPECTED_SETTINGS.items() for k in table]
# removed setting -> (its old type, a value it once took); the labels are
# binary, Adam's constants are fixed and the noise probe is exact, so none is
# a flag or a config-file key
REMOVED = {"classes": (int, 3), "adam_beta1": (float, 0.8), "adam_beta2": (float, 0.99),
           "adam_eps": (float, 1e-6), "seed_policy": (str, "per_value"),
           "repeats_noise": (int, 300)}
# command -> its config-file keys with the removed ones in the places they had,
# so the generated ids (valueNN) of the bad-value cases stay as they were
_OLD_TRAIN = ["batch_size", "learning_rate", "epochs", "adam_beta1", "adam_beta2", "adam_eps",
              "seed", *_MODEL]
FILE_KEYS = {
    **{c: list(table) for c, table in EXPECTED_SETTINGS.items()},
    "probe": ["checkpoint", "out", "fs", "epoch_len", "amplitude", "repeats_sine",
              "repeats_noise", "seed"],
    "train": ["split", "out", *_OLD_TRAIN, "classes"],
    "sweep": ["split", "out", "sweep_parameter", "sweep_values", "seed_policy", *_OLD_TRAIN,
              "classes"],
}
# type -> (file value, its setting, flag text, its setting)
GOOD = {
    int: (3, 3, "5", 5),
    float: (2, 2.0, "0.25", 0.25),  # an integer in the file is passed on as a float
    str: ("a", "a", "b", "b"),
    tuple: ([3, 5], (3, 5), "7,9", (7, 9)),
}
BAD = {
    int: [None, True, [1], {}, 1.9, "x", "3"],
    float: [None, True, [1], {}, "x", float("nan")],
    str: [None, True, [1], {}, 1.9, 3],
    tuple: [None, True, {}, 1.9, "x", 5, [3.9, 5], [True], "3,x", ""],
}


class TestSettings:
    """Every (command, setting) pair: flag > config file > default, and each
    config-file value of the wrong type exits 2 before any output exists."""

    @staticmethod
    def _required(command, tmp_path):
        cfg = {k: GOOD[t][0] for k, (t, d) in EXPECTED_SETTINGS[command].items() if d is None}
        return {**cfg, "out": str(tmp_path / "o")}

    @staticmethod
    def _write(tmp_path, cfg):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def _resolve(self, tmp_path, command, cfg, *flags):
        argv = [command, "--config", self._write(tmp_path, cfg), *flags]
        return resolve_settings(build_parser().parse_args(argv))

    def test_table(self):
        assert SETTINGS == EXPECTED_SETTINGS
        live = {c: [k for k in keys if k not in REMOVED] for c, keys in FILE_KEYS.items()}
        assert live == {c: list(table) for c, table in EXPECTED_SETTINGS.items()}

    @pytest.mark.parametrize("command, key", PAIRS)
    def test_flag_beats_file_beats_default(self, tmp_path, command, key):
        kind, default = EXPECTED_SETTINGS[command][key]
        file_value, from_file, flag_text, from_flag = GOOD[kind]
        cfg = self._required(command, tmp_path)
        if default is not None:
            assert self._resolve(tmp_path, command, cfg)[key] == default
        cfg[key] = file_value
        got = self._resolve(tmp_path, command, cfg)[key]
        assert got == from_file and type(got) is type(from_file)
        flag = f"--{key.replace('_', '-')}"
        assert self._resolve(tmp_path, command, cfg, flag, flag_text)[key] == from_flag

    # a removed setting, whatever the value, exits 2 as an unknown setting
    @pytest.mark.parametrize("command, key, value", [
        (c, k, v) for c, keys in FILE_KEYS.items() for k in keys
        for v in BAD[(REMOVED[k] if k in REMOVED else EXPECTED_SETTINGS[c][k])[0]]
    ])
    def test_bad_file_value_rejected(self, tmp_path, capsys, command, key, value):
        cfg = {**self._required(command, tmp_path), key: value}
        rc = main([command, "--config", self._write(tmp_path, cfg)])
        assert rc == 2
        want = f"unknown setting(s) '{key}'" if key in REMOVED else f"'{key}' must be"
        assert want in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, key", [
        (c, k) for c, k in PAIRS if EXPECTED_SETTINGS[c][k][1] is None
    ])
    def test_missing_required_rejected(self, tmp_path, capsys, command, key):
        cfg = self._required(command, tmp_path)
        del cfg[key]
        rc = main([command, "--config", self._write(tmp_path, cfg)])
        assert rc == 2
        assert f"missing required setting '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", EXPECTED_SETTINGS)
    def test_unknown_key_rejected(self, tmp_path, capsys, command):
        cfg = {**self._required(command, tmp_path), "learning_rat": 0.1}
        rc = main([command, "--config", self._write(tmp_path, cfg)])
        assert rc == 2
        assert "unknown setting(s) 'learning_rat'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        DEEP_NESTING, "{", "\udcff", "[1]", OVER_LONG_INT,
    ])
    def test_unparsable_file_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "settings.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        rc = main(["psd", "--config", str(path), "--split", "s", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert str(path) in capsys.readouterr().err

    def test_key_of_another_command_ignored(self, tmp_path):
        cfg = {"split": "s", "out": "o", "epochs": 3, "manifest": "m", "sweep_values": "x"}
        assert self._resolve(tmp_path, "psd", cfg) == {"split": "s", "out": "o"}

    @pytest.mark.parametrize("value", [[3, 5], "3,5"])
    def test_sweep_values_list_or_string(self, tmp_path, value):
        cfg = {**self._required("sweep", tmp_path), "sweep_values": value}
        assert self._resolve(tmp_path, "sweep", cfg)["sweep_values"] == (3, 5)

    @pytest.mark.parametrize("command, flag, text", [
        ("sweep", "--sweep-values", "3,x"), ("train", "--learning-rate", "nan"),
        ("probe", "--fs", "inf"),
    ])
    def test_bad_flag_value_rejected(self, tmp_path, capsys, command, flag, text):
        cfg = self._required(command, tmp_path)
        rc = main([command, "--config", self._write(tmp_path, cfg), flag, text])
        assert rc == 2
        assert f"{flag}: '{flag[2:].replace('-', '_')}' must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, key", [
    *(("train", k) for k in REMOVED if k not in ("seed_policy", "repeats_noise")),
    *(("sweep", k) for k in REMOVED if k != "repeats_noise"), ("probe", "repeats_noise"),
])
def test_removed_setting_rejected(prepared, trained, tmp_path, capsys, command, key):
    argv = [command, "--out", str(tmp_path / "o")]
    if command == "probe":
        argv += ["--checkpoint", str(trained / "checkpoint.bin"), "--fs", str(FS),
                 "--epoch-len", "500", "--repeats-sine", "1"]
    else:
        argv += ["--split", str(prepared), "--epochs", "1", "--in-channels", str(CHANNELS)]
    if command == "sweep":
        argv += ["--sweep-parameter", "kernel_size", "--sweep-values", "3"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--{key.replace('_', '-')}", str(REMOVED[key][1])])
    assert exc.value.code == 2
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps({key: REMOVED[key][1]}))
    assert main([*argv, "--config", str(cfg)]) == 2
    assert f"unknown setting(s) '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["prepare", "train", "probe", "sweep"])
def test_negative_seed_rejected(dataset_dir, prepared, trained, tmp_path, capsys, command):
    out = tmp_path / "o"
    inputs = {
        "prepare": ["--manifest", str(dataset_dir / "manifest.json")],
        "train": ["--split", str(prepared), "--epochs", "1", "--in-channels", str(CHANNELS)],
        "probe": ["--checkpoint", str(trained / "checkpoint.bin"), "--fs", str(FS),
                  "--epoch-len", "500", "--repeats-sine", "1"],
        "sweep": ["--split", str(prepared), "--epochs", "1", "--in-channels", str(CHANNELS),
                  "--sweep-parameter", "kernel_size", "--sweep-values", "3"],
    }
    rc = main([command, *inputs[command], "--out", str(out), "--seed", "-1"])
    assert rc == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("train", ["--kernel", "99999999999999999999"],
     "--kernel: 'kernel' must be an integer that fits int64, got 99999999999999999999"),
    ("train", ["--out-channels", "99999999999999999999"], "'out_channels' must be an integer"),
    ("probe", ["--repeats-sine", "99999999999999999999"], "'repeats_sine' must be an integer"),
    ("probe", ["--epoch-len", "99999999999999999999"], "'epoch_len' must be an integer"),
    ("probe", ["--epoch-len", "10"],
     "epoch_len 10 is shorter than the 1 s Welch window of 100 samples at fs 100.0 Hz"),
    ("probe", ["--repeats-sine", "0"], "repeats_sine must be >= 1, got 0"),
    ("sweep", ["--sweep-values", "99999999999999999999"], "'sweep_values' must be"),
    ("sweep", ["--sweep-values", "3,-1"], "sweep_values: all model dimensions must be positive"),
    ("sweep", ["--sweep-parameter", "kernel"],
     "unknown sweep parameter 'kernel'; sweep_parameter must be one of kernel_size, "
     "out_channels"),
    ("prepare", ["--filter-order", "99999999999999999999"], "'filter_order' must be an integer"),
    ("prepare", ["--filter-order", "0"], "filter_order must be >= 1, got 0"),
    ("prepare", ["--cutoff-hz", "50"], "cutoff_hz must lie in (0, fs/2) = (0, 50.0), got 50.0"),
    ("prepare", ["--cutoff-hz", "1e-10"],
     "cutoff_hz 1e-10 is too low for filter_order 4 at fs 100.0 Hz: solving for its initial "
     "state fails (Singular matrix)"),
    ("prepare", ["--seed", str(2**63)], "'seed' must be an integer that fits int64"),
    ("train", ["--kernel", str(2**62 - 1)],
     f"in_channels {CHANNELS}, out_channels 2 and kernel {2**62 - 1} give"),
    ("probe", ["--epoch-len", str(2**62)], f"epoch_len {2**62} is too long"),
    ("probe", ["--repeats-sine", str(2**62)],
     f"repeats_sine {2**62} is too large for a checkpoint of in_channels {CHANNELS}"),
    ("prepare", ["--cutoff-hz", "5e-324"],
     "cutoff_hz 5e-324 is too low for filter_order 4 at fs 100.0 Hz: cutoff_hz / (fs / 2) "
     "rounds to 0"),
])
def test_bad_setting_named_in_one_line(dataset_dir, prepared, trained, tmp_path, capsys,
                                       command, flags, message):
    """Each exits 2 with one stderr line that names the setting; an integer
    beyond int64 used to end in a traceback (exit 1), the too-low cutoff in
    "error: Singular matrix", and a model or probe epoch too big for numpy in
    numpy's own message. A repeats_sine too big for numpy gave numpy's
    message too, and a cutoff that scipy normalizes to 0 gave scipy's."""
    base = _base_settings(command, dataset_dir, prepared, trained)
    argv = [command, "--out", str(tmp_path / "o")]
    for k, text in base.items():
        argv += [f"--{k.replace('_', '-')}", text]
    rc = main([*argv, *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_model_beyond_memory_exits_2(prepared, tmp_path, capsys):
    """in_channels * kernel beyond uint64 used to end in a TypeError
    traceback from np.sqrt in init_params (exit 1)."""
    rc = main(["train", "--split", str(prepared), "--out", str(tmp_path / "o"), "--epochs", "1",
               "--in-channels", str(CHANNELS), "--kernel", str(2**63 - 1)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_exit_code_belongs_to_error_class():
    """One table: every class is defined in eegcnn.data, and pickles, since
    prepare's worker processes send their errors to the parent."""
    codes = {ConfigError: 2, ManifestError: 2, CsvFormatError: 3, CheckpointError: 3,
             SplitError: 3, TrainingDivergedError: 4}
    for cls, code in codes.items():
        assert issubclass(cls, ValueError) and cls.exit_code == code
        assert cls.__module__ == "eegcnn.data"
        again = pickle.loads(pickle.dumps(cls("message")))
        assert type(again) is cls and str(again) == "message"
    assert set(codes) == set(EegcnnError.__subclasses__())  # none left out


def test_bare_value_error_is_a_bug(prepared, tmp_path, monkeypatch):
    """Only an EegcnnError sets an exit code. Any other exception, a bare
    ValueError included, leaves main and ends in a traceback (exit 1); it used
    to print one line and exit 2, as a configuration error."""
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(eegcnn.experiments, "group_psd", boom)
    with pytest.raises(ValueError, match="^boom$"):
        main(["psd", "--split", str(prepared), "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("name", ["o\x00x", "o\ud800x"], ids=["nul", "unencodable"])
def test_path_the_os_cannot_open_rejected(dataset_dir, tmp_path, capsys, monkeypatch, name):
    """A config-file path with a NUL, or one the file system cannot encode:
    open() raises a bare ValueError on it, so the setting's type check rejects it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "settings.json").write_text(json.dumps({"out": name}))
    rc = main(["prepare", "--manifest", str(dataset_dir / "manifest.json"),
               "--config", "settings.json"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: settings.json: 'out' must be a string the file system can encode, with no NUL "
        "character, got ")
    assert os.listdir(tmp_path) == ["settings.json"]


# Boundary values that the property test below gives each setting, from the
# flag (as text) or from the config file (as JSON)
EDGE_VALUES = [-1, 0, 1, 2**62, 2**63 - 1, 2**63, 2**64, -0.0, 1e-300, 1e300, "nan",
               "x" * 10_000]
# values that fit int64 but that many epochs would train for that long
TOO_MANY_EPOCHS = (2**62, 2**63 - 1)


def _base_settings(command, dataset_dir, prepared, trained):
    """A cheap run of ``command`` on the module fixtures: setting -> flag text."""
    model = {"epochs": "1", "in_channels": str(CHANNELS), "out_channels": "2", "kernel": "3"}
    return {
        "prepare": {"manifest": str(dataset_dir / "manifest.json")},
        "train": {"split": str(prepared), **model},
        "evaluate": {"checkpoint": str(trained / "checkpoint.bin"), "split": str(prepared)},
        "probe": {"checkpoint": str(trained / "checkpoint.bin"), "fs": str(FS),
                  "epoch_len": "500", "repeats_sine": "1"},
        "sweep": {"split": str(prepared), "sweep_parameter": "kernel_size",
                  "sweep_values": "3", **model},
        "psd": {"split": str(prepared)},
    }[command]


def _edge_values(key):
    return [v for v in EDGE_VALUES if key != "epochs" or v not in TOO_MANY_EPOCHS]


def _check_setting_value(command, key, value, from_flag, fixtures, tmp_path, monkeypatch,
                         capsys):
    """Run ``command`` on the module fixtures (dataset_dir, prepared, trained)
    with ``key`` set to ``value``, from the flag or the config file, and check
    that it exits 0, 2, 3 or 4 as the two tests below require."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    work = tmp_path / str(len(list(tmp_path.iterdir())))
    work.mkdir()
    monkeypatch.chdir(work)  # a relative --out lands here
    flags = {**_base_settings(command, *fixtures), "out": "o"}
    cfg = {}
    if from_flag:
        flags[key] = str(value)
    else:
        flags.pop(key, None)
        cfg[key] = value
    (work / "settings.json").write_text(json.dumps(cfg))
    argv = [command, "--config", "settings.json"]
    for k, text in flags.items():
        argv += [f"--{k.replace('_', '-')}", text]
    out = cfg.get("out", flags.get("out"))
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejected the flag's text
        assert exc.code == 2 and f"--{key.replace('_', '-')}" in capsys.readouterr().err
        return
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4)
    if rc == 0:
        return
    assert err.splitlines()[-1].startswith("error: ")
    if rc == 2:
        assert err.count("\n") == 1 and key in err
    assert not isinstance(out, str) or not os.path.lexists(out)


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_any_setting_value_exits_with_a_named_error(dataset_dir, prepared, trained, tmp_path,
                                                    monkeypatch, capsys, data):
    """Any (command, setting, boundary value) exits 0, 2, 3 or 4 with no other
    exception and no numpy warning. A failure leaves no --out, and an exit 2
    prints one line that names the setting."""
    command, key = data.draw(st.sampled_from(PAIRS))
    value = data.draw(st.sampled_from(_edge_values(key)))
    from_flag = data.draw(st.booleans())
    _check_setting_value(command, key, value, from_flag, (dataset_dir, prepared, trained),
                         tmp_path, monkeypatch, capsys)


# every case that the property test draws from: 904
SETTING_CASES = [(command, key, value, from_flag) for command, key in PAIRS
                 for value in _edge_values(key) for from_flag in (True, False)]


def _case_id(command, key, value, from_flag):
    shown = "x*10000" if value == "x" * 10_000 else value
    return f"{command}-{key}-{shown}-{'flag' if from_flag else 'file'}"


@pytest.mark.parametrize("command, key, value, from_flag", SETTING_CASES,
                         ids=[_case_id(*case) for case in SETTING_CASES])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_setting_value_exits_with_a_named_error(dataset_dir, prepared, trained, tmp_path,
                                                      monkeypatch, capsys, command, key, value,
                                                      from_flag):
    """The property test above, over every one of its cases: one more setting
    or edge value cannot go undrawn."""
    _check_setting_value(command, key, value, from_flag, (dataset_dir, prepared, trained),
                         tmp_path, monkeypatch, capsys)


class TestPsd:
    def test_group_psd_csv(self, prepared, tmp_path):
        out = tmp_path / "psd"
        rc = main(["psd", "--split", str(prepared), "--out", str(out)])
        assert rc == 0
        lines = (out / "group_psd.csv").read_text().splitlines()
        assert lines[0] == "freq,mean_0,sem_0,mean_1,sem_1"

    def test_one_class_split_writes_nothing(self, prepared, tmp_path, capsys):
        split_dir = tmp_path / "split"
        shutil.copytree(prepared, split_dir)
        index = json.loads((split_dir / "split.json").read_text())
        for entries in index["partitions"].values():
            for entry in entries:
                entry["label"] = 0
        (split_dir / "split.json").write_text(json.dumps(index))
        out = tmp_path / "psd"
        rc = main(["psd", "--split", str(split_dir), "--out", str(out)])
        assert rc == 2
        assert "group PSD needs epochs from both classes" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["psd", "train", "evaluate", "sweep"])
def test_partitions_of_different_lengths_exit_3(prepared, trained, tmp_path, capsys, command):
    split_dir = tmp_path / "split"
    shutil.copytree(prepared, split_dir)
    stack = np.load(split_dir / "test_data.npy")
    np.save(split_dir / "test_data.npy", stack[..., :-100])
    out = tmp_path / "o"
    argv = [command, "--split", str(split_dir), "--out", str(out)]
    if command == "evaluate":
        argv += ["--checkpoint", str(trained / "checkpoint.bin")]
    if command in ("train", "sweep"):
        argv += ["--epochs", "1", "--in-channels", str(CHANNELS)]
    if command == "sweep":
        argv += ["--sweep-parameter", "kernel_size", "--sweep-values", "3,5"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == (f"error: {split_dir}: the partitions' epochs differ in shape (channels, "
                   f"samples): train ({CHANNELS}, 500), validation ({CHANNELS}, 500), "
                   f"test ({CHANNELS}, 400)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["psd", "train", "sweep"])
def test_path_stdout_cannot_encode_is_escaped(prepared, tmp_path, monkeypatch, command):
    """The summary line names a path with a byte that is not UTF-8 in
    backslash escapes, after the outputs are written, instead of failing."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdout", stdout)
    out = tmp_path / "psd\udcff"
    argv = [command, "--split", str(prepared), "--out", str(out)]
    if command in ("train", "sweep"):
        argv += ["--epochs", "1", "--in-channels", str(CHANNELS), "--out-channels", "2",
                 "--kernel", "3"]
    if command == "sweep":
        argv += ["--sweep-parameter", "kernel_size", "--sweep-values", "3"]
    assert main(argv) == 0
    stdout.flush()
    last = stdout.buffer.getvalue().decode("utf-8").splitlines()[-1]
    name = {"psd": "group_psd.csv", "train": "checkpoint.bin", "sweep": "ablation.csv"}
    assert f"wrote {tmp_path}/psd\\xff/{name[command]}" in last
    assert (out / name[command]).is_file()


@pytest.mark.parametrize("encoding, errors, path, shown", [
    ("utf-8", "strict", "o/\u00e9", "o/\u00e9"),
    ("utf-8", "strict", "o/\udcff", "o/\\xff"),
    ("utf-8", "surrogateescape", "o/\udcff", "o/\udcff"),  # prints the byte itself
    ("ascii", "strict", "o/\u00e9", "o/\\xe9"),
    ("ascii", "strict", "o/\udcff", "o/\\xff"),
], ids=["utf8-accent", "utf8-undecodable", "surrogateescape", "ascii-accent", "ascii-undecodable"])
def test_shown_path(monkeypatch, encoding, errors, path, shown):
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding=encoding,
                                                        errors=errors))
    assert eegcnn.cli._shown(path) == shown


def test_shown_path_on_a_string_buffer(monkeypatch):
    monkeypatch.setattr(sys, "stdout", io.StringIO())  # no encoding: UTF-8, strict
    assert eegcnn.cli._shown("o/\udcff") == "o/\\xff"


BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_env(**blas):
    """This environment with only the given BLAS thread variables set, for a
    fresh interpreter that imports this eegcnn (importing it here set all
    three)."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    return {**env, **blas, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}


def test_threads_env_set_before_numpy_loads():
    # BLAS reads its thread counts when numpy loads, so the package's default
    # must be in the environment by then: record them at the moment numpy is
    # imported. A caller's own count is left alone, and OpenBLAS reads
    # OPENBLAS_NUM_THREADS before OMP_NUM_THREADS, so that one stays unset.
    code = (
        "import importlib.abc, os, sys\n"
        "seen = []\n"
        "class Spy(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name == 'numpy':\n"
        f"            seen.extend(os.environ.get(v) for v in {BLAS_THREADS!r})\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import eegcnn.cli\n"
        "print(seen)\n"
    )
    for blas, seen in [({}, ["1", "1", "1"]),
                       ({"OMP_NUM_THREADS": "2"}, ["2", None, None])]:
        out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(**blas),
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == repr(seen)


def test_default_threads_independent_of_cpu_count(tmp_path):
    # With no BLAS variable set, train writes the one-thread bytes. A 16 x 176
    # by 176 x 500 conv GEMM is large enough for OpenBLAS to split it over
    # threads, and the split changes the last bits of the sums. With one CPU
    # there is only one thread either way, so there this test cannot fail.
    epochs = [make_epoch(channels=16, epoch_len=500, label=i % 2, seed=i, subject_id=f"S{i}")
              for i in range(6)]
    split = DatasetSplit(train=epochs[:2], validation=epochs[2:4], test=epochs[4:], seed=3,
                         subject_assignment={f"S{i}": _PARTITIONS[i // 2] for i in range(6)})
    _write_split(tmp_path / "split", split, FS)
    checkpoints = []
    for name, blas in [("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})]:
        subprocess.run(
            [sys.executable, "-m", "eegcnn.cli", "train", "--split", str(tmp_path / "split"),
             "--out", str(tmp_path / name), "--in-channels", "16", "--out-channels", "16",
             "--kernel", "11", "--epochs", "1"],
            env=_fresh_env(**blas), capture_output=True, check=True)
        checkpoints.append((tmp_path / name / "checkpoint.bin").read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_only_prepare_loads_scipy_signal(dataset_dir, prepared, trained, tmp_path):
    # in a fresh interpreter, since this one imported scipy.signal in conftest
    ckpt = str(trained / "checkpoint.bin")
    runs = [
        ["train", "--split", str(prepared), "--epochs", "1", "--in-channels", str(CHANNELS)],
        ["evaluate", "--checkpoint", ckpt, "--split", str(prepared)],
        ["sweep", "--split", str(prepared), "--epochs", "1", "--in-channels", str(CHANNELS),
         "--sweep-parameter", "kernel_size", "--sweep-values", "3"],
        ["psd", "--split", str(prepared)],
        ["probe", "--checkpoint", ckpt, "--fs", str(FS), "--epoch-len", "500",
         "--repeats-sine", "1"],
        ["prepare", "--manifest", str(dataset_dir / "manifest.json")],
    ]
    runs = [[*argv, "--out", str(tmp_path / argv[0])] for argv in runs]
    code = (
        "import contextlib, io, sys\n"
        "from eegcnn.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = main(argv)\n"
        "    print(argv[0], rc, 'scipy.signal' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines() == [
        "train 0 False", "evaluate 0 False", "sweep 0 False", "psd 0 False", "probe 0 False",
        "prepare 0 True",
    ]
