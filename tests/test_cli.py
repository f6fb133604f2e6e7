import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from eegcnn.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from eegcnn.data import write_subject_csv
from eegcnn.synth import synthetic_dataset

FS = 100.0
CHANNELS = 3


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    subjects = synthetic_dataset(
        n_subjects=6, channels=CHANNELS, fs=FS, n_epochs=4,
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
def prepared(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("prepared")
    rc = main(["prepare", "--manifest", str(dataset_dir / "manifest.json"),
               "--out", str(out), "--seed", "7"])
    assert rc == EXIT_OK
    return out


@pytest.fixture(scope="module")
def trained(prepared, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    rc = main(["train", "--split", str(prepared), "--out", str(out),
               "--epochs", "5", "--learning-rate", "0.003",
               "--in-channels", str(CHANNELS), "--out-channels", str(CHANNELS),
               "--kernel", "7", "--seed", "0"])
    assert rc == EXIT_OK
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
        assert rc == EXIT_OK

        out3 = tmp_path / "andagain"
        rc = main(["prepare", "--manifest", str(dataset_dir / "manifest.json"),
                   "--out", str(out3), "--seed", "7"])
        assert rc == EXIT_OK
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
        assert rc == EXIT_CONFIG

    def test_empty_partition_rejected(self, dataset_dir, tmp_path, capsys):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        manifest["subjects"] = manifest["subjects"][:3]
        (dataset_dir / "three.json").write_text(json.dumps(manifest))
        rc = main(["prepare", "--manifest", str(dataset_dir / "three.json"),
                   "--out", str(tmp_path / "out"), "--seed", "0"])
        assert rc == EXIT_CONFIG
        assert "train/validation/test = 2/1/0" in capsys.readouterr().err

    def test_missing_manifest(self, tmp_path):
        rc = main(["prepare", "--manifest", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_IO


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


class TestTrain:
    def test_outputs_written(self, trained):
        assert (trained / "checkpoint.bin").exists()
        history = json.loads((trained / "history.json").read_text())
        assert len(history["epochs"]) == 5

    def test_log_lines_parseable(self, prepared, tmp_path, capsys):
        rc = main(["train", "--split", str(prepared), "--out", str(tmp_path / "t"),
                   "--epochs", "1", "--in-channels", str(CHANNELS),
                   "--out-channels", "2", "--kernel", "3"])
        assert rc == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch,")]
        assert len(lines) == 1
        fields = lines[0].split(",")
        assert fields[0] == "epoch" and fields[2] == "train_loss"
        float(fields[3]), float(fields[5]), float(fields[7])

    def test_missing_split(self, tmp_path):
        rc = main(["train", "--split", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_IO

    @pytest.mark.parametrize("key", [
        "partitions", "seed", "fs", "subject_assignment", "partitions.validation",
        "partitions.train[0].label", "partitions.test[0].subject_id",
    ])
    def test_split_index_missing_key(self, prepared, tmp_path, capsys, key):
        rc = _train_on_edited_index(prepared, tmp_path, key, lambda obj, leaf: obj.pop(leaf))
        assert rc == EXIT_IO
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
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        assert str(tmp_path / "split" / "split.json") in err and f"'{key}' must be" in err

    @pytest.mark.parametrize("name, damage", [
        ("train", "truncate"), ("validation", "garbage"), ("test", "empty"),
        ("train", "2-D"), ("validation", "float32"),
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
        else:
            np.save(path, stack.astype(np.float32))
        rc = main(["train", "--split", str(split_dir), "--out", str(tmp_path / "o")])
        assert rc == EXIT_IO
        assert str(path) in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, prepared, tmp_path):
        cfg = {"split": str(prepared), "out": str(tmp_path / "cfg_out"),
               "epochs": 3, "in_channels": CHANNELS, "out_channels": 2, "kernel": 3}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(cfg_path), "--epochs", "2"])
        assert rc == EXIT_OK
        history = json.loads((tmp_path / "cfg_out" / "history.json").read_text())
        assert len(history["epochs"]) == 2  # flag wins over file


class TestEvaluate:
    def test_report_files(self, prepared, trained, tmp_path):
        out = tmp_path / "eval"
        rc = main(["evaluate", "--checkpoint", str(trained / "checkpoint.bin"),
                   "--split", str(prepared), "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((out / "metrics.json").read_text())
        index = json.loads((prepared / "split.json").read_text())
        assert report["n_epochs"] == len(index["partitions"]["test"])
        csv_lines = (out / "metrics.csv").read_text().splitlines()
        assert csv_lines[0] == "precision,recall,f1,auc,accuracy"

    def test_missing_checkpoint(self, prepared, tmp_path, capsys):
        missing = tmp_path / "none.bin"
        rc = main(["evaluate", "--checkpoint", str(missing),
                   "--split", str(prepared), "--out", str(tmp_path / "o")])
        assert rc == EXIT_IO
        assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "probe"])
@pytest.mark.parametrize("key", ["config", "seed", "config.extra", "config.kernel"])
def test_bad_checkpoint_header(prepared, trained, tmp_path, capsys, command, key):
    """A header missing `key` (or, for config.extra, holding it) exits 3."""
    blob = (trained / "checkpoint.bin").read_bytes()
    nl = blob.index(b"\n")
    header = json.loads(blob[:nl])
    if key == "config.extra":
        header["config"]["extra"] = 1
    elif key.startswith("config."):
        del header["config"][key.removeprefix("config.")]
    else:
        del header[key]
    bad = tmp_path / "bad.bin"
    bad.write_bytes(json.dumps(header).encode() + blob[nl:])
    argv = [command, "--checkpoint", str(bad), "--out", str(tmp_path / "o")]
    argv += ["--split", str(prepared)] if command == "evaluate" else ["--fs", str(FS)]
    rc = main(argv)
    assert rc == EXIT_IO
    err = capsys.readouterr().err
    assert str(bad) in err and f"'{key}'" in err


class TestProbe:
    def test_outputs(self, trained, tmp_path):
        out = tmp_path / "probe"
        rc = main(["probe", "--checkpoint", str(trained / "checkpoint.bin"),
                   "--out", str(out), "--repeats-sine", "1", "--repeats-noise", "2",
                   "--fs", str(FS), "--epoch-len", "500"])
        assert rc == EXIT_OK
        lines = (out / "sensitivity.csv").read_text().splitlines()
        assert len(lines) == CHANNELS + 1  # header + one row per pool output
        assert len(lines[0].split(",")) == 52  # label column + 0..50 Hz grid
        responses = sorted(out.glob("filter_response_ch*.csv"))
        assert len(responses) == CHANNELS


class TestSweep:
    def test_ablation_csv(self, prepared, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--split", str(prepared), "--out", str(out),
                   "--sweep-parameter", "kernel_size", "--sweep-values", "3,5",
                   "--epochs", "2", "--in-channels", str(CHANNELS),
                   "--out-channels", "2"])
        assert rc == EXIT_OK
        lines = (out / "ablation.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_missing_values_rejected(self, prepared, tmp_path):
        rc = main(["sweep", "--split", str(prepared), "--out", str(tmp_path / "o"),
                   "--sweep-parameter", "kernel_size"])
        assert rc == EXIT_CONFIG


class TestPsd:
    def test_group_psd_csv(self, prepared, tmp_path):
        out = tmp_path / "psd"
        rc = main(["psd", "--split", str(prepared), "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "group_psd.csv").read_text().splitlines()
        assert lines[0] == "freq,mean_0,sem_0,mean_1,sem_1"


def test_threads_env_set_before_numpy_loads():
    # BLAS reads its thread count when numpy loads, so EEGCNN_THREADS must be
    # in the environment by then: record it at the moment numpy is imported
    code = (
        "import importlib.abc, os, sys\n"
        "seen = []\n"
        "class Spy(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name == 'numpy':\n"
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import eegcnn.cli\n"
        "print(seen)\n"
    )
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(EEGCNN_THREADS="1", PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "['1']"
