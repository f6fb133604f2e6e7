"""Command-line surface: prepare, train, evaluate, probe, sweep, psd.

Exit codes: 0 success, 2 config/parse error, 3 I/O error, 4 numeric divergence.
Set EEGCNN_THREADS to cap BLAS thread counts; the package applies it when it
is imported, which the entry point does before numpy is loaded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import data as dat
from . import experiments as exp
from . import interpret as itp
from . import metrics as met
from . import preprocess as pre
from .model import ModelConfig
from .train import TrainConfig, TrainingDivergedError, train as run_training

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_MODEL_KEYS = ("in_channels", "out_channels", "kernel", "classes")
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))
_PARTITIONS = ("train", "validation", "test")
_EPOCH_KEYS = ("subject_id", "epoch_index", "label")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_positive(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v < float("inf")


# split.json values: key -> (test, what the value must be)
_INDEX_VALUES = {"seed": (_is_int, "an integer"), "fs": (_is_positive, "a positive number")}
_EPOCH_VALUES = {
    "subject_id": (lambda v: isinstance(v, str), "a string"),
    "epoch_index": (_is_int, "an integer"),
    "label": (lambda v: _is_int(v) and v in (0, 1), "0 or 1"),
}


class ConfigError(ValueError):
    pass


class SplitError(ValueError):
    """Malformed or inconsistent split directory (exit 3)."""


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{p}: config must be a flat JSON object")
    return cfg


def _setting(args: argparse.Namespace, cfg: dict, key: str, default):
    """Precedence: command-line flag > config file > default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in cfg:
        return cfg[key]
    return default


def _model_config(args, cfg) -> ModelConfig:
    defaults = ModelConfig()
    kwargs = {k: int(_setting(args, cfg, k, getattr(defaults, k))) for k in _MODEL_KEYS}
    return ModelConfig(**kwargs)


def _train_config(args, cfg) -> TrainConfig:
    defaults = TrainConfig()
    kwargs = {}
    for k in _TRAIN_KEYS:
        v = _setting(args, cfg, k, getattr(defaults, k))
        kwargs[k] = type(getattr(defaults, k))(v)
    return TrainConfig(**kwargs)


def _write_split(out_dir: Path, split: dat.DatasetSplit, fs: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    index = {
        "seed": split.seed,
        "fs": fs,
        "subject_assignment": dict(sorted(split.subject_assignment.items())),
        "partitions": {
            name: [
                {"subject_id": ep.subject_id, "epoch_index": ep.epoch_index, "label": ep.label}
                for ep in split.partition(name)
            ]
            for name in _PARTITIONS
        },
    }
    (out_dir / "split.json").write_text(json.dumps(index, indent=2, sort_keys=True))
    for name in _PARTITIONS:
        eps = split.partition(name)
        stack = np.stack([ep.data for ep in eps]) if eps else np.zeros((0, 0, 0))
        np.save(out_dir / f"{name}_data.npy", stack)


def _read_split(split_dir: str | Path) -> tuple[dat.DatasetSplit, float]:
    split_dir = Path(split_dir)
    index_path = split_dir / "split.json"
    if not index_path.exists():
        raise FileNotFoundError(f"split index not found: {index_path}")
    try:
        index = json.loads(index_path.read_text())
    except json.JSONDecodeError as exc:
        raise SplitError(f"{index_path}: invalid JSON ({exc})") from exc
    _require_keys(index_path, index, "", ("seed", "fs", "subject_assignment", "partitions"))
    _require_values(index_path, index, "", _INDEX_VALUES)
    _require_keys(index_path, index["partitions"], "partitions.", _PARTITIONS)
    parts = {}
    for name in _PARTITIONS:
        stack = _load_stack(split_dir / f"{name}_data.npy")
        entries = index["partitions"][name]
        if not isinstance(entries, list) or len(entries) != stack.shape[0]:
            raise SplitError(f"{split_dir}: {name} index/data length mismatch")
        for i, e in enumerate(entries):
            _require_keys(index_path, e, f"partitions.{name}[{i}].", _EPOCH_KEYS)
            _require_values(index_path, e, f"partitions.{name}[{i}].", _EPOCH_VALUES)
        parts[name] = [
            dat.Epoch(
                data=stack[i],
                label=e["label"],
                subject_id=e["subject_id"],
                epoch_index=e["epoch_index"],
            )
            for i, e in enumerate(entries)
        ]
    split = dat.DatasetSplit(
        train=parts["train"],
        validation=parts["validation"],
        test=parts["test"],
        seed=index["seed"],
        subject_assignment=index["subject_assignment"],
    )
    return split, float(index["fs"])


def _require_keys(path: Path, obj, prefix: str, keys: tuple[str, ...]) -> None:
    if not isinstance(obj, dict):
        raise SplitError(f"{path}: '{prefix.rstrip('.') or 'split index'}' is not an object")
    for key in keys:
        if key not in obj:
            raise SplitError(f"{path}: missing key '{prefix}{key}'")


def _require_values(path: Path, obj: dict, prefix: str, checks: dict) -> None:
    for key, (ok, what) in checks.items():
        if not ok(obj[key]):
            raise SplitError(f"{path}: '{prefix}{key}' must be {what}, got {obj[key]!r}")


def _load_stack(path: Path) -> np.ndarray:
    """One partition's [epochs, channels, samples] float64 stack."""
    try:
        stack = np.load(path)
    except (ValueError, EOFError) as exc:  # truncated, corrupt or pickled
        raise SplitError(f"{path}: unreadable array ({exc})") from None
    if stack.ndim != 3 or stack.dtype != np.float64:
        raise SplitError(
            f"{path}: expected a 3-D float64 array, got {stack.ndim}-D {stack.dtype}"
        )
    return stack


def cmd_prepare(args, cfg) -> int:
    manifest = dat.load_manifest(_require(args, cfg, "manifest"))
    out_dir = Path(_require(args, cfg, "out"))
    seed = int(_setting(args, cfg, "seed", 0))
    cutoff = float(_setting(args, cfg, "cutoff_hz", 1.0))
    order = int(_setting(args, cfg, "filter_order", 4))
    epoch_seconds = float(_setting(args, cfg, "epoch_seconds", 5.0))
    coeffs = pre.design_highpass(cutoff, order, manifest.fs)
    base = Path(_require(args, cfg, "manifest")).parent
    subjects = []
    for entry in manifest.entries:
        path = Path(entry.file)
        if not path.is_absolute():
            path = base / path
        rec = dat.load_subject_csv(path, entry, manifest)
        subjects.append(pre.filter_recording(coeffs, rec))
    split = dat.split_dataset(subjects, seed=seed, epoch_seconds=epoch_seconds)
    _write_split(out_dir, split, manifest.fs)
    counts = {
        name: sum(1 for v in split.subject_assignment.values() if v == name)
        for name in _PARTITIONS
    }
    print(f"prepared split: subjects {counts}, epochs "
          f"{ {n: len(split.partition(n)) for n in counts} }")
    return EXIT_OK


def _print_epoch(i: int, row: dict) -> None:
    print(
        f"epoch,{i},train_loss,{row['train_loss']:.6f},"
        f"val_loss,{row['val_loss']:.6f},val_acc,{row['val_accuracy']:.6f}",
        flush=True,
    )


def cmd_train(args, cfg) -> int:
    split, _ = _read_split(_require(args, cfg, "split"))
    out_dir = Path(_require(args, cfg, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    train_config = _train_config(args, cfg)
    model_config = _model_config(args, cfg)
    history = run_training(split, train_config, model_config, on_epoch=_print_epoch)
    ckpt.save_checkpoint(out_dir / "checkpoint.bin", history.best_checkpoint, train_config.seed)
    history.save(out_dir / "history.json")
    print(f"best epoch {history.best_epoch}; wrote {out_dir / 'checkpoint.bin'}")
    return EXIT_OK


def cmd_evaluate(args, cfg) -> int:
    params, _ = ckpt.load_checkpoint(_require(args, cfg, "checkpoint"))
    split, _ = _read_split(_require(args, cfg, "split"))
    out_dir = Path(_require(args, cfg, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    report = met.evaluate(params, split.test)
    report.save(out_dir / "metrics.json", out_dir / "metrics.csv")
    print(report.to_csv_row())
    return EXIT_OK


def _probe_spec(args, cfg, model_config_hint: int) -> itp.ProbeSpec:
    defaults = itp.ProbeSpec()
    return itp.ProbeSpec(
        fs=float(_setting(args, cfg, "fs", defaults.fs)),
        epoch_len=int(_setting(args, cfg, "epoch_len", defaults.epoch_len)),
        channels=model_config_hint,
        amplitude=float(_setting(args, cfg, "amplitude", defaults.amplitude)),
        repeats_sine=int(_setting(args, cfg, "repeats_sine", defaults.repeats_sine)),
        repeats_noise=int(_setting(args, cfg, "repeats_noise", defaults.repeats_noise)),
        seed=int(_setting(args, cfg, "seed", defaults.seed)),
    )


def cmd_probe(args, cfg) -> int:
    params, _ = ckpt.load_checkpoint(_require(args, cfg, "checkpoint"))
    out_dir = Path(_require(args, cfg, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = _probe_spec(args, cfg, params.config.in_channels)
    sens = itp.pooling_sensitivity(params, spec)
    sens.to_csv(out_dir / "sensitivity.csv")
    resp = itp.conv_filter_response(params, spec)
    resp.to_csv_dir(out_dir)
    print(f"wrote sensitivity map ({sens.activation.shape[0]} outputs x "
          f"{sens.freqs.size} frequencies) and {resp.power.shape[0]} filter responses")
    return EXIT_OK


def cmd_sweep(args, cfg) -> int:
    split, _ = _read_split(_require(args, cfg, "split"))
    out_dir = Path(_require(args, cfg, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    parameter = str(_require(args, cfg, "sweep_parameter"))
    values = _setting(args, cfg, "sweep_values", None)
    if values is None:
        raise ConfigError("sweep requires sweep_values")
    if isinstance(values, str):
        values = [int(v) for v in values.split(",")]
    sweep = exp.SweepConfig(
        parameter=parameter,
        values=tuple(int(v) for v in values),
        base_train_config=_train_config(args, cfg),
        base_model_config=_model_config(args, cfg),
        seed_policy=str(_setting(args, cfg, "seed_policy", "fixed")),
    )
    report = exp.run_sweep(sweep, split)
    report.to_csv(out_dir / "ablation.csv")
    for value, err in sorted(report.errors.items()):
        print(f"sweep value {value} failed: {err}", file=sys.stderr)
    print(f"wrote {out_dir / 'ablation.csv'} ({len(report.reports)} points)")
    return EXIT_OK


def cmd_psd(args, cfg) -> int:
    split, fs = _read_split(_require(args, cfg, "split"))
    out_dir = Path(_require(args, cfg, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    epochs = split.train + split.validation + split.test
    gp = exp.group_psd(epochs, fs)
    gp.to_csv(out_dir / "group_psd.csv")
    print(f"wrote {out_dir / 'group_psd.csv'}")
    return EXIT_OK


def _require(args, cfg, key: str):
    value = _setting(args, cfg, key, None)
    if value is None:
        raise ConfigError(f"missing required setting '{key}' (flag or config file)")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegcnn", description="EEG epoch classifier pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("prepare", help="load, filter, epoch and split a dataset")
    common(p)
    p.add_argument("--manifest")
    p.add_argument("--cutoff-hz", dest="cutoff_hz", type=float)
    p.add_argument("--filter-order", dest="filter_order", type=int)
    p.add_argument("--epoch-seconds", dest="epoch_seconds", type=float)

    p = sub.add_parser("train", help="train a model on a prepared split")
    common(p)
    p.add_argument("--split", help="directory written by prepare")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    for key in _MODEL_KEYS:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the test partition")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--split")

    p = sub.add_parser("probe", help="frequency probes of a trained checkpoint")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--repeats-sine", dest="repeats_sine", type=int)
    p.add_argument("--repeats-noise", dest="repeats_noise", type=int)
    p.add_argument("--fs", type=float)
    p.add_argument("--epoch-len", dest="epoch_len", type=int)

    p = sub.add_parser("sweep", help="ablation sweep over kernel size or channels")
    common(p)
    p.add_argument("--split")
    p.add_argument("--sweep-parameter", dest="sweep_parameter",
                   choices=sorted(("kernel_size", "out_channels")))
    p.add_argument("--sweep-values", dest="sweep_values",
                   help="comma-separated integers")
    p.add_argument("--epochs", type=int)
    for key in _MODEL_KEYS:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int)

    p = sub.add_parser("psd", help="group-wise PSD comparison CSV")
    common(p)
    p.add_argument("--split")
    return parser


_COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "probe": cmd_probe,
    "sweep": cmd_sweep,
    "psd": cmd_psd,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config_file(args.config)
        return _COMMANDS[args.command](args, cfg)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, dat.CsvFormatError, ckpt.CheckpointError, SplitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, dat.ManifestError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
