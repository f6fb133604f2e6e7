"""Command-line surface: prepare, train, evaluate, probe, sweep, psd.

Each subcommand's settings are declared once, in ``SETTINGS``. A setting
``a_b`` is the flag ``--a-b`` and the key ``a_b`` of a flat JSON ``--config``
file; a flag beats the file, and the file beats the default.

An integer setting must fit int64. A failure prints one ``error:`` line and
exits with its error class's ``exit_code`` (2 config, 3 I/O, 4 numerical); an
OSError exits 3, and any other ValueError or running out of memory exits 2.
BLAS runs one thread unless OMP_NUM_THREADS, OPENBLAS_NUM_THREADS or
MKL_NUM_THREADS is set (see the package's __init__).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tokenize
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import data as dat
from . import experiments as exp
from . import interpret as itp
from . import metrics as met
from . import preprocess as pre
from .data import ConfigError
from .model import ModelConfig
from .train import TrainConfig, TrainingDivergedError, train as run_training

_PARTITIONS = ("train", "validation", "test")


# split.json values: key -> (test, what the value must be)
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_INDEX_VALUES = {
    "seed": (dat.is_int, "an integer"),
    "fs": (dat.is_positive, "a positive number"),
    "subject_assignment": _OBJECT,
    "partitions": _OBJECT,
}
_PARTITION_VALUES = {name: (lambda v: isinstance(v, list), "a list") for name in _PARTITIONS}
_EPOCH_VALUES = {
    "subject_id": (dat.is_str, "a string"),
    "epoch_index": (dat.is_int, "an integer"),
    "label": (lambda v: dat.is_int(v) and v in (0, 1), "0 or 1"),
}


_INT64 = range(-(2**63), 2**63)


def _int_list(v) -> tuple[int, ...] | None:
    """A list of int64 integers, or a comma-separated string of them; None otherwise."""
    if isinstance(v, str):
        try:
            v = [int(s) for s in v.split(",")]
        except ValueError:
            return None
    if isinstance(v, list) and all(dat.is_int(x) and x in _INT64 for x in v):
        return tuple(v)
    return None


# setting type -> (flag parser, value -> setting or None if rejected, what it must be)
_TYPES = {
    int: (int, lambda v: v if dat.is_int(v) and v in _INT64 else None,
          "an integer that fits int64"),
    float: (float, lambda v: float(v) if dat.is_number(v) else None, "a finite number"),
    str: (str, lambda v: v if dat.is_str(v) else None, "a string"),
    tuple: (str, _int_list, "comma-separated integers that fit int64, or a list of them"),
}


def _fields(cls, skip: tuple[str, ...] = ()) -> dict:
    return {f.name: (type(f.default), f.default) for f in fields(cls) if f.name not in skip}


_PATH = (str, None)
_MODEL = _fields(ModelConfig)
_TRAIN = _fields(TrainConfig)

# command -> setting -> (type, default); a None default marks a required setting
SETTINGS = {
    "prepare": {
        "manifest": _PATH, "out": _PATH, "seed": (int, 0),
        "cutoff_hz": (float, 1.0), "filter_order": (int, 4), "epoch_seconds": (float, 5.0),
    },
    "train": {"split": _PATH, "out": _PATH, **_TRAIN, **_MODEL},
    "evaluate": {"checkpoint": _PATH, "split": _PATH, "out": _PATH},
    "probe": {
        "checkpoint": _PATH, "out": _PATH,
        **_fields(itp.ProbeSpec, skip=("channels", "frequencies")),
    },
    "sweep": {
        "split": _PATH, "out": _PATH, "sweep_parameter": (str, None),
        "sweep_values": (tuple, None), **_TRAIN, **_MODEL,
    },
    "psd": {"split": _PATH, "out": _PATH},
}
_KNOWN = set().union(*SETTINGS.values())


class SplitError(dat.EegcnnError):
    """Malformed or inconsistent split directory."""
    exit_code = 3


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    cfg = dat.parse_json(p, p.read_bytes(), ConfigError)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{p}: config must be a flat JSON object")
    unknown = sorted(cfg.keys() - _KNOWN)
    if unknown:
        raise ConfigError(f"{p}: unknown setting(s) {', '.join(map(repr, unknown))}")
    return cfg


def resolve_settings(args: argparse.Namespace) -> dict:
    """Each setting of ``args.command``: flag > config file > default. Flag
    and file values must have the setting's type (ConfigError otherwise)."""
    cfg = _load_config_file(args.config)
    settings = {}
    for key, (kind, default) in SETTINGS[args.command].items():
        flag = getattr(args, key)
        if flag is None and key not in cfg:
            if default is None:
                raise ConfigError(f"missing required setting '{key}' (flag or config file)")
            settings[key] = default
            continue
        raw = flag if flag is not None else cfg[key]
        _, parse, what = _TYPES[kind]
        settings[key] = parse(raw)
        if settings[key] is None:
            source = f"--{key.replace('_', '-')}" if flag is not None else args.config
            raise ConfigError(f"{source}: '{key}' must be {what}, got {json.dumps(raw)}")
    return settings


def _build(cls, settings: dict, **extra):
    """``cls`` built from the settings named after its fields."""
    return cls(**{f.name: settings[f.name] for f in fields(cls) if f.name in settings}, **extra)


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
        np.save(out_dir / f"{name}_data.npy", np.stack([ep.data for ep in split.partition(name)]))


def _read_split(split_dir: str | Path) -> tuple[dat.DatasetSplit, float]:
    split_dir = Path(split_dir)
    index_path = split_dir / "split.json"
    index = dat.parse_json(index_path, index_path.read_bytes(), SplitError)
    dat.check_object(index_path, index, "", _INDEX_VALUES, SplitError)
    dat.check_object(index_path, index["partitions"], "partitions.", _PARTITION_VALUES, SplitError)
    assignment = index["subject_assignment"]
    for subject, name in assignment.items():
        if name not in _PARTITIONS:
            raise SplitError(f"{index_path}: 'subject_assignment.{subject}' must be one of "
                             f"{', '.join(_PARTITIONS)}, got {name!r}")
    parts = {}
    for name in _PARTITIONS:
        entries = index["partitions"][name]
        if not entries:
            raise SplitError(f"{index_path}: partition '{name}' holds no epochs")
        data_path = split_dir / f"{name}_data.npy"
        stack = _load_stack(data_path)
        if len(entries) != stack.shape[0]:
            raise SplitError(f"{split_dir}: {name} index/data length mismatch")
        for i, e in enumerate(entries):
            dat.check_object(index_path, e, f"partitions.{name}[{i}].", _EPOCH_VALUES, SplitError)
            owner = assignment.get(e["subject_id"])
            if owner != name:
                raise SplitError(f"{index_path}: partitions.{name}[{i}].subject_id "
                                 f"{e['subject_id']!r} is assigned to {owner!r}")
        try:
            parts[name] = [
                dat.Epoch(
                    data=stack[i],
                    label=e["label"],
                    subject_id=e["subject_id"],
                    epoch_index=e["epoch_index"],
                )
                for i, e in enumerate(entries)
            ]
        except ValueError as exc:  # a non-finite sample
            raise SplitError(f"{data_path}: {exc}") from None
    split = dat.DatasetSplit(
        train=parts["train"],
        validation=parts["validation"],
        test=parts["test"],
        seed=index["seed"],
        subject_assignment=assignment,
    )
    return split, float(index["fs"])


def _load_stack(path: Path) -> np.ndarray:
    """One partition's [epochs, channels, samples] float64 stack. The .npy
    header is checked against the file size first, so numpy never allocates
    for more data than the file holds."""
    fmt = np.lib.format
    try:
        with path.open("rb") as fh:
            version = fmt.read_magic(fh)
            read_header = (fmt.read_array_header_1_0 if version == (1, 0)
                           else fmt.read_array_header_2_0)
            shape, _, dtype = read_header(fh)
            data_bytes = path.stat().st_size - fh.tell()
        if len(shape) != 3 or dtype != np.float64:
            raise ValueError(f"got a {len(shape)}-D {dtype} array")
        if data_bytes != 8 * math.prod(shape):
            raise ValueError(f"shape {shape} needs {8 * math.prod(shape)} bytes of data, "
                             f"the file holds {data_bytes}")
        return np.load(path)
    # numpy's .npy header parser raises any of these on a damaged header
    except (ValueError, EOFError, SyntaxError, TypeError, tokenize.TokenError) as exc:
        raise SplitError(f"{path}: not a readable 3-D float64 array ({exc})") from None


def cmd_prepare(s: dict) -> None:
    manifest = dat.load_manifest(s["manifest"])
    # the split settings are checked before any CSV is read
    dat.check_seed(s["seed"])
    dat.epoch_length(s["epoch_seconds"], manifest.fs)
    subjects = pre.load_filtered(manifest, s["cutoff_hz"], s["filter_order"])
    split = dat.split_dataset(subjects, seed=s["seed"], epoch_seconds=s["epoch_seconds"])
    _write_split(Path(s["out"]), split, manifest.fs)
    counts = {n: list(split.subject_assignment.values()).count(n) for n in _PARTITIONS}
    print(f"prepared split: subjects {counts}, epochs "
          f"{ {n: len(split.partition(n)) for n in counts} }")


def _print_epoch(i: int, row: dict) -> None:
    print(f"epoch,{i},train_loss,{row['train_loss']:.6f},val_loss,{row['val_loss']:.6f},"
          f"val_acc,{row['val_accuracy']:.6f}", flush=True)


def _check_model(split_dir, split: dat.DatasetSplit, config: ModelConfig, source="") -> None:
    """Every epoch of the split must have in_channels channels (exit 2).
    ``source`` prefixes the message."""
    counts = sorted({ep.data.shape[0] for ep in split.train + split.validation + split.test})
    if counts != [config.in_channels]:
        raise ConfigError(f"{source}in_channels is {config.in_channels}, but the split in "
                          f"{split_dir} has {'/'.join(map(str, counts))} channels")


def cmd_train(s: dict) -> None:
    split, _ = _read_split(s["split"])
    train_config = _build(TrainConfig, s)
    model_config = _build(ModelConfig, s)
    _check_model(s["split"], split, model_config)
    history = run_training(split, train_config, model_config, on_epoch=_print_epoch)
    out_dir = Path(s["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt.save_checkpoint(out_dir / "checkpoint.bin", history.best_checkpoint, train_config.seed)
    history.save(out_dir / "history.json")
    print(f"best epoch {history.best_epoch}; wrote {out_dir / 'checkpoint.bin'}")


def cmd_evaluate(s: dict) -> None:
    params, _ = ckpt.load_checkpoint(s["checkpoint"])
    split, _ = _read_split(s["split"])
    _check_model(s["split"], split, params.config, f"checkpoint {s['checkpoint']}: ")
    report = met.evaluate(params, split.test)
    out_dir = Path(s["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    report.save(out_dir / "metrics.json", out_dir / "metrics.csv")
    print((out_dir / "metrics.csv").read_text().split("\n")[1])  # the data row


def cmd_probe(s: dict) -> None:
    params, _ = ckpt.load_checkpoint(s["checkpoint"])
    spec = _build(itp.ProbeSpec, s, channels=params.config.in_channels)
    # Both maps are computed, without numpy's overflow warnings, and checked
    # before anything is written. The noise response goes first: its Welch
    # check rejects an epoch shorter than one window before the sweep runs.
    with np.errstate(all="ignore"):
        resp = itp.conv_filter_response(params, spec)
        sens = itp.pooling_sensitivity(params, spec)
    for name, freqs, values in (("sensitivity map", sens.freqs, sens.activation),
                                ("filter response", resp.freqs, resp.power)):
        bad = ~np.isfinite(values)
        if bad.any():
            raise TrainingDivergedError(f"{name} has {bad.sum()} non-finite cells, the first "
                                        f"at {freqs[bad.any(axis=0)][0]:g} Hz")
    out_dir = Path(s["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    sens.to_csv(out_dir / "sensitivity.csv")
    resp.to_csv_dir(out_dir)
    print(f"wrote sensitivity map ({sens.activation.shape[0]} outputs x "
          f"{sens.freqs.size} frequencies) and {resp.power.shape[0]} filter responses")


def cmd_sweep(s: dict) -> None:
    split, _ = _read_split(s["split"])
    train_config = _build(TrainConfig, s)
    base = _build(ModelConfig, s)
    model_configs = exp.sweep_configs(base, s["sweep_parameter"], s["sweep_values"])
    _check_model(s["split"], split, base)
    report = exp.run_sweep(split, train_config, model_configs)
    for value, err in sorted(report.errors.items()):
        print(f"sweep value {value} failed: {err}", file=sys.stderr)
    if not report.reports:
        raise TrainingDivergedError("no sweep point succeeded")
    out_dir = Path(s["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(out_dir / "ablation.csv")
    print(f"wrote {out_dir / 'ablation.csv'} ({len(report.reports)} points)")


def cmd_psd(s: dict) -> None:
    split, fs = _read_split(s["split"])
    gp = exp.group_psd(split.train + split.validation + split.test, fs)
    out_dir = Path(s["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    gp.to_csv(out_dir / "group_psd.csv")
    print(f"wrote {out_dir / 'group_psd.csv'}")


# command -> (function, help)
_COMMANDS = {
    "prepare": (cmd_prepare, "load, filter, epoch and split a dataset"),
    "train": (cmd_train, "train a model on a prepared split"),
    "evaluate": (cmd_evaluate, "evaluate a checkpoint on the test partition"),
    "probe": (cmd_probe, "frequency probes of a trained checkpoint"),
    "sweep": (cmd_sweep, "ablation sweep over kernel size or channels"),
    "psd": (cmd_psd, "group-wise PSD comparison CSV"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegcnn", description="EEG epoch classifier pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat JSON file of settings, keyed by setting name")
        for key, (kind, default) in SETTINGS[command].items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=_TYPES[kind][0],
                           help="required" if default is None else f"default {default}")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command][0](resolve_settings(args))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # numpy's and scipy's own exit 2 too
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except (MemoryError, BrokenProcessPool) as exc:
        # a worker process that dies was most likely killed for lack of memory
        print(f"error: out of memory in {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
