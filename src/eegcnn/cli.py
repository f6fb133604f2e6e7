"""Command-line surface: prepare, train, evaluate, probe, sweep, psd.

Each subcommand's settings are declared once, in ``SETTINGS``. A setting
``a_b`` is the flag ``--a-b`` and the key ``a_b`` of a flat JSON ``--config``
file; a flag beats the file, and the file beats the default.

An integer setting must fit int64. A failure prints one ``error:`` line and
exits with its ``eegcnn.data`` error class's ``exit_code`` (2 config, 3 I/O, 4
numerical); an OSError exits 3, running out of memory 2. Any other exception
is a bug, and ends in Python's traceback and exit 1.
BLAS runs one thread unless OMP_NUM_THREADS, OPENBLAS_NUM_THREADS or
MKL_NUM_THREADS is set (see the package's __init__).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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
from .data import ConfigError, EegcnnError, TrainingDivergedError
from .model import ModelConfig
from .train import TrainConfig, train as run_training

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
    str: (str, lambda v: v if dat.is_path(v) else None,
          "a string the file system can encode, with no NUL character"),
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
        **_fields(itp.ProbeSpec, skip=("frequencies",)),
    },
    "sweep": {
        "split": _PATH, "out": _PATH, "sweep_parameter": (str, None),
        "sweep_values": (tuple, None), **_TRAIN, **_MODEL,
    },
    "psd": {"split": _PATH, "out": _PATH},
}
_KNOWN = set().union(*SETTINGS.values())


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


# bench/run.py's psd stage reads splits by this name until it calls
# data.load_split itself (ROADMAP item 1)
_read_split = dat.load_split


def _shown(path: Path) -> str:
    """``path`` as stdout can print it: unchanged if it can, else with each
    byte that is not UTF-8, and each character stdout's encoding lacks, as a
    backslash escape. The summary line comes after the outputs are written,
    so it must not fail."""
    text, encoding = str(path), sys.stdout.encoding or "utf-8"
    try:
        text.encode(encoding, sys.stdout.errors or "strict")
        return text
    except UnicodeEncodeError:
        text = os.fsencode(path).decode("utf-8", "backslashreplace")
        return text.encode(encoding, "backslashreplace").decode(encoding)


def cmd_prepare(s: dict) -> None:
    manifest = dat.load_manifest(s["manifest"])
    subjects, epochs = pre.prepare_split(manifest, s["out"], s["seed"], s["cutoff_hz"],
                                         s["filter_order"], s["epoch_seconds"])
    print(f"prepared split: subjects {subjects}, epochs {epochs}")


def _print_epoch(i: int, row: dict) -> None:
    print(f"epoch,{i},train_loss,{row['train_loss']:.6f},val_loss,{row['val_loss']:.6f},"
          f"val_acc,{row['val_accuracy']:.6f}", flush=True)


def _check_model(split_dir, split: dat.DatasetSplit, config: ModelConfig, source="") -> None:
    """The split's epochs, which ``load_split`` keeps to one shape, must have
    in_channels channels (exit 2). ``source`` prefixes the message."""
    channels = split.train[0].data.shape[0]
    if channels != config.in_channels:
        raise ConfigError(f"{source}in_channels is {config.in_channels}, but the split in "
                          f"{split_dir} has {channels} channels")


def cmd_train(s: dict) -> None:
    split, _ = dat.load_split(s["split"])
    train_config = _build(TrainConfig, s)
    model_config = _build(ModelConfig, s)
    _check_model(s["split"], split, model_config)
    history = run_training(split, train_config, model_config, on_epoch=_print_epoch)
    out_dir = Path(s["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt.save_checkpoint(out_dir / "checkpoint.bin", history.best_checkpoint, train_config.seed)
    history.save(out_dir / "history.json")
    print(f"best epoch {history.best_epoch}; wrote {_shown(out_dir / 'checkpoint.bin')}")


def cmd_evaluate(s: dict) -> None:
    params, _ = ckpt.load_checkpoint(s["checkpoint"])
    split, _ = dat.load_split(s["split"])
    _check_model(s["split"], split, params.config, f"checkpoint {s['checkpoint']}: ")
    report = met.evaluate(params, split.test)
    out_dir = Path(s["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    report.save(out_dir / "metrics.json", out_dir / "metrics.csv")
    print((out_dir / "metrics.csv").read_text().split("\n")[1])  # the data row


def cmd_probe(s: dict) -> None:
    params, _ = ckpt.load_checkpoint(s["checkpoint"])
    spec = _build(itp.ProbeSpec, s)
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
    with dat.staged_output(s["out"], ("sensitivity.csv", "filter_response_ch*.csv")) as staging:
        sens.to_csv(staging / "sensitivity.csv")
        resp.to_csv_dir(staging)
    print(f"wrote sensitivity map ({sens.activation.shape[0]} outputs x "
          f"{sens.freqs.size} frequencies) and {resp.power.shape[0]} filter responses")


def cmd_sweep(s: dict) -> None:
    split, _ = dat.load_split(s["split"])
    train_config = _build(TrainConfig, s)
    # every point replaces the swept field, so its own setting is not checked
    swept = exp.SWEPT_FIELDS.get(s["sweep_parameter"])
    base = _build(ModelConfig, {k: v for k, v in s.items() if k != swept})
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
    print(f"wrote {_shown(out_dir / 'ablation.csv')} ({len(report.reports)} points)")


def cmd_psd(s: dict) -> None:
    split, fs = dat.load_split(s["split"])
    gp = exp.group_psd(split.train + split.validation + split.test, fs)
    out_dir = Path(s["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    gp.to_csv(out_dir / "group_psd.csv")
    print(f"wrote {_shown(out_dir / 'group_psd.csv')}")


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
    except EegcnnError as exc:  # the class alone sets the code; any other error is a bug
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (MemoryError, BrokenProcessPool) as exc:
        # a worker process that dies was most likely killed for lack of memory
        print(f"error: out of memory in {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
