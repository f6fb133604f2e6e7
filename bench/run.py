"""End-to-end and per-layer benchmark of the eegcnn command-line pipeline.

    python3 bench/run.py --workload {paper,accept,probe} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. The benchmark writes a seeded
synthetic cohort (subject CSVs and a manifest) or a checkpoint, then drives
the pipeline stages in this process as a closed loop with one client: the
stages of a workload run one after another, and the whole chain repeats while
the next chain is predicted to end within ``--seconds``. ``prepare``,
``train``, ``evaluate`` and ``sweep`` run through ``eegcnn.cli.main``; ``psd``
and ``probe`` call the library functions their commands call, and return the
results that those commands would write to CSV (see ``LIBRARY_STAGES``). Every
stage call is one operation; it fails on a non-zero exit code, an exception, a
missing or unparseable artifact, a result of the wrong shape or value, or an
artifact or result whose sha256 differs from the reference of the same seed
and source tree (the first passing chain of the first such run, kept under
``.bench_out/reference/``). ``correct`` is false when any operation or trace
check failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` traced and untraced chains
alternate and the metrics are the per-layer ones (see ``bench/README.md``).
Lines before it give the host record and a readable report; the full record,
spans included, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

# numpy is imported inside functions only: the BLAS thread variables must be
# set (pin_threads) before its first import.

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "EEGCNN_THREADS")
STAGES = ("prepare", "train", "evaluate", "psd", "sweep", "probe")
MODEL_STAGES = ("train", "evaluate", "sweep", "probe")
EPOCH_SECONDS = 5.0
TONES_HZ = (10.0, 25.0)  # class 0 (Control), class 1 (PD); SNR 0 dB as in eegcnn.synth
NOISE_STD = 0.5**0.5
SETUP_REPEATS = 3
MIN_CHAINS = 2
# A traced stage's self times must sum to the wall time measured around the
# same call within this many seconds plus this share of it; the difference is
# the cost of entering the stage's span and redirecting its output.
SELF_TIME_TOLERANCE_S = 0.002
SELF_TIME_TOLERANCE = 0.01
# End-to-end times are reported as seconds on a reference host on which each
# kind of host probe takes this long (on a 2-vCPU Xeon host the compute probe
# takes 9 to 17 ms and the csv probe 13 to 31 ms). A stage is scaled by the
# probe of its own kind of work: prepare parses CSV text, the others compute.
HOST_PROBE_REF_S = {"compute": 0.010, "csv": 0.020}
PROBE_REPEATS = 3  # each probe reading is the median of this many timings
PROBE_KIND = {"prepare": "csv"}


@dataclass(frozen=True)
class Workload:
    stages: tuple[str, ...]
    channels: int
    out_channels: int
    kernel: int
    fs: float = 500.0
    subjects: int = 0  # cohort size; 0 means no CSV input (probe only)
    epochs_per_subject: int = 0
    train_epochs: int = 1
    sweep_kernels: tuple[int, ...] = ()
    repeats_sine: int = 1
    repeats_noise: int = 1

    @property
    def epoch_len(self) -> int:
        return int(round(EPOCH_SECONDS * self.fs))


WORKLOADS = {
    # Paper shape (59 ch, 500 Hz, 5 s epochs, kernel 11, 59 filters). The wide
    # CSV parse drives prepare and the 59x649 @ 649x2500 conv GEMM drives
    # train. Ten subjects give a 6/2/2 subject split whose two-subject test
    # partition can hold one class only; that is reported, not avoided.
    "paper": Workload(
        stages=("prepare", "train", "evaluate", "psd"),
        channels=59, out_channels=59, kernel=11,
        subjects=10, epochs_per_subject=2, train_epochs=3,
    ),
    # Acceptance shape: the cohort of test_synthetic_end_to_end (20 subjects x
    # 12 epochs, 8 ch, kernel 51, 8 filters). GEMMs are small, so the im2col
    # copy and the per-example Python loop drive train and sweep. The sweep
    # crosses kernel sizes from the paper's 11 to the acceptance 51.
    "accept": Workload(
        stages=("prepare", "train", "evaluate", "psd", "sweep"),
        channels=8, out_channels=8, kernel=51,
        subjects=20, epochs_per_subject=12, train_epochs=1, sweep_kernels=(11, 31, 51),
    ),
    # `eegcnn probe` on a paper-shape checkpoint: eval-mode forwards (sinusoid
    # sweep over 251 frequencies) plus conv and Welch (white-noise probe); no
    # CSV, backward or Adam, so a change to the train path should not show.
    # The repeats are the CLI defaults (100 sinusoid, 300 noise) divided by
    # 100, which keeps their 251:3 ratio of forwards to conv+Welch passes.
    "probe": Workload(
        stages=("probe",),
        channels=59, out_channels=59, kernel=11,
        repeats_sine=1, repeats_noise=3,
    ),
}

# Tiny shapes of the same stage chains: the warm-up chain of every set-up, and
# the whole run under --smoke (bench/smoke.py).
SMOKE_WORKLOADS = {
    "paper": Workload(
        stages=("prepare", "train", "evaluate", "psd"),
        channels=4, out_channels=4, kernel=5, fs=100.0,
        subjects=5, epochs_per_subject=1,
    ),
    "accept": Workload(
        stages=("prepare", "train", "evaluate", "psd", "sweep"),
        channels=3, out_channels=3, kernel=7, fs=100.0,
        subjects=5, epochs_per_subject=2, sweep_kernels=(3, 7),
    ),
    "probe": Workload(stages=("probe",), channels=4, out_channels=4, kernel=5, fs=100.0),
}


class CheckError(Exception):
    """An artifact is missing, malformed or differs from the reference."""


# -- process set-up ----------------------------------------------------------


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads() -> None:
    """Cap BLAS threads at nproc; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())


def import_program():
    """Import eegcnn from this checkout's src/, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "eegcnn" / "__init__.py").is_file():
        print(f"error: no eegcnn package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import eegcnn.cli

    if Path(eegcnn.cli.__file__).resolve().parent != (src / "eegcnn").resolve():
        print(f"error: eegcnn imported from {eegcnn.cli.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return eegcnn.cli


def host_record(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


# -- inputs --------------------------------------------------------------------


def csv_body(samples) -> bytes:
    """Rows of ``samples.T`` as fixed-width ``%+.15e`` cells, built without a
    Python loop over cells (16 significant digits, like a float64 export)."""
    import numpy as np

    digits4 = np.frombuffer(
        "".join(f"{i:04d}" for i in range(10000)).encode(), dtype=np.uint8
    ).reshape(10000, 4)
    x = samples.T
    mag = np.abs(x)
    exp = np.floor(np.log10(np.where(mag > 0, mag, 1.0))).astype(np.int64)
    mant = np.rint(mag / 10.0**exp * 1e15).astype(np.int64)
    carry = mant >= 10**16
    mant[carry] //= 10
    exp[carry] += 1
    if np.any(np.abs(exp) > 99):
        raise ValueError("sample magnitude outside the two-digit exponent range")
    hi, lo = np.divmod(mant, 10**8)
    lead = digits4[hi // 10**4]
    cell = np.empty(x.shape + (23,), dtype=np.uint8)
    cell[..., 0] = np.where(x < 0, ord("-"), ord("+"))
    cell[..., 1] = lead[..., 0]
    cell[..., 2] = ord(".")
    cell[..., 3:6] = lead[..., 1:]
    cell[..., 6:10] = digits4[hi % 10**4]
    cell[..., 10:14] = digits4[lo // 10**4]
    cell[..., 14:18] = digits4[lo % 10**4]
    cell[..., 18] = ord("e")
    cell[..., 19] = np.where(exp < 0, ord("-"), ord("+"))
    cell[..., 20:22] = digits4[np.abs(exp)][..., 2:]
    cell[..., 22] = ord(",")
    cell[:, -1, 22] = ord("\n")
    return cell.tobytes()


def write_cohort(w: Workload, seed: int, in_dir: Path) -> None:
    """Two-class tone-in-noise subjects (even index Control, odd PD) + manifest."""
    import numpy as np

    rng = np.random.default_rng([seed, 0])
    n = w.epochs_per_subject * w.epoch_len
    t = np.arange(n) / w.fs
    channels = [f"C{i:02d}" for i in range(w.channels)]
    header = (",".join(channels) + "\n").encode()
    subjects = []
    for i in range(w.subjects):
        label = i % 2
        phases = rng.uniform(0.0, 2.0 * np.pi, size=w.channels)
        x = np.sin(2.0 * np.pi * TONES_HZ[label] * t[None, :] + phases[:, None])
        x += NOISE_STD * rng.standard_normal((w.channels, n))
        name = f"S{i:03d}.csv"
        (in_dir / name).write_bytes(header + csv_body(x))
        subjects.append({"id": f"S{i:03d}", "file": name, "label": ("Control", "PD")[label]})
    manifest = {"fs": w.fs, "channels": channels, "subjects": subjects}
    (in_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))


def write_checkpoint(w: Workload, seed: int, in_dir: Path) -> None:
    """A checkpoint in the documented eegcnn byte layout (format_version 1)."""
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    o, c, k = w.out_channels, w.channels, w.kernel
    s_conv, s_fc = (c * k) ** -0.5, o**-0.5
    arrays = (
        rng.uniform(-s_conv, s_conv, size=(o, c, k)),
        rng.uniform(-0.1, 0.1, size=o),
        rng.uniform(-s_fc, s_fc, size=(2, o)),
        np.zeros(2),
    )
    header = {
        "config": {"classes": 2, "in_channels": c, "kernel": k, "out_channels": o},
        "format_version": 1,
        "seed": seed,
    }
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    (in_dir / "checkpoint.bin").write_bytes(json.dumps(header).encode() + b"\n" + body)


def write_inputs(w: Workload, seed: int, in_dir: Path) -> None:
    in_dir.mkdir(parents=True, exist_ok=True)
    if w.subjects:
        write_cohort(w, seed, in_dir)
    else:
        write_checkpoint(w, seed, in_dir)


# -- stages ----------------------------------------------------------------------


def stage_argv(w: Workload, stage: str, seed: int, in_dir: Path, chain_dir: Path) -> list[str]:
    out = str(chain_dir / stage)
    split = str(chain_dir / "prepare")
    model = ["--in-channels", str(w.channels), "--out-channels", str(w.out_channels),
             "--kernel", str(w.kernel)]
    if stage == "prepare":
        return ["prepare", "--manifest", str(in_dir / "manifest.json"), "--out", out,
                "--seed", str(seed)]
    if stage == "train":
        return ["train", "--split", split, "--out", out, "--seed", str(seed),
                "--epochs", str(w.train_epochs), *model]
    if stage == "evaluate":
        return ["evaluate", "--checkpoint", str(chain_dir / "train" / "checkpoint.bin"),
                "--split", split, "--out", out]
    if stage == "sweep":
        return ["sweep", "--split", split, "--out", out, "--seed", str(seed),
                "--epochs", str(w.train_epochs), "--sweep-parameter", "kernel_size",
                "--sweep-values", ",".join(map(str, w.sweep_kernels)), *model]
    raise ValueError(f"unknown CLI stage {stage!r}")


def run_psd(cli, w: Workload, seed: int, in_dir: Path, chain_dir: Path) -> dict:
    """`eegcnn psd --split <prepare>` up to its CSV write: the group PSD of
    every epoch of the split, as the columns group_psd.csv would hold."""
    import eegcnn.experiments as exp

    split, fs = cli._read_split(chain_dir / "prepare")  # the reader `eegcnn psd` uses
    gp = exp.group_psd(split.train + split.validation + split.test, fs)
    results = {"freq": gp.freqs}
    for lb in sorted(gp.mean):
        results[f"mean_{lb}"], results[f"sem_{lb}"] = gp.mean[lb], gp.sem[lb]
    return results


def run_probe(cli, w: Workload, seed: int, in_dir: Path, chain_dir: Path) -> dict:
    """`eegcnn probe --checkpoint <inputs> --seed --fs --epoch-len --repeats-*`
    with its sensitivity.csv, up to its filter-response CSV write: the
    per-filter response that the filter_response_chNN.csv files would hold."""
    import eegcnn.checkpoint as ckpt
    import eegcnn.interpret as itp

    params, _ = ckpt.load_checkpoint(in_dir / "checkpoint.bin")
    out = chain_dir / "probe"
    out.mkdir(parents=True, exist_ok=True)
    spec = itp.ProbeSpec(fs=w.fs, epoch_len=w.epoch_len, channels=params.config.in_channels,
                         repeats_sine=w.repeats_sine, repeats_noise=w.repeats_noise, seed=seed)
    itp.pooling_sensitivity(params, spec).to_csv(out / "sensitivity.csv")
    resp = itp.conv_filter_response(params, spec)
    return {"response_freq": resp.freqs, "response_power": resp.power}


# Stages run as the library calls their CLI commands make, without the
# commands' CSV writers: with numpy 2, `eegcnn psd` writes `group_psd.csv` and
# `eegcnn probe` writes `filter_response_chNN.csv` with cells such as
# `np.float64(0.5)`, which no CSV reader parses. The results those writers
# would format are checked in memory instead (see bench/README.md).
LIBRARY_STAGES = {"psd": run_psd, "probe": run_probe}


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """Header and rows of a numeric CSV; an empty cell reads as NaN, any other
    cell that ``float`` rejects fails the check."""
    lines = path.read_text().splitlines()
    if not lines:
        raise CheckError(f"{path.name}: empty")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell) if cell else float("nan"))
            except ValueError:
                raise CheckError(f"{path.name}: unparseable cell {cell!r} in row {i}") from None
        rows.append(row)
    return lines[0].split(","), rows


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _finite_nonneg(rows, skip_cols: int, what: str) -> None:
    for row in rows:
        for v in row[skip_cols:]:
            _require(v == v and v >= 0.0 and v != float("inf"), f"{what}: bad value {v!r}")


def _check_array(results: dict, key: str, shape: tuple[int, ...], what: str) -> None:
    """A float64 result of ``shape`` whose values are finite and non-negative."""
    import numpy as np

    a = np.asarray(results[key])
    _require(a.dtype == np.float64 and a.shape == shape, f"{what} {key}: {a.dtype} {a.shape}")
    _require(bool(np.all(np.isfinite(a)) and np.all(a >= 0.0)), f"{what} {key}: bad values")


def _check_freq_grid(results: dict, key: str, w: Workload, what: str) -> None:
    """1 Hz bins from 0 to fs/2 (1 s Welch windows, and the probe grid)."""
    import numpy as np

    n_freqs = int(w.fs) // 2 + 1
    _check_array(results, key, (n_freqs,), what)
    _require(bool(np.array_equal(results[key], np.arange(n_freqs, dtype=np.float64))),
             f"{what} {key}: not the 1 Hz grid from 0 to fs/2")


def check_stage(w: Workload, stage: str, chain_dir: Path, results: dict) -> dict:
    """Parse and validate one stage's artifacts and, for a library stage, its
    in-memory results; return facts worth reporting."""
    import numpy as np

    out = chain_dir / stage
    n_freqs = int(w.fs) // 2 + 1  # 1 Hz bins from 0 to fs/2 (1 s Welch windows, probe grid)
    if stage == "prepare":
        index = json.loads((out / "split.json").read_text())
        assignment = index["subject_assignment"]
        _require(len(assignment) == w.subjects, "split.json: not every subject assigned")
        total = 0
        for part in ("train", "validation", "test"):
            entries = index["partitions"][part]
            data = np.load(out / f"{part}_data.npy")
            _require(data.shape == (len(entries), w.channels, w.epoch_len),
                     f"{part}_data.npy: shape {data.shape}")
            _require(bool(np.all(np.isfinite(data))), f"{part}_data.npy: non-finite values")
            _require(all(assignment[e["subject_id"]] == part for e in entries),
                     f"split.json: {part} holds epochs of subjects assigned elsewhere")
            total += len(entries)
        _require(total == w.subjects * w.epochs_per_subject, f"split holds {total} epochs")
        return {"test_epochs": len(index["partitions"]["test"])}
    if stage == "train":
        history = json.loads((out / "history.json").read_text())
        _require(len(history["epochs"]) == w.train_epochs, "history.json: wrong epoch count")
        _require(0 <= history["best_epoch"] < w.train_epochs, "history.json: bad best_epoch")
        blob = (out / "checkpoint.bin").read_bytes()
        nl = blob.index(b"\n")
        cfg = json.loads(blob[:nl])["config"]
        _require((cfg["in_channels"], cfg["out_channels"], cfg["kernel"])
                 == (w.channels, w.out_channels, w.kernel), f"checkpoint.bin: config {cfg}")
        o, c, k = w.out_channels, w.channels, w.kernel
        n_params = o * c * k + o + 2 * o + 2
        _require(len(blob) - nl - 1 == 8 * n_params, "checkpoint.bin: payload size")
        params = np.frombuffer(blob[nl + 1:], dtype="<f8")
        _require(bool(np.all(np.isfinite(params))), "checkpoint.bin: non-finite parameters")
        return {"best_epoch": history["best_epoch"]}
    if stage == "evaluate":
        report = json.loads((out / "metrics.json").read_text())
        test_epochs = len(json.loads((chain_dir / "prepare" / "split.json").read_text())
                          ["partitions"]["test"])
        _require(report["n_epochs"] == test_epochs, "metrics.json: n_epochs")
        _require(sum(report["confusion"].values()) == test_epochs, "metrics.json: confusion")
        for key in ("precision", "recall", "f1", "accuracy"):
            _require(0.0 <= report[key] <= 1.0, f"metrics.json: {key} {report[key]}")
        _require(report["auc"] is None or 0.0 <= report["auc"] <= 1.0, "metrics.json: auc")
        header, rows = read_csv(out / "metrics.csv")
        _require(header == ["precision", "recall", "f1", "auc", "accuracy"] and len(rows) == 1,
                 "metrics.csv: layout")
        return {key: report[key] for key in ("accuracy", "auc", "degenerate")}
    if stage == "psd":
        _require(list(results) == ["freq", "mean_0", "sem_0", "mean_1", "sem_1"],
                 f"group PSD columns {list(results)}")
        _check_freq_grid(results, "freq", w, "group PSD")
        for key in ("mean_0", "sem_0", "mean_1", "sem_1"):
            _check_array(results, key, (n_freqs,), "group PSD")
        return {}
    if stage == "sweep":
        header, rows = read_csv(out / "ablation.csv")
        _require(header[0] == "value", "ablation.csv: header")
        _require([int(r[0]) for r in rows] == list(w.sweep_kernels),
                 "ablation.csv: a sweep value is missing")
        return {}
    if stage == "probe":
        header, rows = read_csv(out / "sensitivity.csv")
        _require(len(rows) == w.out_channels and len(header) == 1 + n_freqs,
                 "sensitivity.csv: layout")
        _finite_nonneg(rows, 1, "sensitivity.csv")
        _require(header[1:] == [f"{f:g}" for f in range(n_freqs)],
                 "sensitivity.csv: not the 1 Hz grid from 0 to fs/2")
        _check_freq_grid(results, "response_freq", w, "filter response")
        _check_array(results, "response_power", (w.out_channels, n_freqs), "filter response")
        return {}
    raise ValueError(f"unknown stage {stage!r}")


def digests(directory: Path, results: dict) -> dict[str, str]:
    """sha256 of every file under ``directory`` and of every in-memory result
    (its little-endian float64 bytes)."""
    import numpy as np

    sums = {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    } if directory.is_dir() else {}
    for key, a in results.items():
        data = np.ascontiguousarray(a, dtype="<f8").tobytes()
        sums[f"{key} (in memory)"] = hashlib.sha256(data).hexdigest()
    return sums


def reference_path(w: Workload, seed: int, name: str) -> Path:
    """Where the sha256 reference of one workload and seed is kept. The key
    hashes the source tree under src/, the workload shape, the seed and the
    thread settings, so a run compares against an earlier run only when all
    of them are the same."""
    h = hashlib.sha256(b"reference format 2\0")
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    h.update(json.dumps([asdict(w), seed, {v: os.environ.get(v) for v in THREAD_VARS}],
                        sort_keys=True).encode())
    return OUT_DIR / "reference" / f"{name}-seed{seed}-{h.hexdigest()[:16]}.json"


class Runner:
    """Runs stage chains of one workload and checks every stage's outputs.

    A stage's artifacts must be byte-identical to its reference: the first
    passing chain of the first run with the same reference key, kept as
    sha256 digests in ``ref_path`` across runs."""

    def __init__(self, cli, w: Workload, seed: int, work: Path, ref_path: Path,
                 tracer=None, label="chain"):
        self.cli, self.w, self.seed, self.work = cli, w, seed, work
        self.tracer, self.label, self.ref_path = tracer, label, ref_path
        self.in_dir = work / "inputs"
        self.reference: dict[str, dict[str, str]] = (
            json.loads(ref_path.read_text()) if ref_path.is_file() else {})
        self._stored = set(self.reference)
        self.attempted = 0
        self.failures: list[str] = []
        self.facts: dict[str, dict] = {}
        self._chains = 0

    def run_stage(self, stage: str, chain_dir: Path, traced: bool) -> float:
        if stage in LIBRARY_STAGES:
            fn = LIBRARY_STAGES[stage]
            args = (self.cli, self.w, self.seed, self.in_dir, chain_dir)
        else:
            fn, args = self.cli.main, (stage_argv(self.w, stage, self.seed, self.in_dir, chain_dir),)
        out, err = io.StringIO(), io.StringIO()
        code, results = None, {}
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if traced:
                    returned = self.tracer.call(f"stage.{stage}", fn, *args)
                else:
                    returned = fn(*args)
            code, results = (0, returned) if stage in LIBRARY_STAGES else (returned, {})
        except SystemExit as exc:
            code = exc.code
        except Exception:  # keep benchmarking; the traceback is the failure record
            err.write(traceback.format_exc())
        wall = perf_counter() - t0
        self.attempted += 1
        try:
            _require(code == 0, f"exit code {code}: {err.getvalue().strip()[-500:]}")
            facts = check_stage(self.w, stage, chain_dir, results)
            self.facts.setdefault(stage, facts)
            sums = digests(chain_dir / stage, results)
            ref = self.reference.setdefault(stage, sums)
            where = "an earlier run" if stage in self._stored else "the first chain"
            _require(sums == ref, f"artifact sha256 differs from {where}: " + ", ".join(
                sorted(k for k in sums.keys() | ref.keys() if sums.get(k) != ref.get(k))))
        except (CheckError, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            self.failures.append(
                f"{self.label} {self._chains} {stage}: {type(exc).__name__}: {exc}")
        return wall

    def save_reference(self) -> None:
        """Keep the digests of stages that had no stored reference yet."""
        if set(self.reference) != self._stored:
            self.ref_path.parent.mkdir(parents=True, exist_ok=True)
            self.ref_path.write_text(json.dumps(self.reference, indent=1, sort_keys=True))

    def run_chain(self, traced: bool = False, probes: list | None = None) -> dict[str, float]:
        """Run the workload's stages once and return their wall times; with
        ``probes``, time the host probes before each stage and after the last,
        and append the chain's list of them."""
        chain_dir = self.work / f"chain{self._chains}"
        gc.collect()
        walls = {}
        marks = []
        for stage in self.w.stages:
            if probes is not None:
                marks.append(host_probe())
            walls[stage] = self.run_stage(stage, chain_dir, traced)
        if probes is not None:
            marks.append(host_probe())
            probes.append(marks)
        shutil.rmtree(chain_dir, ignore_errors=True)
        self._chains += 1
        return walls


# -- metrics --------------------------------------------------------------------


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(timing, counters, tracing) -> dict[str, float]:
    """Per-layer figures of one traced chain from its ``self_times`` result."""
    self_s, calls, inclusive, _ = timing
    m: dict[str, float] = {}
    for layer, names in tracing.TRACED.items():
        for fn in names:
            m[f"{layer}.{fn}.self_s"] = self_s.get(f"{layer}.{fn}", 0.0)
    for stage in STAGES:
        m[f"stage.{stage}.self_s"] = self_s.get(f"stage.{stage}", 0.0)
    for name in tracing.COUNTERS:
        m[name] = float(counters.get(name, 0))
    m["train.adam_step.calls"] = float(calls.get("train.adam_step", 0))
    model_s = sum(v for k, v in self_s.items() if k.startswith("model."))
    flops, im2col = m["model.conv.flops"], m["model.im2col.bytes"]
    m["model.conv.flop_per_byte"] = flops / im2col if im2col else 0.0
    m["model.conv.gflop_per_s"] = flops / model_s / 1e9 if model_s else 0.0
    csv_s = inclusive.get("data.load_subject_csv", 0.0)
    m["data.csv_mb_per_s"] = m["data.csv_bytes"] / 1e6 / csv_s if csv_s else 0.0
    return m


# -- main -----------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny shapes, for bench/smoke.py")
    return p.parse_args(argv)


@functools.cache
def _probe_operands():
    import numpy as np

    rng = np.random.default_rng(0)
    text = "a,b,c,d,e,f,g,h\n" + csv_body(rng.standard_normal((8, 3000))).decode()
    return rng.standard_normal((59, 649)), rng.standard_normal((649, 2500)), text


def host_probe() -> dict[str, float]:
    """Seconds of two fixed pieces of work that no change to eegcnn moves, so
    their drift within and across runs is the host's own: ``compute``, a
    pure-Python loop and a paper-shape GEMM, and ``csv``, a 3000-row,
    8-column text parsed with ``csv.reader`` and ``float`` into an array."""
    import numpy as np

    a, b, text = _probe_operands()
    times = {"compute": [], "csv": []}
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        acc = 0.0
        for i in range(100_000):
            acc += i * 1.0000001
        a @ b
        t1 = perf_counter()
        reader = csv.reader(io.StringIO(text))
        next(reader)
        np.asarray([[float(cell) for cell in row] for row in reader])
        times["compute"].append(t1 - t0)
        times["csv"].append(perf_counter() - t1)
    return {kind: statistics.median(t) for kind, t in times.items()}


def scaled_stage_times(w: Workload, untraced: list[dict], probes: list[list]) -> dict:
    """Per stage, the median over chains of its wall time x the reference
    probe time / the mean of the probes of its kind just before and just
    after it."""
    scaled = {}
    for i, stage in enumerate(w.stages):
        kind = PROBE_KIND.get(stage, "compute")
        scaled[stage] = statistics.median(
            walls[stage] * HOST_PROBE_REF_S[kind] / ((marks[i][kind] + marks[i + 1][kind]) / 2)
            for walls, marks in zip(untraced, probes))
    return scaled


def measure(runner: Runner, tracer, seconds: float, tracing) -> dict:
    """Run chains until the next one is predicted to end after ``seconds``,
    timing the host probes around each untraced stage. With a tracer, traced
    and untraced chains alternate, and each traced stage's self-time sum is
    compared with the wall time ``run_stage`` measured around the same call."""
    untraced: list[dict[str, float]] = []
    probes: list[list[dict]] = []
    traced: list[dict[str, float]] = []
    layers: list[dict[str, float]] = []
    spans_kept: list[list] = []
    self_gaps: dict[str, float] = {}
    t_start = perf_counter()
    while True:
        chains = untraced + traced
        per_chain = statistics.median(sum(c.values()) for c in chains) if chains else 0.0
        enough = len(untraced) >= MIN_CHAINS and (tracer is None or len(traced) >= MIN_CHAINS)
        if enough and perf_counter() - t_start + per_chain > seconds:
            break
        if tracer is not None and len(traced) < len(untraced):
            tracer.install()
            try:
                walls = runner.run_chain(traced=True)
            finally:
                tracer.uninstall()
            traced.append(walls)
            spans, counters = tracer.take()
            timing = tracing.self_times(spans)
            layers.append(layer_metrics(timing, counters, tracing))
            for stage, wall in walls.items():
                gap = abs(timing[3].get(f"stage.{stage}", 0.0) - wall)
                if gap > SELF_TIME_TOLERANCE_S + SELF_TIME_TOLERANCE * wall:
                    self_gaps[stage] = max(self_gaps.get(stage, 0.0), gap)
            spans_kept = spans_kept or spans
        else:
            untraced.append(runner.run_chain(probes=probes))
    return {"untraced": untraced, "traced": traced, "layers": layers, "probes": probes,
            "spans": spans_kept, "self_gaps": self_gaps}


def trace_flags(tracer, layers: list[dict], self_gaps: dict[str, float], tracing) -> list[str]:
    """Problems of the traced run: counts that did not repeat, stage self-time
    sums that miss the stage wall time, counting hooks that failed."""
    flags = []
    for key in tracing.REPEATING:
        seen = {m[key] for m in layers}
        if len(seen) > 1:
            flags.append(f"{key} differs between chains of one seed: {sorted(seen)}")
    for stage, gap in sorted(self_gaps.items()):
        flags.append(f"{stage}: self times sum to {gap:.3g} s off the stage wall time")
    return flags + [f"hook failed: {name}" for name in sorted(tracer.hook_errors)]


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    t_import = perf_counter()
    cli = import_program()
    import_s = perf_counter() - t_import
    import tracing  # bench/tracing.py; reaches eegcnn modules through sys.modules

    w = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    host = host_record(args.seed)
    print("host " + json.dumps(host, sort_keys=True))
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    name = args.workload + ("-smoke" if args.smoke else "")
    runner = Runner(cli, w, args.seed, work, reference_path(w, args.seed, name), tracer)
    # One set-up writes the inputs and runs the chain once at the tiny shapes,
    # which warms lazy imports and BLAS threads.
    warm_w = SMOKE_WORKLOADS[args.workload]
    warm = Runner(cli, warm_w, args.seed, work / "warmup",
                  reference_path(warm_w, args.seed, f"{args.workload}-warm-up"),
                  label="warm-up chain")
    try:
        setup_times, setup_probes = [], [host_probe()["compute"]]
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            write_inputs(w, args.seed, runner.in_dir)
            write_inputs(warm.w, args.seed, warm.in_dir)
            warm.run_chain()
            setup_times.append(perf_counter() - t0)
            setup_probes.append(host_probe()["compute"])
        measured = measure(runner, tracer, args.seconds, tracing)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        warm.save_reference()
        runner.save_reference()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced, traced = measured["untraced"], measured["traced"]
    stage_stats = {stage: quartiles([c[stage] for c in untraced]) for stage in w.stages}
    # The host's own speed drifts up to twofold for minutes at a time (see
    # bench/README.md), so stage times are scaled to the reference host by
    # the host probes around them.
    scaled = scaled_stage_times(w, untraced, measured["probes"])
    if tracer is None:
        flags = []
        values = {
            "pipeline_s": sum(scaled.values()),
            "model_stages_s": sum(v for s, v in scaled.items() if s in MODEL_STAGES),
            # each set-up scaled by the probes just before and after it
            "setup_s": HOST_PROBE_REF_S["compute"] * (
                import_s / setup_probes[0] + statistics.median(
                    t / ((a + b) / 2)
                    for t, a, b in zip(setup_times, setup_probes, setup_probes[1:]))),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        flags = trace_flags(tracer, measured["layers"], measured["self_gaps"], tracing)
        values = {k: statistics.median(m[k] for m in measured["layers"]) for k in measured["layers"][0]}
        for stage in STAGES:
            values[f"stage.{stage}.wall_s"] = stage_stats[stage]["median"] if stage in w.stages else 0.0
        values["trace.overhead_s"] = (
            statistics.median(sum(c.values()) for c in traced)
            - statistics.median(sum(c.values()) for c in untraced))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: metric(values[m["name"]], m["unit"])
        for m in declared["per_layer" if tracer else "end_to_end"]
    }
    failures = warm.failures + runner.failures + flags
    record = {
        "workload": args.workload,
        "smoke": args.smoke,
        "trace": args.trace,
        "host": host,
        "config": asdict(w),
        "setup": {"import_s": import_s, "repeats_s": setup_times, "probes_s": setup_probes},
        "chains_untraced": untraced,
        "chains_traced": traced,
        "stages": stage_stats,
        "facts": runner.facts,
        "failures": failures,
        "stages_scaled_s": scaled,
        "host_probes_s": measured["probes"],
        "host_probe_s": {kind: quartiles([m[kind] for marks in measured["probes"] for m in marks])
                         for kind in HOST_PROBE_REF_S},
        "absent": tracer.absent if tracer else [],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        with (OUT_DIR / f"{stem}-spans.jsonl").open("w") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in measured["spans"])

    print_report(record, len(traced))
    result = {
        "correct": not failures,
        "attempted": warm.attempted + runner.attempted,
        "failed": len(warm.failures) + len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def print_report(record: dict, n_traced: int) -> None:
    print(f"workload {record['workload']} seed {record['host']['seed']}: "
          f"{len(record['chains_untraced'])} untraced + {n_traced} traced chains "
          f"after {SETUP_REPEATS} set-ups")
    scaled = record["stages_scaled_s"]
    for stage, st in record["stages"].items():
        print(f"  {stage + '_s':<12} median {st['median']:.4f} s  q1 {st['q1']:.4f}  "
              f"q3 {st['q3']:.4f}  n {st['n']}  "
              f"scaled to the reference host {scaled[stage]:.4f} s")
    for stage, facts in record["facts"].items():
        if facts:
            print(f"  {stage} reports {json.dumps(facts, sort_keys=True)}")
    for line in record["failures"]:
        print(f"  FAIL {line}")
    for kind, hp in record["host_probe_s"].items():
        print(f"  {kind} probe  median {hp['median'] * 1e3:.2f} ms  q1 {hp['q1'] * 1e3:.2f}  "
              f"q3 {hp['q3'] * 1e3:.2f}  n {hp['n']}")
    if record["absent"]:
        print(f"  absent (reported as 0): {', '.join(record['absent'])}")
    for name, m in record["metrics"].items():
        print(f"  {name:<38} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
