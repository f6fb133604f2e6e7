"""Subject CSV loading, epoch segmentation, subject-level dataset splits, the
split directory (``split.json`` plus one ``.npy`` stack per partition) that
``save_split`` writes and ``load_split`` reads, and ``staged_output``, which
moves a command's finished files into its output directory."""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import sys
import tempfile
import tokenize
import warnings
import weakref
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Positive class is PD throughout the package.
LABEL_CODES = {"Control": 0, "PD": 1}


class EegcnnError(ValueError):
    """An error that ``eegcnn`` reports in one line and exits with ``exit_code``."""
    exit_code = 2


class ConfigError(EegcnnError):
    """A setting that cannot work; the message names it."""


class ManifestError(EegcnnError):
    """Malformed or inconsistent dataset manifest."""


class CsvFormatError(EegcnnError):
    """Malformed subject CSV; message carries the offending row/column."""
    exit_code = 3


class SplitError(EegcnnError):
    """Malformed or inconsistent split directory."""
    exit_code = 3


class CheckpointError(EegcnnError):
    """Unreadable or inconsistent checkpoint file."""
    exit_code = 3


class TrainingDivergedError(EegcnnError):
    """A non-finite filter output, loss, gradient, logit or probe map, or an empty sweep."""
    exit_code = 4


@dataclass(frozen=True)
class ManifestEntry:
    subject_id: str
    file: str
    label: int


@dataclass(frozen=True)
class Manifest:
    entries: list[ManifestEntry]
    fs: float
    channel_names: list[str]

    def __post_init__(self):
        ids = [e.subject_id for e in self.entries]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ManifestError(f"duplicate subject ids in manifest: {dupes}")
        if self.fs <= 0:
            raise ManifestError(f"sampling rate must be positive, got {self.fs}")


@dataclass(frozen=True)
class SubjectRecording:
    subject_id: str
    label: int
    fs: float
    samples: np.ndarray  # [channels, time], microvolts

    def __post_init__(self):
        if self.samples.ndim != 2:
            raise ValueError(f"samples must be 2D [channels, time], got ndim={self.samples.ndim}")
        if self.samples.shape[0] < 1:
            raise ValueError("recording needs at least one channel")
        if self.fs <= 0:
            raise ValueError(f"sampling rate must be positive, got {self.fs}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError(f"non-finite sample values in subject {self.subject_id}")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class Epoch:
    data: np.ndarray  # [channels, epoch_len]
    label: int
    subject_id: str
    epoch_index: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.data)):
            raise ValueError(f"non-finite values in epoch {self.epoch_index} of {self.subject_id}")


PARTITIONS = ("train", "validation", "test")
SPLIT_INDEX = "split.json"
# the files of a split directory: its index and one stack per partition
SPLIT_FILES = (SPLIT_INDEX, *(f"{name}_data.npy" for name in PARTITIONS))


@dataclass(frozen=True)
class DatasetSplit:
    """Three partitions of epochs. ``split_dataset`` gives lists of epochs
    held in memory; ``load_split`` gives ``StoredEpochs``, read from their
    files one epoch at a time. ``train``, ``evaluate``, ``run_sweep`` and
    ``group_psd`` take either and make at most one pass over a partition per
    use, so on a loaded split a process holds one epoch per read, plus the
    model's working set, never a partition."""
    train: Sequence[Epoch]
    validation: Sequence[Epoch]
    test: Sequence[Epoch]
    seed: int
    subject_assignment: dict[str, str] = field(default_factory=dict)

    def partition(self, name: str) -> Sequence[Epoch]:
        return getattr(self, name)


class _OpenFile:
    """A file opened for reading, closed with the last reference to this object."""

    def __init__(self, path: Path):
        self.path, self.raw = path, open(path, "rb", buffering=0)  # an OSError names the path
        weakref.finalize(self, self.raw.close)


class StoredEpochs(Sequence):
    """A read-only sequence of the epochs of ``.npy`` partition files, which
    ``load_split`` opened and checked. Indexing reads that one epoch into a
    fresh array with one ``os.preadv`` at its byte offset, which moves no
    shared offset, so forked processes read a file at once. A file changed
    since, so that the read comes back short or holds a non-finite value,
    raises SplitError naming it. ``a + b`` is the epochs of ``a`` and then
    those of ``b``, still unread."""

    def __init__(self, items: list[tuple[_OpenFile, int, tuple[int, int], int, str, int]]):
        self._items = items  # (file, byte offset, shape, label, subject_id, epoch_index)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i) -> Epoch | StoredEpochs:
        if isinstance(i, slice):
            return StoredEpochs(self._items[i])
        file, offset, shape, label, subject_id, epoch_index = self._items[i]
        data = np.empty(shape)
        got = os.preadv(file.raw.fileno(), [memoryview(data).cast("B")], offset)
        if got != data.nbytes:
            raise SplitError(f"{file.path}: epoch {epoch_index} of {subject_id} reads {got} of "
                             f"its {data.nbytes} bytes at offset {offset}; the file changed "
                             f"after the split was loaded")
        try:
            return Epoch(data=data, label=label, subject_id=subject_id, epoch_index=epoch_index)
        except ValueError as exc:  # a non-finite sample
            raise SplitError(f"{file.path}: {exc}") from None

    def __add__(self, other):
        if not isinstance(other, StoredEpochs):
            return NotImplemented
        return StoredEpochs(self._items + other._items)


def is_int(v) -> bool:
    """An int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    """A finite int or float that is not a bool."""
    return (is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


def is_positive(v) -> bool:
    return is_number(v) and v > 0


def is_str(v) -> bool:
    return isinstance(v, str)


def is_path(v) -> bool:
    """A string that open() takes: one the file system can encode, with no NUL."""
    try:
        return is_str(v) and b"\0" not in os.fsencode(v)
    except UnicodeEncodeError:  # JSON's "\\ud800", say
        return False


def check_object(path, obj, prefix: str, checks: dict, error: type[Exception]) -> None:
    """Raise ``error``, naming ``path`` and the key, unless ``obj`` is a dict
    that holds each key of ``checks`` (key -> (test, what the value must be))
    with a value its test accepts."""
    if not isinstance(obj, dict):
        raise error(f"{path}: '{prefix.rstrip('.') or 'top level'}' is not an object")
    for key in checks:
        if key not in obj:
            raise error(f"{path}: missing key '{prefix}{key}'")
    for key, (ok, what) in checks.items():
        if not ok(obj[key]):
            raise error(f"{path}: '{prefix}{key}' must be {what}, got {obj[key]!r}")


def parse_json(path, blob: bytes, error: type[Exception]):
    """``blob`` decoded as UTF-8 and parsed as JSON. Any failure raises
    ``error`` naming ``path``: bad UTF-8, bad JSON, nesting too deep for the
    parser, or an integer longer than Python converts (4300 digits)."""
    try:
        return json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: invalid JSON ({exc})") from exc


_MANIFEST_VALUES = {
    "fs": (is_positive, "a finite positive number"),
    # a control character in a name would not survive a CSV header unquoted
    "channels": (lambda v: isinstance(v, list) and len(v) > 0
                 and all(is_str(c) and c.isprintable() for c in v),
                 "a non-empty list of printable strings"),
    "subjects": (lambda v: isinstance(v, list), "a list of objects"),
}
_SUBJECT_VALUES = {
    "id": (is_str, "a string"),
    "file": (is_path, "a string the file system can encode, with no NUL character"),
    "label": (lambda v: is_str(v) and v in LABEL_CODES, f"one of {sorted(LABEL_CODES)}"),
}


def load_manifest(path: str | Path) -> Manifest:
    """Read a manifest; each entry's ``file`` is resolved against the
    manifest's directory (an absolute ``file`` stays as it is)."""
    path = Path(path)
    raw = parse_json(path, path.read_bytes(), ManifestError)
    check_object(path, raw, "", _MANIFEST_VALUES, ManifestError)
    for i, sub in enumerate(raw["subjects"]):
        check_object(path, sub, f"subjects[{i}].", _SUBJECT_VALUES, ManifestError)
    entries = [
        ManifestEntry(sub["id"], str(path.parent / sub["file"]), LABEL_CODES[sub["label"]])
        for sub in raw["subjects"]
    ]
    return Manifest(entries=entries, fs=float(raw["fs"]), channel_names=raw["channels"])


def load_subject_csv(path: str | Path, entry: ManifestEntry, manifest: Manifest) -> SubjectRecording:
    """Load one subject CSV (header row of channel names, one row per time
    sample), read as UTF-8; every value must be finite.

    The data rows go through numpy's C reader when its result is the one the
    row-by-row ``float()`` scan gives: one row per line and no byte the two
    parsers read differently. Anything else (blank lines, ragged rows, bad or
    underscored cells, quoted line breaks) takes the scan, which names the
    offending row, column and channel.
    """
    path = Path(path)
    try:  # text is decoded in chunks, wherever either handle reads it
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CsvFormatError(f"{path}: empty file") from None
            except csv.Error as exc:  # a cell over the field size limit, say
                raise CsvFormatError(f"{path}: header row: {exc}") from None
            n_channels = len(header)
            names = manifest.channel_names
            if n_channels != len(names):
                raise CsvFormatError(
                    f"{path}: {n_channels} channels in header, manifest declares {len(names)}"
                )
            if header != names:
                col = next(i for i, (got, want) in enumerate(zip(header, names)) if got != want)
                raise CsvFormatError(f"{path}: header column {col} is {header[col]!r}, "
                                     f"the manifest's channel {col} is {names[col]!r}")
            rows = _loadtxt_body(path, n_channels) if reader.line_num == 1 else None
            if rows is None:
                rows = _scan_body(path, reader, header)
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    bad = ~np.isfinite(rows)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise CsvFormatError(f"{path}: non-finite value {float(rows[row, col])!r} at row "
                             f"{row + 1}, column {col} ({header[col]})")
    return SubjectRecording(
        subject_id=entry.subject_id, label=entry.label, fs=manifest.fs, samples=rows.T
    )


# numpy's float parser strips these as whitespace around a number (they are
# str.isspace()), Python's float() rejects them.
_LOADTXT_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_CHUNK_BYTES = 1 << 20


def _count_body_lines(path: Path) -> int | None:
    """Lines after the header line, ended by \\n, \\r\\n or a lone \\r as
    ``csv.reader`` splits them; None if the file holds a byte of
    ``_LOADTXT_ONLY_SPACE``. Reads the file in chunks, so it holds no copy of it."""
    lines, last = 0, b""
    with path.open("rb") as fh:
        while chunk := fh.read(_CHUNK_BYTES):
            if any(b in chunk for b in _LOADTXT_ONLY_SPACE):
                return None
            lines += chunk.count(b"\n")
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            if last == b"\r" and chunk[:1] == b"\n":
                lines -= 1  # a \r\n split between two chunks
            last = chunk[-1:]
    if last not in (b"\n", b"\r"):
        lines += 1  # last line without a line end
    return lines - 1


def _loadtxt_body(path: Path, n_channels: int) -> np.ndarray | None:
    """Data rows as [time, channels] from ``np.loadtxt``, or None unless it
    returned exactly one row of ``n_channels`` values per line. ``loadtxt``
    skips blank lines, which the scan rejects, so rows are counted against the
    file's lines. Both parsers round correctly, so the values are the scan's."""
    n_lines = _count_body_lines(path)
    if not n_lines:
        return None
    try:
        with path.open(encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(
                fh, delimiter=",", skiprows=1, comments=None, quotechar='"',
                dtype=np.float64, ndmin=2,
            )
    except ValueError:
        return None
    if values.shape != (n_lines, n_channels):
        return None
    return values


def _scan_body(path: Path, reader, header: list[str]) -> np.ndarray:
    """Data rows as [time, channels], parsed cell by cell with ``float()``."""
    n_channels = len(header)
    rows = []
    try:
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
    except csv.Error as exc:  # a cell over the field size limit, say
        raise CsvFormatError(f"{path}: row {len(rows) + 1}: {exc}") from None
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def write_csv(path: str | Path, header: list, rows) -> None:
    """A CSV file of ``header`` and then ``rows``, each line ended by ``\\n``.
    A float cell, numpy's included, is written as ``repr(float(x))``, which
    reads back to the same value, and None as an empty cell."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        # csv writes a Python float as its repr, but a numpy scalar's repr is
        # "np.float64(...)", so numpy scalars become Python ones first
        writer.writerows([x.item() if isinstance(x, np.generic) else x for x in row]
                         for row in rows)


def write_subject_csv(path: str | Path, rec: SubjectRecording, channel_names: list[str]) -> None:
    """Inverse of load_subject_csv; the values read back exactly."""
    if len(channel_names) != rec.channels:
        raise ValueError(f"{len(channel_names)} channel names for {rec.channels} channels")
    if not all(name.isprintable() for name in channel_names):
        raise ValueError(f"channel names must be printable strings, got {channel_names!r}")
    write_csv(path, channel_names, rec.samples.T.tolist())


def epoch_length(epoch_seconds: float, fs: float) -> int:
    """Samples per epoch; epoch_seconds * fs must be a positive integer."""
    n_float = epoch_seconds * fs
    epoch_len = int(round(n_float)) if math.isfinite(n_float) else 0
    if epoch_len <= 0 or abs(n_float - epoch_len) > 1e-9:
        raise ConfigError(
            f"epoch_seconds * fs must be a positive integer, got {epoch_seconds} * {fs}"
        )
    return epoch_len


def check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def epoch_recording(rec: SubjectRecording, epoch_seconds: float = 5.0) -> list[Epoch]:
    """Segment a recording into non-overlapping epochs; trailing remainder is
    dropped. Each epoch's data is a view of ``rec.samples``, not a copy."""
    epoch_len = epoch_length(epoch_seconds, rec.fs)
    n_epochs = rec.n_samples // epoch_len
    return [
        Epoch(
            data=rec.samples[:, i * epoch_len : (i + 1) * epoch_len],
            label=rec.label,
            subject_id=rec.subject_id,
            epoch_index=i,
        )
        for i in range(n_epochs)
    ]


def assign_partitions(subject_ids: Sequence[str], seed: int = 0) -> dict[str, list[int]]:
    """Subject-level 60/20/20 train/validation/test split: each partition's
    positions in ``subject_ids``, in the order its epochs are stored.

    Subjects are sorted by id before the seeded shuffle so the split does not
    depend on manifest order. Train and validation sizes use round(); the
    remainder goes to test. A split that leaves a partition without subjects
    raises ConfigError.
    """
    check_seed(seed)
    ordered = sorted(range(len(subject_ids)), key=subject_ids.__getitem__)
    perm = np.random.default_rng(seed).permutation(len(ordered))
    shuffled = [ordered[i] for i in perm]

    n = len(shuffled)
    n_train = round(0.6 * n)
    n_val = round(0.2 * n)
    bounds = (0, n_train, n_train + n_val, n)
    groups = {name: shuffled[lo:hi] for name, lo, hi in zip(PARTITIONS, bounds, bounds[1:])}
    if not all(groups.values()):
        sizes = "/".join(str(len(subs)) for subs in groups.values())
        raise ConfigError(
            f"split of {n} subjects leaves a partition empty: "
            f"train/validation/test = {sizes} subjects"
        )
    return groups


def no_epochs_error(empty: list[str], epoch_seconds: float,
                    recordings: Sequence[tuple[str, int, float]]) -> ConfigError:
    """The error for a split whose ``empty`` partitions hold no epoch, naming
    the shortest of ``recordings`` ((subject_id, samples, fs) each), the first
    by id among equals."""
    subject_id, n_samples, fs = min(recordings, key=lambda r: (r[1], r[0]))
    return ConfigError(
        f"epoch_seconds {epoch_seconds:g} leaves the {'/'.join(empty)} partition(s) "
        f"without epochs; the shortest recording, {subject_id}, is {n_samples / fs:g} s"
    )


def split_dataset(
    subjects: list[SubjectRecording], seed: int = 0, epoch_seconds: float = 5.0
) -> DatasetSplit:
    """The epochs of ``subjects`` in the partitions ``assign_partitions``
    gives their ids. A split that leaves a partition without subjects or
    without epochs is rejected.
    """
    groups = assign_partitions([s.subject_id for s in subjects], seed)
    assignment = {}
    parts: dict[str, list[Epoch]] = {}
    for name, positions in groups.items():
        parts[name] = []
        for i in positions:
            assignment[subjects[i].subject_id] = name
            parts[name].extend(epoch_recording(subjects[i], epoch_seconds))
    empty = [name for name, eps in parts.items() if not eps]
    if empty:
        raise no_epochs_error(empty, epoch_seconds,
                              [(s.subject_id, s.n_samples, s.fs) for s in subjects])
    return DatasetSplit(**parts, seed=seed, subject_assignment=assignment)


# split.json values: key -> (test, what the value must be)
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_INDEX_VALUES = {
    "seed": (is_int, "an integer"),
    "fs": (is_positive, "a positive number"),
    "subject_assignment": _OBJECT,
    "partitions": _OBJECT,
}
_PARTITION_VALUES = {name: (lambda v: isinstance(v, list), "a list") for name in PARTITIONS}
_EPOCH_VALUES = {
    "subject_id": (is_str, "a string"),
    "epoch_index": (is_int, "an integer"),
    "label": (lambda v: is_int(v) and v in (0, 1), "0 or 1"),
}


def save_split(out_dir: str | Path, split: DatasetSplit, fs: float) -> None:
    """Write ``split`` to ``out_dir``: ``split.json`` (seed, fs, subject
    assignment and each epoch's subject id, epoch index and label) and one
    ``<partition>_data.npy`` [epochs, channels, samples] stack per partition,
    the bytes ``np.save`` writes for ``np.stack`` of its epochs. Each file is
    written epoch by epoch, so no stack is ever held in memory."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_index(out_dir / SPLIT_INDEX, split.seed, fs, split.subject_assignment, {
        name: [(ep.subject_id, ep.epoch_index, ep.label) for ep in split.partition(name)]
        for name in PARTITIONS
    })
    for name in PARTITIONS:
        _save_stack(out_dir / f"{name}_data.npy", [ep.data for ep in split.partition(name)])


def write_index(path: Path, seed: int, fs: float, assignment: dict[str, str],
                partitions: dict[str, list[tuple[str, int, int]]]) -> None:
    """A split's ``split.json``: ``partitions`` gives each partition's
    (subject_id, epoch_index, label) per epoch, in stored order."""
    index = {
        "seed": seed,
        "fs": fs,
        "subject_assignment": dict(sorted(assignment.items())),
        "partitions": {
            name: [{"subject_id": subject_id, "epoch_index": epoch_index, "label": label}
                   for subject_id, epoch_index, label in partitions[name]]
            for name in PARTITIONS
        },
    }
    path.write_text(json.dumps(index, indent=2, sort_keys=True))


def write_stack_header(fh, shape: tuple[int, ...]) -> None:
    """The numpy 1.0 header that ``np.save`` writes for a C-ordered float64
    array of ``shape``; the data's C-order bytes follow it."""
    np.lib.format.write_array_header_1_0(
        fh, {"descr": "<f8", "fortran_order": False, "shape": shape})


def _save_stack(path: Path, arrays: list[np.ndarray]) -> None:
    """``np.save(path, np.stack(arrays))`` for ``arrays`` of float64 values,
    written as ``write_stack_header`` and then each array's C-order bytes. The
    shapes are checked before the file is opened, and a mismatch raises
    ``np.stack``'s ValueError, so no header misstates its data."""
    if not arrays:
        raise ValueError("need at least one array to stack")
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValueError("all input arrays must have the same shape")
    with path.open("wb") as fh:
        write_stack_header(fh, (len(arrays), *shape))
        for a in arrays:  # a view into a recording is rarely C-contiguous: one copy at a time
            fh.write(np.ascontiguousarray(a, dtype="<f8").data)


@contextmanager
def staged_output(out_dir: str | Path, own: tuple[str, ...],
                  marker: str | None = None) -> Iterator[Path]:
    """A fresh temporary directory for a command to write its files into:
    a hidden one inside ``out_dir`` when that exists, else one beside it (in
    the nearest of its ancestors that exists). When the block ends without
    an error the files move into ``out_dir``, which is made, with its
    parents, if missing, and each file of ``out_dir`` that matches a glob
    pattern of ``own`` (the command's file set) and that the block did not
    write is deleted, so ``out_dir`` holds one run's set.

    With ``marker``, the name of the set's commit marker, ``out_dir/marker``
    is deleted before any file moves in, and the new one moves in last: where
    the marker is, the whole set is. The temporary directory is removed
    however the block ends, so a block that fails leaves ``out_dir`` as it
    was. Each move is an ``os.replace`` within one file system, also where
    ``out_dir`` is a mount point, and an existing ``out_dir`` needs no write
    permission on its parent."""
    out_dir = Path(out_dir)
    if out_dir.is_dir():
        staging = Path(tempfile.mkdtemp(prefix=".staging.", dir=out_dir))
    else:
        beside = out_dir.resolve().parent  # where a symbolic link points, not where it is
        while not beside.is_dir():  # a directory made under it later is on its file system
            beside = beside.parent
        staging = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=beside))
    try:
        yield staging
        written = sorted(p.name for p in staging.iterdir())
        out_dir.mkdir(parents=True, exist_ok=True)
        if marker is not None:
            (out_dir / marker).unlink(missing_ok=True)
        for name in written:
            if name != marker:
                os.replace(staging / name, out_dir / name)
        for pattern in own:
            for stale in out_dir.glob(pattern):
                if stale.name not in written:
                    stale.unlink()
        if marker in written:
            os.replace(staging / marker, out_dir / marker)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def load_split(split_dir: str | Path) -> tuple[DatasetSplit, float]:
    """The split that ``save_split`` wrote to ``split_dir``, as ``StoredEpochs``
    that read each epoch when it is used from its partition file, opened here
    once (so a file that replaces it by name is never read), and its sampling
    rate. Each process thus holds one epoch per read, plus the model's working set.

    A malformed or inconsistent directory raises SplitError naming the file
    and the key, and so do partitions whose epochs differ in shape and a
    non-finite sample, which one pass over each file finds, reading one epoch
    at a time. So does a missing ``split.json``, the commit marker that a
    split's writer moves in last (see ``staged_output``)."""
    split_dir = Path(split_dir)
    index_path = split_dir / SPLIT_INDEX
    try:
        blob = index_path.read_bytes()
    except FileNotFoundError:
        raise SplitError(f"{index_path}: no such file, so {split_dir} holds no complete "
                         f"split") from None
    index = parse_json(index_path, blob, SplitError)
    check_object(index_path, index, "", _INDEX_VALUES, SplitError)
    check_object(index_path, index["partitions"], "partitions.", _PARTITION_VALUES, SplitError)
    assignment = index["subject_assignment"]
    for subject, name in assignment.items():
        if name not in PARTITIONS:
            raise SplitError(f"{index_path}: 'subject_assignment.{subject}' must be one of "
                             f"{', '.join(PARTITIONS)}, got {name!r}")
    parts, shapes = {}, {}
    for name in PARTITIONS:
        entries = index["partitions"][name]
        if not entries:
            raise SplitError(f"{index_path}: partition '{name}' holds no epochs")
        data_file = _OpenFile(split_dir / f"{name}_data.npy")
        offset, shape = _stack_header(data_file)
        shapes[name] = shape[1:]
        if len(entries) != shape[0]:
            raise SplitError(f"{split_dir}: {name} index/data length mismatch")
        for i, e in enumerate(entries):
            check_object(index_path, e, f"partitions.{name}[{i}].", _EPOCH_VALUES, SplitError)
            owner = assignment.get(e["subject_id"])
            if owner != name:
                raise SplitError(f"{index_path}: partitions.{name}[{i}].subject_id "
                                 f"{e['subject_id']!r} is assigned to {owner!r}")
        step = 8 * math.prod(shape[1:])
        parts[name] = StoredEpochs([
            (data_file, offset + i * step, shape[1:], e["label"], e["subject_id"],
             e["epoch_index"])
            for i, e in enumerate(entries)
        ])
        for _ in parts[name]:  # each read checks that every sample is finite
            pass
    if len(set(shapes.values())) > 1:
        raise SplitError(f"{split_dir}: the partitions' epochs differ in shape (channels, "
                         f"samples): {', '.join(f'{k} {v}' for k, v in shapes.items())}")
    split = DatasetSplit(**parts, seed=index["seed"], subject_assignment=assignment)
    return split, float(index["fs"])


def _stack_header(file: _OpenFile) -> tuple[int, tuple[int, int, int]]:
    """The byte offset of the data of one partition's .npy file and its
    [epochs, channels, samples] shape. The header must declare C-ordered
    float64 data of that many bytes, all the file holds after it, so no read
    goes past the data or misreads its order."""
    fmt, fh = np.lib.format, file.raw
    try:
        version = fmt.read_magic(fh)
        read_header = (fmt.read_array_header_1_0 if version == (1, 0)
                       else fmt.read_array_header_2_0)
        shape, fortran_order, dtype = read_header(fh)
        offset = fh.tell()
        data_bytes = os.fstat(fh.fileno()).st_size - offset
        if len(shape) != 3 or dtype != np.float64:
            raise ValueError(f"got a {len(shape)}-D {dtype} array")
        if fortran_order:
            raise ValueError("its data is in Fortran order")
        if data_bytes != 8 * math.prod(shape):
            raise ValueError(f"shape {shape} needs {8 * math.prod(shape)} bytes of data, "
                             f"the file holds {data_bytes}")
        return offset, shape
    # numpy's .npy header parser raises any of these on a damaged header
    except (ValueError, EOFError, SyntaxError, TypeError, tokenize.TokenError) as exc:
        raise SplitError(f"{file.path}: not a readable 3-D float64 array ({exc})") from None
