"""Subject CSV loading, epoch segmentation and subject-level dataset splits."""

from __future__ import annotations

import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Positive class is PD throughout the package.
LABEL_CODES = {"Control": 0, "PD": 1}


class ManifestError(ValueError):
    """Malformed or inconsistent dataset manifest."""


class CsvFormatError(ValueError):
    """Malformed subject CSV; message carries the offending row/column."""


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


@dataclass(frozen=True)
class DatasetSplit:
    train: list[Epoch]
    validation: list[Epoch]
    test: list[Epoch]
    seed: int
    subject_assignment: dict[str, str] = field(default_factory=dict)

    def partition(self, name: str) -> list[Epoch]:
        return {"train": self.train, "validation": self.validation, "test": self.test}[name]


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
    "channels": (lambda v: isinstance(v, list) and all(map(is_str, v)), "a list of strings"),
    "subjects": (lambda v: isinstance(v, list), "a list of objects"),
}
_SUBJECT_VALUES = {
    "id": (is_str, "a string"),
    "file": (is_str, "a string"),
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
    """Load one subject CSV (header row of channel names, one row per time sample).

    The data rows go through numpy's C reader when its result is the one the
    row-by-row ``float()`` scan gives: one row per line and no byte the two
    parsers read differently. Anything else (blank lines, ragged rows, bad or
    underscored cells, quoted line breaks) takes the scan, which names the
    offending row, column and channel.
    """
    path = Path(path)
    with path.open(newline="") as fh:
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
        samples = _loadtxt_body(path, n_channels) if reader.line_num == 1 else None
        if samples is None:
            samples = _scan_body(path, reader, header)
    return SubjectRecording(
        subject_id=entry.subject_id, label=entry.label, fs=manifest.fs, samples=samples
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
    """Data rows as [channels, time] from ``np.loadtxt``, or None unless it
    returned exactly one row of ``n_channels`` values per line. ``loadtxt``
    skips blank lines, which the scan rejects, so rows are counted against the
    file's lines. Both parsers round correctly, so the values are the scan's."""
    n_lines = _count_body_lines(path)
    if not n_lines:
        return None
    try:
        with path.open() as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(
                fh, delimiter=",", skiprows=1, comments=None, quotechar='"',
                dtype=np.float64, ndmin=2,
            )
    except ValueError:
        return None
    if values.shape != (n_lines, n_channels):
        return None
    return values.T


def _scan_body(path: Path, reader, header: list[str]) -> np.ndarray:
    """Data rows as [channels, time], parsed cell by cell with ``float()``."""
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
    return np.asarray(rows, dtype=np.float64).T  # [channels, time]


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
    write_csv(path, channel_names, rec.samples.T.tolist())


def epoch_length(epoch_seconds: float, fs: float) -> int:
    """Samples per epoch; epoch_seconds * fs must be a positive integer."""
    n_float = epoch_seconds * fs
    epoch_len = int(round(n_float)) if math.isfinite(n_float) else 0
    if epoch_len <= 0 or abs(n_float - epoch_len) > 1e-9:
        raise ValueError(
            f"epoch_seconds * fs must be a positive integer, got {epoch_seconds} * {fs}"
        )
    return epoch_len


def check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def epoch_recording(rec: SubjectRecording, epoch_seconds: float = 5.0) -> list[Epoch]:
    """Segment a recording into non-overlapping epochs; trailing remainder is dropped."""
    epoch_len = epoch_length(epoch_seconds, rec.fs)
    n_epochs = rec.n_samples // epoch_len
    return [
        Epoch(
            data=rec.samples[:, i * epoch_len : (i + 1) * epoch_len].copy(),
            label=rec.label,
            subject_id=rec.subject_id,
            epoch_index=i,
        )
        for i in range(n_epochs)
    ]


def split_dataset(
    subjects: list[SubjectRecording], seed: int = 0, epoch_seconds: float = 5.0
) -> DatasetSplit:
    """Subject-level 60/20/20 train/validation/test split.

    Subjects are sorted by id before the seeded shuffle so the split does not
    depend on manifest order. Train and validation sizes use round(); the
    remainder goes to test. A split that leaves a partition without subjects
    or without epochs is rejected.
    """
    check_seed(seed)
    ordered = sorted(subjects, key=lambda s: s.subject_id)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ordered))
    shuffled = [ordered[i] for i in perm]

    n = len(shuffled)
    n_train = round(0.6 * n)
    n_val = round(0.2 * n)
    groups = {
        "train": shuffled[:n_train],
        "validation": shuffled[n_train : n_train + n_val],
        "test": shuffled[n_train + n_val :],
    }
    if not all(groups.values()):
        sizes = "/".join(str(len(subs)) for subs in groups.values())
        raise ValueError(
            f"split of {n} subjects leaves a partition empty: "
            f"train/validation/test = {sizes} subjects"
        )
    assignment = {}
    parts: dict[str, list[Epoch]] = {}
    for name, subs in groups.items():
        parts[name] = []
        for sub in subs:
            assignment[sub.subject_id] = name
            parts[name].extend(epoch_recording(sub, epoch_seconds))
    empty = [name for name, eps in parts.items() if not eps]
    if empty:
        shortest = min(ordered, key=lambda s: s.n_samples)
        raise ValueError(
            f"epoch_seconds {epoch_seconds:g} leaves the {'/'.join(empty)} partition(s) "
            f"without epochs; the shortest recording, {shortest.subject_id}, is "
            f"{shortest.n_samples / shortest.fs:g} s"
        )
    return DatasetSplit(
        train=parts["train"],
        validation=parts["validation"],
        test=parts["test"],
        seed=seed,
        subject_assignment=assignment,
    )
