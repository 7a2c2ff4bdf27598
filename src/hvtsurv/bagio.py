"""Patient/WSI bag data model and on-disk formats.

A cohort on disk is a CSV manifest (one row per WSI) plus one PBAG file
per WSI. PBAG is a little-endian binary container:

    magic "PBAG" | u32 version=1 | u32 b | u32 d
    b records of (i32 x, i32 y)        patch top-left pixel coordinates
    b*d float32 features, row-major

The manifest header is ``patient_id,wsi_path,time_months,censored`` and
``wsi_path`` is resolved relative to the manifest's directory.
"""

from __future__ import annotations

import csv
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    CorruptionError,
    EmptyBagError,
    FormatError,
    InsufficientDataError,
    ResolutionError,
    ValidationError,
)
from .seeding import rng_for

PBAG_MAGIC = b"PBAG"
PBAG_VERSION = 1

# Side length of one patch in level-0 pixels; coordinates are multiples of it.
PATCH_PIXELS = 256

MANIFEST_COLUMNS = ("patient_id", "wsi_path", "time_months", "censored")


@dataclass
class PatchBag:
    """One WSI's patch features plus their integer pixel coordinates.

    ``coords`` is (b, 2) int32 with the level-0 top-left corner of each
    PATCH_PIXELS-square patch; ``features`` is (b, d) float32. Values are treated as
    immutable after construction.
    """

    wsi_id: str
    coords: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        self.coords = np.ascontiguousarray(np.asarray(self.coords, dtype=np.int32))
        self.features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float32))
        if self.features.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {self.features.shape}")
        b = self.features.shape[0]
        if b == 0:
            raise EmptyBagError(f"bag {self.wsi_id!r} has no patches")
        if self.coords.shape != (b, 2):
            raise ValidationError(
                f"coords shape {self.coords.shape} does not match {b} feature rows"
            )
        if np.any(self.coords < 0):
            raise ValidationError(f"bag {self.wsi_id!r} has negative coordinates")
        # one int64 key per (x, y) pair; both are non-negative int32s
        if np.unique(self.coords[:, 0].astype(np.int64) << 32 | self.coords[:, 1]).size != b:
            raise ValidationError(f"bag {self.wsi_id!r} has duplicate coordinate pairs")

    @property
    def n_patches(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class FollowUp:
    """Observed follow-up: time in months and right-censoring flag."""

    time_months: float
    censored: int

    def __post_init__(self):
        self.time_months = float(self.time_months)
        self.censored = int(self.censored)
        if not np.isfinite(self.time_months) or self.time_months < 0:
            raise ValidationError(f"time_months must be finite and >= 0, got {self.time_months}")
        if self.censored not in (0, 1):
            raise ValidationError(f"censored must be 0 or 1, got {self.censored}")


@dataclass
class PatientRecord:
    """A patient-level bag: one or more WSIs plus the follow-up label.

    ``interval_label`` is filled in by :func:`bin_survival_times`.
    """

    patient_id: str
    bags: list[PatchBag]
    follow_up: FollowUp
    interval_label: int | None = None

    def __post_init__(self):
        if not self.bags:
            raise ValidationError(f"patient {self.patient_id!r} has no bags")


def write_pbag_arrays(path, coords: np.ndarray, features: np.ndarray) -> None:
    """Raw PBAG writer for already-validated (or derived) arrays, through
    ``atomic_open``: a failed write leaves the previous file.

    Rearranged outputs reuse this layout even though their padded rows
    repeat coordinates, which write_patch_bag would reject.
    """
    b, d = features.shape
    with atomic_open(path, "wb") as fh:
        fh.write(PBAG_MAGIC)
        fh.write(struct.pack("<III", PBAG_VERSION, b, d))
        fh.write(np.ascontiguousarray(coords, dtype="<i4").tobytes())
        fh.write(np.ascontiguousarray(features, dtype="<f4").tobytes())


def write_patch_bag(bag: PatchBag, path) -> None:
    """Write a PBAG file; readable back bit-exactly by read_patch_bag."""
    write_pbag_arrays(path, bag.coords, bag.features)


PBAG_HEADER_BYTES = 16


def _pbag_shape(path, head: bytes, size: int) -> tuple[int, int]:
    """(b, d) from a PBAG file's first bytes and its size, checking the
    magic, the version and that the size is the header's layout."""
    if len(head) < PBAG_HEADER_BYTES:
        raise FormatError(f"{path}: too short to hold a PBAG header")
    if head[:4] != PBAG_MAGIC:
        raise FormatError(f"{path}: bad magic {head[:4]!r}")
    version, b, d = struct.unpack_from("<III", head, 4)
    if version != PBAG_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = PBAG_HEADER_BYTES + b * 8 + b * d * 4
    if size != expected:
        raise CorruptionError(f"{path}: payload is {size} bytes, expected {expected}")
    return b, d


def read_pbag_shape(path) -> tuple[int, int]:
    """(b, d) of a PBAG file, checked as read_pbag_arrays checks its layout,
    from the header and the file size alone."""
    with open(path, "rb") as fh:
        head = fh.read(PBAG_HEADER_BYTES)
        size = os.fstat(fh.fileno()).st_size
    return _pbag_shape(path, head, size)


def read_pbag_arrays(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a PBAG file as (coords (b, 2) int32, features (b, d) float32).

    Only the layout is checked, as written by write_pbag_arrays, so
    rearranged outputs with repeated padding rows read back too.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    b, d = _pbag_shape(path, raw[:PBAG_HEADER_BYTES], len(raw))
    coords = np.frombuffer(raw, dtype="<i4", count=b * 2, offset=PBAG_HEADER_BYTES).reshape(b, 2)
    features = np.frombuffer(raw, dtype="<f4", count=b * d,
                             offset=PBAG_HEADER_BYTES + b * 8).reshape(b, d)
    return coords, features


def read_patch_bag(path) -> PatchBag:
    """Read a PBAG file as a validated PatchBag; the wsi_id is the file stem."""
    coords, features = read_pbag_arrays(path)
    return PatchBag(wsi_id=Path(path).stem, coords=coords, features=features)


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Write to ``{path}.tmp`` and move it over ``path`` once the block
    completes; on an error ``path`` keeps what it held and no ``.tmp`` stays."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """A header line and rows of values, written through ``atomic_open``."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_int_csv(path, header, array) -> None:
    """``write_csv`` of a 2-D integer array's rows, formatted as one block:
    the bytes ``csv.writer`` writes, ``\\r\\n`` line ends included."""
    line = ",".join(["%d"] * len(header)) + "\r\n"
    with atomic_open(path, newline="") as fh:
        fh.write(",".join(header) + "\r\n" + line * len(array) % tuple(array.ravel().tolist()))


def write_manifest(path, rows: list[dict]) -> None:
    """Write a manifest CSV. Each row needs the four manifest columns."""
    write_csv(path, MANIFEST_COLUMNS, ([row[k] for k in MANIFEST_COLUMNS] for row in rows))


class ManifestPatient(NamedTuple):
    """One patient's manifest rows: the follow-up and the bag paths, in row
    order, resolved against the manifest's directory."""

    patient_id: str
    follow_up: FollowUp
    bag_paths: list[Path]


def read_manifest(path) -> list[ManifestPatient]:
    """A manifest CSV's rows grouped by patient_id, in the order patients
    first appear; no PBAG file is read.

    The follow-up label must be identical across a patient's rows.
    """
    path = Path(path)
    base = path.parent
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != MANIFEST_COLUMNS:
            raise FormatError(
                f"{path}: manifest header must be {','.join(MANIFEST_COLUMNS)}, "
                f"got {reader.fieldnames}"
            )
        rows = list(reader)
    if not rows:
        raise ValidationError(f"{path}: manifest has no rows")

    seen: set[tuple[str, str]] = set()
    grouped: dict[str, ManifestPatient] = {}
    for i, row in enumerate(rows):
        pid = row["patient_id"].strip()
        wsi_path = row["wsi_path"].strip()
        if not pid or not wsi_path:
            raise ValidationError(f"{path}: row {i + 1} has an empty patient_id or wsi_path")
        key = (pid, wsi_path)
        if key in seen:
            raise ValidationError(f"{path}: duplicate row for {key}")
        seen.add(key)
        try:
            time_months = float(row["time_months"])
            censored = int(row["censored"])
        except ValueError as exc:
            raise ValidationError(f"{path}: row {i + 1}: {exc}") from exc
        follow_up = FollowUp(time_months=time_months, censored=censored)

        entry = grouped.setdefault(pid, ManifestPatient(pid, follow_up, []))
        prev = entry.follow_up
        if (prev.time_months, prev.censored) != (follow_up.time_months, follow_up.censored):
            raise ValidationError(f"{path}: patient {pid!r} has inconsistent follow-up rows")
        entry.bag_paths.append(base / wsi_path)   # an absolute wsi_path replaces base
    return list(grouped.values())


def _require_bags(entry: ManifestPatient) -> None:
    for bag_path in entry.bag_paths:
        if not bag_path.exists():
            raise ResolutionError(f"patient {entry.patient_id!r}: bag file {bag_path} "
                                  "does not exist")


def load_patient(entry: ManifestPatient) -> PatientRecord:
    """The patient's record, with its PBAG files read in row order."""
    _require_bags(entry)
    return PatientRecord(patient_id=entry.patient_id, follow_up=entry.follow_up,
                         bags=[read_patch_bag(p) for p in entry.bag_paths])


def check_bag_files(path, entries: list[ManifestPatient]) -> int:
    """The cohort's feature width, after checking each PBAG file of the
    entries from its header and size alone: it exists, has the layout and a
    patch, and all share one width. Raises what load_manifest raises for
    these, so a command that reads one patient at a time fails on them
    before writing; faults only the payload shows are load_patient's."""
    dims = set()
    for entry in entries:
        _require_bags(entry)
        for bag_path in entry.bag_paths:
            b, d = read_pbag_shape(bag_path)
            if b == 0:
                raise EmptyBagError(f"bag {bag_path.stem!r} has no patches")
            dims.add(d)
    if len(dims) > 1:
        raise ValidationError(f"{path}: mixed feature dimensions in cohort: {sorted(dims)}")
    return dims.pop()


def load_manifest(path) -> list[PatientRecord]:
    """Load a manifest CSV (see read_manifest) and every PBAG file it
    references into patient records, in the order patients first appear.
    The files are checked first with check_bag_files."""
    entries = read_manifest(path)
    check_bag_files(path, entries)
    return [load_patient(entry) for entry in entries]


def bin_survival_times(records: list[PatientRecord], n: int) -> np.ndarray:
    """Choose interval cutpoints and label every record in place; returns
    the n - 1 cutpoints t_1 ... t_{n-1} of [0, t_1), ..., [t_{n-1}, inf).

    Cutpoints are the 1/n ... (n-1)/n linear-interpolation quantiles of
    the uncensored survival times; labels are assigned to all records,
    censored included. A time exactly at a cutpoint belongs to the higher
    interval.
    """
    if n < 2:
        raise ValidationError(f"need at least 2 intervals, got {n}")
    uncensored = np.array(
        [r.follow_up.time_months for r in records if r.follow_up.censored == 0]
    )
    if len(np.unique(uncensored)) < n:
        raise InsufficientDataError(
            f"need at least {n} distinct uncensored times, have {len(np.unique(uncensored))}"
        )
    qs = np.arange(1, n) / n
    cutpoints = np.quantile(uncensored, qs, method="linear")
    if np.any(np.diff(cutpoints) <= 0):
        raise InsufficientDataError("quantile cutpoints are not strictly increasing")
    for rec in records:
        rec.interval_label = int(np.searchsorted(cutpoints, rec.follow_up.time_months,
                                                 side="right"))
    return cutpoints


class FoldSplit(NamedTuple):
    train: list[int]
    validation: list[int]
    test: list[int]


# Share of each fold's non-test patients that validate: 60:15:25 at 4 folds.
VALIDATION_FRACTION = 0.2


def stratified_kfold(records: list[PatientRecord], folds: int, seed: int) -> list[FoldSplit]:
    """Censorship-stratified cross-validation splits over patient indices.

    Only each record's ``follow_up`` is read, so read_manifest's entries
    split as the records loaded from them do.

    Each fold uses one of ``folds`` equal chunks as the test set; the
    validation set is a stratified VALIDATION_FRACTION of the rest.
    """
    if folds < 2:
        raise ConfigurationError(f"folds must be >= 2, got {folds}")
    if not records:
        raise ConfigurationError("no records to split")
    if folds > len(records):
        raise ConfigurationError(f"{folds} folds exceed {len(records)} patients")

    rng = rng_for(seed, "stratified-kfold")
    strata = []
    for flag in (0, 1):
        idx = np.array([i for i, r in enumerate(records) if r.follow_up.censored == flag])
        rng.shuffle(idx)
        strata.append(list(int(i) for i in idx))

    # Deal each shuffled stratum to folds round-robin; the cursor carries
    # across strata so remainders do not pile onto the same folds.
    fold_of: dict[int, int] = {}
    cursor = 0
    for stratum in strata:
        for i in stratum:
            fold_of[i] = cursor % folds
            cursor += 1

    n_total = len(records)
    n_censored = sum(1 for r in records if r.follow_up.censored == 1)
    splits = []
    for f in range(folds):
        test = [i for stratum in strata for i in stratum if fold_of[i] == f]
        rest_by_stratum = [[i for i in stratum if fold_of[i] != f] for stratum in strata]
        rest_unc, rest_cen = rest_by_stratum
        n_rest = len(rest_unc) + len(rest_cen)
        n_val = int(round(VALIDATION_FRACTION * n_rest))

        # Pick how many censored patients enter validation so that both the
        # validation and the training split stay within one patient of the
        # cohort-proportional censorship count. Rounding toward the sign of
        # the test split's own deviation cancels it instead of stacking.
        ideal_val_cen = n_val * n_censored / n_total
        rest_error = len(rest_cen) - n_rest * n_censored / n_total
        val_cen = int(np.ceil(ideal_val_cen)) if rest_error >= 0 else int(np.floor(ideal_val_cen))
        val_cen = max(max(0, n_val - len(rest_unc)), min(val_cen, min(n_val, len(rest_cen))))
        val_unc = n_val - val_cen

        val = rest_cen[:val_cen] + rest_unc[:val_unc]
        train = rest_cen[val_cen:] + rest_unc[val_unc:]
        splits.append(FoldSplit(train=sorted(train), validation=sorted(val), test=sorted(test)))
    return splits
