import struct

import numpy as np
import pytest

from hvtsurv.bagio import (
    FollowUp,
    PatchBag,
    PatientRecord,
    bin_survival_times,
    check_bag_files,
    load_manifest,
    read_manifest,
    read_patch_bag,
    stratified_kfold,
    write_csv,
    write_int_csv,
    write_manifest,
    write_patch_bag,
    write_pbag_arrays,
)
from hvtsurv.errors import (
    ConfigurationError,
    CorruptionError,
    EmptyBagError,
    FormatError,
    HVTSurvError,
    InsufficientDataError,
    ResolutionError,
    ValidationError,
)


def make_bag(wsi_id="W1", b=4, d=3, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.choice(200, size=b, replace=False) * 256
    ys = rng.choice(200, size=b, replace=False) * 256
    coords = np.stack([xs, ys], axis=1)
    feats = rng.normal(size=(b, d)).astype(np.float32)
    return PatchBag(wsi_id=wsi_id, coords=coords, features=feats)


class TestPatchBag:
    def test_known_values_roundtrip(self, tmp_path):
        bag = PatchBag(
            "toy",
            coords=np.array([[0, 0], [256, 0]]),
            features=np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32),
        )
        path = tmp_path / "toy.pbag"
        write_patch_bag(bag, path)
        back = read_patch_bag(path)
        assert back.wsi_id == "toy"
        assert np.array_equal(back.coords, [[0, 0], [256, 0]])
        assert np.array_equal(back.features, [[1, 2, 3], [4, 5, 6]])

    def test_roundtrip_bit_exact(self, tmp_path):
        for seed in range(20):
            bag = make_bag(b=1 + seed, d=5, seed=seed)
            path = tmp_path / f"b{seed}.pbag"
            write_patch_bag(bag, path)
            back = read_patch_bag(path)
            assert back.features.dtype == np.float32
            assert back.coords.dtype == np.int32
            assert np.array_equal(back.features.view(np.uint32), bag.features.view(np.uint32))
            assert np.array_equal(back.coords, bag.coords)

    def test_single_patch_bag(self, tmp_path):
        bag = make_bag(b=1)
        write_patch_bag(bag, tmp_path / "one.pbag")
        back = read_patch_bag(tmp_path / "one.pbag")
        assert back.n_patches == 1

    def test_failed_write_keeps_the_previous_pbag(self, tmp_path):
        # features that cannot be cast fail after the header and coordinates
        # are written: the previous file stays whole, and no temporary stays
        path = tmp_path / "w.pbag"
        bag = make_bag(b=3, d=2)
        write_patch_bag(bag, path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_pbag_arrays(path, bag.coords, np.full((3, 2), "x", dtype=object))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["w.pbag"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pbag"
        path.write_bytes(b"XBAG" + struct.pack("<III", 1, 1, 1) + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_patch_bag(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.pbag"
        path.write_bytes(b"PBAG" + struct.pack("<III", 9, 1, 1) + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_patch_bag(path)

    def test_truncated_payload(self, tmp_path):
        bag = make_bag(b=3, d=4)
        path = tmp_path / "trunc.pbag"
        write_patch_bag(bag, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(CorruptionError):
            read_patch_bag(path)

    def test_zero_patch_file(self, tmp_path):
        path = tmp_path / "zero.pbag"
        path.write_bytes(b"PBAG" + struct.pack("<III", 1, 0, 4))
        with pytest.raises(EmptyBagError):
            read_patch_bag(path)

    def test_duplicate_coords_rejected(self):
        top = 2**31 - 1
        for coords in ([[0, 0], [0, 0]], [[1, 2], [5, 5], [1, 2]], [[top, 7], [3, 3], [top, 7]],
                       [[top, top], [top, top]]):
            with pytest.raises(ValidationError):
                PatchBag("dup", coords=np.array(coords), features=np.zeros((len(coords), 2)))
        for coords in ([[1, 2], [2, 1]], [[top, 0], [0, top]], [[top, top], [top, top - 1]],
                       [[top - 1, top], [top, top]], [[0, 1], [1, 0], [top, 1], [1, top]]):
            bag = PatchBag("ok", coords=np.array(coords), features=np.zeros((len(coords), 2)))
            assert bag.n_patches == len(coords)

    def test_negative_coords_rejected(self):
        with pytest.raises(ValidationError):
            PatchBag("neg", coords=np.array([[-256, 0]]), features=np.zeros((1, 2)))

    def test_empty_bag_rejected(self):
        with pytest.raises(EmptyBagError):
            PatchBag("empty", coords=np.zeros((0, 2)), features=np.zeros((0, 2)))


class TestManifest:
    def write_cohort(self, tmp_path, rows_spec):
        rows = []
        for pid, wsi_id, t, c in rows_spec:
            bag = make_bag(wsi_id=wsi_id, b=3, d=4, seed=hash(wsi_id) % 1000)
            write_patch_bag(bag, tmp_path / f"{wsi_id}.pbag")
            rows.append(
                {
                    "patient_id": pid,
                    "wsi_path": f"{wsi_id}.pbag",
                    "time_months": t,
                    "censored": c,
                }
            )
        write_manifest(tmp_path / "manifest.csv", rows)
        return tmp_path / "manifest.csv"

    def test_grouping(self, tmp_path):
        path = self.write_cohort(
            tmp_path, [("P1", "A", 10.0, 0), ("P1", "B", 10.0, 0), ("P2", "C", 5.0, 1)]
        )
        records = load_manifest(path)
        assert len(records) == 2
        by_id = {r.patient_id: r for r in records}
        assert len(by_id["P1"].bags) == 2
        assert len(by_id["P2"].bags) == 1

    def test_header_only_manifest_rejected(self, tmp_path):
        path = self.write_cohort(tmp_path, [])
        with pytest.raises(ValidationError, match="no rows"):
            load_manifest(path)

    def test_follow_up_parse(self, tmp_path):
        path = self.write_cohort(tmp_path, [("P1", "A", 10.0, 1)])
        (rec,) = load_manifest(path)
        assert rec.follow_up.time_months == 10.0
        assert rec.follow_up.censored == 1

    def test_negative_time_rejected(self, tmp_path):
        path = self.write_cohort(tmp_path, [("P1", "A", -1.0, 0)])
        with pytest.raises(ValidationError):
            load_manifest(path)

    def test_duplicate_row_rejected(self, tmp_path):
        path = self.write_cohort(tmp_path, [("P1", "A", 1.0, 0)])
        text = path.read_text()
        last = text.strip().splitlines()[-1]
        path.write_text(text + last + "\n")
        with pytest.raises(ValidationError):
            load_manifest(path)

    def test_missing_bag_file(self, tmp_path):
        path = self.write_cohort(tmp_path, [("P1", "A", 1.0, 0)])
        (tmp_path / "A.pbag").unlink()
        with pytest.raises(ResolutionError):
            load_manifest(path)

    def test_mixed_widths_rejected(self, tmp_path):
        path = self.write_cohort(tmp_path, [("P1", "A", 1.0, 0), ("P2", "B", 2.0, 0)])
        write_patch_bag(make_bag(wsi_id="B", b=3, d=5), tmp_path / "B.pbag")
        with pytest.raises(ValidationError, match="mixed feature dimensions"):
            load_manifest(path)
        with pytest.raises(ValidationError, match="mixed feature dimensions"):
            check_bag_files(path, read_manifest(path))

    @pytest.mark.parametrize("fault", ["missing", "magic", "version", "short", "truncated",
                                       "no patches"])
    def test_header_check_fails_as_the_full_load(self, tmp_path, fault):
        """check_bag_files, which reads 16 bytes of each file, raises what
        load_manifest raises; the faulty slide is the last patient's."""
        path = self.write_cohort(tmp_path, [("P1", "A", 1.0, 0), ("P2", "B", 2.0, 0)])
        bad = tmp_path / "B.pbag"
        raw = bad.read_bytes()
        if fault == "missing":
            bad.unlink()
        else:
            bad.write_bytes({"magic": b"XBAG" + raw[4:], "short": raw[:15],
                             "version": raw[:4] + struct.pack("<I", 2) + raw[8:],
                             "truncated": raw[:-1],
                             "no patches": b"PBAG" + struct.pack("<III", 1, 0, 4)}[fault])
        with pytest.raises(HVTSurvError) as full:
            load_manifest(path)
        with pytest.raises(HVTSurvError) as header:
            check_bag_files(path, read_manifest(path))
        assert type(header.value) is type(full.value)
        assert str(header.value) == str(full.value)

    def test_header_check_returns_the_width(self, tmp_path):
        path = self.write_cohort(tmp_path, [("P1", "A", 1.0, 0), ("P1", "B", 1.0, 0)])
        assert check_bag_files(path, read_manifest(path)) == 4

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("pid,file,time,flag\nP1,x.pbag,1.0,0\n")
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_failed_write_keeps_the_previous_manifest(self, tmp_path):
        # A write that stops mid-rows must not leave a shorter manifest that
        # loads as a smaller cohort, nor a stray temporary beside it.
        path = self.write_cohort(tmp_path, [("P1", "A", 10.0, 0), ("P2", "C", 5.0, 1)])
        before = path.read_bytes()
        rows = [dict(patient_id="P3", wsi_path="A.pbag", time_months=2.0, censored=0),
                dict(patient_id="P4", wsi_path="C.pbag")]
        with pytest.raises(KeyError):
            write_manifest(path, rows)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir() if f.suffix == ".tmp"] == []
        assert len(load_manifest(path)) == 2


def make_records(times, censored):
    bag = make_bag(b=2, d=2)
    return [
        PatientRecord(f"P{i}", [bag], FollowUp(t, c))
        for i, (t, c) in enumerate(zip(times, censored))
    ]


class TestBinning:
    def test_quartile_cutpoints(self):
        records = make_records(range(1, 9), [0] * 8)
        assert np.allclose(bin_survival_times(records, 4), [2.75, 4.5, 6.25])

    def test_zero_time_gets_first_interval(self):
        records = make_records([0.0] + list(range(1, 9)), [0] * 9)
        bin_survival_times(records, 4)
        assert records[0].interval_label == 0

    def test_censored_beyond_cutpoints_gets_last_interval(self):
        records = make_records(list(range(1, 9)) + [1000.0], [0] * 8 + [1])
        bin_survival_times(records, 4)
        assert records[-1].interval_label == 3

    def test_tie_at_cutpoint_goes_up(self):
        # uncensored times 1..7 put the quartile cutpoints at 2.5, 4 and 5.5
        records = make_records([*range(1, 8), 2.5, 2.499], [0] * 7 + [1, 1])
        assert np.array_equal(bin_survival_times(records, 4), [2.5, 4.0, 5.5])
        assert [r.interval_label for r in records[3:]] == [2, 2, 3, 3, 1, 0]

    def test_one_interval_rejected(self):
        with pytest.raises(ValidationError, match="at least 2 intervals"):
            bin_survival_times(make_records(range(1, 9), [0] * 8), 1)

    def test_exactly_one_label(self):
        records = make_records(np.linspace(0, 50, 40), [0] * 40)
        cutpoints = bin_survival_times(records, 4)
        for rec in records:
            t = rec.follow_up.time_months
            edges = [0.0, *cutpoints, np.inf]
            hits = [k for k in range(4) if edges[k] <= t < edges[k + 1]]
            assert hits == [rec.interval_label]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        times = rng.uniform(0, 100, size=30)
        records = make_records(times, [0] * 30)
        cutpoints_a = bin_survival_times(records, 4)
        labels_a = {r.patient_id: r.interval_label for r in records}
        shuffled = list(records)
        rng.shuffle(shuffled)
        cutpoints_b = bin_survival_times(shuffled, 4)
        assert np.allclose(cutpoints_a, cutpoints_b)
        assert {r.patient_id: r.interval_label for r in shuffled} == labels_a

    def test_insufficient_distinct_times(self):
        records = make_records([5.0, 5.0, 5.0, 6.0], [0, 0, 0, 0])
        with pytest.raises(InsufficientDataError):
            bin_survival_times(records, 4)


class TestStratifiedKFold:
    def test_hundred_patients_half_censored(self):
        records = make_records(range(1, 101), [1] * 50 + [0] * 50)
        splits = stratified_kfold(records, 4, seed=7)
        for s in splits:
            assert len(s.test) == 25
            censored = sum(records[i].follow_up.censored for i in s.test)
            assert censored in (12, 13)

    def test_determinism(self):
        records = make_records(range(1, 31), [0, 1] * 15)
        a = stratified_kfold(records, 3, seed=11)
        b = stratified_kfold(records, 3, seed=11)
        assert a == b

    def test_seed_changes_partition(self):
        records = make_records(range(1, 31), [0, 1] * 15)
        a = stratified_kfold(records, 3, seed=11)
        b = stratified_kfold(records, 3, seed=12)
        assert a != b

    def test_too_many_folds(self):
        records = make_records(range(1, 11), [0] * 10)
        with pytest.raises(ConfigurationError):
            stratified_kfold(records, 200, seed=0)

    def test_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            n = int(rng.integers(10, 120))
            censored = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
            records = make_records(rng.uniform(1, 90, size=n), censored)
            folds = int(rng.integers(2, min(6, n)))
            for s in stratified_kfold(records, folds, seed=trial):
                combined = s.train + s.validation + s.test
                assert sorted(combined) == list(range(n))

    def test_censorship_within_one_of_ideal(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            n = int(rng.integers(20, 200))
            censored = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
            records = make_records(rng.uniform(1, 90, size=n), censored)
            total = censored.sum()
            for s in stratified_kfold(records, int(rng.integers(2, 6)), seed=trial):
                for part in s:
                    if not part:
                        continue
                    c = sum(records[i].follow_up.censored for i in part)
                    assert abs(c - len(part) * total / n) <= 1.0


@pytest.mark.parametrize("rows", [0, 1, 17])
def test_write_int_csv_writes_the_bytes_of_write_csv(tmp_path, rows):
    array = np.random.default_rng(rows).integers(-(10**12), 10**12, size=(rows, 3))
    write_int_csv(tmp_path / "block.csv", ["a", "b", "c"], array)
    write_csv(tmp_path / "rows.csv", ["a", "b", "c"], array.tolist())
    got = (tmp_path / "block.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes() and got.count(b"\r\n") == rows + 1
