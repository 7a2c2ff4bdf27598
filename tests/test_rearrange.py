import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hvtsurv
from hvtsurv.bagio import PatchBag
from hvtsurv.blocks import pairwise_manhattan
from hvtsurv.errors import ConfigurationError
from hvtsurv.rearrange import (
    RearrangedBag,
    compare_strategies,
    knn_rearrange,
    random_window_mask,
    raster_order,
    reflect_pad,
    scale_coords,
    window_mean_manhattan,
)
from hvtsurv.synthgen import gen_irregular_mask


def grid_bag(cells, d=4, seed=0, wsi_id="bag"):
    rng = np.random.default_rng(seed)
    coords = np.array(sorted(cells)) * 256
    feats = rng.normal(size=(len(cells), d)).astype(np.float32)
    return PatchBag(wsi_id=wsi_id, coords=coords, features=feats)


def irregular_bag(n, hole_density, seed, shuffled):
    """About n cells of an irregular mask, in raster or shuffled row order."""
    side = int(np.ceil(np.sqrt(n / (1.0 - hole_density)))) + 2
    cells = np.array(sorted(gen_irregular_mask(side, side, hole_density, seed))[:n])
    rng = np.random.default_rng(seed)
    if shuffled:
        cells = cells[rng.permutation(len(cells))]
    feats = rng.normal(size=(len(cells), 3)).astype(np.float32)
    return PatchBag(wsi_id=f"irr{seed}", coords=cells * 256, features=feats)


def scan_knn_rearrange(bag: PatchBag, w: int) -> RearrangedBag:
    """Oracle: every window ranks all remaining rows by the full key."""
    feats, coords, src = reflect_pad(bag, w)
    grid = scale_coords(coords)
    remaining = np.arange(feats.shape[0])
    order = []
    while remaining.size:
        delta = grid[remaining] - grid[remaining[0]]
        dist2 = delta[:, 0] ** 2 + delta[:, 1] ** 2
        take = np.lexsort((remaining, grid[remaining, 0], grid[remaining, 1], dist2))[:w]
        order.extend(remaining[take])
        remaining = np.delete(remaining, take)
    return RearrangedBag(bag.wsi_id, feats[order], grid[order], src[order], w)


def brute_window_mean(bag: RearrangedBag) -> float:
    """Independent reference: plain double loop over unordered pairs."""
    w = bag.window_size
    total = 0.0
    for k in range(bag.n_windows):
        block = bag.scaled_coords[k * w : (k + 1) * w]
        for i in range(w):
            for j in range(i + 1, w):
                total += abs(int(block[i, 0]) - int(block[j, 0]))
                total += abs(int(block[i, 1]) - int(block[j, 1]))
    return total / bag.n_windows


class TestScaleCoords:
    def test_two_patches(self):
        assert scale_coords([[256, 512], [512, 512]]).tolist() == [[1, 1], [2, 1]]

    def test_origin(self):
        assert scale_coords([[0, 0]]).tolist() == [[1, 1]]

    def test_single_patch_anywhere(self):
        assert scale_coords([[256, 256]]).tolist() == [[1, 1]]
        assert scale_coords([[2560, 7680]]).tolist() == [[1, 1]]

    def test_minimum_is_one_per_axis(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            coords = rng.integers(0, 100, size=(30, 2)) * 256
            g = scale_coords(coords)
            assert g[:, 0].min() == 1 and g[:, 1].min() == 1


class TestReflectPad:
    def test_pad_arithmetic_100_49(self):
        bag = grid_bag([(x, y) for y in range(10) for x in range(10)])
        feats, coords, src = reflect_pad(bag, 49)
        assert len(feats) == 147
        # left pad of 23 mirrors rows 23..1, right pad of 24 mirrors 98..75
        assert src[0] == 23 and src[22] == 1 and src[23] == 0
        assert src[-1] == 75 and src[147 - 24 - 1] == 99

    def test_exact_multiple_is_identity(self):
        bag = grid_bag([(x, 0) for x in range(49)])
        feats, coords, src = reflect_pad(bag, 49)
        assert np.array_equal(feats, bag.features)
        assert np.array_equal(src, np.arange(49))

    def test_reflect_without_edge_repeat(self):
        bag = grid_bag([(0, 0), (1, 0), (2, 0)])
        feats, _, src = reflect_pad(bag, 5)
        assert src.tolist() == [1, 0, 1, 2, 1]

    def test_tiny_bag_uses_replicate(self):
        bag = grid_bag([(0, 0)])
        feats, coords, src = reflect_pad(bag, 5)
        assert src.tolist() == [0] * 5
        bag2 = grid_bag([(0, 0), (1, 0)])
        _, _, src2 = reflect_pad(bag2, 5)
        assert len(src2) == 5 and set(src2).issubset({0, 1})


class TestKnnRearrange:
    def test_single_window_tie_order(self):
        bag = grid_bag([(0, 0), (1, 0), (0, 1), (1, 1)])
        out = knn_rearrange(bag, 4)
        assert out.n_windows == 1
        # anchor first, then distance ties resolved by (gy, gx, index)
        assert out.scaled_coords.tolist() == [[1, 1], [2, 1], [1, 2], [2, 2]]

    def test_strip_beats_raster(self):
        bag = grid_bag([(x, y) for y in range(2) for x in range(49)], seed=1)
        knn_mean = brute_window_mean(knn_rearrange(bag, 49))
        raster_mean = brute_window_mean(raster_order(bag, 49))
        assert knn_mean == 10400.0
        assert raster_mean == 19600.0
        assert knn_mean < raster_mean

    def test_l_shape_bbox_aggregate(self):
        # 5-wide arm of 14 rows on top of a 14-wide bar of 2 rows: 98 cells.
        cells = [(x, y) for y in range(14) for x in range(5)]
        cells += [(x, y) for y in range(14, 16) for x in range(14)]
        bag = grid_bag(cells, seed=2)

        def bbox_aggregate(reb):
            w = reb.window_size
            total = 0
            for k in range(reb.n_windows):
                blk = reb.scaled_coords[k * w : (k + 1) * w]
                total += (np.ptp(blk[:, 0]) + 1) * (np.ptp(blk[:, 1]) + 1)
            return total

        assert bbox_aggregate(knn_rearrange(bag, 49)) <= bbox_aggregate(raster_order(bag, 49))

    def test_multiset_preservation(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(3, 120))
            side = int(np.ceil(np.sqrt(n))) + 2
            cells = sorted(gen_irregular_mask(side, side, 0.2, trial))[:n]
            bag = grid_bag(cells, seed=trial, wsi_id=f"t{trial}")
            w = int(rng.integers(2, 9))
            out = knn_rearrange(bag, w)
            pad = -bag.n_patches % w
            assert out.features.shape[0] == bag.n_patches + pad
            assert out.features.shape[0] % w == 0
            counts = np.bincount(out.source_rows, minlength=bag.n_patches)
            assert counts.min() >= 1
            assert counts.sum() == bag.n_patches + pad
            assert np.array_equal(out.features, bag.features[out.source_rows])
            assert np.array_equal(
                out.scaled_coords, scale_coords(bag.coords)[out.source_rows]
            )

    def test_determinism(self):
        bag = grid_bag([(x, y) for y in range(6) for x in range(7)], seed=3)
        a = knn_rearrange(bag, 5)
        b = knn_rearrange(bag, 5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.scaled_coords, b.scaled_coords)
        assert np.array_equal(a.source_rows, b.source_rows)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3000), w=st.sampled_from([1, 2, 16, 49]),
       hole_density=st.floats(0.0, 0.6), seed=st.integers(0, 2**16), shuffled=st.booleans())
def test_knn_matches_full_scan(n, w, hole_density, seed, shuffled):
    bag = irregular_bag(n, hole_density, seed, shuffled)
    got, want = knn_rearrange(bag, w), scan_knn_rearrange(bag, w)
    assert np.array_equal(got.source_rows, want.source_rows)
    assert np.array_equal(got.scaled_coords, want.scaled_coords)
    assert np.array_equal(got.features, want.features)


@pytest.mark.parametrize("n, w, seed, shuffled", [
    (600, 16, 1, False), (1500, 49, 2, True), (2500, 2, 3, True), (2000, 49, 4, False)])
def test_knn_window_contract_on_large_bags(n, w, seed, shuffled):
    """Each window starts at the earliest remaining padded position, holds
    its rows in ascending (d2, gy, gx, position) order, and no row left
    over has a smaller key than the window's last row."""
    bag = irregular_bag(n, 0.25, seed, shuffled)
    assert bag.n_patches > 512
    out = knn_rearrange(bag, w)
    _, _, pad_src = reflect_pad(bag, w)
    # copies of one source row take their padded positions in output order
    pos = np.empty(len(pad_src), dtype=np.int64)
    pos[np.argsort(out.source_rows, kind="stable")] = np.argsort(pad_src, kind="stable")
    assert np.array_equal(pad_src[pos], out.source_rows)
    grid = scale_coords(bag.coords)[pad_src]
    remaining = np.ones(len(pad_src), dtype=bool)

    def ranked_keys(anchor, rows):
        """(d2, gy, gx, position) of each row, and the rows' ranks under it."""
        d = grid[rows] - grid[anchor]
        key = np.stack([(d**2).sum(axis=1), grid[rows, 1], grid[rows, 0], rows], axis=1)
        return key, np.lexsort(key.T[::-1])

    for rows in pos.reshape(out.n_windows, w):
        assert rows[0] == np.flatnonzero(remaining)[0]
        key, rank = ranked_keys(rows[0], rows)
        assert np.array_equal(rank, np.arange(w))
        remaining[rows] = False
        rest = np.flatnonzero(remaining)
        if rest.size:
            rest_key, rest_rank = ranked_keys(rows[0], rest)
            assert tuple(rest_key[rest_rank[0]]) > tuple(key[-1])


def test_two_far_clusters_match_full_scan_quickly():
    """Two 3,000-patch clusters 4e6 grid cells apart: a dense grid over the
    bag would have about 1e13 cells, so the search must work on the rows."""
    block = np.array([(x, y) for y in range(60) for x in range(50)])
    rng = np.random.default_rng(9)
    for axis in (0, 1):
        far = block.copy()
        far[:, axis] += 4_000_000
        cells = np.concatenate([block, far])
        for rows in (np.arange(len(cells)), rng.permutation(len(cells))):
            bag = PatchBag(wsi_id="two", coords=cells[rows] * 256,
                           features=rng.normal(size=(len(cells), 2)).astype(np.float32))
            start = time.perf_counter()
            got = knn_rearrange(bag, 49)
            assert time.perf_counter() - start < 1.0
            want = scan_knn_rearrange(bag, 49)
            assert np.array_equal(got.source_rows, want.source_rows)
            assert np.array_equal(got.scaled_coords, want.scaled_coords)


def test_cli_import_leaves_scipy_spatial_unloaded():
    """Importing the CLI loads no scipy module at all, scipy.spatial included."""
    src = str(Path(hvtsurv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, hvtsurv.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


class TestRasterOrder:
    def test_sorted_input_preserved(self):
        coords = np.array([(x, y) for y in range(3) for x in range(4)]) * 256
        feats = np.random.default_rng(0).normal(size=(12, 4)).astype(np.float32)
        bag = PatchBag(wsi_id="rowmajor", coords=coords, features=feats)
        out = raster_order(bag, 4)
        assert np.array_equal(out.source_rows, np.arange(12))

    def test_row_major_on_two_rows(self):
        bag = grid_bag([(1, 1), (0, 1), (1, 0), (0, 0)])
        out = raster_order(bag, 4)
        assert out.scaled_coords.tolist() == [[1, 1], [2, 1], [1, 2], [2, 2]]


class TestRandomWindowMask:
    def rearranged(self, n_cells=30, w=5, seed=0):
        side = int(np.ceil(np.sqrt(n_cells))) + 1
        cells = sorted(gen_irregular_mask(side, side, 0.1, seed))[:n_cells]
        return knn_rearrange(grid_bag(cells, seed=seed), w)

    def test_m1_identity(self):
        bag = self.rearranged()
        (sub,) = random_window_mask(bag, 1, seed=4)
        assert np.array_equal(sub.features, bag.features)
        assert np.array_equal(sub.window_ids, np.arange(bag.n_windows))

    def test_partition_of_six_windows(self):
        bag = self.rearranged(n_cells=30, w=5)
        assert bag.n_windows == 6
        a, b = random_window_mask(bag, 2, seed=5)
        assert len(a.window_ids) == len(b.window_ids) == 3
        assert sorted([*a.window_ids, *b.window_ids]) == list(range(6))

    def test_same_seed_same_split(self):
        bag = self.rearranged()
        a = random_window_mask(bag, 2, seed=6)
        b = random_window_mask(bag, 2, seed=6)
        for x, y in zip(a, b):
            assert np.array_equal(x.window_ids, y.window_ids)

    def test_distinct_seeds_usually_differ(self):
        bag = self.rearranged(n_cells=50, w=5)   # 10 windows
        ref = tuple(random_window_mask(bag, 2, seed=999)[0].window_ids)
        distinct = sum(
            tuple(random_window_mask(bag, 2, seed=s)[0].window_ids) != ref
            for s in range(50)
        )
        assert distinct >= 45

    def test_whole_windows_only(self):
        bag = self.rearranged(n_cells=43, w=5)
        for sub in random_window_mask(bag, 3, seed=7):
            assert sub.features.shape[0] % 5 == 0
            for pos, win in enumerate(sub.window_ids):
                assert np.array_equal(
                    sub.features[pos * 5 : (pos + 1) * 5],
                    bag.features[win * 5 : (win + 1) * 5],
                )

    def test_remainder_to_lowest_groups(self):
        bag = self.rearranged(n_cells=34, w=5)   # 7 windows
        sizes = [len(s.window_ids) for s in random_window_mask(bag, 3, seed=8)]
        assert sizes == [3, 2, 2]

    def test_m_too_large(self):
        bag = self.rearranged(n_cells=30, w=5)
        with pytest.raises(ConfigurationError):
            random_window_mask(bag, 7, seed=0)


class TestWindowMeanManhattan:
    def test_single_coordinate_window(self):
        bag = RearrangedBag(
            wsi_id="x",
            features=np.zeros((3, 2)),
            scaled_coords=np.array([[2, 2]] * 3),
            source_rows=np.zeros(3, dtype=np.int64),
            window_size=3,
        )
        assert window_mean_manhattan(bag) == 0.0

    def test_two_patch_window_unordered_pairs(self):
        bag = RearrangedBag(
            wsi_id="x",
            features=np.zeros((2, 2)),
            scaled_coords=np.array([[1, 1], [2, 1]]),
            source_rows=np.arange(2),
            window_size=2,
        )
        assert window_mean_manhattan(bag) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            n = int(rng.integers(10, 80))
            side = int(np.ceil(np.sqrt(n))) + 2
            cells = sorted(gen_irregular_mask(side, side, 0.2, trial + 50))[:n]
            bag = knn_rearrange(grid_bag(cells, seed=trial), int(rng.integers(2, 8)))
            assert np.isclose(window_mean_manhattan(bag), brute_window_mean(bag))

    @pytest.mark.parametrize("w", [1, 2, 49])
    def test_equals_the_pairwise_formula_exactly(self, w):
        def pairwise_mean(bag):
            """The (nW, w, w) distance-matrix form that the sorted-rank sum replaced."""
            windows = bag.scaled_coords.reshape(bag.n_windows, bag.window_size, 2)
            return pairwise_manhattan(windows).sum() / 2.0 / bag.n_windows

        # padded bags repeat coordinates inside windows: edge-replicated for
        # n=1, reflected otherwise
        bags = [knn_rearrange(irregular_bag(n, 0.3, n, True), w) for n in (1, w + 1, 600)]
        bags += [raster_order(irregular_bag(7 * w - 3, 0.3, 4, False), w)]
        assert w == 1 or any(len(np.unique(b.scaled_coords, axis=0)) < len(b.scaled_coords)
                             for b in bags)
        rng = np.random.default_rng(w)
        for high in (3, 1000, 10**6):   # few distinct values, and far apart ones
            rows = int(rng.integers(1, 40)) * w
            coords = rng.integers(1, high + 1, size=(rows, 2))
            bags.append(RearrangedBag("r", np.zeros((rows, 1)), coords,
                                      np.arange(rows), w))
        for bag in bags:
            assert window_mean_manhattan(bag) == pairwise_mean(bag)


def test_benchmark_knn_beats_raster_on_irregular_masks():
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed + 100)
        target = int(rng.integers(100, 2001))
        side = int(np.ceil(np.sqrt(target / 0.75)))
        cells = sorted(gen_irregular_mask(side, side, 0.25, seed))[:target]
        bag = grid_bag(cells, seed=seed, wsi_id=f"bench{seed}")
        knn_mean, raster_mean = compare_strategies(bag, 49)
        wins += knn_mean < raster_mean
    assert wins >= 19
