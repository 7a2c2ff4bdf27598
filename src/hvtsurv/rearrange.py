"""Spatial rearrangement of patch bags into coherent attention windows.

A bag is padded to a multiple of the window size, its pixel coordinates
are scaled to grid units, and windows are then formed greedily: take the
first remaining patch, pull in the w nearest remaining patches (itself
included) under Euclidean distance on the grid, emit them as a window,
and repeat. Compared with raster-scan windowing this keeps each window
compact in both axes on irregularly shaped slides. Each window's
neighbours come from a square around its anchor on the grid, which is
widened until it must hold them; the windows are those of a scan of
every remaining patch.

Window-level random masking splits a rearranged bag into m sub-bags of
whole windows for training-time augmentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bagio import PATCH_PIXELS, PatchBag
from .errors import ConfigurationError


@dataclass
class RearrangedBag:
    """Window-ordered features with grid coordinates aligned row-wise.

    Row i of ``features`` sits at ``scaled_coords[i]`` and mirrors patch
    ``source_rows[i]`` of the original bag (padding rows repeat a source
    patch). Consecutive blocks of ``window_size`` rows form one window.
    """

    wsi_id: str
    features: np.ndarray
    scaled_coords: np.ndarray
    source_rows: np.ndarray
    window_size: int

    @property
    def n_windows(self) -> int:
        return self.features.shape[0] // self.window_size


@dataclass
class SubWsiBag:
    """Whole-window subset of a rearranged bag."""

    source_wsi: str
    features: np.ndarray
    scaled_coords: np.ndarray
    source_rows: np.ndarray
    window_ids: np.ndarray
    window_size: int

    @property
    def n_windows(self) -> int:
        return self.features.shape[0] // self.window_size


def scale_coords(coords) -> np.ndarray:
    """Pixel coordinates to 1-based grid units: divide by the patch size,
    then shift so the per-bag minimum lands at (1, 1)."""
    g = np.asarray(coords, dtype=np.int64) // PATCH_PIXELS
    return g - g.min(axis=0) + 1


def pad_rows(b: int, w: int) -> np.ndarray:
    """Row indices that pad b rows to the next multiple of w.

    Reflection mirrors the sequence without repeating the edge element;
    when the pad is at least as long as the bag (or the bag has a single
    row) edge replication is used instead, since pure reflection is
    undefined there. The pad is split evenly, any odd row going last.
    """
    pad = -b % w
    if pad == 0:
        return np.arange(b, dtype=np.int64)
    mode = "edge" if (b == 1 or pad >= b) else "reflect"
    return np.pad(np.arange(b, dtype=np.int64), (pad // 2, pad - pad // 2), mode=mode)


def reflect_pad(bag: PatchBag, w: int):
    """The bag padded by pad_rows: (features, pixel coords, source row index)."""
    idx = pad_rows(bag.n_patches, w)
    return bag.features[idx], bag.coords[idx], idx


# Below this many remaining rows a round ranks all of them: that is cheaper
# than the dozen numpy calls that gather the rows of a square.
_SCAN_ROWS = 512


def knn_rearrange(bag: PatchBag, w: int) -> RearrangedBag:
    """Greedy nearest-neighbor window formation.

    Each round anchors on the first remaining row and selects the w rows
    nearest to it on the scaled grid (squared Euclidean distance, ties
    broken by (gy, gx, sequence index)), removing them from the pool.
    Padding duplicates participate like any other row.

    The rows are sorted once by (gy, gx, index). A round's candidates are
    the remaining rows in the square of half-side r around the anchor,
    found as one sorted range per grid row of the square. Every row within
    distance r of the anchor lies in the square, so the round is done once
    the w-th best candidate is that close; otherwise r doubles. Once the
    square is as tall as the remaining rows are many, or at most
    ``_SCAN_ROWS`` rows remain, every remaining row is a candidate. The
    windows are those of a full scan of the remaining rows.
    """
    if w < 1:
        raise ConfigurationError(f"window size must be >= 1, got {w}")
    feats, coords, src = reflect_pad(bag, w)
    grid = scale_coords(coords)
    length = feats.shape[0]

    # rows in (gy, gx, index) order; a candidate's rank in it breaks distance ties
    span = int(grid[:, 0].max()) + 1
    cell = grid[:, 1] * span + grid[:, 0]
    by_cell = np.argsort(cell, kind="stable")
    cell, gx, gy = cell[by_cell], grid[by_cell, 0], grid[by_cell, 1]
    rank = np.empty(length, dtype=np.int64)
    rank[by_cell] = np.arange(length)
    y_max = int(gy[-1])

    order = np.empty(length, dtype=np.int64)
    alive = np.ones(length, dtype=bool)  # indexed by rank
    anchor = 0
    r = 1
    for out in range(0, length, w):
        while not alive[rank[anchor]]:
            anchor += 1
        ax, ay = grid[anchor].tolist()
        while True:
            if length - out <= max(_SCAN_ROWS, 2 * r + 1):
                cand = np.flatnonzero(alive)
            else:
                rows = np.arange(max(ay - r, 1), min(ay + r, y_max) + 1)[:, None] * span
                lo, hi = cell.searchsorted(rows + (max(ax - r, 0), min(ax + r, span - 1) + 1)).T
                count = hi - lo
                ends = np.cumsum(count)
                cand = np.arange(ends[-1]) + np.repeat(lo - ends + count, count)
                cand = cand[alive[cand]]
            dist2 = (gx[cand] - ax) ** 2 + (gy[cand] - ay) ** 2
            if cand.size >= w:
                best = np.argsort(dist2, kind="stable")[:w]
                if dist2[best[-1]] <= r * r or cand.size == length - out:
                    break
            r *= 2
        take = cand[best]
        order[out : out + w] = by_cell[take]
        alive[take] = False
        # the next anchor is usually near this one, and its window about as wide: start
        # with r*r above this window's reach, so that such a window ends in one pass
        r = math.isqrt(int(dist2[best[-1]])) + 1

    return RearrangedBag(
        wsi_id=bag.wsi_id,
        features=feats[order],
        scaled_coords=grid[order],
        source_rows=src[order],
        window_size=w,
    )


def raster_order(bag: PatchBag, w: int) -> RearrangedBag:
    """Raster-scan baseline: sort by (gy, gx), pad, window consecutively."""
    if w < 1:
        raise ConfigurationError(f"window size must be >= 1, got {w}")
    grid = scale_coords(bag.coords)
    order = np.lexsort((np.arange(bag.n_patches), grid[:, 0], grid[:, 1]))
    rows = order[pad_rows(bag.n_patches, w)]
    return RearrangedBag(wsi_id=bag.wsi_id, features=bag.features[rows],
                         scaled_coords=grid[rows], source_rows=rows, window_size=w)


def random_window_mask(bag: RearrangedBag, m: int, seed: int) -> list[SubWsiBag]:
    """Partition the windows into m sub-bags by a seeded uniform shuffle.

    Group sizes differ by at most one, with remainder windows going to
    the lowest-index groups; windows are never split and keep their
    parent order inside each sub-bag.
    """
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    n = bag.n_windows
    if m > n:
        raise ConfigurationError(f"cannot split {n} windows into {m} sub-bags")
    perm = np.random.default_rng(seed).permutation(n)
    base, rem = divmod(n, m)
    sizes = [base + (1 if g < rem else 0) for g in range(m)]

    subs = []
    offset = 0
    for size in sizes:
        window_ids = np.sort(perm[offset : offset + size])
        offset += size
        rows = (window_ids[:, None] * bag.window_size + np.arange(bag.window_size)).ravel()
        subs.append(
            SubWsiBag(
                source_wsi=bag.wsi_id,
                features=bag.features[rows],
                scaled_coords=bag.scaled_coords[rows],
                source_rows=bag.source_rows[rows],
                window_ids=window_ids,
                window_size=bag.window_size,
            )
        )
    return subs


def window_mean_manhattan(bag: RearrangedBag) -> float:
    """Mean over windows of the summed unordered-pair Manhattan distances
    between scaled coordinates in each window, exactly: per window and axis,
    sum_{i<j} |x_i - x_j| = sum_k (2k - w + 1) x_(k) with x sorted ascending."""
    w = bag.window_size
    k = 2 * np.arange(w) - w + 1
    windows = np.sort(bag.scaled_coords.reshape(bag.n_windows, w, 2), axis=1)
    return int((windows * k[:, None]).sum()) / bag.n_windows


def compare_strategies(bag: PatchBag, w: int) -> tuple[float, float]:
    """(greedy kNN, raster) mean window Manhattan distances for one bag."""
    return (
        window_mean_manhattan(knn_rearrange(bag, w)),
        window_mean_manhattan(raster_order(bag, w)),
    )
