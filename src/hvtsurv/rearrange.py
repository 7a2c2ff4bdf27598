"""Spatial rearrangement of patch bags into coherent attention windows.

A bag is padded to a multiple of the window size, its pixel coordinates
are scaled to grid units, and windows are then formed greedily: take the
first remaining patch, pull in the w nearest remaining patches (itself
included) under Euclidean distance on the grid, emit them as a window,
and repeat. Compared with raster-scan windowing this keeps each window
compact in both axes on irregularly shaped slides. Large bags find each
window's neighbours with exact queries on one KD-tree per bag instead of
a scan of every remaining patch; the windows are the same either way.

Window-level random masking splits a rearranged bag into m sub-bags of
whole windows for training-time augmentation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bagio import PATCH_PIXELS, PatchBag
from .blocks import pairwise_manhattan
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


# Below this many remaining rows a full scan per window is cheaper than a
# tree round, which costs about two scipy calls whatever the bag size.
_SCAN_ROWS = 512


def knn_rearrange(bag: PatchBag, w: int) -> RearrangedBag:
    """Greedy nearest-neighbor window formation.

    Each round anchors on the first remaining row and selects the w rows
    nearest to it on the scaled grid (squared Euclidean distance, ties
    broken by (gy, gx, sequence index)), removing them from the pool.
    Padding duplicates participate like any other row.

    While more than ``_SCAN_ROWS`` rows remain, the candidates of a round
    are the anchor's k nearest rows on a KD-tree over all rows, with k
    doubled until at least w of them remain and the farthest returned row
    lies strictly beyond the w-th nearest remaining one. Every row that
    can enter the window is then a candidate, so the result equals a full
    scan of the remaining rows, which finishes the bag.
    """
    if w < 1:
        raise ConfigurationError(f"window size must be >= 1, got {w}")
    feats, coords, src = reflect_pad(bag, w)
    grid = scale_coords(coords)
    length = feats.shape[0]

    order = np.empty(length, dtype=np.int64)
    alive = np.ones(length, dtype=bool)
    out = 0
    if length > _SCAN_ROWS:
        # imported here: scipy.spatial adds about 0.1 s to every process that loads it
        from scipy.spatial import cKDTree

        tree = cKDTree(grid)
        anchor = 0
        k = min(2 * w, length)
        while length - out > _SCAN_ROWS:
            while not alive[anchor]:
                anchor += 1
            while True:
                _, near = tree.query(grid[anchor], k=k)
                delta = grid[near] - grid[anchor]
                dist2 = delta[:, 0] ** 2 + delta[:, 1] ** 2
                live = alive[near]
                cand, cand_d2 = near[live], dist2[live]
                if cand.size >= w:
                    ranked = np.lexsort((cand, grid[cand, 0], grid[cand, 1], cand_d2))[:w]
                    if k == length or cand_d2[ranked[-1]] < dist2.max():
                        break
                k = min(2 * k, length)
            take = cand[ranked]
            order[out : out + w] = take
            alive[take] = False
            out += w

    remaining = np.flatnonzero(alive)
    while remaining.size:
        anchor = remaining[0]
        delta = grid[remaining] - grid[anchor]
        dist2 = delta[:, 0] ** 2 + delta[:, 1] ** 2
        ranked = np.lexsort((remaining, grid[remaining, 0], grid[remaining, 1], dist2))
        take = ranked[:w]
        order[out : out + w] = remaining[take]
        out += w
        remaining = np.delete(remaining, take)

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
    """Mean over windows of the summed pairwise Manhattan distances
    (unordered pairs) between scaled coordinates inside each window."""
    windows = bag.scaled_coords.reshape(bag.n_windows, bag.window_size, 2)
    return pairwise_manhattan(windows).sum() / 2.0 / bag.n_windows


def compare_strategies(bag: PatchBag, w: int) -> tuple[float, float]:
    """(greedy kNN, raster) mean window Manhattan distances for one bag."""
    return (
        window_mean_manhattan(knn_rearrange(bag, w)),
        window_mean_manhattan(raster_order(bag, w)),
    )
