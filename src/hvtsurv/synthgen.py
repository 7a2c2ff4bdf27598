"""Synthetic cohorts with a planted risk signal.

Each patient draws a latent risk r in [0, 1]. The risk shows up twice:

* a fraction ``SIGNATURE_FRACTION_MAX * sigmoid(signal_strength * (r - 0.5))``
  of each WSI's patches carries a shifted-mean feature signature, grown as
  a contiguous blob on the occupancy mask so the signal has local spatial
  structure;
* survival time is exponential with rate ``exp(HAZARD_SLOPE*(r-0.5))``
  divided by ``TIME_SCALE_MONTHS``, so higher risk means earlier failure.

Each bag is mean-centered per feature after the signature is planted, so
the signature patches stay shifted relative to the rest of the bag but
the bag-level mean is uninformative: a random linear readout of pooled
features scores at chance, and recovering the risk requires attending to
individual patches.

Masks and blobs are boolean grids indexed [x, y], whose ``np.nonzero``
lists cells in sorted (x, y) order, the row order of each bag. A WSI's
mask is the largest 8-connected component of a random draw, cut to its
patch count by a breadth-first walk from its first cell; the signature
blob is the same walk from a random patch.

Censoring flips an independent coin per patient; a censored patient's
observed time is uniform on (0, true time). Everything is a pure function
of the config seed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bagio import PATCH_PIXELS, FollowUp, PatchBag, PatientRecord
from .errors import ConfigurationError
from .seeding import derive_seed, rng_for


# Planted-signal constants, tuned so that a cohort at signal_strength=5
# supports a held-out concordance well above 0.85 for a model that
# recovers the signature fraction (the latent risk itself scores ~0.94
# against observed outcomes at 30% censoring).
SIGNATURE_FRACTION_MAX = 0.6
SIGNATURE_SHIFT = 4.0
HAZARD_SLOPE = 18.0
TIME_SCALE_MONTHS = 40.0

MASK_RETRY_LIMIT = 8


@dataclass
class SynthConfig:
    n_patients: int
    wsis_per_patient_range: tuple[int, int] = (1, 2)
    patches_per_wsi_range: tuple[int, int] = (80, 160)
    feature_dim: int = 64
    signal_strength: float = 5.0
    censor_rate: float = 0.3
    hole_density: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.n_patients < 1:
            raise ConfigurationError("n_patients must be >= 1")
        for name in ("wsis_per_patient_range", "patches_per_wsi_range"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ConfigurationError(f"{name} must be a nonempty range, got ({lo}, {hi})")
        if self.feature_dim < 1:
            raise ConfigurationError("feature_dim must be >= 1")
        if not 0.0 <= self.censor_rate <= 1.0:
            raise ConfigurationError("censor_rate must lie in [0, 1]")
        if self.signal_strength < 0:
            raise ConfigurationError("signal_strength must be >= 0")
        if not 0.0 <= self.hole_density < 1.0:
            raise ConfigurationError(f"hole_density must lie in [0, 1), got {self.hole_density}")


@dataclass
class CohortTruth:
    """Ground truth behind a generated cohort, for diagnostics and tests."""

    latent_risk: np.ndarray
    true_time_months: np.ndarray
    signature_fraction: np.ndarray
    signature_cells: list[dict[str, set[tuple[int, int]]]]
    signature_direction: np.ndarray


def gen_irregular_mask(width: int, height: int, hole_density: float, seed: int):
    """The cells of ``_irregular_grid`` as a set of (x, y) grid coordinates."""
    return _cells(_irregular_grid(width, height, hole_density, seed))


def _cells(grid: np.ndarray) -> set[tuple[int, int]]:
    return {(int(x), int(y)) for x, y in zip(*np.nonzero(grid))}


def _irregular_grid(width: int, height: int, hole_density: float, seed: int) -> np.ndarray:
    """Connected occupancy grid, indexed [x, y], with random holes.

    Cells are dropped independently with probability ``hole_density``;
    the largest 8-connected component of what remains is kept. With
    diagonal adjacency the component almost always covers the whole
    occupied set, so the occupancy count follows the
    Binomial(width*height, 1 - hole_density) draw closely.
    """
    if width < 1 or height < 1:
        raise ConfigurationError(f"mask grid must be at least 1x1, got {width}x{height}")
    if not 0.0 <= hole_density < 1.0:
        raise ConfigurationError(f"hole_density must lie in [0, 1), got {hole_density}")
    rng = np.random.default_rng(seed)
    for _ in range(MASK_RETRY_LIMIT):
        occupied = rng.random((height, width)) >= hole_density
        if occupied.any():
            return largest_component(occupied).T
    raise ConfigurationError(f"mask draw degenerate after {MASK_RETRY_LIMIT} attempts "
                             f"(hole_density={hole_density})")


def largest_component(occupied: np.ndarray) -> np.ndarray:
    """Mask of the largest 8-connected component of a 2-D boolean grid.

    A vectorised union-find over the 8-neighbour edges. Each horizontal
    run starts out joined under its first cell, which leaves one edge per
    touching pair of runs in consecutive rows. Each round hooks the larger
    root of every edge onto the smaller, jumps pointers until all point at
    roots and drops the edges now inside one tree. A root is its
    component's first cell in raster order, so a tie in size goes to the
    first component, as with ``scipy.ndimage.label`` and ``argmax``.
    """
    h, w = occupied.shape
    cols = w + 1   # an empty column, so no run or edge wraps to the next row
    cell = np.zeros((h + 1, cols), dtype=bool)
    cell[:h, :w] = occupied
    cell = cell.ravel()
    index = np.arange(len(cell))
    starts = cell & ~np.append(False, cell[:-1])
    parent = np.where(cell, np.maximum.accumulate(np.where(starts, index, 0)), index)
    up, down = cell[:-cols], cell[cols:]
    vertical = up & down
    v = np.flatnonzero(vertical & ~np.append(False, vertical[:-1]))
    # a diagonal step matters only where neither cell beside it is occupied
    d = np.flatnonzero(up[:-1] & down[1:] & ~up[1:] & ~down[:-1])
    a = np.flatnonzero(up[1:] & down[:-1] & ~up[:-1] & ~down[1:])
    src = np.concatenate([v, d, a + 1])
    dst = np.concatenate([v, d + 1, a]) + cols
    while len(src):
        ps, pd = parent[src], parent[dst]
        parent[np.maximum(ps, pd)] = np.minimum(ps, pd)
        while not np.array_equal(nxt := parent[parent], parent):
            parent = nxt
        apart = parent[src] != parent[dst]
        src, dst = src[apart], dst[apart]
    label = parent.reshape(h + 1, cols)[:h, :w]
    return label == np.bincount(label[occupied]).argmax()


def _bfs_blob(mask: np.ndarray, start: tuple[int, int], size: int) -> np.ndarray:
    """First ``size`` cells of a breadth-first walk over a boolean grid.

    If layer L (BFS distance from ``start`` over 8-neighbours inside
    ``mask``) is the first to reach ``size`` cells, the blob is every cell
    closer than L plus the first cells of layer L in index order: on an
    [x, y] grid, the order of sorted (x, y) tuples. A smaller component is
    returned whole. Each layer is the last one's 3x3 dilation inside the
    mask, as 8 offsets of flat indices on a copy padded by an empty cell.
    """
    stride = mask.shape[1] + 2
    free = np.zeros((mask.shape[0] + 2, stride), dtype=bool)
    free[1:-1, 1:-1] = mask
    flat = free.ravel()
    steps = np.array([-stride - 1, -stride, -stride + 1, -1, 1, stride - 1, stride, stride + 1])
    layer = np.array([(start[0] + 1) * stride + start[1] + 1])
    flat[layer] = False
    count = 1
    while count < size:
        near = (layer[:, None] + steps).ravel()
        near = np.sort(near[flat[near]])
        if len(near) == 0:
            break
        layer = near[np.append(True, near[1:] != near[:-1])][:size - count]
        flat[layer] = False
        count += len(layer)
    return mask & ~free[1:-1, 1:-1]


def _mask_for_target(cfg: SynthConfig, target: int, seed: int) -> np.ndarray:
    """Mask grid, indexed [x, y], about as wide as it is high and trimmed to
    about ``target`` cells."""
    density = cfg.hole_density
    area = target / max(1.0 - density, 1e-9)
    for _ in range(3):
        width = max(1, round(np.sqrt(area)))
        height = max(1, int(np.ceil(area / width)))
        grid = _irregular_grid(width, height, density, seed)
        if np.count_nonzero(grid) >= target:
            first = np.unravel_index(np.argmax(grid), grid.shape)
            return _bfs_blob(grid, first, target)
        area *= 1.3
        seed = derive_seed(seed, "mask-regrow")
    return grid


class PatientTruth(NamedTuple):
    """Ground truth behind one generated patient: one entry of each of
    CohortTruth's per-patient fields."""

    latent_risk: float
    true_time_months: float
    signature_fraction: float
    signature_cells: dict[str, set[tuple[int, int]]]


def _signature_direction(cfg: SynthConfig) -> np.ndarray:
    sig_dir = rng_for(cfg.seed, "signature-direction").normal(size=cfg.feature_dim)
    return sig_dir / np.linalg.norm(sig_dir)


def gen_patients(cfg: SynthConfig, return_truth: bool = False) -> Iterator:
    """Yield the cohort's patient records one at a time, in patient order,
    or (record, PatientTruth) pairs with ``return_truth``.

    Each patient draws from its own seeded stream and nothing of it stays
    behind in the generator, so a consumer that writes and drops each
    record holds one patient's slides at a time.
    """
    sig_dir = _signature_direction(cfg)
    for i in range(cfg.n_patients):
        yield _gen_patient(cfg, f"P{i:04d}", sig_dir, return_truth)


def _gen_patient(cfg: SynthConfig, pid: str, sig_dir: np.ndarray, return_truth: bool):
    """One item of gen_patients: patient ``pid``'s record, or (record, truth)."""
    rng = rng_for(cfg.seed, f"patient:{pid}")
    r = float(rng.uniform())
    q = SIGNATURE_FRACTION_MAX * (1.0 / (1.0 + np.exp(-(cfg.signal_strength * (r - 0.5)))))

    n_wsis = int(rng.integers(cfg.wsis_per_patient_range[0], cfg.wsis_per_patient_range[1] + 1))
    bags = []
    per_wsi_sig: dict[str, set[tuple[int, int]]] = {}
    for j in range(n_wsis):
        wsi_id = f"{pid}-W{j}"
        target = int(rng.integers(cfg.patches_per_wsi_range[0], cfg.patches_per_wsi_range[1] + 1))
        grid = _mask_for_target(cfg, target, derive_seed(cfg.seed, f"mask:{wsi_id}"))
        xs, ys = np.nonzero(grid)   # x-major: the order of sorted (x, y) cells
        b = len(xs)

        features = rng.normal(size=(b, cfg.feature_dim))
        n_sig = int(round(q * b))
        blob = np.zeros_like(grid)
        if n_sig > 0:
            k = int(rng.integers(b))
            blob = _bfs_blob(grid, (xs[k], ys[k]), n_sig)
            features[blob[xs, ys]] += SIGNATURE_SHIFT * sig_dir
        features -= features.mean(axis=0)
        if return_truth:
            per_wsi_sig[wsi_id] = _cells(blob)

        coords = np.stack([xs, ys], axis=1).astype(np.int64) * PATCH_PIXELS
        bags.append(PatchBag(wsi_id=wsi_id, coords=coords, features=features))

    rate = np.exp(HAZARD_SLOPE * (r - 0.5)) / TIME_SCALE_MONTHS
    t_true = float(rng.exponential(1.0 / rate))
    censored = int(rng.uniform() < cfg.censor_rate)
    t_obs = t_true * float(rng.uniform()) if censored else t_true

    record = PatientRecord(pid, bags, FollowUp(t_obs, censored))
    return (record, PatientTruth(r, t_true, q, per_wsi_sig)) if return_truth else record


def gen_cohort(cfg: SynthConfig, return_truth: bool = False):
    """Generate a cohort of patient records with the planted risk signal:
    gen_patients' records as a list, and with ``return_truth`` the
    CohortTruth behind them. The list holds every patient's slides at once;
    ``hvtsurv synth`` writes each patient as gen_patients yields it instead.
    """
    if not return_truth:
        return list(gen_patients(cfg))
    records, truths = zip(*gen_patients(cfg, return_truth=True))
    risks, true_times, fractions, sig_cells = zip(*truths)
    truth = CohortTruth(
        latent_risk=np.array(risks),
        true_time_months=np.array(true_times),
        signature_fraction=np.array(fractions),
        signature_cells=list(sig_cells),
        signature_direction=_signature_direction(cfg),
    )
    return list(records), truth
