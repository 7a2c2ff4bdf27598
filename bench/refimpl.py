"""Reference computations written apart from the hvtsurv package.

Nothing here imports hvtsurv. Each function recomputes, from the
documented behaviour, something the program also computes, so that the
benchmark can check the program's outputs without trusting its code:
the model forward pass and loss, the window rearrangement contract,
the survival statistics, and the PBAG / checkpoint file layouts.
"""

from __future__ import annotations

import csv
import itertools
import struct
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

PATCH_PIXELS = 256
LN_EPS = 1e-5
LOG_FLOOR = 1e-12


# ---------------------------------------------------------------- model


@dataclass(frozen=True)
class ModelShape:
    """The configuration values the forward pass depends on."""

    window_size: int
    n_heads: int
    alpha: float = 1.9
    beta: float = 7.6
    gamma: float = 11.4
    lam: int = 7


def bucket_of_distance(d: np.ndarray, s: ModelShape) -> np.ndarray:
    """Piecewise distance bucket: round half up below alpha, logarithmic
    growth capped at lam above it."""
    d = np.asarray(d, dtype=np.float64)
    near = np.floor(d + 0.5)
    log_part = np.log(np.maximum(d, 1e-300) / s.alpha) / np.log(s.gamma / s.alpha)
    far = np.minimum(float(s.lam), np.floor(s.alpha + log_part * (s.beta - 2 * s.alpha) + 0.5))
    return np.where(d <= s.alpha, near, far).astype(np.int64)


def _layer_norm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    centred = x - mu
    var = (centred * centred).mean(axis=-1, keepdims=True)
    return centred / np.sqrt(var + LN_EPS) * gamma + beta


def _gelu(x):
    return 0.5 * x * (1.0 + special.erf(x / np.sqrt(2.0)))


def _softmax(s, axis=-1):
    e = np.exp(s - s.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _attention_block(x, p: dict, prefix: str, n_heads: int, bias=None):
    """Pre-norm multi-head attention block over a batch of windows.

    x is (n_windows, w, d); bias, when given, is (n_windows, heads, w, w)
    and is added to the raw scores before the 1/sqrt(d_head) scaling.
    Projections run as one matrix product over all rows.
    """
    nw, w, d = x.shape
    dh = d // n_heads
    rows = x.reshape(nw * w, d)
    u = _layer_norm(rows, p[f"{prefix}.ln1_gamma"], p[f"{prefix}.ln1_beta"])

    def heads(m):
        return m.reshape(nw, w, n_heads, dh).transpose(0, 2, 1, 3)

    q = heads(u @ p[f"{prefix}.wq"])
    k = heads(u @ p[f"{prefix}.wk"])
    v = heads(u @ p[f"{prefix}.wv"])
    scores = q @ k.transpose(0, 1, 3, 2)
    if bias is not None:
        scores = scores + bias
    attn = _softmax(scores / np.sqrt(dh))
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(nw * w, d)
    y = rows + ctx @ p[f"{prefix}.wo"]
    u2 = _layer_norm(y, p[f"{prefix}.ln2_gamma"], p[f"{prefix}.ln2_beta"])
    hidden = _gelu(u2 @ p[f"{prefix}.ffn_w1"] + p[f"{prefix}.ffn_b1"])
    return (y + hidden @ p[f"{prefix}.ffn_w2"] + p[f"{prefix}.ffn_b2"]).reshape(nw, w, d)


def stride_shuffle(length: int, w: int) -> np.ndarray:
    """Row order of the shuffled layer: read the (length/w, w) grid of
    rows column by column."""
    return np.arange(length).reshape(length // w, w).T.reshape(-1)


def forward_ref(sub_bags, params: dict, s: ModelShape) -> dict:
    """Hazards, survival curve and risk of one patient.

    ``sub_bags`` is a list of (features (n, d_in), grid coords (n, 2)).
    Computed in float64 with every window of a sub-bag in one batch.
    """
    w = s.window_size
    outputs = []
    for feats, coords in sub_bags:
        x = np.asarray(feats, dtype=np.float64)
        n = x.shape[0]
        if n % w:
            raise ValueError(f"sub-bag of {n} rows is not whole windows of {w}")
        h0 = x @ params["reduce.weight"] + params["reduce.bias"]
        c = np.asarray(coords, dtype=np.int64).reshape(n // w, w, 2)
        manhattan = (np.abs(c[:, :, None, 0] - c[:, None, :, 0])
                     + np.abs(c[:, :, None, 1] - c[:, None, :, 1]))
        bias = params["local.bias_table"][bucket_of_distance(manhattan, s)]  # (nw, w, w, h)
        h1 = _attention_block(h0.reshape(n // w, w, -1), params, "local", s.n_heads,
                              bias.transpose(0, 3, 1, 2)).reshape(n, -1)
        order = stride_shuffle(n, w)
        shuffled = _attention_block(h1[order].reshape(n // w, w, -1), params, "shuffle",
                                    s.n_heads).reshape(n, -1)
        h2 = np.empty_like(shuffled)
        h2[order] = shuffled
        outputs.append(h2)
    return pool_head_ref(np.vstack(outputs), params)


def pool_head_ref(h: np.ndarray, params: dict) -> dict:
    """Gated attention pooling of all block-output rows of a patient,
    then the sigmoid hazard head."""
    gate = np.tanh(h @ params["pool.V"].T) @ params["pool.U"].T
    weights = _softmax(gate[:, 0])
    logits = (weights @ h) @ params["head.weight"] + params["head.bias"]
    hazards = special.expit(logits)
    survival = np.cumprod(1.0 - hazards)
    return {"hazards": hazards, "survival": survival, "risk": float(-survival.sum()),
            "rows": h}


def nll_ref(out: dict, label: int, censored: int) -> float:
    """Discrete-time likelihood loss with logs floored at 1e-12."""
    surv, haz = out["survival"], out["hazards"]
    if censored:
        return float(-np.log(max(surv[label], LOG_FLOOR)))
    before = surv[label - 1] if label > 0 else 1.0
    return float(-np.log(max(before, LOG_FLOOR)) - np.log(max(haz[label], LOG_FLOOR)))


def directional_derivative(loss_at, params: dict, direction: dict, eps: float) -> float:
    """Central difference of ``loss_at`` along ``direction``, which may
    cover only some of the tensors (float64)."""
    plus = {**params, **{n: params[n] + eps * v for n, v in direction.items()}}
    minus = {**params, **{n: params[n] - eps * v for n, v in direction.items()}}
    return (loss_at(plus) - loss_at(minus)) / (2.0 * eps)


def adamw_first_step(before: np.ndarray, grad: np.ndarray, lr: float, wd: float,
                     eps: float = 1e-8) -> np.ndarray:
    """Parameters after the first AdamW step from zero moments: the bias
    corrected moments are g and g**2, so the update is g / (|g| + eps)."""
    return before - lr * (grad / (np.abs(grad) + eps) + wd * before)


# -------------------------------------------------------- rearrangement


def padded_positions(b: int, w: int) -> np.ndarray:
    """Source row of each position of a bag of b rows padded to whole
    windows: half the pad in front, mirrored without repeating the edge
    row, or repeating the edge row when the pad is not shorter than the
    bag."""
    pad = (w - b % w) % w
    left, right = pad // 2, pad - pad // 2
    if pad and (b == 1 or pad >= b):
        front, back = [0] * left, [b - 1] * right
    else:
        front = list(range(left, 0, -1))
        back = list(range(b - 2, b - 2 - right, -1))
    return np.array(front + list(range(b)) + back, dtype=np.int64)


def grid_of(pixel_coords: np.ndarray) -> np.ndarray:
    """Pixel coordinates to 1-based grid units of the bag."""
    g = np.asarray(pixel_coords, dtype=np.int64) // PATCH_PIXELS
    return g - g.min(axis=0) + 1


class RearrangementMismatch(Exception):
    pass


def source_rows_of(out_grid: np.ndarray, src_grid: np.ndarray) -> np.ndarray:
    """Map each output row to the source row at the same grid cell
    (source coordinates are unique)."""
    width = int(max(out_grid[:, 1].max(), src_grid[:, 1].max())) + 1
    src_key = src_grid[:, 0] * width + src_grid[:, 1]
    order = np.argsort(src_key)
    out_key = out_grid[:, 0] * width + out_grid[:, 1]
    pos = np.clip(np.searchsorted(src_key[order], out_key), 0, len(order) - 1)
    rows = order[pos]
    if not np.array_equal(src_key[rows], out_key):
        raise RearrangementMismatch("output row at a grid cell the source bag lacks")
    return rows


def check_knn_windows(src_rows: np.ndarray, src_grid: np.ndarray, w: int) -> None:
    """Verify a greedy kNN window order against its contract.

    ``src_rows`` holds, in output order, the source row of every output
    row. The rows must be a permutation of the padded source rows; each
    window must start at the earliest remaining padded position and hold,
    in ascending order, the w remaining rows that come first under the
    key (squared distance to the anchor, gy, gx, padded position).
    Copies of one source row are matched to padded positions in output
    order, which is the order the key gives them.
    """
    n = src_rows.size
    pad_rows = padded_positions(len(src_grid), w)
    if n != pad_rows.size or not np.array_equal(np.sort(src_rows), np.sort(pad_rows)):
        raise RearrangementMismatch("rows are not a permutation of the padded source rows")
    seq = np.empty(n, dtype=np.int64)
    seq[np.argsort(src_rows, kind="stable")] = np.argsort(pad_rows, kind="stable")
    grid = src_grid[src_rows]
    gx, gy = grid[:, 0], grid[:, 1]
    span = int(max(gx.max(), gy.max()))
    d2_bits = (2 * span * span).bit_length()
    c_bits, s_bits = span.bit_length(), int(n).bit_length()
    if d2_bits + 2 * c_bits + s_bits > 62:
        raise ValueError("grid too large for packed keys")
    low_key = ((gy << c_bits) | gx) << s_bits | seq
    suffix_min_seq = np.minimum.accumulate(seq[::-1])[::-1]
    for k in range(n // w):
        a = k * w
        if seq[a] != suffix_min_seq[a]:
            raise RearrangementMismatch(f"window {k} does not start at the earliest remaining row")
        d2 = (gx[a:] - gx[a]) ** 2 + (gy[a:] - gy[a]) ** 2
        key = (d2 << (2 * c_bits + s_bits)) | low_key[a:]
        inside = key[:w]
        if np.any(np.diff(inside) <= 0):
            raise RearrangementMismatch(f"window {k} rows are not in ascending key order")
        if key.size > w and inside[-1] >= key[w:].min():
            raise RearrangementMismatch(f"window {k} misses a nearer remaining row")


def raster_grid(src_grid: np.ndarray, w: int) -> np.ndarray:
    """Grid coordinates of the raster baseline: sort by (gy, gx, index),
    pad, and cut consecutive windows."""
    order = np.lexsort((np.arange(len(src_grid)), src_grid[:, 0], src_grid[:, 1]))
    return src_grid[order][padded_positions(len(src_grid), w)]


def mean_window_manhattan(grid: np.ndarray, w: int) -> float:
    """Mean over windows of the summed Manhattan distance of unordered
    row pairs."""
    c = np.asarray(grid, dtype=np.int64).reshape(-1, w, 2)
    d = (np.abs(c[:, :, None, 0] - c[:, None, :, 0])
         + np.abs(c[:, :, None, 1] - c[:, None, :, 1]))
    return float((d.sum(axis=(1, 2)) / 2.0).mean())


def check_window_split(n_windows: int, window_ids: list, n_sub: int) -> None:
    """Sub-bags take whole windows: as many groups as allowed, sizes within
    one of each other, each sorted, together every window exactly once."""
    if len(window_ids) != min(n_sub, n_windows):
        raise RearrangementMismatch(f"{len(window_ids)} sub-bags for {n_windows} windows")
    sizes = [len(ids) for ids in window_ids]
    if max(sizes) - min(sizes) > 1:
        raise RearrangementMismatch(f"unbalanced sub-bag sizes {sizes}")
    if any(np.any(np.diff(ids) <= 0) for ids in window_ids):
        raise RearrangementMismatch("sub-bag windows are not in parent order")
    if not np.array_equal(np.sort(np.concatenate(window_ids)), np.arange(n_windows)):
        raise RearrangementMismatch("sub-bags do not partition the windows")


# ------------------------------------------------------------ statistics


def c_index_pairs(times, events, risks) -> float:
    """Concordance by enumerating every ordered pair: (i, j) counts when
    i had the event and j was followed strictly longer; it is concordant
    when i's risk is strictly higher."""
    comparable = concordant = 0
    for i in range(len(times)):
        if not events[i]:
            continue
        for j in range(len(times)):
            if times[j] > times[i]:
                comparable += 1
                concordant += risks[i] > risks[j]
    if comparable == 0:
        raise ValueError("no comparable pairs")
    return concordant / comparable


def c_index_range_rounded(times, events, rounded_risks, half_unit) -> tuple[float, float]:
    """Lowest and highest C-index consistent with risks rounded to
    +-half_unit: a comparable pair whose rounded risks lie within two
    half units of each other may have been ordered either way."""
    r = np.asarray(rounded_risks, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    sure = maybe = comparable = 0
    for i in np.flatnonzero(np.asarray(events) == 1):
        later = t > t[i]
        comparable += int(later.sum())
        gap = r[i] - r[later]
        sure += int((gap > 2 * half_unit * (1 + 1e-9)).sum())
        maybe += int((np.abs(gap) <= 2 * half_unit * (1 + 1e-9)).sum())
    if comparable == 0:
        raise ValueError("no comparable pairs")
    return sure / comparable, (sure + maybe) / comparable


def median_split(risks) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the low (risk <= median) and high groups."""
    r = np.asarray(risks, dtype=np.float64)
    m = np.median(r)
    return np.flatnonzero(r <= m), np.flatnonzero(r > m)


def censored_data(times, events) -> stats.CensoredData:
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events).astype(bool)
    return stats.CensoredData(uncensored=t[e], right=t[~e])


def logrank_scipy(times_a, events_a, times_b, events_b) -> tuple[float, float]:
    """Chi-square statistic and p-value from scipy's log-rank test."""
    res = stats.logrank(censored_data(times_a, events_a), censored_data(times_b, events_b))
    return float(res.statistic) ** 2, float(res.pvalue)


def km_scipy(times, events) -> tuple[np.ndarray, np.ndarray]:
    """Product-limit survival at each distinct event time, from scipy."""
    sf = stats.ecdf(censored_data(times, events)).sf
    t = np.asarray(times, dtype=np.float64)
    event_times = np.unique(t[np.asarray(events).astype(bool)])
    keep = np.isin(sf.quantiles, event_times)
    return sf.quantiles[keep], sf.probabilities[keep]


def ambiguous_splits(rounded, half_unit):
    """Every (low, high) median split the rounded risks allow.

    A row is undetermined when its interval of possible true values
    overlaps the interval of possible medians; each undetermined row is
    tried on both sides.
    """
    r = np.asarray(rounded, dtype=np.float64)
    lo_med, hi_med = np.median(r - half_unit), np.median(r + half_unit)
    sure_low = r + half_unit < lo_med
    sure_high = r - half_unit > hi_med
    open_rows = np.flatnonzero(~(sure_low | sure_high))
    if open_rows.size > 12:
        raise ValueError(f"{open_rows.size} risks too close to the median to resolve")
    for sides in itertools.product((False, True), repeat=open_rows.size):
        high = sure_high.copy()
        high[open_rows] = sides
        if high.any() and not high.all():
            yield np.flatnonzero(~high), np.flatnonzero(high)


# ---------------------------------------------------------- file formats


def read_pbag(path) -> tuple[np.ndarray, np.ndarray]:
    """(coords int32 (b, 2), features float32 (b, d)) from a PBAG file:
    "PBAG", u32 version 1, u32 b, u32 d, b*(i32 x, i32 y), b*d f32."""
    raw = open(path, "rb").read()
    if raw[:4] != b"PBAG":
        raise ValueError(f"{path}: bad magic")
    version, b, d = struct.unpack_from("<III", raw, 4)
    if version != 1 or len(raw) != 16 + 8 * b + 4 * b * d:
        raise ValueError(f"{path}: version {version}, {len(raw)} bytes for b={b} d={d}")
    coords = np.frombuffer(raw, "<i4", 2 * b, 16).reshape(b, 2)
    feats = np.frombuffer(raw, "<f4", b * d, 16 + 8 * b).reshape(b, d)
    return coords, feats


def read_checkpoint(path) -> tuple[dict, dict]:
    """(float64 tensors by name, config key-values) from a checkpoint:
    "HVTC", u32 version, u32 text length, key=value text, u32 count,
    then per tensor u16 name length, name, u8 ndim, u32 dims, f32 data."""
    raw = open(path, "rb").read()
    if raw[:4] != b"HVTC":
        raise ValueError(f"{path}: bad magic")
    _, text_len = struct.unpack_from("<II", raw, 4)
    at = 12 + text_len
    config = dict(line.split("=", 1) for line in raw[12:at].decode().splitlines() if line)
    (count,) = struct.unpack_from("<I", raw, at)
    at += 4
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, at)
        name = raw[at + 2:at + 2 + name_len].decode()
        at += 2 + name_len
        ndim = raw[at]
        shape = struct.unpack_from(f"<{ndim}I", raw, at + 1)
        at += 1 + 4 * ndim
        size = int(np.prod(shape)) if ndim else 1
        tensors[name] = np.frombuffer(raw, "<f4", size, at).reshape(shape).astype(np.float64)
        at += 4 * size
    if at != len(raw):
        raise ValueError(f"{path}: {len(raw) - at} trailing bytes")
    return tensors, config


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
