"""Attention building blocks.

* piecewise bucketing of Manhattan distances into a small index range,
  which addresses a learnable (rows, heads) relative-position bias table,
* windowed multi-head self-attention (pre-norm, residual, gelu MLP),
  batched over all windows of its rows, with an optional additive bias,
* a deterministic stride shuffle that mixes rows across windows, per block of rows,
* gated attention pooling of a variable-length feature set.

The kernels read their weights from a ParamStore by name: a block's
under ``{prefix}.``, as block_layout declares them, and the pooling
weights under ``pool.``. Forward functions optionally return a state
object which the matching ``*_backward`` consumes. The pooling backward
adds its parameter gradients to the store and returns the input
gradient; the window-attention backward writes nothing to the store and
returns the input gradient with the parameter gradients, so chunks of
rows can run it on threads while one caller adds their gradients up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .numerics import (
    ParamStore,
    gelu,
    gelu_and_slope,
    layer_norm,
    layer_norm_backward,
    linear,
    linear_backward,
    normal_cdf,
    softmax_rows,
    softmax_rows_backward,
    tanh,
    tanh_backward,
)


@dataclass
class BucketParams:
    """Hyperparameters of the piecewise distance-to-bucket map."""

    alpha: float = 1.9
    beta: float = 7.6
    gamma: float = 11.4
    lam: int = 7

    def __post_init__(self):
        if not 0 < self.alpha < self.beta:
            raise ValidationError(f"need 0 < alpha < beta, got {self.alpha}, {self.beta}")
        if self.gamma <= self.alpha:
            raise ValidationError(f"need gamma > alpha, got {self.gamma} <= {self.alpha}")
        if self.lam < 1:
            raise ValidationError(f"need lam >= 1, got {self.lam}")
        if int(np.floor(self.alpha + 0.5)) > self.lam:
            raise ValidationError("round(alpha) must not exceed lam or buckets overflow")

    @property
    def table_rows(self) -> int:
        return self.lam + 1  # one per bucket a distance maps to, 0..lam


def bucket_distances(x, p: BucketParams) -> np.ndarray:
    """Vectorized bucket map; even in x, non-decreasing in |x|, capped at lam.

    Distances up to alpha keep their rounded value; beyond that the bucket
    grows logarithmically. Rounding is half-away-from-zero.
    """
    ax = np.abs(np.asarray(x, dtype=np.float64))
    near = np.floor(ax + 0.5)
    safe = np.maximum(ax, 1e-300)
    inner = p.alpha + np.log(safe / p.alpha) / np.log(p.gamma / p.alpha) * (p.beta - 2 * p.alpha)
    far = np.minimum(float(p.lam), np.floor(inner + 0.5))
    return np.where(ax <= p.alpha, near, far).astype(np.int64)


def bucket_distance(x: float, p: BucketParams) -> int:
    return int(bucket_distances(np.asarray(x), p))


def pairwise_manhattan(coords: np.ndarray) -> np.ndarray:
    """Manhattan distances between all point pairs within each window.

    ``coords`` is (w, 2) for one window or (nW, w, 2) for a batch of
    windows; the result is (w, w) or (nW, w, w) respectively.
    """
    c = np.asarray(coords, dtype=np.int64)
    # in place: at slide scale each fresh (nW, w, w) temporary costs more
    # in page faults than the arithmetic on it
    d = c[..., :, None, 0] - c[..., None, :, 0]
    dy = c[..., :, None, 1] - c[..., None, :, 1]
    np.abs(d, out=d)
    d += np.abs(dy, out=dy)
    return d


def manhattan_bucket_index(coords: np.ndarray, p: BucketParams) -> np.ndarray:
    """Bucket indices of pairwise_manhattan(coords), shaped like it.

    The bucket map runs once per distinct distance, 0..max, and the
    result is gathered from that table.
    """
    d = pairwise_manhattan(coords)
    return bucket_distances(np.arange(d.max(initial=0) + 1), p)[d]


def bias_table_grad(g_scores: np.ndarray, idx: np.ndarray, n_rows: int) -> np.ndarray:
    """Scatter (nW, h, w, w) score gradients onto the (n_rows, h) bias table.

    ``idx`` holds the (nW, w, w) table row each score read its bias from.
    np.bincount sums in float64; the result is rounded once to the dtype
    of ``g_scores``.
    """
    flat = idx.reshape(-1)
    sums = [np.bincount(flat, weights=g_scores[:, k].reshape(-1), minlength=n_rows)
            for k in range(g_scores.shape[1])]
    return np.stack(sums, axis=1).astype(g_scores.dtype, copy=False)


def block_layout(d: int, ffn_ratio: int) -> dict[str, tuple[tuple[int, ...], str]]:
    """The tensors of one attention block as name -> (shape, init), in draw
    order; ``init`` is "ones", "zeros" or "normal".
    """
    hidden = ffn_ratio * d
    return {"ln1_gamma": ((d,), "ones"), "ln1_beta": ((d,), "zeros"),
            **{n: ((d, d), "normal") for n in ("wq", "wk", "wv", "wo")},
            "ln2_gamma": ((d,), "ones"), "ln2_beta": ((d,), "zeros"),
            "ffn_w1": ((d, hidden), "normal"), "ffn_b1": ((hidden,), "zeros"),
            "ffn_w2": ((hidden, d), "normal"), "ffn_b2": ((d,), "zeros")}


def _windows(m: np.ndarray, w: int, heads: int) -> np.ndarray:
    """(N, d) rows as an (N/w, heads, w, d/heads) per-window, per-head view."""
    n, d = m.shape
    return m.reshape(n // w, w, heads, d // heads).transpose(0, 2, 1, 3)


def _rows(m: np.ndarray) -> np.ndarray:
    """Inverse of ``_windows``: (nW, heads, w, d_head) back to (nW*w, d)."""
    nw, heads, w, d_head = m.shape
    return m.transpose(0, 2, 1, 3).reshape(nw * w, heads * d_head)


def window_attention(x: np.ndarray, params: ParamStore, prefix: str, heads: int, w: int,
                     idx=None, return_state: bool = False):
    """The attention block ``{prefix}.*`` over consecutive w-row windows of x (N, d).

    Rows k*w .. (k+1)*w - 1 form window k. Layer norms, projections and
    the gelu MLP act row by row on all N rows at once; only the
    attention itself is batched per window and head, as
    softmax((Q K^T + B) / sqrt(d_head)). B is zero when ``idx`` is None;
    otherwise ``idx`` is the (nW, w, w) bucket index and B reads row
    idx[k, i, j] of the (rows, heads) table ``{prefix}.bias_table``.
    """
    n, d = x.shape
    if d % heads:
        raise ShapeError(f"dim {d} not divisible by {heads} heads")
    if w < 1 or n % w:
        raise ShapeError(f"window size {w} does not divide {n} rows")
    if idx is not None and idx.shape != (n // w, w, w):
        raise ShapeError(f"bucket index shape {idx.shape}, expected {(n // w, w, w)}")
    # a Python float keeps float32 score gradients float32; np.sqrt's float64 would not
    scale = 1.0 / math.sqrt(d // heads)

    def p(name):
        return params[f"{prefix}.{name}"]

    u, ln1_state = layer_norm(x, p("ln1_gamma"), p("ln1_beta"))
    qh = _windows(u @ p("wq"), w, heads)
    kh = _windows(u @ p("wk"), w, heads)
    vh = _windows(u @ p("wv"), w, heads)
    del u
    scores = qh @ kh.transpose(0, 1, 3, 2)
    if idx is not None:
        # gathered straight into the scores' (nW, heads, w, w) layout: head k
        # reads the table's column k, at offset k*rows of the transposed table
        table = p("bias_table").T.ravel()
        heads_at = np.arange(0, table.size, table.size // heads)[:, None, None]
        scores += np.take(table, idx[:, None] + heads_at)
    scores *= scale
    attn = softmax_rows(scores)
    y = _rows(attn @ vh) @ p("wo")
    y += x

    u2, ln2_state = layer_norm(y, p("ln2_gamma"), p("ln2_beta"))
    h1 = linear(u2, p("ffn_w1"), p("ffn_b1"))
    del u2
    # with no state kept, nothing reads h1 again: gelu overwrites it
    a1 = gelu(h1, out=None if return_state else h1)
    out = linear(a1, p("ffn_w2"), p("ffn_b2"))
    del a1
    out += y

    if not return_state:
        return out
    # Kept: what the backward cannot recompute exactly and cheaply. It
    # recomputes the layer-norm outputs from their caches, the attention
    # context from attn and vh, and gelu(h1) from h1, all bit for bit.
    state = dict(ln1_state=ln1_state, qh=qh, kh=kh, vh=vh, attn=attn,
                 ln2_state=ln2_state, h1=h1, scale=scale, idx=idx)
    return out, state


def window_attention_backward(grad: np.ndarray, state: dict, params: ParamStore, prefix: str):
    """Gradient of window_attention, as (gradient w.r.t. x, {name: gradient})
    with one entry for every ``{prefix}.*`` tensor the forward read, bias
    table included, keyed by its full store name.

    It only reads params, so chunks of rows can run it concurrently; the
    caller adds the gradients to the store. Each stored activation is
    popped from ``state`` once used, so the state is spent afterwards.
    """
    def p(name):
        return params[f"{prefix}.{name}"]

    grads = {}

    def add(**named):
        grads.update((f"{prefix}.{name}", g) for name, g in named.items())

    # The MLP's (N, ffn_ratio*d) arrays set the step's peak memory: h1 turns
    # into gelu(h1) and then into its own gradient, and its cdf into the slope.
    h1 = state.pop("h1")
    h1, slope = gelu_and_slope(h1, normal_cdf(h1))
    add(ffn_w2=h1.T @ grad, ffn_b2=grad.sum(axis=0))
    g = np.matmul(grad, p("ffn_w2").T, out=h1)   # over gelu(h1), which is spent
    g *= slope
    del h1, slope
    ln2_state = state.pop("ln2_state")
    u2 = ln2_state[0] * p("ln2_gamma") + p("ln2_beta")   # layer_norm's output, bit for bit
    gu2, g_w1, g_b1 = linear_backward(g, u2, p("ffn_w1"))
    del g, u2
    add(ffn_w1=g_w1, ffn_b1=g_b1)
    gy, g_gamma, g_beta = layer_norm_backward(gu2, ln2_state, p("ln2_gamma"))
    del gu2, ln2_state
    add(ln2_gamma=g_gamma, ln2_beta=g_beta)
    gy += grad

    attn, vh = state.pop("attn"), state.pop("vh")
    add(wo=_rows(attn @ vh).T @ gy)   # the forward's attention context, bit for bit
    gctx = _windows(gy @ p("wo").T, attn.shape[2], attn.shape[1])
    g_attn, g_vh = gctx @ vh.transpose(0, 1, 3, 2), attn.transpose(0, 1, 3, 2) @ gctx
    del gctx, vh
    g_scores = softmax_rows_backward(g_attn, attn)
    del g_attn, attn
    g_scores *= state.pop("scale")
    qh, kh = state.pop("qh"), state.pop("kh")
    g_qh, g_kh = g_scores @ kh, g_scores.transpose(0, 1, 3, 2) @ qh
    del qh, kh
    idx = state.pop("idx")
    if idx is not None:
        add(bias_table=bias_table_grad(g_scores, idx, p("bias_table").shape[0]))
    del g_scores
    gq, gk, gv = _rows(g_qh), _rows(g_kh), _rows(g_vh)
    del g_qh, g_kh, g_vh
    ln1_state = state.pop("ln1_state")
    u = ln1_state[0] * p("ln1_gamma") + p("ln1_beta")
    gu = gq @ p("wq").T + gk @ p("wk").T + gv @ p("wv").T
    add(wq=u.T @ gq, wk=u.T @ gk, wv=u.T @ gv)
    del u, gq, gk, gv
    gx, g_gamma, g_beta = layer_norm_backward(gu, ln1_state, p("ln1_gamma"))
    add(ln1_gamma=g_gamma, ln1_beta=g_beta)
    gx += gy
    return gx, grads


def spatial_shuffle(length: int, w: int) -> np.ndarray:
    """Deterministic stride-shuffle permutation.

    Viewing the sequence as an (length/w, w) grid in row-major order, the
    permutation reads it out column-major, so when length = w**2 every new
    window holds exactly one element of each old window.
    """
    if length % w:
        raise ShapeError(f"window size {w} does not divide length {length}")
    return np.arange(length).reshape(length // w, w).T.ravel()


def block_shuffle(lengths, w: int) -> np.ndarray:
    """Block-diagonal spatial_shuffle: that of each block of ``lengths``
    consecutive rows, offset by its first row, so no row leaves its block."""
    starts = np.cumsum([0, *lengths])
    return np.concatenate([spatial_shuffle(n, w) + s for n, s in zip(lengths, starts)])


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return inv


def attn_pool(h: np.ndarray, params: ParamStore, return_state: bool = False):
    """Softmax-weighted sum of rows, scored by ``pool.U`` on the
    tanh(``pool.V`` h) gate; returns (pooled (d,), weights (G,))."""
    if h.ndim != 2 or h.shape[0] < 1:
        raise ShapeError(f"attn_pool expects (G, d) with G >= 1, got {h.shape}")
    t = tanh(h @ params["pool.V"].T)
    scores = (t @ params["pool.U"].T).ravel()
    weights = softmax_rows(scores[None, :])[0]
    pooled = weights @ h
    if not return_state:
        return pooled, weights
    return pooled, weights, dict(t=t, weights=weights, h=h)


def attn_pool_backward(g_pooled: np.ndarray, state: dict, params: ParamStore) -> np.ndarray:
    """Gradient of the pooled output w.r.t. the rows; adds the ``pool.U``
    and ``pool.V`` gradients to params."""
    t, weights, h = state["t"], state["weights"], state["h"]
    g_weights = h @ g_pooled
    gh = np.outer(weights, g_pooled)
    g_scores = softmax_rows_backward(g_weights[None, :], weights[None, :])[0]
    params.add_grad("pool.U", (g_scores[:, None] * t).sum(axis=0, keepdims=True))
    g_pre = tanh_backward(np.outer(g_scores, params["pool.U"][0]), t)
    params.add_grad("pool.V", g_pre.T @ h)
    gh += g_pre @ params["pool.V"]
    return gh
