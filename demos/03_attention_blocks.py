#!/usr/bin/env python3
# Walk through the attention machinery: the distance-bucket map, the
# relative-position bias it indexes, the batched window-attention kernel
# (used with a bias by the local layer and without one, after a stride
# shuffle, by the shuffle layer), and gated pooling, ending with a
# finite-difference check of one full block including the bias table.
# The kernels read their weights by name from a ParamStore, the store the
# model keeps every parameter in, and add their gradients back to it.

import numpy as np

from hvtsurv.blocks import (
    BucketParams,
    attn_pool,
    block_layout,
    bucket_distance,
    inverse_permutation,
    manhattan_bucket_index,
    spatial_shuffle,
    window_attention,
    window_attention_backward,
)
from hvtsurv.numerics import ParamStore, finite_diff_check
from hvtsurv.survmodel import draw_tensors

p = BucketParams()   # alpha 1.9, beta 7.6, gamma 11.4, lambda 7
print("distance -> bucket:")
for x in (0, 1, 2, 3, 5, 8, 11.4, 20, 100):
    print(f"  {x:>6} -> {bucket_distance(float(x), p)}")
print("short distances keep their own bucket; long ones compress "
      f"logarithmically and cap at {p.lam}\n")

rng = np.random.default_rng(0)
# one row per bucket 0..lambda, one column per head, drawn as the model draws it
table = draw_tensors({"t": ((p.table_rows, 2), "table")}, rng)["t"]
# two windows of four patches each, as (nW, w, 2) grid coordinates
coords = np.array([[[1, 1], [2, 1], [1, 2], [5, 6]],
                   [[9, 9], [9, 10], [10, 10], [12, 9]]])
idx = manhattan_bucket_index(coords, p)
bias = table[idx].transpose(0, 3, 1, 2)                  # (nW, heads, w, w)
print("bucket indices of window 0:")
print(idx[0])
print("per-head bias for window 0 (head 0):")
print(np.round(bias[0, 0], 4))
print("symmetric:", np.allclose(bias, bias.transpose(0, 1, 3, 2)), "\n")

# one block's tensors, named "local.wq", "local.ffn_w1", ... as block_layout
# declares them, plus the bias table the local layer reads through idx
local = draw_tensors({f"local.{n}": v for n, v in block_layout(16, 4).items()}, rng)
params = ParamStore({**local, "local.bias_table": table})
x = rng.normal(size=(8, 16))
out, state = window_attention(x, params, "local", 2, 4, idx, return_state=True)
print("attention shape (windows, heads, w, w):", state["attn"].shape)
print("attention rows sum to", state["attn"].sum(axis=-1).ravel()[:4], "\n")

perm = spatial_shuffle(12, 3)
print("stride shuffle of 12 rows at w=3:", perm.tolist())
print("inverse restores order:",
      np.array_equal(perm[inverse_permutation(perm)], np.arange(12)))
shuffle = ParamStore(draw_tensors({f"shuffle.{n}": v
                                   for n, v in block_layout(16, 4).items()}, rng))
h = rng.normal(size=(12, 16))
mixed = window_attention(h[perm], shuffle, "shuffle", 2, 3)[inverse_permutation(perm)]
print("shuffle layer = same kernel, no bias, rows permuted and restored:",
      mixed.shape, "\n")

pool = ParamStore({"pool.U": rng.normal(scale=0.02, size=(1, 8)),
                   "pool.V": rng.normal(scale=0.02, size=(8, 16))})
pooled, weights = attn_pool(rng.normal(size=(6, 16)), pool)
print("pooling weights:", np.round(weights, 3), "sum", weights.sum(), "\n")

# finite-difference check of the whole block (weights, input and bias
# table); the weights are scaled up so the attention is far from uniform
# and every gradient element sits well above the finite-difference noise
# floor. The backward returns the input gradient and every weight and
# bias-table gradient by name; the caller adds them to the store.
for name in ("wq", "wk", "wv", "wo", "ffn_w1", "ffn_w2"):
    local[f"local.{name}"] *= 10.0
store = ParamStore({**local, "local.bias_table": table * 50.0, "x": x})
probe = rng.normal(size=(8, 16))


def loss(ps):
    return float(np.sum(window_attention(ps["x"], ps, "local", 2, 4, idx) * probe))


_, st = window_attention(store["x"], store, "local", 2, 4, idx, return_state=True)
gx, grads = window_attention_backward(probe, st, store, "local")
store.add_grads(grads)
store.add_grad("x", gx)
err = finite_diff_check(loss, store, eps=1e-5)
print(f"window block gradient vs finite differences: max rel err {err:.2e}")
