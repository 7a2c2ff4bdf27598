import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvtsurv.blocks import (
    BucketParams,
    attn_pool,
    attn_pool_backward,
    block_layout,
    block_shuffle,
    bucket_distances,
    inverse_permutation,
    manhattan_bucket_index,
    pairwise_manhattan,
    spatial_shuffle,
    window_attention,
    window_attention_backward,
)
from hvtsurv.errors import ShapeError, ValidationError
from hvtsurv.numerics import ParamStore, finite_diff_check
from hvtsurv.survmodel import draw_tensors

rng = np.random.default_rng(777)
DEFAULTS = BucketParams()


class TestBucketDistance:
    def test_zero(self):
        assert bucket_distances(0.0, DEFAULTS) == 0

    def test_reference_table(self):
        # derived by direct evaluation of the piecewise map with the
        # default (1.9, 7.6, 11.4, 7) parameters
        expected = {0: 0, 1: 1, 2: 2, 3: 3, 5: 4, 11.4: 6, 100: 7}
        for x, want in expected.items():
            assert bucket_distances(float(x), DEFAULTS) == want

    def test_inner_branch_value(self):
        # g(3): 1.9 + ln(3/1.9)/ln(6) * 3.8 = 2.8687 -> rounds to 3
        inner = 1.9 + np.log(3 / 1.9) / np.log(11.4 / 1.9) * (7.6 - 3.8)
        assert abs(inner - 2.8687) < 1e-3
        assert bucket_distances(3.0, DEFAULTS) == 3

    def test_cap_at_lambda(self):
        inner = 1.9 + np.log(100 / 1.9) / np.log(11.4 / 1.9) * (7.6 - 3.8)
        assert inner > 10
        assert bucket_distances(100.0, DEFAULTS) == 7

    def test_even_and_monotone_and_capped(self):
        xs = np.sort(rng.uniform(0, 500, size=200))
        buckets = bucket_distances(xs, DEFAULTS)
        assert np.all(np.diff(buckets) >= 0)
        assert np.all(buckets <= DEFAULTS.lam)
        assert np.all(buckets >= 0)
        assert np.array_equal(bucket_distances(-xs, DEFAULTS), buckets)

    def test_validation(self):
        with pytest.raises(ValidationError):
            BucketParams(alpha=0.0)
        with pytest.raises(ValidationError):
            BucketParams(alpha=3.0, beta=2.0)
        with pytest.raises(ValidationError):
            BucketParams(gamma=1.0)
        with pytest.raises(ValidationError):
            BucketParams(lam=0)


def bias_table(heads, rng):
    """A (table_rows, heads) bias table, drawn by the model's "table" rule."""
    return draw_tensors({"t": ((DEFAULTS.table_rows, heads), "table")}, rng)["t"]


def block_arrays(d, rng, scale=0.02):
    """One attention block's tensors as ``blk.name`` -> array, drawn from
    ``rng`` by the init rules of block_layout with weight std ``scale``."""
    return draw_tensors({f"blk.{n}": v for n, v in block_layout(d, 4).items()}, rng, scale)


def block_store(d, rng, table=None):
    """A ParamStore of one block under ``blk.``, plus ``blk.bias_table``
    when a table is given."""
    arrays = block_arrays(d, rng)
    if table is not None:
        arrays["blk.bias_table"] = table
    return ParamStore(arrays)


def pool_store(d, hidden, rng):
    """Pooling weights: U (1, hidden) and then V (hidden, d), std 0.02."""
    return ParamStore({"pool.U": rng.normal(scale=0.02, size=(1, hidden)),
                       "pool.V": rng.normal(scale=0.02, size=(hidden, d))})


def window_bias(coords, table):
    """(nW, heads, w, w) bias for (nW, w, 2) window coordinates."""
    return table[manhattan_bucket_index(coords, DEFAULTS)].transpose(0, 3, 1, 2)


def shuffled_attention(x, store, heads, w):
    perm = spatial_shuffle(x.shape[0], w)
    return window_attention(x[perm], store, "blk", heads, w)[inverse_permutation(perm)]


class TestManhattanBias:
    def test_identical_coords_constant(self):
        table = bias_table(2, rng)
        coords = np.array([[[3, 3]] * 4])
        bias = window_bias(coords, table)
        for h in range(2):
            assert np.allclose(bias[0, h], table[0, h])
        # a per-head constant shifts every logit of a row equally: identical
        # coordinates read one row, and a table of equal rows gives every
        # pair the same bias whatever its distance
        store = block_store(8, np.random.default_rng(11), table)
        x = rng.normal(size=(4, 8))
        idx = manhattan_bucket_index(coords, DEFAULTS)
        no_bias = window_attention(x, store, "blk", 2, 4)
        assert np.allclose(window_attention(x, store, "blk", 2, 4, idx), no_bias)
        store["blk.bias_table"][...] = table[5]
        spread = manhattan_bucket_index(rng.integers(1, 30, size=(1, 4, 2)), DEFAULTS)
        assert np.allclose(window_attention(x, store, "blk", 2, 4, spread), no_bias)

    def test_distance_three_lookup(self):
        table = bias_table(3, rng)
        bias = window_bias(np.array([[[1, 1], [2, 3]]]), table)
        assert np.allclose(bias[0, :, 0, 1], table[bucket_distances(3, DEFAULTS)])
        assert bucket_distances(3, DEFAULTS) == 3

    def test_symmetry(self):
        table = bias_table(4, rng)
        for _ in range(20):
            coords = rng.integers(1, 30, size=(3, 6, 2))
            bias = window_bias(coords, table)
            assert np.allclose(bias, bias.transpose(0, 1, 3, 2))

    def test_only_low_rows_addressed(self):
        for _ in range(50):
            coords = rng.integers(1, 1000, size=(3, 8, 2))
            idx = manhattan_bucket_index(coords, DEFAULTS)
            assert idx.shape == (3, 8, 8)
            assert idx.max() <= DEFAULTS.lam
            assert idx.min() >= 0

    @pytest.mark.parametrize("p", [DEFAULTS, BucketParams(alpha=1.2, beta=6.5, gamma=9.75, lam=5)])
    def test_every_table_row_addressed(self, p):
        # distances 0..10000 reach every bucket, and only the table's rows
        buckets = np.unique(bucket_distances(np.arange(10_001), p))
        assert buckets.tolist() == list(range(p.table_rows))

    @pytest.mark.parametrize("coords", [
        rng.integers(0, 400, size=(20, 49, 2)),
        rng.integers(0, 40, size=(1, 16, 2)),
        np.full((2, 6, 2), 7),
    ], ids=["random", "one-window", "identical"])
    def test_table_gather_equals_direct_map(self, coords):
        for p in (DEFAULTS, BucketParams(alpha=1.2, beta=6.5, gamma=9.75, lam=5)):
            idx = manhattan_bucket_index(coords, p)
            direct = bucket_distances(pairwise_manhattan(coords), p)
            assert idx.dtype == direct.dtype and np.array_equal(idx, direct)


def block_fd_error(w=4, d=8, heads=2, seed=0, with_bias=True, shuffle_len=None):
    """Max FD relative error of the window kernel over params, input and
    bias table; with ``shuffle_len`` rows it runs as the shuffle layer.

    The weights are drawn at std 0.25, as for criterion 1: at the init std
    of 0.02 the wq and wk gradients are about 1e-7, where the roundoff of
    central differences is already 1e-4 of them.
    """
    local_rng = np.random.default_rng(seed)
    arrays = block_arrays(d, local_rng, scale=0.25)
    table = bias_table(heads, local_rng)
    length = shuffle_len or w
    idx = manhattan_bucket_index(local_rng.integers(1, 8, size=(1, w, 2)), DEFAULTS)
    x = local_rng.normal(size=(length, d))
    probe = local_rng.normal(size=(length, d))
    perm = spatial_shuffle(length, w)
    inv = inverse_permutation(perm)

    arrays["x"] = x
    if with_bias:
        arrays["blk.bias_table"] = table
    else:
        idx = None
    store = ParamStore(arrays)

    def f(ps):
        if shuffle_len:
            out = window_attention(ps["x"][perm], ps, "blk", heads, w)[inv]
        else:
            out = window_attention(ps["x"], ps, "blk", heads, w, idx)
        return float(np.sum(out * probe))

    if shuffle_len:
        _, st = window_attention(store["x"][perm], store, "blk", heads, w, return_state=True)
        gx, grads = window_attention_backward(probe[perm], st, store, "blk")
        gx = gx[inv]
    else:
        _, st = window_attention(store["x"], store, "blk", heads, w, idx, return_state=True)
        gx, grads = window_attention_backward(probe, st, store, "blk")
    store.add_grads(grads)
    store.add_grad("x", gx)
    return finite_diff_check(f, store, eps=1e-5)


class TestLocalWindowAttention:
    def test_identical_rows_uniform_attention(self):
        store = block_store(8, np.random.default_rng(1))
        x = np.tile(rng.normal(size=8), (10, 1))
        out, st = window_attention(x, store, "blk", 2, 5, return_state=True)
        assert st["attn"].shape == (2, 2, 5, 5)
        assert np.allclose(st["attn"], 1.0 / 5.0)
        assert np.allclose(out, out[0])

    def test_attention_rows_sum_to_one(self):
        store = block_store(8, np.random.default_rng(2), bias_table(2, rng))
        for _ in range(20):
            idx = manhattan_bucket_index(rng.integers(1, 9, size=(3, 6, 2)), DEFAULTS)
            x = rng.normal(size=(18, 8))
            _, st = window_attention(x, store, "blk", 2, 6, idx, return_state=True)
            assert np.allclose(st["attn"].sum(axis=-1), 1.0, atol=1e-6)

    def test_permutation_equivariance_zero_bias(self):
        # permuting rows inside each window permutes the output rows alike
        store = block_store(8, np.random.default_rng(3))
        x = rng.normal(size=(12, 8))
        perm = np.concatenate([rng.permutation(6), 6 + rng.permutation(6)])
        out = window_attention(x, store, "blk", 2, 6)
        out_p = window_attention(x[perm], store, "blk", 2, 6)
        assert np.allclose(out_p, out[perm])

    def test_gradient_full_block(self):
        assert block_fd_error(seed=0) < 1e-4

    def test_bias_shape_checked(self):
        store = block_store(8, np.random.default_rng(4), bias_table(2, rng))
        x = rng.normal(size=(4, 8))
        for shape in ((1, 3, 3), (2, 4, 4), (1, 4), (4, 4), (1, 2, 4, 4)):
            with pytest.raises(ShapeError):
                window_attention(x, store, "blk", 2, 4, np.zeros(shape, dtype=np.int64))
        with pytest.raises(ShapeError):
            window_attention(x, store, "blk", 2, 3)


def single_window_calls(x, store, heads, w, idx, probe):
    """The kernel applied one window at a time (nW=1), results stacked;
    the parameter gradients accumulate in ``store``."""
    outs, gxs = [], []
    for k in range(x.shape[0] // w):
        sl = slice(k * w, (k + 1) * w)
        i = None if idx is None else idx[k : k + 1]
        out, st = window_attention(x[sl], store, "blk", heads, w, i, return_state=True)
        outs.append(out)
        gx, grads = window_attention_backward(probe[sl], st, store, "blk")
        store.add_grads(grads)
        gxs.append(gx)
    return np.vstack(outs), np.vstack(gxs)


@settings(max_examples=60, deadline=None)
@given(n_windows=st.integers(1, 5), w=st.integers(1, 7), heads=st.integers(1, 3),
       d_head=st.integers(1, 4), with_bias=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_batched_kernel_equals_single_window_calls(n_windows, w, heads, d_head,
                                                    with_bias, seed):
    local_rng = np.random.default_rng(seed)
    d = heads * d_head
    arrays = block_arrays(d, local_rng)
    for name in ("wq", "wk", "wv", "wo", "ffn_w1", "ffn_w2"):
        arrays[f"blk.{name}"] *= 10.0
    x = local_rng.normal(size=(n_windows * w, d))
    probe = local_rng.normal(size=x.shape)
    idx = None
    if with_bias:
        idx = manhattan_bucket_index(local_rng.integers(1, 12, size=(n_windows, w, 2)), DEFAULTS)
        arrays["blk.bias_table"] = bias_table(heads, local_rng) * 50
    store = ParamStore(arrays)
    store_1 = store.copy()

    out, st = window_attention(x, store, "blk", heads, w, idx, return_state=True)
    gx, grads = window_attention_backward(probe, st, store, "blk")
    store.add_grads(grads)
    out_1, gx_1 = single_window_calls(x, store_1, heads, w, idx, probe)
    assert np.max(np.abs(out - out_1)) <= 1e-12
    assert np.max(np.abs(gx - gx_1)) <= 1e-12
    for name in store.names():
        assert np.max(np.abs(store.grad(name) - store_1.grad(name))) <= 1e-12, name


class TestSpatialShuffle:
    def test_four_by_two(self):
        assert spatial_shuffle(4, 2).tolist() == [0, 2, 1, 3]

    def test_single_window_identity(self):
        assert np.array_equal(spatial_shuffle(5, 5), np.arange(5))

    def test_round_trip(self):
        for _ in range(30):
            w = int(rng.integers(1, 9))
            length = w * int(rng.integers(1, 9))
            perm = spatial_shuffle(length, w)
            assert np.array_equal(perm[inverse_permutation(perm)], np.arange(length))
            assert sorted(perm.tolist()) == list(range(length))

    def test_inverse_is_transposed_stride_shuffle(self):
        perm = spatial_shuffle(12, 3)
        assert np.array_equal(inverse_permutation(perm),
                              np.arange(12).reshape(3, 4).T.ravel())

    def test_square_case_spreads_windows(self):
        w = 4
        perm = spatial_shuffle(w * w, w)
        old_window = perm // w
        for k in range(w):
            assert sorted(old_window[k * w : (k + 1) * w].tolist()) == list(range(w))

    def test_indivisible_length(self):
        with pytest.raises(ShapeError):
            spatial_shuffle(7, 2)

    def test_block_shuffle_of_one_block_is_spatial_shuffle(self):
        for w, n_windows in ((1, 3), (3, 4), (5, 5), (7, 2)):
            length = w * n_windows
            assert np.array_equal(block_shuffle([length], w), spatial_shuffle(length, w))

    def test_block_shuffle_keeps_every_row_in_its_block(self):
        for _ in range(30):
            w = int(rng.integers(1, 9))
            lengths = [w * int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 5)))]
            perm = block_shuffle(lengths, w)
            assert sorted(perm.tolist()) == list(range(sum(lengths)))
            start = 0
            for n in lengths:
                block = perm[start : start + n]
                assert np.array_equal(block - start, spatial_shuffle(n, w))
                start += n


class TestShuffleWindowAttention:
    def test_single_window_equals_local(self):
        store = block_store(8, np.random.default_rng(5))
        x = rng.normal(size=(4, 8))
        assert np.allclose(shuffled_attention(x, store, 2, 4),
                           window_attention(x, store, "blk", 2, 4))

    def test_row_order_restored(self):
        # with w=1 each row only attends to itself, so the output must be
        # the rowwise block map in the original order
        store = block_store(8, np.random.default_rng(6))
        x = rng.normal(size=(6, 8))
        out = shuffled_attention(x, store, 2, 1)
        rowwise = np.vstack([window_attention(x[i : i + 1], store, "blk", 2, 1)
                             for i in range(6)])
        assert np.allclose(out, rowwise)

    def test_gradient(self):
        assert block_fd_error(seed=0, with_bias=False, shuffle_len=8) < 1e-4


class TestAttnPool:
    def test_identical_rows_uniform(self):
        pool = pool_store(6, 4, np.random.default_rng(7))
        h = np.tile(rng.normal(size=6), (5, 1))
        pooled, weights = attn_pool(h, pool)
        assert np.allclose(weights, 0.2)
        assert np.allclose(pooled, h[0])

    def test_singleton(self):
        pool = pool_store(6, 4, np.random.default_rng(8))
        h = rng.normal(size=(1, 6))
        pooled, weights = attn_pool(h, pool)
        assert np.allclose(weights, [1.0])
        assert np.allclose(pooled, h[0])

    def test_weights_sum_to_one(self):
        pool = pool_store(6, 4, np.random.default_rng(9))
        for _ in range(50):
            _, weights = attn_pool(rng.normal(size=(rng.integers(1, 20), 6)), pool)
            assert np.isclose(weights.sum(), 1.0, atol=1e-6)

    def test_gradient(self):
        local_rng = np.random.default_rng(10)
        pool = pool_store(8, 5, local_rng)
        h = local_rng.normal(size=(6, 8))
        probe = local_rng.normal(size=8)
        store = ParamStore({"h": h, "pool.U": pool["pool.U"], "pool.V": pool["pool.V"]})

        def f(ps):
            pooled, _ = attn_pool(ps["h"], ps)
            return float(np.sum(pooled * probe))

        pooled, _, st = attn_pool(store["h"], store, return_state=True)
        store.add_grad("h", attn_pool_backward(probe, st, store))
        assert finite_diff_check(f, store, eps=1e-5) < 1e-4
