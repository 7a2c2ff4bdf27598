import math

import numpy as np
import pytest
from scipy import special

from hvtsurv.errors import ShapeError, ValidationError
from hvtsurv.numerics import (
    LAYER_NORM_EPS,
    ParamStore,
    erf,
    finite_diff_check,
    gelu,
    gelu_and_slope,
    layer_norm,
    layer_norm_backward,
    linear,
    linear_backward,
    normal_cdf,
    sigmoid,
    softmax_rows,
    softmax_rows_backward,
    tanh_backward,
)

rng = np.random.default_rng(12345)


def rand(*shape):
    return rng.uniform(-2.0, 2.0, size=shape)


def check_op(make_inputs, forward, backward, tol=1e-5, trials=5):
    """FD-check an op: loss = sum(forward(inputs) * probe)."""
    for _ in range(trials):
        inputs = make_inputs()
        out = forward(*inputs)
        probe = rng.normal(size=out.shape)

        store = ParamStore({f"x{i}": x for i, x in enumerate(inputs)})
        grads = backward(probe, *[store[f"x{i}"] for i in range(len(inputs))])
        if not isinstance(grads, tuple):
            grads = (grads,)
        for i, g in enumerate(grads):
            if g is not None:
                store.add_grad(f"x{i}", g)

        def f(p):
            return float(np.sum(forward(*[p[f"x{i}"] for i in range(len(inputs))]) * probe))

        assert finite_diff_check(f, store, eps=1e-5) < tol


class TestSoftmaxRows:
    def test_symmetric_row(self):
        assert np.allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_shift_invariance_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 1000.0, 1000.0]]))
        assert np.allclose(out, 1.0 / 3.0)

    def test_rows_sum_to_one(self):
        for _ in range(100):
            out = softmax_rows(rand(5, 7))
            assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
            assert np.all((out > 0) & (out < 1))

    def test_gradient(self):
        # softmax_rows overwrites its input, which here is the checked parameter
        check_op(lambda: (rand(4, 6),), lambda m: softmax_rows(m.copy()),
                 lambda g, m: softmax_rows_backward(g, softmax_rows(m.copy())))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_and_equal_to_three_temporaries(self, dtype):
        m = rng.normal(scale=4.0, size=(3, 4, 5, 9)).astype(dtype)
        shifted = m - m.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        expected = e / e.sum(axis=-1, keepdims=True)
        out = softmax_rows(m)
        assert out is m
        assert out.dtype == dtype and np.array_equal(out, expected)


class TestLinear:
    def test_zero_weight_gives_bias(self):
        x = rand(5, 3)
        bias = np.array([1.0, -2.0])
        out = linear(x, np.zeros((3, 2)), bias)
        assert np.allclose(out, np.tile(bias, (5, 1)))

    def test_wide_feature_reduction_shape(self):
        out = linear(rand(7, 1024), rand(1024, 512), rand(512))
        assert out.shape == (7, 512)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            linear(rand(5, 3), rand(4, 2), rand(2))

    def test_gradient(self):
        check_op(lambda: (rand(4, 3), rand(3, 5), rand(5)), linear,
                 lambda g, x, w, b: linear_backward(g, x, w))


class TestElementwise:
    def test_layer_norm_constant_row_is_bias(self):
        gamma, beta = rand(4), rand(4)
        out, _ = layer_norm(np.full((2, 4), 3.7), gamma, beta)
        assert np.allclose(out, np.tile(beta, (2, 1)), atol=1e-2)

    def test_fixed_points(self):
        assert sigmoid(np.array(0.0)) == 0.5
        assert gelu(np.array(0.0)) == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_bit_equals_three_pass_formula(self, dtype):
        # the oracle: mean, numpy's var, and centring again for xhat
        def three_pass(x, gamma, beta):
            mean = x.mean(axis=-1, keepdims=True)
            inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + LAYER_NORM_EPS)
            xhat = (x - mean) * inv_std
            return xhat * gamma + beta, (xhat, inv_std)

        r = np.random.default_rng(4)
        for shape in ((1, 3), (5, 7), (33, 64), (8000, 512), (2, 3, 16)):
            x = (r.normal(size=shape) * 3 + 1.5).astype(dtype)
            gamma, beta = (r.normal(size=shape[-1]).astype(dtype) for _ in range(2))
            got, want = layer_norm(x, gamma, beta), three_pass(x, gamma, beta)
            for a, b in ((got[0], want[0]), *zip(got[1], want[1])):
                assert a.dtype == dtype and np.array_equal(a, b), shape

    def test_layer_norm_gradient(self):
        check_op(lambda: (rand(4, 6), rand(6), rand(6)),
                 lambda x, g, b: layer_norm(x, g, b)[0],
                 lambda gr, x, g, b: layer_norm_backward(gr, layer_norm(x, g, b)[1], g))

    def test_gelu_gradient(self):
        # gelu_and_slope overwrites its arguments, here x, the checked parameter
        check_op(lambda: (rand(4, 5),), gelu,
                 lambda g, x: g * gelu_and_slope(x.copy(), normal_cdf(x))[1])

    def test_tanh_gradient(self):
        check_op(lambda: (rand(4, 5),), np.tanh,
                 lambda g, x: tanh_backward(g, np.tanh(x)))


class TestErfAndSigmoid:
    """float32 erf and sigmoid are numpy's; every other dtype is scipy's."""

    grid = np.linspace(-6.0, 6.0, 1_200_001, dtype=np.float32)

    def test_float32_erf_within_4_5e_7_of_float64_erf(self):
        got = erf(self.grid)
        want = special.erf(self.grid.astype(np.float64))
        assert got.dtype == np.float32
        err = np.abs(got - want)
        # the fit reaches 4.45e-7, 7.5 float32 ulps of the exact value
        assert err.max() < 4.5e-7
        assert (err / np.spacing(np.abs(want).astype(np.float32))).max() < 8

    def test_float32_erf_odd_and_saturating(self):
        got = erf(self.grid)
        assert np.array_equal(erf(-self.grid), -got)
        assert np.abs(got).max() == 1.0
        assert np.all(got[self.grid >= 4.0] == 1.0)

    def test_float64_erf_is_scipy_bit_for_bit(self):
        x = rng.normal(scale=3.0, size=(300, 70))
        assert np.array_equal(erf(x), special.erf(x))

    def test_float32_sigmoid_within_4_ulps_of_expit(self):
        x = np.linspace(-80.0, 80.0, 400_001, dtype=np.float32)
        got = sigmoid(x)
        want = special.expit(x.astype(np.float64))
        assert got.dtype == np.float32
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want.astype(np.float32)))
        x64 = x.astype(np.float64)
        assert np.array_equal(sigmoid(x64), special.expit(x64))

    def test_float64_gelu_rounds_as_the_three_term_formula(self):
        x = rng.normal(scale=3.0, size=(400, 60))
        e = special.erf(x / math.sqrt(2.0))
        assert np.array_equal(gelu(x), 0.5 * x * (1.0 + e))
        cdf = 0.5 * (1.0 + e)
        slope = cdf + x * (np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
        assert np.array_equal(normal_cdf(x), cdf)
        value, got = gelu_and_slope(x.copy(), normal_cdf(x))
        assert np.array_equal(value, gelu(x)) and np.array_equal(got, slope)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gelu_and_slope_in_place_across_blocks(self, dtype):
        # 150,000 elements: two whole blocks of _ERF32_BLOCK and a partial one
        x = rng.normal(scale=3.0, size=(1000, 150)).astype(dtype)
        cdf = normal_cdf(x)
        want_value = x * cdf
        want_slope = cdf + x * (np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
        assert np.array_equal(want_value, gelu(x))
        value, slope = gelu_and_slope(x, cdf)
        assert value is x and slope is cdf
        assert value.dtype == slope.dtype == dtype
        assert np.array_equal(value, want_value) and np.array_equal(slope, want_slope)

    def test_gelu_and_slope_refuses_strided_arrays(self):
        # a strided array would be copied by the flat view, and the results lost
        x = rng.normal(size=(30, 20))
        with pytest.raises(ValueError):
            gelu_and_slope(x.T, normal_cdf(x).T)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_normal_cdf_in_place_erf_keeps_0d_and_shapes(self, dtype):
        x = rng.normal(scale=3.0, size=(70, 30)).astype(dtype)
        assert np.array_equal(normal_cdf(x), (1.0 + erf(x / math.sqrt(2.0))) * 0.5)
        assert np.array_equal(normal_cdf(x.T), normal_cdf(x).T)
        zero = normal_cdf(np.array(0.0, dtype=dtype))
        assert zero.shape == () and zero.dtype == dtype and zero == 0.5
        y = (x / math.sqrt(2.0)).copy()
        want = erf(y)
        assert erf(y, out=y) is y and np.array_equal(y, want)

    def test_float32_gelu_stays_float32_near_float64(self):
        x = rng.normal(scale=3.0, size=(200, 50))
        x32 = x.astype(np.float32)
        value32, slope32 = gelu_and_slope(x32.copy(), normal_cdf(x32))
        assert gelu(x32).dtype == value32.dtype == slope32.dtype == np.float32
        value, slope = gelu_and_slope(x.copy(), normal_cdf(x))
        assert np.abs(gelu(x32) - gelu(x)).max() < 1e-5
        assert np.abs(value32 - value).max() < 1e-5
        assert np.abs(slope32 - slope).max() < 1e-5


class TestFiniteDiffCheck:
    def test_quadratic_exact(self):
        store = ParamStore({"theta": rand(3, 3)})
        store.add_grad("theta", 2.0 * store["theta"])
        err = finite_diff_check(lambda p: float(np.sum(p["theta"] ** 2)), store)
        assert err < 1e-9

    def test_detects_corrupted_gradient(self):
        store = ParamStore({"theta": rand(2, 2)})
        bad = 2.0 * store["theta"]
        bad[0, 0] *= 1.5
        store.add_grad("theta", bad)
        err = finite_diff_check(lambda p: float(np.sum(p["theta"] ** 2)), store)
        assert err > 1e-2

    def test_bad_eps(self):
        with pytest.raises(ValidationError):
            finite_diff_check(lambda p: 0.0, ParamStore({}), eps=0.0)


class TestParamStore:
    def test_grad_buffers_aligned(self):
        store = ParamStore({"w": rand(3, 4)})
        assert store.grad("w").shape == store["w"].shape
        assert np.all(store.grad("w") == 0.0)

    def test_views_alias_flat_buffers_in_sorted_order(self):
        arrays = {"b": rand(3), "a": rand(2, 2), "c": rand(1)}
        store = ParamStore(arrays)
        assert store.names() == ["a", "b", "c"]
        assert np.array_equal(store.flat, np.concatenate([arrays[n].ravel() for n in "abc"]))
        store.flat[:] = np.arange(8.0)
        store.grad_flat[:] = -np.arange(8.0)
        assert np.array_equal(store["a"], [[0.0, 1.0], [2.0, 3.0]])
        assert np.array_equal(store["b"], [4.0, 5.0, 6.0])
        assert np.array_equal(store.grad("c"), [-7.0])
        store["b"][1] = 50.0
        store.add_grad("a", np.ones((2, 2)))
        assert store.flat[5] == 50.0
        assert np.array_equal(store.grad_flat[:4], [1.0, 0.0, -1.0, -2.0])

    def test_copy_is_deep(self):
        store = ParamStore({"w": np.ones((2, 2)), "v": np.ones(3)})
        store.add_grad("w", np.full((2, 2), 3.0))
        dup = store.copy()
        store["w"][0, 0] = 5.0
        store.add_grad("w", np.ones((2, 2)))
        dup.add_grad("v", np.ones(3))
        assert dup["w"][0, 0] == 1.0
        assert np.all(dup.grad("w") == 3.0)
        assert np.all(store.grad("v") == 0.0)
        assert dup.names() == store.names()

    def test_zero_grads_clears_every_view(self):
        store = ParamStore({"a": rand(2, 3), "b": rand(4), "c": rand(1)})
        for name in store.names():
            store.add_grad(name, rand(*store[name].shape))
        store.zero_grads()
        for name in store.names():
            assert np.all(store.grad(name) == 0.0)
