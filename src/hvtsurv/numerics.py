"""Dense matrix primitives with hand-derived backward passes.

Matrices are plain row-major numpy arrays. Each forward operation has a
matching ``*_backward`` that maps the upstream gradient to gradients of
its inputs; nothing here builds a graph. Every operation computes in the
dtype of its inputs. Gradient checks run in float64, where every
backward matches central finite differences to better than 1e-4 relative
error. Training, and the forward pass on checkpoint parameters, run in
float32 throughout.

``erf`` and ``sigmoid`` compute float32 input with numpy: erf as a
clamped odd rational function, within 4.5e-7 of the exact value, and
sigmoid from exp(-|x|). Other input goes to ``scipy.special.erf`` and
``expit``, imported on first use, so float64 gradient checks round
exactly as scipy does, and training and a float32 forward load no scipy
module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ShapeError, ValidationError

LAYER_NORM_EPS = 1e-5

# Python floats, not numpy float64 scalars, which would widen float32 arrays.
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# erf(x) ~ x P(x^2) / Q(x^2) for float32 x clamped to [-4, 4], beyond which
# float32 erf is +-1; coefficients from the highest power down.
_ERF32_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
            -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
            -1.60960333262415e-02)
_ERF32_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
            -7.37332916720468e-03, -1.42647390514189e-02)
# elements per block of the float32 erf and of gelu_and_slope: 256 KiB per float32 temporary
_ERF32_BLOCK = 1 << 16

# 2-D float ndarray in this module's contracts: float64 for gradient checks,
# float32 for training and for a forward pass on checkpoint parameters.
DenseMatrix = np.ndarray


class ParamStore:
    """Named parameters and gradients as reshaped views of two flat buffers.

    ``flat`` holds every parameter and ``grad_flat`` every gradient, both
    laid out by name in sorted order, so optimizers that update ``flat`` in
    place keep every view valid. Both buffers take the floating dtype the
    arrays promote to: float64 for freshly drawn tensors, float32 for the
    tensors ``fit`` trains and those of a checkpoint. Gradient
    accumulation is single-writer: reading parameters from several
    threads is safe, but only one thread may add gradients. Concurrent
    backwards (an attention layer's chunk workers) hand their gradients
    back to that thread instead.
    """

    def __init__(self, arrays: dict):
        self._layout: dict[str, tuple[slice, tuple]] = {}
        size = 0
        for name in sorted(arrays):
            shape = np.shape(arrays[name])
            self._layout[name] = (slice(size, size + math.prod(shape)), shape)
            size += math.prod(shape)
        dtype = np.result_type(np.float32, *(np.asarray(a) for a in arrays.values()))
        self.flat = np.empty(size, dtype)
        self.grad_flat = np.zeros(size, dtype)
        for name, value in arrays.items():
            self[name][...] = value

    def __getitem__(self, name: str) -> np.ndarray:
        span, shape = self._layout[name]
        return self.flat[span].reshape(shape)

    def names(self) -> list[str]:
        return list(self._layout)

    def grad(self, name: str) -> np.ndarray:
        span, shape = self._layout[name]
        return self.grad_flat[span].reshape(shape)

    def add_grad(self, name: str, g: np.ndarray) -> None:
        view = self.grad(name)
        view += g

    def add_grads(self, grads: dict) -> None:
        """add_grad of every name -> gradient item, in the dict's order."""
        for name, g in grads.items():
            self.add_grad(name, g)

    def zero_grads(self) -> None:
        self.grad_flat.fill(0.0)

    def copy(self) -> "ParamStore":
        dup = object.__new__(ParamStore)
        dup._layout, dup.flat, dup.grad_flat = self._layout, self.flat.copy(), self.grad_flat.copy()
        return dup


def linear(x: DenseMatrix, weight: DenseMatrix, bias: np.ndarray) -> DenseMatrix:
    """x @ weight + broadcast bias row."""
    if x.shape[-1] != weight.shape[0] or weight.shape[1] != bias.shape[-1]:
        raise ShapeError(f"linear {x.shape} x {weight.shape} + {bias.shape}")
    out = x @ weight
    out += bias
    return out


def linear_backward(grad: DenseMatrix, x: DenseMatrix, weight: DenseMatrix):
    return grad @ weight.T, x.T @ grad, grad.sum(axis=0)


def softmax_rows(m: DenseMatrix) -> DenseMatrix:
    """Softmax over the last axis, computed in place: m is overwritten and returned."""
    m -= m.max(axis=-1, keepdims=True)
    np.exp(m, out=m)
    m /= m.sum(axis=-1, keepdims=True)
    return m


def softmax_rows_backward(grad: DenseMatrix, out: DenseMatrix) -> DenseMatrix:
    # dL/dm = out * (g - sum_j g_j out_j) per row
    return out * (grad - (grad * out).sum(axis=-1, keepdims=True))


def layer_norm(x: DenseMatrix, gamma: np.ndarray, beta: np.ndarray):
    """Row-wise normalization to zero mean / unit variance, then affine.

    Returns (out, cache) where the cache feeds layer_norm_backward.
    """
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv_std
    return xhat * gamma + beta, (xhat, inv_std)


def layer_norm_backward(grad: DenseMatrix, cache, gamma: np.ndarray):
    xhat, inv_std = cache
    gxhat = grad * gamma
    gx = inv_std * (
        gxhat
        - gxhat.mean(axis=-1, keepdims=True)
        - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return gx, (grad * xhat).sum(axis=0), grad.sum(axis=0)


def _horner(x2: np.ndarray, coeffs) -> np.ndarray:
    """The polynomial with ``coeffs`` (highest power first) at x2, in one array."""
    acc = x2 * coeffs[0]
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= x2
        acc += c
    return acc


def erf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """erf(x), written into ``out`` when given (x itself included) and else
    into a fresh array; ``out`` must be contiguous."""
    if x.dtype != np.float32:
        from scipy import special

        return special.erf(x, out=out)
    flat = x.reshape(-1)
    if out is None:
        out = np.empty(x.shape, x.dtype)
    res = np.reshape(out, -1, copy=False)
    # block by block, so that the temporaries of the ~15 passes stay in cache;
    # each block is read (clipped into t) before it is written
    for start in range(0, flat.size, _ERF32_BLOCK):
        t = np.clip(flat[start : start + _ERF32_BLOCK], -4.0, 4.0)
        x2 = t * t
        ratio = _horner(x2, _ERF32_P)
        ratio *= t
        ratio /= _horner(x2, _ERF32_Q)
        # the fit overshoots 1 by up to 4e-7 just below the clamp
        np.clip(ratio, -1.0, 1.0, out=res[start : start + _ERF32_BLOCK])
    return out


def normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, (1 + erf(x / sqrt 2)) / 2, in one fresh array."""
    # a contiguous array, 0-d input included, that erf can overwrite
    cdf = np.divide(x, _SQRT2, out=np.empty(x.shape, x.dtype))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x * normal_cdf(x), which rounds as 0.5 * x * (1 + erf) does: halving is
    exact. Computed block by block, as erf is, into ``out`` when given (x
    itself included) and else into a fresh array; ``out`` must be contiguous.
    """
    if out is None:
        out = np.empty(x.shape, x.dtype)
    xf, res = x.reshape(-1), np.reshape(out, -1, copy=False)
    for start in range(0, xf.size, _ERF32_BLOCK):
        span = slice(start, start + _ERF32_BLOCK)
        np.multiply(normal_cdf(xf[span]), xf[span], out=res[span])
    return out


def gelu_and_slope(x: np.ndarray, cdf: np.ndarray):
    """Given cdf = normal_cdf(x), overwrite x with gelu(x) and cdf with
    gelu's slope cdf + x * pdf(x), block by block, as erf is; returns (x, cdf).

    Both must be contiguous. gelu(x) rounds as ``gelu`` does, so a
    backward can use it in place of the forward's value.
    """
    xf, cf = np.reshape(x, -1, copy=False), np.reshape(cdf, -1, copy=False)
    for start in range(0, xf.size, _ERF32_BLOCK):
        span = slice(start, start + _ERF32_BLOCK)
        d = np.multiply(xf[span], -0.5)
        d *= xf[span]
        np.exp(d, out=d)
        d /= _SQRT_2PI
        d *= xf[span]
        xf[span] *= cf[span]
        cf[span] += d
    return x, cdf


def sigmoid(x: np.ndarray) -> np.ndarray:
    if x.dtype != np.float32:
        from scipy import special

        return special.expit(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_backward(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    return grad * (1.0 - out * out)


def finite_diff_check(f, params: ParamStore, eps: float = 1e-5) -> float:
    """Worst relative error of the analytic gradients held in ``params``
    against central finite differences of the scalar function ``f``.

    ``params.grad(name)`` must already hold the analytic gradient of
    ``f`` at the current parameter values. Every element is perturbed by
    +-eps in place and restored bit-exactly afterwards.
    """
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    worst = 0.0
    for name in params.names():
        flat = params[name].reshape(-1)
        analytic = params.grad(name).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(params))
            flat[i] = orig - eps
            f_minus = float(f(params))
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"non-finite loss while perturbing {name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = analytic[i]
            rel = abs(numeric - a) / max(abs(numeric), abs(a), 1e-8)
            worst = max(worst, rel)
    return worst
