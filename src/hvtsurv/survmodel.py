"""The patient-level survival model and its training loop.

A patient's sub-WSI bags are stacked into one block of rows, which passes
through a linear feature reduction, a window-attention layer with
Manhattan-distance bias (local interactions), and a window-attention
layer over each sub-WSI's shuffled rows (slide-wide interactions). The
rows are then attention-pooled; a linear head emits one logit per
survival interval, squashed to conditional hazards.

The discrete-time likelihood loss, a hand-rolled AdamW loop with early
stopping, the checkpoint container, and the attention-export procedure
live here too.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os
import struct
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import survstats
from .bagio import PatientRecord, atomic_open
from .blocks import (
    BucketParams,
    attn_pool,
    attn_pool_backward,
    block_layout,
    block_shuffle,
    inverse_permutation,
    manhattan_bucket_index,
    window_attention,
    window_attention_backward,
)
from .errors import FormatError, NumericError, UndefinedStatisticError, ValidationError
from .numerics import ParamStore, linear, sigmoid
from .rearrange import SubWsiBag, knn_rearrange, random_window_mask
from .seeding import derive_seed, rng_for

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"HVTC"
CHECKPOINT_VERSION = 1

LOG_FLOOR = 1e-12

EVAL_MASK_SEED = 0


@dataclass
class HVTSurvConfig:
    input_dim: int = 1024
    model_dim: int = 512
    window_size: int = 49
    n_heads: int = 8
    n_sub_wsis: int = 2
    n_intervals: int = 4
    pool_hidden: int = 0          # 0 means model_dim // 2
    ffn_ratio: int = 4
    bucket: BucketParams = field(default_factory=BucketParams)
    learning_rate: float = 2e-4
    weight_decay: float = 1e-5
    patience: int = 8
    max_epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.pool_hidden == 0:
            self.pool_hidden = self.model_dim // 2
        positive = (
            "input_dim", "model_dim", "window_size", "n_heads", "n_sub_wsis",
            "n_intervals", "pool_hidden", "ffn_ratio", "patience",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.model_dim % self.n_heads:
            raise ValidationError(
                f"model_dim {self.model_dim} not divisible by {self.n_heads} heads"
            )
        if self.max_epochs < 0 or self.learning_rate < 0 or self.weight_decay < 0:
            raise ValidationError("training hyperparameters must be non-negative")


def _flat_fields() -> dict:
    """Flat config key -> (nested field name or None, field), in field order.

    BucketParams is flattened under ``bucket_``; ``lam`` keeps the key
    ``bucket_lambda`` that config files and checkpoints use.
    """
    flat = {}
    for f in fields(HVTSurvConfig):
        if f.name == "bucket":
            for b in fields(BucketParams):
                flat["bucket_lambda" if b.name == "lam" else f"bucket_{b.name}"] = (f.name, b)
        else:
            flat[f.name] = (None, f)
    return flat


_FLAT_FIELDS = _flat_fields()

# Every key of the flat config (config files and checkpoints), with its default.
CONFIG_DEFAULTS = {key: f.default for key, (_, f) in _FLAT_FIELDS.items()}


def config_items(cfg: HVTSurvConfig) -> dict:
    """The config as flat key -> value pairs, keyed like CONFIG_DEFAULTS."""
    return {key: getattr(getattr(cfg, outer) if outer else cfg, f.name)
            for key, (outer, f) in _FLAT_FIELDS.items()}


def config_from_items(items: dict) -> HVTSurvConfig:
    """Inverse of config_items. Every key is required (KeyError otherwise);
    values, strings included, are cast to the type of the field's default.
    """
    top, nested = {}, {}
    for key, (outer, f) in _FLAT_FIELDS.items():
        (nested if outer else top)[f.name] = type(f.default)(items[key])
    return HVTSurvConfig(**top, bucket=BucketParams(**nested))


@dataclass
class HazardOutput:
    """Per-interval conditional hazards, survival curve and risk scalar."""

    hazards: np.ndarray
    survival: np.ndarray
    risk: float


def param_layout(cfg: HVTSurvConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Every model parameter as name -> (shape, init), in draw order, with
    the tensors of blocks.block_layout under ``local.`` and ``shuffle.``.
    """
    d, block = cfg.model_dim, block_layout(cfg.model_dim, cfg.ffn_ratio)
    return {
        "reduce.weight": ((cfg.input_dim, d), "normal"), "reduce.bias": ((d,), "zeros"),
        **{f"{prefix}.{n}": v for prefix in ("local", "shuffle") for n, v in block.items()},
        "local.bias_table": ((cfg.bucket.table_rows, cfg.n_heads), "table"),
        "pool.V": ((cfg.pool_hidden, d), "normal"), "pool.U": ((1, cfg.pool_hidden), "normal"),
        "head.weight": ((d, cfg.n_intervals), "normal"), "head.bias": ((cfg.n_intervals,), "zeros"),
    }


def draw_tensors(layout: dict, rng: np.random.Generator, scale: float = 0.02) -> dict:
    """One array per name -> (shape, init) of ``layout``, drawn in its order.

    ``init`` is "zeros", "ones", "normal" (std ``scale``) or "table": the first
    rows of a "normal" (2*rows - 1, heads) draw, the draw of the signed (2*lam+1)-row
    bias table of earlier models, so the tensors drawn after it keep their values.
    """
    draw = {"zeros": np.zeros, "ones": np.ones,
            "normal": lambda shape: rng.normal(scale=scale, size=shape),
            "table": lambda s: rng.normal(scale=scale, size=(2 * s[0] - 1, *s[1:]))[: s[0]]}
    return {name: draw[init](shape) for name, (shape, init) in layout.items()}


def init_params(cfg: HVTSurvConfig, seed: int, scale: float = 0.02) -> ParamStore:
    """Fresh parameter store holding every tensor of param_layout(cfg).

    ``scale`` is the weight-init standard deviation. Training uses the
    small default; gradient checks pass a larger value so the attention
    starts away from its uniform saddle and no gradient element sits
    below the finite-difference noise floor.
    """
    return ParamStore(draw_tensors(param_layout(cfg), rng_for(seed, "init"), scale))


def preprocess_patient(record: PatientRecord, cfg: HVTSurvConfig, mask_seed: int,
                       rearranged_cache: dict | None = None) -> list[SubWsiBag]:
    """Rearrange every WSI of a patient and split it into sub-WSI bags.

    The per-WSI mask seed is derived from the WSI id, so the split does
    not depend on the order the patient's slides are listed in. A slide
    with fewer windows than n_sub_wsis is split into as many sub-bags as
    it has windows.
    """
    if rearranged_cache is None:
        rearranged_cache = {}
    subs: list[SubWsiBag] = []
    for bag in record.bags:
        reb = rearranged_cache.get(bag.wsi_id)
        if reb is None:
            reb = rearranged_cache[bag.wsi_id] = knn_rearrange(bag, cfg.window_size)
        m = min(cfg.n_sub_wsis, reb.n_windows)
        subs.extend(random_window_mask(reb, m, derive_seed(mask_seed, f"wsi:{bag.wsi_id}")))
    return subs


def survival_from_hazards(hazards: np.ndarray) -> np.ndarray:
    """S(k) as the running product of (1 - hazard) over intervals."""
    h = np.asarray(hazards, dtype=np.float64)
    if np.any(h < 0) or np.any(h > 1):
        raise ValidationError("hazards must lie in [0, 1]")
    return np.cumprod(1.0 - h)


# Rows per chunk of each attention layer's forward and backward, rounded down
# to whole windows: the chunk's (rows, ffn_ratio*d) temporaries stay small.
FORWARD_CHUNK_ROWS = 1024


@functools.cache
def _openblas_thread_getter():
    """numpy's bundled OpenBLAS thread-count getter, or None where numpy
    bundles no OpenBLAS that exports one."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        return getter
    return None


def chunk_workers(n_chunks: int) -> int:
    """Threads to run an attention layer's n_chunks chunks on: the CPUs
    this process may use divided by OpenBLAS's live thread count, at most
    one per chunk.

    1, a serial run, when the layer has one chunk, the division gives 1
    or less, or the BLAS thread count cannot be read. Outputs do not
    depend on it: each chunk computes the same products on any thread,
    and the caller takes the results in chunk order.
    """
    getter = _openblas_thread_getter() if n_chunks > 1 else None
    blas = getter() if getter else 0
    if blas < 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(n_chunks, (cpus or 1) // blas))


def _in_chunk_order(fn, items: list, workers: int):
    """Yield fn(item) for each item, in order: on the calling thread when
    ``workers`` is 1, else on that many threads, with at most ``workers``
    calls started and not yet consumed, so finished results do not pile up.
    """
    if workers == 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor   # its import costs ~10 ms

    with ThreadPoolExecutor(workers) as pool:
        pending = deque(pool.submit(fn, item) for item in items[:workers])
        for item in items[workers:]:
            yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()


def _stacked_features(sub_bags: list[SubWsiBag], dtype) -> np.ndarray:
    """The sub-bags' feature rows stacked in order, in the model's dtype."""
    return np.concatenate([sub.features for sub in sub_bags], dtype=dtype)


def forward(sub_bags: list[SubWsiBag], params: ParamStore, cfg: HVTSurvConfig,
            want_attention: bool = False, return_state: bool = False):
    """Run a preprocessed patient through the model, in the dtype of
    ``params``: float32 for fit's store and a loaded checkpoint, float64
    for init_params' store, which the gradient checks use.

    The sub-bags' rows are stacked in order into one (N, d) block, and
    each layer runs on it: windows are whole within a sub-bag, and the
    shuffle permutes rows only within their own sub-bag. Each attention
    layer runs on consecutive chunks of whole windows, about
    FORWARD_CHUNK_ROWS rows each, which gives the output of one pass over
    all rows bit for bit: windows are independent, and a row split of a
    product leaves its elements unchanged on the BLAS kernels tested.
    The chunks of a layer run on chunk_workers threads, each writing its
    output over its own input rows; the result does not depend on the
    thread count. Each chunk of the local layer builds the bucket index of
    its own windows, so no (windows, w, w) index of the patient is held.

    Returns a HazardOutput, or (HazardOutput, state) when either flag is
    set. ``state`` holds the stacked shuffle ``perm``, ``pool``, attn_pool's
    state, and as ``local`` and ``shuffle`` one entry per chunk. With
    ``return_state`` the entry is the chunk's whole window_attention state,
    kept with what the backward pass needs. With ``want_attention`` alone it
    is the chunk's per-row attention score, the attention averaged over
    heads and then over queries, one value per row of the chunk (what
    export_attention reads); the (windows, heads, w, w) attention itself is
    dropped with the chunk, which keeps an attention export's memory at
    that of a forward.
    """
    if not sub_bags:
        raise ValidationError("patient has no sub-WSI bags")
    w, heads = cfg.window_size, cfg.n_heads
    lengths = [sub.features.shape[0] for sub in sub_bags]
    if any(n % w for n in lengths):
        raise ValidationError("sub-WSI row count is not a multiple of the window size")
    step = max(1, FORWARD_CHUNK_ROWS // w) * w
    chunks = [slice(start, start + step) for start in range(0, sum(lengths), step)]
    workers = chunk_workers(len(chunks))
    keep = return_state or want_attention

    def layer(h, prefix, coords=None):
        """One attention block on the stacked rows by chunks, each chunk's output
        written over its input rows in h; returns what to keep of each chunk."""
        def run(rows):
            chunk_idx = None if coords is None else manhattan_bucket_index(
                coords[rows.start // w : rows.stop // w], cfg.bucket)
            if not keep:
                return window_attention(h[rows], params, prefix, heads, w, chunk_idx), None
            out, chunk_state = window_attention(h[rows], params, prefix, heads, w, chunk_idx,
                                                return_state=True)
            if return_state:
                return out, chunk_state
            return out, chunk_state["attn"].mean(axis=1).mean(axis=1).ravel()

        kept = []
        for rows, (out, chunk_kept) in zip(chunks, _in_chunk_order(run, chunks, workers)):
            h[rows] = out
            kept.append(chunk_kept)
        return kept

    x = _stacked_features(sub_bags, params.flat.dtype)
    h = linear(x, params["reduce.weight"], params["reduce.bias"])
    del x   # the backward stacks the features again
    coords = np.concatenate([sub.scaled_coords for sub in sub_bags]).reshape(-1, w, 2)
    local = layer(h, "local", coords)
    perm = block_shuffle(lengths, w)
    inv = inverse_permutation(perm)
    h = h[perm]   # the unpermuted rows go before the layer runs
    shuffle = layer(h, "shuffle")
    pooled, _, pool_state = attn_pool(h[inv], params, return_state=True)
    logits = pooled @ params["head.weight"] + params["head.bias"]
    hazards = sigmoid(logits)
    survival = survival_from_hazards(hazards)
    out = HazardOutput(hazards=hazards, survival=survival, risk=float(-survival.sum()))
    if not (return_state or want_attention):
        return out
    state = dict(perm=perm, local=local, shuffle=shuffle, pool=pool_state)
    if return_state:
        state.update(chunks=chunks, inv=inv, pooled=pooled)
    return out, state


def nll_loss(out: HazardOutput, label: int, censored: int) -> float:
    """Discrete-time negative log likelihood with floored logs.

    Censored patients pay -log S(k); uncensored ones pay
    -log S(k-1) - log h(k), with S(-1) taken as 1.
    """
    n = out.hazards.shape[0]
    if not 0 <= label < n:
        raise ValidationError(f"interval label {label} outside [0, {n})")
    s_prev = out.survival[label - 1] if label > 0 else 1.0
    if censored:
        return float(-np.log(max(out.survival[label], LOG_FLOOR)))
    return float(-np.log(max(s_prev, LOG_FLOOR)) - np.log(max(out.hazards[label], LOG_FLOOR)))


def _nll_grad_logits(hazards: np.ndarray, label: int, censored: int) -> np.ndarray:
    """d(loss)/d(logits) for sigmoid hazards; clamped terms contribute 0."""
    grad = np.zeros_like(hazards)   # a float64 gradient would widen a float32 backward
    upto = label if censored else label - 1
    for s in range(0, upto + 1):
        if 1.0 - hazards[s] > LOG_FLOOR:
            grad[s] = hazards[s]
    if not censored and hazards[label] > LOG_FLOOR:
        grad[label] += -(1.0 - hazards[label])
    return grad


def loss_and_grads(sub_bags: list[SubWsiBag], label: int, censored: int,
                   params: ParamStore, cfg: HVTSurvConfig) -> float:
    """Forward plus hand-chained backward; accumulates into params' grads.

    Each attention layer's backward runs by the forward's chunks, on as
    many threads as the forward's, spending each chunk's state. A chunk's
    input gradient is written over its output gradient's rows, and its
    weight gradients are added to params on this thread in chunk order,
    so every sum rounds as in a serial pass.
    """
    out, state = forward(sub_bags, params, cfg, return_state=True)
    loss = nll_loss(out, label, censored)
    d_logits = _nll_grad_logits(out.hazards, label, censored)

    params.add_grad("head.weight", np.outer(state["pooled"], d_logits))
    params.add_grad("head.bias", d_logits)
    g = attn_pool_backward(params["head.weight"] @ d_logits, state.pop("pool"), params)
    chunks = state["chunks"]
    workers = chunk_workers(len(chunks))
    for prefix, order in (("shuffle", state["perm"]), ("local", state["inv"])):
        g = g[order]

        def run(item, g=g, prefix=prefix):
            rows, chunk_state = item
            return window_attention_backward(g[rows], chunk_state, params, prefix)

        results = _in_chunk_order(run, list(zip(chunks, state.pop(prefix))), workers)
        for rows, (g_rows, grads) in zip(chunks, results):
            g[rows] = g_rows
            params.add_grads(grads)
    # weight and bias gradients only: nothing reads the reduce layer's input gradient
    params.add_grad("reduce.weight", _stacked_features(sub_bags, params.flat.dtype).T @ g)
    params.add_grad("reduce.bias", g.sum(axis=0))
    return loss


# 2 MB step temporaries are reused from the heap; whole-buffer ones at paper scale page-fault.
ADAMW_SLICE = 1 << 18


class AdamW:
    """Adam with decoupled weight decay, applied in place to ``params.flat``."""

    def __init__(self, params: ParamStore, lr: float, weight_decay: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for start in range(0, self.m.size, ADAMW_SLICE):
            span = slice(start, start + ADAMW_SLICE)
            g, m, v, p = (self.params.grad_flat[span], self.m[span], self.v[span],
                          self.params.flat[span])
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p -= self.lr * (update + self.weight_decay * p)


@dataclass
class FitResult:
    params: ParamStore
    history: list[dict]
    best_epoch: int


def fit(records: list[PatientRecord], train_idx, val_idx, cfg: HVTSurvConfig,
        seed: int, cache: dict | None = None) -> FitResult:
    """Train with AdamW (batch size 1) and early stopping on validation loss.

    Training runs in float32, the precision a checkpoint stores: fit draws
    float64 tensors with init_params and trains a float32 copy of them, so
    FitResult.params is a float32 store. Window masking is resampled every
    epoch for training patients and pinned to the evaluation seed for
    validation. Deterministic for a fixed seed and cohort at a fixed BLAS
    thread count. ``cache`` is preprocess_patient's rearranged-bag cache;
    folds of one run can share it.
    """
    train_idx = list(train_idx)
    val_idx = list(val_idx)
    if not train_idx or not val_idx:
        raise ValidationError("need non-empty train and validation splits")
    for i in (*train_idx, *val_idx):
        if records[i].interval_label is None:
            raise ValidationError(f"record {records[i].patient_id} has no interval label")

    drawn = init_params(cfg, derive_seed(seed, "fit-init"))
    params = ParamStore({name: drawn[name].astype(np.float32) for name in drawn.names()})
    del drawn
    optimizer = AdamW(params, cfg.learning_rate, cfg.weight_decay)
    if cache is None:
        cache = {}

    best = FitResult(params=params.copy(), history=[], best_epoch=0)
    best_val = np.inf
    stale = 0
    history: list[dict] = []
    for epoch in range(cfg.max_epochs):
        order = rng_for(seed, f"epoch-order:{epoch}").permutation(train_idx)
        train_losses = []
        for i in order:
            rec = records[int(i)]
            mask_seed = derive_seed(seed, f"mask:{epoch}:{rec.patient_id}")
            sub = preprocess_patient(rec, cfg, mask_seed, cache)
            params.zero_grads()
            loss = loss_and_grads(sub, rec.interval_label, rec.follow_up.censored,
                                  params, cfg)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}, "
                                   f"patient {rec.patient_id}")
            optimizer.step()
            train_losses.append(loss)

        val_preds, val_outs = _evaluate((records[i] for i in val_idx), params, cfg, cache)
        val_loss = float(np.mean([nll_loss(out, records[i].interval_label,
                                           records[i].follow_up.censored)
                                  for i, out in zip(val_idx, val_outs)]))
        if not np.isfinite(val_loss):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")
        try:
            val_ci = survstats.c_index(val_preds)
        except UndefinedStatisticError as exc:
            log.warning("epoch %d: validation C-index undefined: %s", epoch, exc)
            val_ci = float("nan")
        history.append(dict(epoch=epoch, train_loss=float(np.mean(train_losses)),
                            val_loss=val_loss, val_cindex=val_ci))

        if val_loss < best_val:
            best_val = val_loss
            best = FitResult(params=params.copy(), history=history, best_epoch=epoch)
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    best.history = history
    return best


def _evaluate(records: Iterable[PatientRecord], params: ParamStore, cfg: HVTSurvConfig,
              cache: dict | None) -> tuple[list[survstats.RiskPrediction], list[HazardOutput]]:
    """Risk predictions and forward outputs of the records, in order, under
    the eval mask. Each record is dropped before the next is taken."""
    preds, outs = [], []
    for rec in records:
        out = forward(preprocess_patient(rec, cfg, EVAL_MASK_SEED, cache), params, cfg)
        preds.append(survstats.RiskPrediction(
            patient_id=rec.patient_id, risk=out.risk,
            time_months=rec.follow_up.time_months, censored=rec.follow_up.censored))
        outs.append(out)
        del rec   # an on-disk record's slides go before the next one is read
    return preds, outs


def predict_risks(records: Iterable[PatientRecord], params: ParamStore, cfg: HVTSurvConfig,
                  cache: dict | None = None) -> list[survstats.RiskPrediction]:
    """Risks of the records, in order, under the evaluation mask; ``cache``
    is preprocess_patient's rearranged-bag cache.

    ``records`` may be a list or any iterable, such as a generator that
    reads each patient from disk: each record is dropped before the next
    is taken, so with no cache a generator keeps one patient's slides in
    memory at a time.
    """
    return _evaluate(records, params, cfg, cache)[0]


def export_attention(sub_bags: list[SubWsiBag], state: dict,
                     drop_fraction: float) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-layer patch scores ready for heatmap rendering, as layer ->
    (rows, scores): ``rows`` indexes the sub-bags' stacked rows, in the
    order of forward, and ``scores`` holds the float64 score of each.

    ``state`` is what forward(sub_bags, ..., want_attention=True)
    returned with its output: per window-attention layer, each chunk's row
    scores, its attention averaged over heads and then over the query
    axis. Per layer, the lowest ``drop_fraction`` of scores are zeroed and
    the rest min-max rescaled to [0, 1] (a constant score vector rescales
    to all zeros). The local and pooling layers score the stacked rows in
    order; score j of the shuffle layer is that of stacked row perm[j].
    """
    if not 0.0 <= drop_fraction < 1.0:
        raise ValidationError(f"drop_fraction must lie in [0, 1), got {drop_fraction}")

    def finalize(scores: np.ndarray) -> np.ndarray:
        scores = scores.astype(np.float64)
        n_drop = int(np.floor(drop_fraction * scores.size))
        if n_drop:
            scores[np.argsort(scores, kind="stable")[:n_drop]] = 0.0
        span = scores.max() - scores.min()
        if span <= 0:
            return np.zeros_like(scores)
        return (scores - scores.min()) / span

    in_order = np.arange(sum(len(sub.source_rows) for sub in sub_bags))
    return {
        "local": (in_order, finalize(np.concatenate(state["local"]))),
        "shuffle": (state["perm"], finalize(np.concatenate(state["shuffle"]))),
        "pool": (in_order, finalize(state["pool"]["weights"])),
    }


def save_checkpoint(path, params: ParamStore, cfg: HVTSurvConfig,
                    extra: dict | None = None) -> None:
    """Versioned binary container: config text plus named float32 tensors,
    written to ``{path}.tmp`` and then moved over ``path`` in one step."""
    items = {**config_items(cfg), **(extra or {})}
    config_blob = "".join(f"{k}={v}\n" for k, v in items.items()).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(config_blob)))
        fh.write(config_blob)
        names = params.names()
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            encoded = name.encode("utf-8")
            arr = params[name]
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f4").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (params, config, extra key-values).

    Every config key must be present; keys that are not config keys come
    back as the extra string values. The tensors must be exactly those of
    param_layout(config), each once and with its layout shape.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    version, config_len = struct.unpack_from("<II", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    offset = 12
    try:
        text = raw[offset : offset + config_len].decode("utf-8")
        items = dict(line.split("=", 1) for line in text.splitlines())
        cfg = config_from_items(items)
        extra = {k: v for k, v in items.items() if k not in CONFIG_DEFAULTS}
        layout = param_layout(cfg)
        offset += config_len
        (n_params,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        arrays = {}
        for _ in range(n_params):
            (name_len,) = struct.unpack_from("<H", raw, offset)
            offset += 2
            name = raw[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", raw, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", raw, offset)
            offset += 4 * ndim
            expected = layout[name][0] if name in layout else "no such tensor"
            if name in arrays or shape != expected:
                raise FormatError(f"{path}: tensor {name!r} of shape {shape} is repeated or "
                                  f"unlike the config's layout ({expected})")
            count = int(np.prod(shape)) if ndim else 1
            arrays[name] = np.frombuffer(raw, "<f4", count, offset).reshape(shape)
            offset += 4 * count
    except (struct.error, UnicodeDecodeError, KeyError, ValueError) as exc:
        raise FormatError(f"{path}: corrupt checkpoint ({exc})") from exc
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} trailing bytes")
    missing = sorted(layout.keys() - arrays.keys())
    if missing:
        raise FormatError(f"{path}: tensors of the config missing: {missing}")
    return ParamStore(arrays), cfg, extra
