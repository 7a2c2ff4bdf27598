import csv
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from hvtsurv import cli
from hvtsurv.bagio import (
    FollowUp,
    PatchBag,
    PatientRecord,
    bin_survival_times,
    load_manifest,
    stratified_kfold,
)
from hvtsurv.blocks import (
    BucketParams,
    attn_pool,
    attn_pool_backward,
    block_shuffle,
    inverse_permutation,
    manhattan_bucket_index,
    spatial_shuffle,
    window_attention,
    window_attention_backward,
)
from hvtsurv.errors import FormatError, ValidationError
from hvtsurv.numerics import ParamStore, finite_diff_check, linear, linear_backward, sigmoid
from hvtsurv.rearrange import SubWsiBag
from hvtsurv.seeding import derive_seed, rng_for
from hvtsurv.survmodel import (
    ADAMW_SLICE,
    CONFIG_DEFAULTS,
    EVAL_MASK_SEED,
    FORWARD_CHUNK_ROWS,
    AdamW,
    HVTSurvConfig,
    HazardOutput,
    _nll_grad_logits,
    config_from_items,
    config_items,
    export_attention,
    fit,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grads,
    nll_loss,
    param_layout,
    predict_risks,
    preprocess_patient,
    save_checkpoint,
    survival_from_hazards,
)

MICRO_CFG = HVTSurvConfig(
    input_dim=12, model_dim=16, window_size=4, n_heads=2,
    n_sub_wsis=2, n_intervals=4, pool_hidden=8, seed=0,
)

rng = np.random.default_rng(5)


def make_patient(pid, n_patches=14, t=12.0, c=0, label=1, n_wsis=1, d=12):
    bags = []
    for j in range(n_wsis):
        cells = [(x, y) for y in range(8) for x in range(8)][:n_patches]
        coords = np.array(cells) * 256
        feats = rng.normal(size=(n_patches, d)).astype(np.float32)
        bags.append(PatchBag(f"{pid}-W{j}", coords, feats))
    return PatientRecord(pid, bags, FollowUp(t, c), interval_label=label)


class TestSurvivalFromHazards:
    def test_zero_hazards(self):
        assert np.allclose(survival_from_hazards([0.0, 0.0, 0.0]), 1.0)

    def test_absorbing_failure(self):
        s = survival_from_hazards([1.0, 0.3, 0.2])
        assert np.allclose(s, 0.0)

    def test_direct_products(self):
        assert np.allclose(survival_from_hazards([0.2, 0.3]), [0.8, 0.56])
        assert np.allclose(survival_from_hazards([0.5] * 4), [0.5, 0.25, 0.125, 0.0625])

    def test_monotone_non_increasing(self):
        for _ in range(100):
            h = rng.uniform(0, 1, size=rng.integers(1, 8))
            s = survival_from_hazards(h)
            assert np.all(np.diff(s) <= 1e-15)
            assert np.all((s >= 0) & (s <= 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            survival_from_hazards([0.2, 1.3])


class TestNllLoss:
    def out(self, hazards):
        h = np.asarray(hazards, dtype=float)
        s = survival_from_hazards(h)
        return HazardOutput(hazards=h, survival=s, risk=float(-s.sum()))

    def test_uncensored_halves(self):
        # second interval, all hazards 0.5: -log S(0) - log h(1) = 2 log 2
        loss = nll_loss(self.out([0.5] * 4), label=1, censored=0)
        assert np.isclose(loss, 2 * np.log(2))

    def test_censored_perfect_fit(self):
        assert nll_loss(self.out([0.0] * 4), label=2, censored=1) == 0.0

    def test_finite_at_boundaries(self):
        assert np.isfinite(nll_loss(self.out([1.0] * 4), label=2, censored=1))
        assert np.isfinite(nll_loss(self.out([0.0] * 4), label=2, censored=0))

    def test_label_range_checked(self):
        with pytest.raises(ValidationError):
            nll_loss(self.out([0.5] * 4), label=4, censored=0)


class TestForward:
    def test_hazard_output_contract(self):
        patient = make_patient("P1", n_patches=14)
        params = init_params(MICRO_CFG, seed=1)
        out = forward(preprocess_patient(patient, MICRO_CFG, 7), params, MICRO_CFG)
        assert out.hazards.shape == (4,)
        assert np.all((out.hazards > 0) & (out.hazards < 1))
        assert np.allclose(out.survival, np.cumprod(1 - out.hazards))
        assert np.isclose(out.risk, -out.survival.sum())

    def test_large_negative_logits_low_risk(self):
        patient = make_patient("P1", n_patches=14)
        params = init_params(MICRO_CFG, seed=1)
        params["head.weight"][...] = 0.0
        params["head.bias"][...] = -30.0
        out = forward(preprocess_patient(patient, MICRO_CFG, 7), params, MICRO_CFG)
        assert np.all(out.hazards < 1e-10)
        assert np.allclose(out.survival, 1.0)
        assert np.isclose(out.risk, -MICRO_CFG.n_intervals)

    def test_wsi_order_invariance(self):
        patient = make_patient("P1", n_patches=14, n_wsis=3)
        params = init_params(MICRO_CFG, seed=2)
        out_a = forward(preprocess_patient(patient, MICRO_CFG, 7), params, MICRO_CFG)
        reordered = PatientRecord(
            patient.patient_id, list(reversed(patient.bags)),
            patient.follow_up, patient.interval_label,
        )
        out_b = forward(preprocess_patient(reordered, MICRO_CFG, 7), params, MICRO_CFG)
        assert np.allclose(out_a.hazards, out_b.hazards)

    def test_empty_patient_rejected(self):
        params = init_params(MICRO_CFG, seed=1)
        with pytest.raises(ValidationError):
            forward([], params, MICRO_CFG)

    def test_risk_strictly_increasing_in_hazards(self):
        h = np.array([0.3, 0.4, 0.2, 0.6])
        base = -survival_from_hazards(h).sum()
        for k in range(4):
            bumped = h.copy()
            bumped[k] += 0.05
            assert -survival_from_hazards(bumped).sum() > base


class TestFullModelGradient:
    def test_micro_instance_matches_finite_differences(self):
        patients = [make_patient("PA", 14, 12.0, 0, label=1),
                    make_patient("PB", 9, 30.0, 1, label=2)]
        subs = [preprocess_patient(p, MICRO_CFG, mask_seed=77) for p in patients]
        params = init_params(MICRO_CFG, seed=3, scale=0.25)
        params.zero_grads()
        for sub, p in zip(subs, patients):
            loss_and_grads(sub, p.interval_label, p.follow_up.censored, params, MICRO_CFG)

        def f(ps):
            return sum(
                nll_loss(forward(sub, ps, MICRO_CFG), p.interval_label,
                         p.follow_up.censored)
                for sub, p in zip(subs, patients)
            )

        assert finite_diff_check(f, params, eps=1e-5) < 1e-4

    def test_every_layout_tensor_read_and_given_a_finite_gradient(self, monkeypatch):
        # the kernels reach the model's tensors only through the store, so
        # the names one training step reads and accumulates into must be
        # exactly those param_layout declares
        read, written = set(), set()
        get, add = ParamStore.__getitem__, ParamStore.add_grad

        def recording_get(store, name):
            read.add(name)
            return get(store, name)

        def recording_add(store, name, g):
            written.add(name)
            add(store, name, g)

        patient = make_patient("PA", n_patches=14, n_wsis=2)
        subs = preprocess_patient(patient, MICRO_CFG, mask_seed=5)
        params = init_params(MICRO_CFG, seed=4)
        monkeypatch.setattr(ParamStore, "__getitem__", recording_get)
        monkeypatch.setattr(ParamStore, "add_grad", recording_add)
        forward(subs, params, MICRO_CFG)
        loss_and_grads(subs, patient.interval_label, 0, params, MICRO_CFG)
        monkeypatch.undo()
        layout = param_layout(MICRO_CFG)
        assert read == layout.keys()
        assert written == layout.keys()
        for name in layout:
            assert np.all(np.isfinite(params.grad(name))), name

    def test_float32_store_keeps_every_gradient_float32(self, monkeypatch):
        # a float64 gradient anywhere would widen the rest of the backward and
        # round into the float32 store at add_grad
        from hvtsurv import survmodel
        seen = []

        def recording(kernel):
            def wrapped(grad, *args, **kwargs):
                out = kernel(grad, *args, **kwargs)
                g_in = out[0] if isinstance(out, tuple) else out
                seen.append((kernel.__name__, grad.dtype, g_in.dtype))
                return out
            return wrapped

        added = {}
        add = ParamStore.add_grad

        def recording_add(store, name, g):
            added[name] = np.asarray(g).dtype
            add(store, name, g)

        for name in ("window_attention_backward", "attn_pool_backward"):
            monkeypatch.setattr(survmodel, name, recording(getattr(survmodel, name)))
        monkeypatch.setattr(ParamStore, "add_grad", recording_add)
        drawn = init_params(MICRO_CFG, seed=4)
        params = ParamStore({k: drawn[k].astype(np.float32) for k in drawn.names()})
        patient = make_patient("PA", n_patches=14, n_wsis=2)
        subs = preprocess_patient(patient, MICRO_CFG, mask_seed=5)
        for label, censored in ((1, 0), (2, 1)):
            loss_and_grads(subs, label, censored, params, MICRO_CFG)
        monkeypatch.undo()
        assert [name for name, _, _ in seen] == ["attn_pool_backward",
                                                 "window_attention_backward",
                                                 "window_attention_backward"] * 2
        for name, incoming, returned in seen:
            assert (incoming, returned) == (np.float32, np.float32), name
        assert added.keys() == param_layout(MICRO_CFG).keys()
        for name, dtype in added.items():
            assert dtype == np.float32, name


class TestFit:
    def small_cohort(self, n=12):
        cohort = []
        for i in range(n):
            cohort.append(make_patient(f"P{i}", n_patches=10 + (i % 4),
                                       t=float(5 + 7 * i), c=i % 3 == 0,
                                       label=i % 4))
        return cohort

    def test_zero_learning_rate_keeps_params(self):
        cohort = self.small_cohort()
        cfg = HVTSurvConfig(
            input_dim=12, model_dim=16, window_size=4, n_heads=2, n_sub_wsis=2,
            n_intervals=4, pool_hidden=8, learning_rate=0.0, max_epochs=1, seed=0,
        )
        result = fit(cohort, train_idx=range(8), val_idx=range(8, 12), cfg=cfg, seed=11)
        fresh = init_params(cfg, derive_seed(11, "fit-init"))
        assert result.params.flat.dtype == np.float32   # fit trains a float32 copy of the draw
        assert result.params.names() == fresh.names()
        for name in fresh.names():
            assert np.array_equal(result.params[name], fresh[name].astype(np.float32))

    def test_determinism(self):
        cohort = self.small_cohort()
        cfg = HVTSurvConfig(
            input_dim=12, model_dim=16, window_size=4, n_heads=2, n_sub_wsis=2,
            n_intervals=4, pool_hidden=8, max_epochs=2, seed=0,
        )
        a = fit(cohort, range(8), range(8, 12), cfg, seed=13)
        b = fit(cohort, range(8), range(8, 12), cfg, seed=13)
        assert a.params.names() == b.params.names()
        for name in a.params.names():
            assert np.array_equal(a.params[name], b.params[name])
        assert a.history == b.history

    def test_one_epoch_reduces_loss_on_fixed_batch(self):
        # head-only descent: frozen features, repeated small steps on the
        # same micro-batch must reduce the loss
        patient = make_patient("P0", n_patches=12, t=10.0, c=0, label=1)
        cfg = MICRO_CFG
        subs = preprocess_patient(patient, cfg, 7)
        params = init_params(cfg, seed=4)
        opt = AdamW(params, lr=1e-3, weight_decay=0.0)
        losses = []
        for _ in range(8):
            params.zero_grads()
            losses.append(loss_and_grads(subs, 1, 0, params, cfg))
            opt.step()
        assert losses[-1] < losses[0]

    def test_requires_labels(self):
        cohort = self.small_cohort()
        cohort[0].interval_label = None
        cfg = MICRO_CFG
        with pytest.raises(ValidationError):
            fit(cohort, range(8), range(8, 12), cfg, seed=1)

    def test_one_validation_forward_per_patient_per_epoch(self, monkeypatch):
        from hvtsurv import survmodel
        calls = []
        real_forward = survmodel.forward

        def counting_forward(*args, **kwargs):
            calls.append(kwargs.get("return_state", False))
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(survmodel, "forward", counting_forward)
        cfg = HVTSurvConfig(
            input_dim=12, model_dim=16, window_size=4, n_heads=2, n_sub_wsis=2,
            n_intervals=4, pool_hidden=8, max_epochs=2, patience=5, seed=0,
        )
        result = fit(self.small_cohort(), range(8), range(8, 12), cfg, seed=13)
        assert len(result.history) == 2
        assert calls.count(True) == 2 * 8      # training steps
        assert calls.count(False) == 2 * 4     # validation: loss and C-index

    def test_c_index_failure_propagates(self, monkeypatch):
        from hvtsurv import survstats

        def broken_c_index(preds):
            raise RuntimeError("broken c-index")

        monkeypatch.setattr(survstats, "c_index", broken_c_index)
        cfg = HVTSurvConfig(
            input_dim=12, model_dim=16, window_size=4, n_heads=2, n_sub_wsis=2,
            n_intervals=4, pool_hidden=8, max_epochs=1, seed=0,
        )
        with pytest.raises(RuntimeError, match="broken c-index"):
            fit(self.small_cohort(), range(8), range(8, 12), cfg, seed=2)

    def test_undefined_c_index_is_nan_and_logged(self, monkeypatch, caplog):
        from hvtsurv import survstats
        from hvtsurv.errors import UndefinedStatisticError

        def undefined_c_index(preds):
            raise UndefinedStatisticError("no comparable pairs")

        monkeypatch.setattr(survstats, "c_index", undefined_c_index)
        cfg = HVTSurvConfig(
            input_dim=12, model_dim=16, window_size=4, n_heads=2, n_sub_wsis=2,
            n_intervals=4, pool_hidden=8, max_epochs=1, seed=0,
        )
        with caplog.at_level("WARNING", logger="hvtsurv"):
            result = fit(self.small_cohort(), range(8), range(8, 12), cfg, seed=2)
        assert np.isnan(result.history[0]["val_cindex"])
        assert "no comparable pairs" in caplog.text


def hand_built_attention(pool_weights, w=2, heads=2):
    """One sub-bag whose window attention is uniform, so its local and
    shuffle scores are constant, with the given pooling weights."""
    n = pool_weights.size
    sub = SubWsiBag(source_wsi="w", features=np.zeros((n, 3)),
                    scaled_coords=np.ones((n, 2), dtype=np.int64), source_rows=np.arange(n),
                    window_ids=np.arange(n // w))
    scores = np.full(n, 1.0 / w)   # the row scores of uniform window attention
    state = dict(perm=spatial_shuffle(n, w), local=[scores], shuffle=[scores],
                 pool=dict(weights=pool_weights))
    return [sub], state


def two_slide_patient(pid="P9"):
    """Slides of 14 and 23 patches on different layouts."""
    layouts = ([(x, y) for y in range(8) for x in range(8)][:14],
               [(x, y) for x in range(6) for y in range(6) if (x + y) % 3][:23])
    bags = [PatchBag(f"{pid}-W{j}", np.array(cells) * 256,
                     rng.normal(size=(len(cells), 12)).astype(np.float32))
            for j, cells in enumerate(layouts)]
    return PatientRecord(pid, bags, FollowUp(12.0, 0), interval_label=1)


STACK_CFG = HVTSurvConfig(input_dim=12, model_dim=16, window_size=5, n_heads=2,
                          n_sub_wsis=2, n_intervals=4, pool_hidden=8)


def per_sub_bag_forward(subs, params, cfg):
    """The model as a loop over sub-bags, each with its own reduce, bucket
    index, kernel calls and shuffle; returns the hazards and each sub-bag's
    (x, perm, local state, shuffle state), then the pooling state."""
    w, heads = cfg.window_size, cfg.n_heads
    outputs, states = [], []
    for sub in subs:
        x = np.asarray(sub.features, dtype=params.flat.dtype)
        idx = manhattan_bucket_index(sub.scaled_coords.reshape(-1, w, 2), cfg.bucket)
        h1, local = window_attention(linear(x, params["reduce.weight"], params["reduce.bias"]),
                                     params, "local", heads, w, idx, return_state=True)
        perm = spatial_shuffle(x.shape[0], w)
        h2, shuffle = window_attention(h1[perm], params, "shuffle", heads, w, return_state=True)
        outputs.append(h2[inverse_permutation(perm)])
        states.append((x, perm, local, shuffle))
    pooled, _, pool_state = attn_pool(np.vstack(outputs), params, return_state=True)
    hazards = sigmoid(pooled @ params["head.weight"] + params["head.bias"])
    return hazards, pooled, states, pool_state


def per_sub_bag_loss_and_grads(subs, label, censored, params, cfg):
    """loss_and_grads with the backward as a loop over sub-bags."""
    hazards, pooled, states, pool_state = per_sub_bag_forward(subs, params, cfg)
    survival = survival_from_hazards(hazards)
    loss = nll_loss(HazardOutput(hazards, survival, float(-survival.sum())), label, censored)
    d_logits = _nll_grad_logits(hazards, label, censored)
    params.add_grad("head.weight", np.outer(pooled, d_logits))
    params.add_grad("head.bias", d_logits)
    g_cat = attn_pool_backward(params["head.weight"] @ d_logits, pool_state, params)
    offset = 0
    for x, perm, local, shuffle in states:
        g = g_cat[offset : offset + x.shape[0]]
        offset += x.shape[0]
        for prefix, order, layer_state in (("shuffle", perm, shuffle),
                                           ("local", inverse_permutation(perm), local)):
            g, grads = window_attention_backward(g[order], layer_state, params, prefix)
            params.add_grads(grads)
        _, g_w, g_b = linear_backward(g, x, params["reduce.weight"])
        params.add_grad("reduce.weight", g_w)
        params.add_grad("reduce.bias", g_b)
    return loss


class TestStackedPass:
    """forward stacks the sub-bags into one row block; a loop over the
    sub-bags is the reference."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_equals_per_sub_bag_loop_bit_for_bit(self, dtype):
        params = init_params(STACK_CFG, seed=8, scale=0.25)
        if dtype == np.float32:
            params = ParamStore({n: params[n].astype(np.float32) for n in params.names()})
        for mask_seed in (7, 8, 9):
            subs = preprocess_patient(two_slide_patient(), STACK_CFG, mask_seed)
            assert len(subs) == 4 and len({len(sub.source_rows) for sub in subs}) > 1
            out = forward(subs, params, STACK_CFG)
            hazards = per_sub_bag_forward(subs, params, STACK_CFG)[0]
            assert out.hazards.dtype == dtype
            assert np.array_equal(out.hazards, hazards)
            assert out.risk == float(-survival_from_hazards(hazards).sum())

    def test_loss_and_grads_within_1e_12_of_per_sub_bag_loop(self):
        subs = preprocess_patient(two_slide_patient(), STACK_CFG, 7)
        stacked = init_params(STACK_CFG, seed=8, scale=0.25)
        looped = stacked.copy()
        stacked.zero_grads()
        looped.zero_grads()
        loss = loss_and_grads(subs, 1, 0, stacked, STACK_CFG)
        assert loss == per_sub_bag_loss_and_grads(subs, 1, 0, looped, STACK_CFG)
        for name in stacked.names():
            want = looped.grad(name)
            assert np.abs(stacked.grad(name) - want).max() <= 1e-12 * np.abs(want).max(), name


CHUNK_CFG = HVTSurvConfig(input_dim=24, model_dim=32, window_size=16, n_heads=4,
                          n_sub_wsis=2, n_intervals=4, pool_hidden=8, ffn_ratio=8)


def grid_sub_bags(lengths, cfg, seed=0):
    """Sub-bags of the given row counts, each on a random grid layout."""
    r = np.random.default_rng(seed)
    subs = []
    for j, n in enumerate(lengths):
        side = int(np.ceil(np.sqrt(n)))
        cells = r.permutation(side * side)[:n]
        subs.append(SubWsiBag(source_wsi=f"W{j}", features=r.normal(size=(n, cfg.input_dim)),
                              scaled_coords=np.stack([cells % side, cells // side], axis=1),
                              source_rows=np.arange(n),
                              window_ids=np.arange(n // cfg.window_size)))
    return subs


def whole_pass_forward(subs, params, cfg):
    """forward with each attention layer run once over all stacked rows;
    returns the hazards and the state a backward over all rows needs."""
    w, heads = cfg.window_size, cfg.n_heads
    x = np.concatenate([sub.features for sub in subs], dtype=params.flat.dtype)
    coords = np.concatenate([sub.scaled_coords for sub in subs]).reshape(-1, w, 2)
    h, local = window_attention(linear(x, params["reduce.weight"], params["reduce.bias"]),
                                params, "local", heads, w,
                                manhattan_bucket_index(coords, cfg.bucket), return_state=True)
    perm = block_shuffle([len(sub.features) for sub in subs], w)
    inv = inverse_permutation(perm)
    h, shuffle = window_attention(h[perm], params, "shuffle", heads, w, return_state=True)
    pooled, _, pool = attn_pool(h[inv], params, return_state=True)
    hazards = sigmoid(pooled @ params["head.weight"] + params["head.bias"])
    return hazards, dict(x=x, perm=perm, inv=inv, local=local, shuffle=shuffle, pool=pool,
                         pooled=pooled)


def whole_pass_loss_and_grads(subs, label, censored, params, cfg):
    """loss_and_grads with each attention layer's backward run once over all rows."""
    hazards, state = whole_pass_forward(subs, params, cfg)
    survival = survival_from_hazards(hazards)
    loss = nll_loss(HazardOutput(hazards, survival, float(-survival.sum())), label, censored)
    d_logits = _nll_grad_logits(hazards, label, censored)
    params.add_grad("head.weight", np.outer(state["pooled"], d_logits))
    params.add_grad("head.bias", d_logits)
    g = attn_pool_backward(params["head.weight"] @ d_logits, state["pool"], params)
    for prefix, order in (("shuffle", state["perm"]), ("local", state["inv"])):
        g, grads = window_attention_backward(g[order], state[prefix], params, prefix)
        params.add_grads(grads)
    params.add_grad("reduce.weight", state["x"].T @ g)
    params.add_grad("reduce.bias", g.sum(axis=0))
    return loss


# Three chunks at CHUNK_CFG, the last partial, with a chunk edge inside each sub-bag.
MULTI_CHUNK = (1600, 1440)


def as_float32(params):
    return ParamStore({k: params[k].astype(np.float32) for k in params.names()})


def force_workers(monkeypatch, workers):
    """Run every attention layer of more than one chunk on ``workers`` threads."""
    from hvtsurv import survmodel
    monkeypatch.setattr(survmodel, "chunk_workers", lambda n_chunks: min(workers, n_chunks))


def every_output(subs, params, cfg):
    """The hazards of forward's three modes, every array of their states, the
    loss and the gradients of two steps: what a worker count must not change."""
    outputs = [forward(subs, params, cfg).hazards]
    for mode in ("want_attention", "return_state"):
        out, state = forward(subs, params, cfg, **{mode: True})
        outputs.append(out.hazards)
        stack = [state]
        while stack:
            item = stack.pop()
            if isinstance(item, dict):
                stack.extend(item.values())
            elif isinstance(item, (tuple, list)):
                stack.extend(item)
            elif isinstance(item, np.ndarray):
                outputs.append(item)
    params = params.copy()
    for label, censored in ((1, 0), (2, 1)):
        outputs.append(loss_and_grads(subs, label, censored, params, cfg))
        outputs.append(params.grad_flat.copy())
    return outputs


class TestChunkWorkers:
    """Chunks of one attention layer run on the cores BLAS leaves idle, with
    results that do not depend on how many threads ran them."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_parallel_chunks_equal_serial_bit_for_bit(self, dtype, monkeypatch):
        # MULTI_CHUNK's chunk edges fall inside its sub-bags
        subs = grid_sub_bags(MULTI_CHUNK, CHUNK_CFG)
        params = init_params(CHUNK_CFG, seed=3, scale=0.25)
        if dtype == np.float32:
            params = as_float32(params)
        force_workers(monkeypatch, 1)
        serial = every_output(subs, params, CHUNK_CFG)
        assert serial[0].dtype == dtype
        # more workers than cores, switching threads often: a row written
        # by the wrong chunk or a gradient added twice or lost shows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (2, 3):
                force_workers(monkeypatch, workers)
                parallel = every_output(subs, params, CHUNK_CFG)
                assert len(parallel) == len(serial)
                for got, want in zip(parallel, serial):
                    assert np.array_equal(got, want), workers
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("blas, cpus, n_chunks, want", [
        (1, 2, 8, 2),    # one BLAS thread leaves a core idle
        (1, 4, 3, 3),    # at most one worker per chunk
        (1, 2, 1, 1),    # one chunk runs serially
        (2, 2, 8, 1),    # BLAS threads take every CPU
        (3, 2, 8, 1),
        (2, 5, 8, 2),
        (None, 4, 8, 1),  # the BLAS thread count cannot be read
    ])
    def test_worker_rule(self, blas, cpus, n_chunks, want, monkeypatch):
        import os

        from hvtsurv import survmodel
        monkeypatch.setattr(survmodel, "_openblas_thread_getter",
                            lambda: None if blas is None else (lambda: blas))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert survmodel.chunk_workers(n_chunks) == want

    def test_reads_numpys_openblas_thread_count(self):
        from hvtsurv import survmodel
        getter = survmodel._openblas_thread_getter()
        if getter is None:
            pytest.skip("numpy bundles no OpenBLAS with a thread-count getter here")
        assert getter() >= 1

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        from hvtsurv import survmodel
        subs = grid_sub_bags(MULTI_CHUNK, CHUNK_CFG)
        params = init_params(CHUNK_CFG, seed=3)
        calls = []
        real = survmodel.window_attention

        def failing_on_second_chunk(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise FloatingPointError("chunk 1")
            return real(*args, **kwargs)

        force_workers(monkeypatch, 2)
        monkeypatch.setattr(survmodel, "window_attention", failing_on_second_chunk)
        with pytest.raises(FloatingPointError, match="chunk 1"):
            forward(subs, params, CHUNK_CFG)


class TestChunkedForward:
    """Every attention layer runs on chunks of whole windows, forward and
    backward, in each mode of forward; one pass over all rows is the reference."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_chunked_pass_equals_whole_pass_bit_for_bit(self, dtype):
        step = FORWARD_CHUNK_ROWS // CHUNK_CFG.window_size * CHUNK_CFG.window_size
        n = sum(MULTI_CHUNK)
        assert n > 2 * step and n % step and step < MULTI_CHUNK[0] < 2 * step < n
        subs = grid_sub_bags(MULTI_CHUNK, CHUNK_CFG)
        params = init_params(CHUNK_CFG, seed=3, scale=0.25)
        if dtype == np.float32:
            params = as_float32(params)
        hazards, whole = whole_pass_forward(subs, params, CHUNK_CFG)
        assert hazards.dtype == dtype
        risk = float(-survival_from_hazards(hazards).sum())
        plain = forward(subs, params, CHUNK_CFG)
        attended, attention = forward(subs, params, CHUNK_CFG, want_attention=True)
        trained, state = forward(subs, params, CHUNK_CFG, return_state=True)
        for out in (plain, attended, trained):
            assert np.array_equal(out.hazards, hazards) and out.risk == risk
        assert state["chunks"] == [slice(0, step), slice(step, 2 * step),
                                   slice(2 * step, 3 * step)]
        for layer in ("local", "shuffle"):
            assert np.array_equal(np.concatenate(attention[layer]),
                                  whole[layer]["attn"].mean(axis=1).mean(axis=1).ravel())
            # each chunk's training state is the rows of the whole pass's state
            for key in ("qh", "kh", "vh", "attn", "h1"):
                assert np.array_equal(np.concatenate([entry[key] for entry in state[layer]]),
                                      whole[layer][key]), (layer, key)
            for key in ("ln1_state", "ln2_state"):
                for i, want in enumerate(whole[layer][key]):
                    got = np.concatenate([entry[key][i] for entry in state[layer]])
                    assert np.array_equal(got, want), (layer, key)
        for pool in (attention["pool"], state["pool"]):
            assert np.array_equal(pool["weights"], whole["pool"]["weights"])

    def test_each_chunk_builds_its_own_bucket_index(self, monkeypatch):
        # no (windows, w, w) index of the whole patient is built, in any mode
        from hvtsurv import survmodel
        windows, real = [], survmodel.manhattan_bucket_index
        monkeypatch.setattr(survmodel, "manhattan_bucket_index",
                            lambda coords, p: windows.append(len(coords)) or real(coords, p))
        subs = grid_sub_bags(MULTI_CHUNK, CHUNK_CFG)
        params = init_params(CHUNK_CFG, seed=3)
        for mode in ({}, {"want_attention": True}, {"return_state": True}):
            windows.clear()
            forward(subs, params, CHUNK_CFG, **mode)
            assert sum(windows) == sum(MULTI_CHUNK) // CHUNK_CFG.window_size, mode
            assert max(windows) <= FORWARD_CHUNK_ROWS // CHUNK_CFG.window_size, mode

    def test_multi_chunk_step_within_1e_12_of_whole_pass(self):
        # the chunks' weight gradients add up in another order than one pass's
        subs = grid_sub_bags(MULTI_CHUNK, CHUNK_CFG)
        chunked = init_params(CHUNK_CFG, seed=3, scale=0.25)
        whole = chunked.copy()
        for label, censored in ((1, 0), (2, 1)):
            loss = loss_and_grads(subs, label, censored, chunked, CHUNK_CFG)
            assert loss == whole_pass_loss_and_grads(subs, label, censored, whole, CHUNK_CFG)
        for name in chunked.names():
            want = whole.grad(name)
            assert np.abs(chunked.grad(name) - want).max() <= 1e-12 * np.abs(want).max(), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_chunk_step_equals_whole_pass_bit_for_bit(self, dtype):
        subs = grid_sub_bags((160, 96), CHUNK_CFG)
        chunked = init_params(CHUNK_CFG, seed=3, scale=0.25)
        if dtype == np.float32:
            chunked = as_float32(chunked)
        whole = chunked.copy()
        for label, censored in ((1, 0), (2, 1)):
            loss = loss_and_grads(subs, label, censored, chunked, CHUNK_CFG)
            assert loss == whole_pass_loss_and_grads(subs, label, censored, whole, CHUNK_CFG)
        assert chunked.grad_flat.dtype == dtype
        assert np.array_equal(chunked.grad_flat, whole.grad_flat)

    def test_forward_only_peak_below_one_mlp_array(self):
        self.check_forward_only_peak()

    def test_forward_only_peak_below_one_mlp_array_at_2_workers(self, monkeypatch):
        force_workers(monkeypatch, 2)
        self.check_forward_only_peak()

    def check_forward_only_peak(self):
        subs = grid_sub_bags((4096, 4096), CHUNK_CFG)
        params = init_params(CHUNK_CFG, seed=3)
        forward(subs, params, CHUNK_CFG)   # first-use imports stay out of the trace
        tracemalloc.start()
        try:
            forward(subs, params, CHUNK_CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = sum(len(sub.features) for sub in subs)
        assert peak < n * CHUNK_CFG.ffn_ratio * CHUNK_CFG.model_dim * 8

    def test_backward_transients_below_half_an_mlp_array(self, monkeypatch):
        self.check_backward_transients(monkeypatch)

    def test_backward_transients_below_half_an_mlp_array_at_2_workers(self, monkeypatch):
        force_workers(monkeypatch, 2)
        self.check_backward_transients(monkeypatch)

    def check_backward_transients(self, monkeypatch):
        # above the state the forward hands it, the backward allocates one
        # chunk's (rows, ffn_ratio*d) temporaries per worker, not the patient's
        from hvtsurv import survmodel
        subs = grid_sub_bags((4096, 4096), CHUNK_CFG)
        params = init_params(CHUNK_CFG, seed=3)
        loss_and_grads(subs, 1, 0, params, CHUNK_CFG)   # first-use imports stay out of the trace
        real_forward, held = survmodel.forward, []

        def forward_then_reset_peak(*args, **kwargs):
            result = real_forward(*args, **kwargs)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return result

        monkeypatch.setattr(survmodel, "forward", forward_then_reset_peak)
        tracemalloc.start()
        try:
            loss_and_grads(subs, 1, 0, params, CHUNK_CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = sum(len(sub.features) for sub in subs)
        assert peak - held[0] < n * CHUNK_CFG.ffn_ratio * CHUNK_CFG.model_dim * 8 / 2

    def test_training_state_keeps_only_what_the_backward_cannot_recompute(self):
        subs = grid_sub_bags(MULTI_CHUNK, CHUNK_CFG)
        n = sum(MULTI_CHUNK)
        _, state = forward(subs, init_params(CHUNK_CFG, seed=3), CHUNK_CFG, return_state=True)
        assert set(state) == {"perm", "local", "shuffle", "pool", "chunks", "inv", "pooled"}
        for layer in ("local", "shuffle"):
            assert len(state[layer]) == len(state["chunks"]) == 3
            for entry in state[layer]:
                # no u, u2 or ctx: the backward recomputes them bit for bit
                assert set(entry) == {"ln1_state", "qh", "kh", "vh", "attn", "ln2_state",
                                      "h1", "scale", "idx"}
        stack = [state]
        while stack:
            item = stack.pop()
            if isinstance(item, dict):
                stack.extend(item.values())
            elif isinstance(item, (tuple, list)):
                stack.extend(item)
            elif isinstance(item, np.ndarray):
                assert item.shape != (n, CHUNK_CFG.input_dim)


class TestExportAttention:
    def attention_for(self, patient, params, cfg, mask_seed=7):
        subs = preprocess_patient(patient, cfg, mask_seed)
        _, state = forward(subs, params, cfg, want_attention=True)
        return subs, state

    def test_matrices_row_stochastic(self):
        _, state = self.attention_for(make_patient("P1"), init_params(MICRO_CFG, 1), MICRO_CFG)
        for layer in ("local", "shuffle"):
            for scores in state[layer]:
                # column means of row-stochastic matrices: each window's sum to 1
                windows = scores.reshape(-1, MICRO_CFG.window_size)
                assert np.allclose(windows.sum(axis=-1), 1.0, atol=1e-6)
        assert np.isclose(state["pool"]["weights"].sum(), 1.0)

    def test_drop_fraction_zero_keeps_everything(self):
        subs, state = self.attention_for(make_patient("P1"), init_params(MICRO_CFG, 1),
                                         MICRO_CFG)
        layers = export_attention(subs, state, drop_fraction=0.0)
        for _, scores in layers.values():
            assert np.all(scores >= 0.0) and np.any(scores > 0.0)

    def test_drop_eighty_percent_rank_counting(self):
        weights = np.linspace(0.01, 0.1, 10)
        weights /= weights.sum()
        subs, state = hand_built_attention(weights)
        _, scores = export_attention(subs, state, drop_fraction=0.8)["pool"]
        assert np.count_nonzero(scores) == 2

    def test_scores_in_unit_interval(self):
        subs, state = self.attention_for(make_patient("P1"), init_params(MICRO_CFG, 2),
                                         MICRO_CFG)
        for _, scores in export_attention(subs, state, drop_fraction=0.8).values():
            assert scores.dtype == np.float64
            assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_constant_scores_degenerate_to_zero(self):
        subs, state = hand_built_attention(np.full(6, 1 / 6))
        _, scores = export_attention(subs, state, drop_fraction=0.0)["pool"]
        assert not np.any(scores)

    def test_two_slide_rows_tagged_with_pre_shuffle_identity(self):
        subs, state = self.attention_for(two_slide_patient(), init_params(MICRO_CFG, 3),
                                         MICRO_CFG)
        assert len({sub.source_wsi for sub in subs}) == 2
        layers = export_attention(subs, state, drop_fraction=0.0)
        _, full = forward(subs, init_params(MICRO_CFG, 3), MICRO_CFG, return_state=True)
        stacked_wsi = [sub.source_wsi for sub in subs for _ in sub.source_rows]
        stacked_patch = np.concatenate([sub.source_rows for sub in subs])
        stacked_grid = np.concatenate([sub.scaled_coords for sub in subs])
        for layer in ("local", "shuffle"):
            rows, scores = layers[layer]
            # score of window row j: its attention column, averaged over heads and queries
            attn = np.concatenate([entry["attn"] for entry in full[layer]])
            raw = np.array([attn[k, :, :, j].mean() for k in range(attn.shape[0])
                            for j in range(MICRO_CFG.window_size)])
            expect = (raw - raw.min()) / (raw.max() - raw.min())
            assert np.allclose(scores, expect, atol=1e-12)
            # each sub-bag's rows in turn, its shuffle layer in its own shuffle order
            offset = 0
            for sub in subs:
                n = len(sub.source_rows)
                order = (spatial_shuffle(n, MICRO_CFG.window_size) if layer == "shuffle"
                         else np.arange(n))
                for j, src in enumerate(order):
                    row = rows[offset + j]
                    assert stacked_wsi[row] == sub.source_wsi
                    assert stacked_patch[row] == sub.source_rows[src]
                    assert np.array_equal(stacked_grid[row], sub.scaled_coords[src])
                offset += len(order)
            assert offset == len(rows) == len(scores)

    def test_attention_state_keeps_only_what_export_reads(self):
        params = init_params(MICRO_CFG, 3)
        subs, state = self.attention_for(two_slide_patient(), params, MICRO_CFG)
        _, full = forward(subs, params, MICRO_CFG, return_state=True)
        assert len(subs) == 4
        assert set(state) == {"perm", "local", "shuffle", "pool"}
        assert state["perm"].size == sum(len(sub.source_rows) for sub in subs)
        assert np.array_equal(state["perm"], full["perm"])
        for layer in ("local", "shuffle"):
            # per chunk, only the row scores of the training state's attention
            assert len(state[layer]) == len(full[layer])
            for scores, entry in zip(state[layer], full[layer]):
                want = entry["attn"].mean(axis=1).mean(axis=1).ravel()
                assert isinstance(scores, np.ndarray) and np.array_equal(scores, want)


class TestPlantedAttentionConcentration:
    def test_pooling_layer_separates_planted_classes(self):
        # After training on a planted cohort, the pooling attention of a
        # high-risk patient concentrates on one of the two planted patch
        # classes. Both classes are equally informative for the risk (the
        # per-bag centering makes them mirror images), so the side is
        # trajectory-dependent; the separation itself is what is asserted.
        from hvtsurv.bagio import bin_survival_times
        from hvtsurv.seeding import derive_seed
        from hvtsurv.synthgen import SynthConfig, gen_cohort

        synth = SynthConfig(n_patients=50, signal_strength=5.0, censor_rate=0.2,
                            feature_dim=16, patches_per_wsi_range=(40, 70),
                            wsis_per_patient_range=(1, 1), seed=4)
        records, truth = gen_cohort(synth, return_truth=True)
        bin_survival_times(records, 4)
        cfg = HVTSurvConfig(input_dim=16, model_dim=16, window_size=8, n_heads=2,
                            n_sub_wsis=2, n_intervals=4, pool_hidden=8,
                            max_epochs=10, seed=4)
        result = fit(records, range(38), range(38, 50), cfg,
                     seed=derive_seed(4, "attn-test"))

        for target in np.argsort(truth.latent_risk)[-3:]:
            rec = records[int(target)]
            bag = rec.bags[0]
            blob = truth.signature_cells[int(target)][bag.wsi_id]
            grid = {(int(x) // 256, int(y) // 256): i
                    for i, (x, y) in enumerate(bag.coords)}
            sig_rows = {grid[c] for c in blob}
            subs = preprocess_patient(rec, cfg, EVAL_MASK_SEED)
            _, state = forward(subs, result.params, cfg, want_attention=True)
            rows, scores = export_attention(subs, state, drop_fraction=0.8)["pool"]
            on_sig = np.isin(np.concatenate([sub.source_rows for sub in subs])[rows],
                             list(sig_rows))
            sig, bg = scores[on_sig].mean(), scores[~on_sig].mean()
            assert abs(sig - bg) > 0.15
            assert max(sig, bg) > 5 * min(sig, bg)


class PerTensorAdamW:
    """AdamW as a Python loop over separately stored tensors: the oracle
    for the flat, sliced step."""

    def __init__(self, params: dict, grads: dict, lr: float, weight_decay: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params, self.grads = params, grads
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {n: np.zeros_like(p) for n, p in params.items()}
        self.v = {n: np.zeros_like(p) for n, p in params.items()}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name in sorted(self.params):
            g = self.grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p = self.params[name]
            p -= self.lr * (update + self.weight_decay * p)


class TestAdamW:
    def test_flat_step_matches_per_tensor_loop_bitwise(self):
        # "b" and "e" cross slice boundaries, "a" and "d" hold one element
        local_rng = np.random.default_rng(21)
        shapes = {"a": (1,), "b": (300, 1000), "c": (7, 3), "d": (1,),
                  "e": (ADAMW_SLICE - 5,)}
        start = {n: local_rng.normal(size=s) for n, s in shapes.items()}
        store = ParamStore(start)
        assert store.flat.size > 2 * ADAMW_SLICE
        oracle = PerTensorAdamW({n: a.copy() for n, a in start.items()},
                                {n: np.zeros(s) for n, s in shapes.items()},
                                lr=1e-2, weight_decay=0.1)
        opt = AdamW(store, lr=1e-2, weight_decay=0.1)
        for step in range(20):
            store.zero_grads()
            for name, shape in shapes.items():
                g = local_rng.normal(scale=10.0 ** (step % 5 - 2), size=shape)
                g[local_rng.random(shape) < 0.1] = 0.0
                store.add_grad(name, g)
                oracle.grads[name][...] = g
            opt.step()
            oracle.step()
        names = sorted(shapes)
        assert store.names() == names
        for name in names:
            assert np.array_equal(store[name], oracle.params[name]), name
        assert np.array_equal(opt.m, np.concatenate([oracle.m[n].ravel() for n in names]))
        assert np.array_equal(opt.v, np.concatenate([oracle.v[n].ravel() for n in names]))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(MICRO_CFG, seed=6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, MICRO_CFG, extra={"fold": "2"})
        loaded, cfg, extra = load_checkpoint(path)
        assert extra["fold"] == "2"
        assert cfg.model_dim == MICRO_CFG.model_dim
        assert cfg.bucket.lam == MICRO_CFG.bucket.lam
        assert loaded.names() == params.names()
        for name in params.names():
            assert np.allclose(loaded[name], params[name], atol=1e-6)
            assert np.array_equal(loaded[name],
                                  params[name].astype(np.float32).astype(np.float64))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        params = init_params(MICRO_CFG, seed=6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, MICRO_CFG)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_interrupted_write_leaves_no_partial_checkpoint(self, tmp_path):
        at_failure = []

        class FailingStore(ParamStore):
            # once armed (reads = 0), the fifth tensor read fails
            reads = None

            def __getitem__(self, name):
                if FailingStore.reads is not None:
                    FailingStore.reads += 1
                if FailingStore.reads == 5:
                    # the partial file is on disk, and eval's glob must skip it
                    at_failure.append((len(list(tmp_path.iterdir())),
                                       list(tmp_path.glob("fold*.ckpt"))))
                    raise OSError("disk full")
                return super().__getitem__(name)

        params = init_params(MICRO_CFG, seed=6)
        failing = FailingStore({name: params[name] for name in params.names()})
        path = tmp_path / "fold0.ckpt"
        FailingStore.reads = 0
        with pytest.raises(OSError):
            save_checkpoint(path, failing, MICRO_CFG, extra={"fold": 0})
        assert list(tmp_path.iterdir()) == []

        save_checkpoint(path, params, MICRO_CFG, extra={"fold": 0})
        complete = path.read_bytes()
        FailingStore.reads = 0
        with pytest.raises(OSError):
            save_checkpoint(path, failing, MICRO_CFG, extra={"fold": 0})
        assert path.read_bytes() == complete
        assert list(tmp_path.iterdir()) == [path]
        assert at_failure == [(1, []), (2, [path])]

    @pytest.mark.parametrize("case", ["missing", "extra", "misshapen", "repeated"])
    def test_tensor_set_checked_against_config(self, tmp_path, case):
        params = init_params(MICRO_CFG, seed=6)
        arrays = {name: params[name] for name in params.names()}
        if case == "missing":
            del arrays["head.bias"]
        elif case == "extra":
            arrays["head.scale"] = np.ones(MICRO_CFG.n_intervals)
        elif case == "misshapen":
            arrays["head.weight"] = np.zeros((8, 7))
        path = tmp_path / "fold0.ckpt"
        save_checkpoint(path, ParamStore(arrays), MICRO_CFG, extra={"fold": 0})
        if case == "repeated":
            path.write_bytes(with_last_tensor_repeated(path.read_bytes(), params))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_round_trip_keeps_forward(self, tmp_path):
        params = init_params(MICRO_CFG, seed=6, scale=0.25)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, MICRO_CFG)
        loaded, cfg, _ = load_checkpoint(path)
        subs = preprocess_patient(make_patient("P1", n_wsis=2), MICRO_CFG, EVAL_MASK_SEED)
        before, after = forward(subs, params, MICRO_CFG), forward(subs, loaded, cfg)
        assert np.max(np.abs(after.hazards - before.hazards)) <= 1e-4
        assert abs(after.risk - before.risk) <= 1e-4

    def test_loaded_checkpoint_computes_in_float32(self, tmp_path):
        params = init_params(MICRO_CFG, seed=6, scale=0.25)
        assert params.flat.dtype == params.grad_flat.dtype == np.float64
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, MICRO_CFG)
        loaded, cfg, _ = load_checkpoint(path)
        assert loaded.flat.dtype == loaded.grad_flat.dtype == np.float32
        subs = preprocess_patient(make_patient("P1", n_wsis=2), MICRO_CFG, EVAL_MASK_SEED)
        out, state = forward(subs, loaded, cfg, want_attention=True)
        # a float64 scalar or cast anywhere on the path widens what follows it
        assert out.hazards.dtype == np.float32
        assert state["pool"]["t"].dtype == np.float32
        assert all(attn.dtype == np.float32 for attn in state["local"] + state["shuffle"])
        widened = ParamStore({name: loaded[name].astype(np.float64) for name in loaded.names()})
        assert widened.flat.dtype == np.float64
        assert abs(forward(subs, widened, cfg).risk - out.risk) <= 1e-5

    def test_eval_risks_match_in_memory_fit(self, tmp_path):
        seed, manifest, run = 5, str(tmp_path / "data" / "manifest.csv"), tmp_path / "run"
        assert cli.main(["synth", "--out", str(tmp_path / "data"), "--n-patients", "12",
                         "--seed", str(seed)]) == 0
        assert cli.main(["train", "--manifest", manifest, "--out", str(run), "--folds", "2",
                         "--epochs", "2", "--seed", str(seed), "--model-dim", "16",
                         "--window-size", "4", "--n-heads", "2"]) == 0
        assert cli.main(["eval", "--manifest", manifest, "--checkpoints", str(run),
                         "--out", str(tmp_path / "eval"), "--seed", str(seed)]) == 0
        with open(tmp_path / "eval" / "risks.csv", newline="") as fh:
            evaluated = {(int(r["fold"]), r["patient_id"]): float(r["risk"])
                         for r in csv.DictReader(fh)}

        records = load_manifest(manifest)
        _, cfg, _ = load_checkpoint(run / "fold0.ckpt")
        bin_survival_times(records, cfg.n_intervals)
        splits = stratified_kfold(records, 2, seed=derive_seed(seed, "splits"))
        in_memory = {}
        for fold, split in enumerate(splits):
            result = fit(records, split.train, split.validation, cfg,
                         seed=derive_seed(seed, f"fold:{fold}"))
            for pred in predict_risks([records[i] for i in split.test], result.params, cfg):
                in_memory[(fold, pred.patient_id)] = pred.risk
        assert evaluated.keys() == in_memory.keys()
        # fit trains the float32 store the checkpoint holds, so eval scores the
        # trained model itself, up to risks.csv's 8 decimals
        for key, risk in in_memory.items():
            assert evaluated[key] == float(f"{risk:.8f}"), key

    @pytest.mark.parametrize("key", list(CONFIG_DEFAULTS))
    def test_any_missing_key_raises_format_error(self, tmp_path, key):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(MICRO_CFG, seed=6), MICRO_CFG, extra={"fold": 0})
        path.write_bytes(with_config_text(path.read_bytes(), lambda t: drop_key(t, key)))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_older_format_with_batch_size_line_loads(self, tmp_path):
        # checkpoints written before batch_size was dropped carry a
        # batch_size=1 line right after patience
        params = init_params(EVERY_FIELD_CFG, seed=2)
        path = tmp_path / "new.ckpt"
        save_checkpoint(path, params, EVERY_FIELD_CFG, extra={"fold": 1})
        old = tmp_path / "old.ckpt"
        old.write_bytes(with_config_text(path.read_bytes(), lambda t: t.replace(
            "patience=3\n", "patience=3\nbatch_size=1\n")))
        assert b"batch_size=1" in old.read_bytes()
        new_params, new_cfg, _ = load_checkpoint(path)
        old_params, old_cfg, extra = load_checkpoint(old)
        assert old_cfg == new_cfg == EVERY_FIELD_CFG
        assert extra["fold"] == "1"
        assert old_params.names() == new_params.names()
        for name in new_params.names():
            assert np.array_equal(old_params[name], new_params[name])


EVERY_FIELD_CFG = HVTSurvConfig(
    input_dim=10, model_dim=12, window_size=5, n_heads=3, n_sub_wsis=3, n_intervals=5,
    pool_hidden=7, ffn_ratio=2, bucket=BucketParams(alpha=1.2, beta=6.5, gamma=9.75, lam=5),
    learning_rate=1e-3, weight_decay=0.25, patience=3, max_epochs=4, seed=9,
)


def with_config_text(raw: bytes, edit) -> bytes:
    """Checkpoint bytes with the config text replaced by edit(text)."""
    (n,) = struct.unpack_from("<I", raw, 8)
    blob = edit(raw[12 : 12 + n].decode()).encode()
    return raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n :]


def with_last_tensor_repeated(raw: bytes, params) -> bytes:
    """Checkpoint bytes of ``params`` with their last tensor record twice."""
    name = params.names()[-1]
    record = 2 + len(name) + 1 + 4 * params[name].ndim + 4 * params[name].size
    (n_cfg,) = struct.unpack_from("<I", raw, 8)
    at = 12 + n_cfg
    (n,) = struct.unpack_from("<I", raw, at)
    return raw[:at] + struct.pack("<I", n + 1) + raw[at + 4 :] + raw[-record:]


def drop_key(text: str, key: str) -> str:
    kept = [line for line in text.splitlines() if line.partition("=")[0] != key]
    assert len(kept) == len(text.splitlines()) - 1
    return "".join(f"{line}\n" for line in kept)


class TestBiasTableRows:
    """The bias table keeps the lam+1 rows a Manhattan distance reads."""

    @staticmethod
    def signed_layout_draw(cfg, seed):
        """Every tensor as drawn while the table had the signed layout's
        2*lam+1 rows, each weight by rng.normal(scale=0.02)."""
        rng = rng_for(seed, "init")
        arrays = {}
        for name, (shape, init) in param_layout(cfg).items():
            if name == "local.bias_table":
                shape = (2 * cfg.bucket.lam + 1, cfg.n_heads)
            if init in ("zeros", "ones"):
                arrays[name] = np.zeros(shape) if init == "zeros" else np.ones(shape)
            else:
                arrays[name] = rng.normal(scale=0.02, size=shape)
        return arrays

    @pytest.mark.parametrize("cfg", [HVTSurvConfig(), EVERY_FIELD_CFG], ids=["default", "lam5"])
    def test_init_params_keep_the_signed_layout_draw(self, cfg):
        params = init_params(cfg, seed=4)
        old = self.signed_layout_draw(cfg, seed=4)
        assert params["local.bias_table"].shape == (cfg.bucket.lam + 1, cfg.n_heads)
        old["local.bias_table"] = old["local.bias_table"][: cfg.bucket.lam + 1]
        assert params.names() == sorted(old)
        for name, value in old.items():
            assert np.array_equal(params[name], value), name

    @pytest.mark.parametrize("cfg", [MICRO_CFG, EVERY_FIELD_CFG], ids=["lam7", "lam5"])
    def test_older_signed_table_is_rejected(self, tmp_path, cfg):
        """Only the (lam+1)-row table that train writes loads; the signed
        (2*lam+1)-row table of older checkpoints is a misshapen tensor."""
        lam, heads = cfg.bucket.lam, cfg.n_heads
        params = init_params(cfg, seed=6, scale=0.25)
        arrays = {name: params[name] for name in params.names()}
        unread = np.random.default_rng(1).normal(size=(lam, heads))
        for tag, table in (("new", arrays["local.bias_table"]),
                           ("signed", np.vstack([arrays["local.bias_table"], unread])),
                           ("too-long", np.vstack([arrays["local.bias_table"], unread[:1]]))):
            path = tmp_path / f"{tag}.ckpt"
            save_checkpoint(path, ParamStore({**arrays, "local.bias_table": table}), cfg)
            if tag == "new":
                assert load_checkpoint(path)[0]["local.bias_table"].shape == (lam + 1, heads)
                continue
            with pytest.raises(FormatError, match=rf"{tag}\.ckpt: tensor 'local\.bias_table' "
                                                  rf"of shape \({len(table)}, {heads}\)"):
                load_checkpoint(path)


class TestConfigItems:
    def test_every_field_non_default(self):
        for key, value in config_items(EVERY_FIELD_CFG).items():
            assert value != CONFIG_DEFAULTS[key], key

    def test_round_trip(self):
        items = config_items(EVERY_FIELD_CFG)
        assert config_from_items(items) == EVERY_FIELD_CFG
        assert config_from_items({k: str(v) for k, v in items.items()}) == EVERY_FIELD_CFG

    def test_on_disk_key_names_and_order(self):
        # config files and existing checkpoints use these names
        assert list(config_items(MICRO_CFG)) == list(CONFIG_DEFAULTS) == [
            "input_dim", "model_dim", "window_size", "n_heads", "n_sub_wsis", "n_intervals",
            "pool_hidden", "ffn_ratio", "bucket_alpha", "bucket_beta", "bucket_gamma",
            "bucket_lambda", "learning_rate", "weight_decay", "patience", "max_epochs", "seed"]
