"""The in-process workloads: cohort-train and paper-slide.

Both call the program through module attributes (``survmodel.fit``,
``survmodel.forward`` ...), so the traced run sees every call. Outputs
of the last round are kept for the checks, which run after timing.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
from hvtsurv import bagio, survmodel, survstats, synthgen

import refimpl as ref
from harness import CheckFailed, Phases, require, self_peak_rss_mb

# A float32 forward pass stays well inside this; a wrong output does not.
FORWARD_TOL = 1e-4
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-8
GRAD_EPS = 1e-5


def sub_seed(seed: int, purpose: str) -> int:
    digest = hashlib.blake2b(f"{seed}/{purpose}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def params_of(store) -> dict:
    return {name: store[name] for name in store.names()}


def shape_of(cfg) -> ref.ModelShape:
    b = cfg.bucket
    return ref.ModelShape(cfg.window_size, cfg.n_heads, b.alpha, b.beta, b.gamma, b.lam)


def ref_bags(subs) -> list:
    return [(s.features, s.scaled_coords) for s in subs]


# ---------------------------------------------------------------- checks


def check_rearranged(reb, bag, w: int) -> None:
    """A cached rearranged bag against the kNN window contract."""
    src_grid = ref.grid_of(bag.coords)
    rows = np.asarray(reb.source_rows)
    require(np.array_equal(reb.features, bag.features[rows]),
            f"{bag.wsi_id}: rearranged features are not the source rows")
    require(np.array_equal(reb.scaled_coords, src_grid[rows]),
            f"{bag.wsi_id}: rearranged coordinates are not the source grid cells")
    try:
        ref.check_knn_windows(rows, src_grid, w)
    except ref.RearrangementMismatch as exc:
        raise CheckFailed(f"{bag.wsi_id}: {exc}") from exc


def check_sub_bags(subs, cache: dict, n_sub: int, w: int) -> None:
    """Sub-bags are whole windows of their rearranged bag."""
    groups: dict[str, list] = {}
    for s in subs:
        groups.setdefault(s.source_wsi, []).append(s)
    for wsi, group in groups.items():
        reb = cache[wsi]
        try:
            ref.check_window_split(reb.features.shape[0] // w,
                                   [np.asarray(s.window_ids) for s in group], n_sub)
        except ref.RearrangementMismatch as exc:
            raise CheckFailed(f"{wsi}: {exc}") from exc
        for s in group:
            rows = (np.asarray(s.window_ids)[:, None] * w + np.arange(w)).reshape(-1)
            require(np.array_equal(s.features, reb.features[rows])
                    and np.array_equal(s.scaled_coords, reb.scaled_coords[rows])
                    and np.array_equal(s.source_rows, reb.source_rows[rows]),
                    f"{wsi}: a sub-bag's rows are not its windows' rows")


def check_forward(subs, params: dict, shape, out, what: str) -> dict:
    """The program's forward output against the reference; returns the
    reference output."""
    expect = ref.forward_ref(ref_bags(subs), params, shape)
    gap = max(abs(expect["risk"] - out.risk),
              float(np.max(np.abs(expect["hazards"] - np.asarray(out.hazards)))))
    require(gap <= FORWARD_TOL, f"{what}: forward differs from the reference by {gap:.3g}")
    return expect


def check_gradient(loss_at, params: dict, grads: dict, direction: dict, what: str) -> None:
    numeric = ref.directional_derivative(loss_at, params, direction, GRAD_EPS)
    analytic = float(sum(np.vdot(grads[n], v) for n, v in direction.items()))
    err = abs(numeric - analytic)
    require(err <= GRAD_RTOL * max(abs(numeric), abs(analytic)) + GRAD_ATOL,
            f"{what}: directional derivative {analytic:.6g}, central difference {numeric:.6g}")


def unit_direction(rng, shape) -> np.ndarray:
    v = rng.normal(size=shape)
    return v / np.linalg.norm(v)


def check_gradients_per_tensor(subs, label: int, censored: int, cfg, seed: int) -> None:
    """loss_and_grads against central differences of the reference loss,
    one random direction per tensor, in float64 on a freshly initialised
    model whose attention is away from its uniform start."""
    store = survmodel.init_params(cfg, sub_seed(seed, "grad-init"),
                                  scale=min(0.25, 1.0 / np.sqrt(cfg.model_dim)))
    store.zero_grads()
    loss = survmodel.loss_and_grads(subs, label, censored, store, cfg)
    params = params_of(store)
    grads = {n: store.grad(n).copy() for n in params}
    shape = shape_of(cfg)

    def loss_at(p):
        return ref.nll_ref(ref.forward_ref(ref_bags(subs), p, shape), label, censored)

    require(abs(loss_at(params) - loss) <= 1e-9 * max(1.0, abs(loss)),
            f"loss {loss!r} differs from the reference loss {loss_at(params)!r}")
    rng = np.random.default_rng(sub_seed(seed, "grad-directions"))
    for name in sorted(params):
        check_gradient(loss_at, params, grads, {name: unit_direction(rng, params[name].shape)},
                       f"gradient of {name}")


def check_statistics(preds, low, high, ci, chi, p, km) -> None:
    """Program statistics against brute force and scipy."""
    times = [x.time_months for x in preds]
    events = [1 - x.censored for x in preds]
    risks = [x.risk for x in preds]
    brute = ref.c_index_pairs(times, events, risks)
    require(abs(ci - brute) <= 1e-12, f"C-index {ci!r}, pair enumeration {brute!r}")
    lo_idx, hi_idx = ref.median_split(risks)
    ids = [x.patient_id for x in preds]
    require([x.patient_id for x in low] == [ids[i] for i in lo_idx]
            and [x.patient_id for x in high] == [ids[i] for i in hi_idx],
            "median split groups differ from risk <= median")
    t, e = np.array(times), np.array(events)
    chi_ref, p_ref = ref.logrank_scipy(t[lo_idx], e[lo_idx], t[hi_idx], e[hi_idx])
    require(abs(chi - chi_ref) <= 1e-9 * max(1.0, chi_ref)
            and abs(p - p_ref) <= 1e-9 * max(p_ref, 1e-300),
            f"log-rank ({chi!r}, {p!r}), scipy ({chi_ref!r}, {p_ref!r})")
    for curve, idx in zip(km, (lo_idx, hi_idx)):
        et, sv = ref.km_scipy(t[idx], e[idx])
        require(np.array_equal(curve.event_times, et)
                and np.allclose(curve.survival, sv, rtol=0, atol=1e-12),
                "Kaplan-Meier curve differs from scipy's")


# ------------------------------------------------------------- workloads


class CohortTrain:
    """200 patients with 1-2 slides of 100-200 patches, d=64; D=32, w=16."""

    EPOCHS = 2      # one epoch leaves some seeds near chance on held-out patients

    def __init__(self, seed: int):
        self.seed = seed
        self.synth = synthgen.SynthConfig(
            n_patients=200, wsis_per_patient_range=(1, 2), patches_per_wsi_range=(100, 200),
            feature_dim=64, signal_strength=5.0, censor_rate=0.3, seed=seed)
        self.cfg = survmodel.HVTSurvConfig(
            input_dim=64, model_dim=32, window_size=16, n_heads=4, n_sub_wsis=2,
            n_intervals=4, pool_hidden=16, max_epochs=self.EPOCHS,
            patience=self.EPOCHS + 1, seed=seed)
        self.runs: list[dict] = []
        self.tracer = None

    def _preprocess(self, records, cache):
        return [survmodel.preprocess_patient(r, self.cfg, survmodel.EVAL_MASK_SEED, cache)
                for r in records]

    def _infer(self, records, params, cache):
        subs, outs, preds = [], [], []
        for rec in records:
            sub = survmodel.preprocess_patient(rec, self.cfg, survmodel.EVAL_MASK_SEED, cache)
            out = survmodel.forward(sub, params, self.cfg)
            subs.append(sub)
            outs.append(out)
            preds.append(survstats.RiskPrediction(rec.patient_id, out.risk,
                                                  rec.follow_up.time_months,
                                                  rec.follow_up.censored))
        ci = survstats.c_index(preds)
        low, high = survstats.risk_stratify(preds)
        chi, p = survstats.logrank_test(low, high)
        km = (survstats.km_curve(low), survstats.km_curve(high))
        return dict(subs=subs, outs=outs, preds=preds, ci=ci, low=low, high=high,
                    chi=chi, p=p, km=km)

    def round(self, phases: Phases, repeat: bool) -> None:
        for _ in range(2 if repeat else 1):
            records = phases.time("setup_s", synthgen.gen_cohort, self.synth)
        bagio.bin_survival_times(records, self.cfg.n_intervals)
        split = bagio.stratified_kfold(records, 4, seed=sub_seed(self.seed, "folds"))[0]
        for _ in range(3 if repeat else 1):
            cache: dict = {}
            subs = phases.time("preprocess_s", self._preprocess, records, cache)
        result = phases.time("train_s", survmodel.fit, records, split.train, split.validation,
                             self.cfg, sub_seed(self.seed, "fit"))
        if self.tracer:
            self.tracer.values["survmodel.step_rss_mb"] = self_peak_rss_mb()
        infer = phases.time("infer_s", self._infer, records, result.params, cache)
        if self.tracer:
            self.tracer.values["survmodel.forward_rss_mb"] = self_peak_rss_mb()
        self.runs.append(dict(records=records, split=split, cache=cache, subs=subs,
                              result=result, infer=infer))
        del self.runs[:-2]

    def check(self) -> None:
        run = self.runs[-1]
        records, cache, w = run["records"], run["cache"], self.cfg.window_size
        for rec, subs in zip(records, run["subs"]):
            for bag in rec.bags:
                check_rearranged(cache[bag.wsi_id], bag, w)
            check_sub_bags(subs, cache, self.cfg.n_sub_wsis, w)
        infer = run["infer"]
        params = params_of(run["result"].params)
        shape = shape_of(self.cfg)
        for rec, subs, out in zip(records, infer["subs"], infer["outs"]):
            check_forward(subs, params, shape, out, rec.patient_id)
        check_statistics(infer["preds"], infer["low"], infer["high"], infer["ci"],
                         infer["chi"], infer["p"], infer["km"])
        held_out = [infer["preds"][i] for i in run["split"].test]
        ci = ref.c_index_pairs([x.time_months for x in held_out],
                               [1 - x.censored for x in held_out], [x.risk for x in held_out])
        require(ci >= 0.7, f"trained model ranks held-out patients at C-index {ci:.3f} < 0.7")
        rec = records[run["split"].train[0]]
        check_gradients_per_tensor(run["subs"][run["split"].train[0]], rec.interval_label,
                                   rec.follow_up.censored, self.cfg, self.seed)
        if len(self.runs) == 2:
            first = self.runs[0]
            require([x.risk for x in first["infer"]["preds"]]
                    == [x.risk for x in infer["preds"]]
                    and first["result"].history == run["result"].history,
                    "two rounds on the same seed gave different results")


class PaperSlide:
    """One irregular 8000-patch slide at the paper configuration."""

    PATCHES = 8000
    GRAD_WINDOWS = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.synth = synthgen.SynthConfig(
            n_patients=1, wsis_per_patient_range=(1, 1),
            patches_per_wsi_range=(self.PATCHES, self.PATCHES), feature_dim=1024, seed=seed)
        self.cfg = survmodel.HVTSurvConfig(seed=seed)
        rng = np.random.default_rng(sub_seed(seed, "label"))
        self.label = int(rng.integers(self.cfg.n_intervals))
        self.mask_seed = sub_seed(seed, "mask")
        self.tracer = None
        self.state: dict = {}

    def _setup(self):
        record = synthgen.gen_cohort(self.synth)[0]
        return record, survmodel.init_params(self.cfg, sub_seed(self.seed, "init"))

    def _step(self, subs, params, optimizer, censored):
        params.zero_grads()
        loss = survmodel.loss_and_grads(subs, self.label, censored, params, self.cfg)
        optimizer.step()
        return loss

    def round(self, phases: Phases, repeat: bool) -> None:
        for _ in range(3 if repeat else 1):
            record, params = phases.time("setup_s", self._setup)
        for _ in range(5 if repeat else 1):
            cache: dict = {}
            subs = phases.time("preprocess_s", survmodel.preprocess_patient, record, self.cfg,
                               self.mask_seed, cache)
        risks = []
        for _ in range(2 if repeat else 1):
            out = phases.time("infer_s", survmodel.forward, subs, params, self.cfg)
            risks.append(out.risk)
        if self.tracer:
            self.tracer.values["survmodel.forward_rss_mb"] = self_peak_rss_mb()
        optimizer = survmodel.AdamW(params, self.cfg.learning_rate, self.cfg.weight_decay)
        before = {n: params[n].copy() for n in params.names()}
        censored = record.follow_up.censored
        loss = phases.time("train_s", self._step, subs, params, optimizer, censored)
        if self.tracer:
            self.tracer.values["survmodel.step_rss_mb"] = self_peak_rss_mb()
        self.state = dict(record=record, cache=cache, subs=subs, out=out, risks=risks,
                          before=before, params=params, loss=loss, censored=censored)

    def check(self) -> None:
        st = self.state
        cfg, w = self.cfg, self.cfg.window_size
        bag = st["record"].bags[0]
        require(bag.n_patches == self.PATCHES, f"slide has {bag.n_patches} patches")
        check_rearranged(st["cache"][bag.wsi_id], bag, w)
        check_sub_bags(st["subs"], st["cache"], cfg.n_sub_wsis, w)
        require(len(set(st["risks"])) == 1, "repeated forwards gave different risks")
        before, store = st["before"], st["params"]
        shape = shape_of(cfg)
        expect = check_forward(st["subs"], before, shape, st["out"], "paper slide")
        grads = {n: store.grad(n) for n in before}
        for name, old in before.items():
            want = ref.adamw_first_step(old, grads[name], cfg.learning_rate, cfg.weight_decay)
            gap = float(np.max(np.abs(store[name] - want)))
            require(gap <= 1e-3 * cfg.learning_rate + 1e-6 * float(np.max(np.abs(want))),
                    f"AdamW step on {name} is off by {gap:.3g}")
        require(abs(ref.nll_ref(expect, self.label, st["censored"]) - st["loss"]) <= FORWARD_TOL,
                "train-step loss differs from the reference")

        # The train step's pooling and head gradients, on the whole slide:
        # the reference block outputs are fixed, so each loss costs little.
        def head_loss(p):
            return ref.nll_ref(ref.pool_head_ref(expect["rows"], p), self.label, st["censored"])

        rng = np.random.default_rng(sub_seed(self.seed, "step-direction"))
        for name in ("pool.U", "pool.V", "head.weight", "head.bias"):
            direction = {name: unit_direction(rng, before[name].shape)}
            check_gradient(head_loss, before, grads, direction, f"train-step gradient of {name}")
        # Every tensor on its own, on the first windows of each sub-bag.
        k = self.GRAD_WINDOWS * w
        small = [dataclasses.replace(s, features=s.features[:k], scaled_coords=s.scaled_coords[:k],
                                     source_rows=s.source_rows[:k],
                                     window_ids=s.window_ids[:self.GRAD_WINDOWS])
                 for s in st["subs"]]
        check_gradients_per_tensor(small, self.label, st["censored"], cfg, self.seed)
