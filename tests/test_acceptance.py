"""Acceptance suite.

One test per acceptance criterion, each printing a pass/fail line with
the measured value so a run of ``pytest tests/test_acceptance.py -v -s``
reads as a checklist. Budgets are asserted alongside correctness.
"""

import time

import numpy as np

from hvtsurv import survstats
from hvtsurv.bagio import (
    FollowUp,
    PatchBag,
    PatientRecord,
    bin_survival_times,
    read_patch_bag,
    stratified_kfold,
    write_patch_bag,
)
from hvtsurv.blocks import (
    BucketParams,
    attn_pool,
    bucket_distance,
    inverse_permutation,
    spatial_shuffle,
)
from hvtsurv.numerics import ParamStore, finite_diff_check, softmax_rows
from hvtsurv.rearrange import compare_strategies, knn_rearrange, random_window_mask
from hvtsurv.seeding import derive_seed
from hvtsurv.survmodel import (
    HVTSurvConfig,
    fit,
    forward,
    init_params,
    loss_and_grads,
    nll_loss,
    predict_risks,
    preprocess_patient,
    survival_from_hazards,
)
from hvtsurv.synthgen import SynthConfig, gen_cohort, gen_irregular_mask


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def bag_from_cells(cells, d, seed, wsi_id="bag"):
    rng = np.random.default_rng(seed)
    coords = np.array(sorted(cells)) * 256
    return PatchBag(wsi_id=wsi_id, coords=coords,
                    features=rng.normal(size=(len(cells), d)).astype(np.float32))


def irregular_bag(target, d, seed, wsi_id="bag"):
    side = int(np.ceil(np.sqrt(target / 0.75)))
    cells = sorted(gen_irregular_mask(side, side, 0.25, seed))[:target]
    return bag_from_cells(cells, d, seed, wsi_id)


def test_criterion_1_gradient_correctness():
    """Full-model gradient vs central finite differences on a micro instance."""
    start = time.time()
    cfg = HVTSurvConfig(input_dim=12, model_dim=16, window_size=4, n_heads=2,
                        n_sub_wsis=2, n_intervals=4, pool_hidden=8, seed=0)
    rng = np.random.default_rng(5)

    def micro_patient(pid, n_patches, t, c, label):
        cells = [(x, y) for y in range(6) for x in range(6)][:n_patches]
        feats = rng.normal(size=(n_patches, 12)).astype(np.float32)
        bag = PatchBag(f"{pid}-W0", np.array(cells) * 256, feats)
        return PatientRecord(pid, [bag], FollowUp(t, c), interval_label=label)

    patients = [micro_patient("PA", 14, 12.0, 0, 1),
                micro_patient("PB", 9, 30.0, 1, 2)]
    subs = [preprocess_patient(p, cfg, mask_seed=77) for p in patients]
    assert all(sum(s.n_windows for s in sub) <= 4 for sub in subs)

    params = init_params(cfg, seed=3, scale=0.25)
    params.zero_grads()
    for sub, p in zip(subs, patients):
        loss_and_grads(sub, p.interval_label, p.follow_up.censored, params, cfg)

    def total_loss(ps):
        return sum(
            nll_loss(forward(sub, ps, cfg), p.interval_label, p.follow_up.censored)
            for sub, p in zip(subs, patients))

    err = finite_diff_check(total_loss, params, eps=1e-5)
    elapsed = time.time() - start
    report(1, err < 1e-4 and elapsed < 60,
           f"max rel err {err:.2e} (tol 1e-4), {elapsed:.0f}s (budget 60s)")


def test_criterion_2_bucketing_conformance():
    """Piecewise bucket map reproduces the hand-derived reference table."""
    p = BucketParams(alpha=1.9, beta=7.6, gamma=11.4, lam=7)
    # hand derivation: round(|x|) below alpha; otherwise
    # round(1.9 + ln(x/1.9)/ln(6) * 3.8) capped at 7
    expected = {0.0: 0, 1.0: 1, 2.0: 2, 3.0: 3, 5.0: 4, 11.4: 6, 100.0: 7}
    got = {x: bucket_distance(x, p) for x in expected}
    inner_100 = 1.9 + np.log(100 / 1.9) / np.log(11.4 / 1.9) * 3.8
    report(2, got == expected and inner_100 > 7,
           f"bucket table {got} (cap exercised: inner(100)={inner_100:.1f} -> 7)")


def test_criterion_3_rearrangement_benchmark():
    """Greedy kNN windows beat raster windows on >= 19/20 irregular masks."""
    start = time.time()
    rng = np.random.default_rng(2024)
    wins = 0
    margins = []
    for seed in range(20):
        target = int(rng.integers(100, 2001))
        bag = irregular_bag(target, d=4, seed=seed, wsi_id=f"bench{seed}")
        knn_mean, raster_mean = compare_strategies(bag, 49)
        wins += knn_mean < raster_mean
        margins.append(raster_mean / max(knn_mean, 1e-9))
    elapsed = time.time() - start
    report(3, wins >= 19 and elapsed < 120,
           f"kNN wins {wins}/20 (median raster/knn ratio "
           f"{np.median(margins):.2f}), {elapsed:.0f}s (budget 120s)")


def test_criterion_4_statistics_oracles():
    """c_index == exhaustive enumeration; KM == empirical survivor; log-rank
    endpoints behave on symmetric and separated constructions."""
    start = time.time()
    rng = np.random.default_rng(99)

    def brute(preds):
        conc = comp = 0
        for i in range(len(preds)):
            for j in range(len(preds)):
                if preds[i].censored == 0 and preds[j].time_months > preds[i].time_months:
                    comp += 1
                    conc += preds[i].risk > preds[j].risk
        return None if comp == 0 else conc / comp

    checked = 0
    for trial in range(200):
        n = int(rng.integers(2, 9))
        preds = [survstats.RiskPrediction(f"p{i}", float(rng.normal()),
                                          float(rng.integers(1, 6)),
                                          int(rng.random() < 0.4))
                 for i in range(n)]
        expected = brute(preds)
        if expected is None:
            continue
        assert survstats.c_index(preds) == expected
        checked += 1
    assert checked >= 100

    for trial in range(50):
        times = rng.integers(1, 15, size=int(rng.integers(2, 25))).astype(float)
        km = survstats.km_curve([survstats.RiskPrediction(f"p{i}", 0.0, t, 0)
                                 for i, t in enumerate(times)])
        for t in np.unique(times):
            assert np.isclose(km.evaluate(t), np.mean(times > t))

    sym = [survstats.RiskPrediction(f"s{i}", 0.0, float(t), int(c))
           for i, (t, c) in enumerate([(1, 0), (3, 0), (5, 1), (9, 0)])]
    chi_sym, p_sym = survstats.logrank_test(sym, list(sym))
    early = [survstats.RiskPrediction(f"a{i}", 0.0, 1.0, 0) for i in range(20)]
    late = [survstats.RiskPrediction(f"b{i}", 0.0, 100.0, 0) for i in range(20)]
    _, p_sep = survstats.logrank_test(early, late)

    elapsed = time.time() - start
    report(4, p_sym == 1.0 and p_sep < 1e-3 and elapsed < 30,
           f"{checked} cohorts matched brute force; symmetric p={p_sym}, "
           f"separated p={p_sep:.1e}, {elapsed:.0f}s (budget 30s)")


def test_criterion_5_end_to_end_planted_signal():
    """Paper-protocol 4-fold training on the planted cohort."""
    start = time.time()
    synth = SynthConfig(n_patients=200, signal_strength=5.0, censor_rate=0.3,
                        feature_dim=64, patches_per_wsi_range=(100, 200),
                        wsis_per_patient_range=(1, 2), seed=0)
    records = gen_cohort(synth)
    bin_survival_times(records, 4)
    splits = stratified_kfold(records, 4, seed=0)
    cfg = HVTSurvConfig(input_dim=64, model_dim=32, window_size=16, n_heads=4,
                        n_sub_wsis=2, n_intervals=4, pool_hidden=16,
                        learning_rate=2e-4, weight_decay=1e-5, patience=8,
                        max_epochs=30, seed=0)

    cache = {}

    fold_ci = []
    pooled_low, pooled_high = [], []
    for fold, split in enumerate(splits):
        result = fit(records, split.train, split.validation, cfg,
                     seed=derive_seed(0, f"fold:{fold}"))
        preds = predict_risks([records[i] for i in split.test], result.params, cfg, cache)
        fold_ci.append(survstats.c_index(preds))
        low, high = survstats.risk_stratify(preds)
        pooled_low.extend(low)
        pooled_high.extend(high)
    mean_ci = float(np.mean(fold_ci))
    _, logrank_p = survstats.logrank_test(pooled_low, pooled_high)

    untrained = init_params(cfg, seed=derive_seed(0, "untrained"))
    untrained_ci = survstats.c_index(
        predict_risks([records[i] for i in splits[0].test], untrained, cfg, cache))

    elapsed = time.time() - start
    report(5, mean_ci >= 0.85 and logrank_p < 0.05
           and 0.4 <= untrained_ci <= 0.6 and elapsed < 1200,
           f"mean held-out C-Index {mean_ci:.4f} (folds "
           f"{[round(c, 3) for c in fold_ci]}), pooled log-rank p {logrank_p:.2e}, "
           f"untrained C-Index {untrained_ci:.3f}, {elapsed:.0f}s (budget 1200s)")


def test_criterion_6_structural_invariants():
    """Randomized invariants, >= 100 cases each."""
    start = time.time()
    rng = np.random.default_rng(31)

    for _ in range(100):
        out = softmax_rows(rng.uniform(-5, 5, size=(int(rng.integers(1, 8)),
                                                    int(rng.integers(2, 9)))))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)

    pool = ParamStore({"pool.U": rng.normal(scale=0.02, size=(1, 4)),
                       "pool.V": rng.normal(scale=0.02, size=(4, 6))})
    for _ in range(100):
        _, weights = attn_pool(rng.normal(size=(int(rng.integers(1, 30)), 6)), pool)
        assert np.isclose(weights.sum(), 1.0, atol=1e-6)

    for _ in range(100):
        s = survival_from_hazards(rng.uniform(0, 1, size=int(rng.integers(1, 10))))
        assert np.all(np.diff(s) <= 1e-15) and np.all((s >= 0) & (s <= 1))

    for _ in range(100):
        w = int(rng.integers(1, 9))
        length = w * int(rng.integers(1, 12))
        perm = spatial_shuffle(length, w)
        assert sorted(perm.tolist()) == list(range(length))
        assert np.array_equal(perm[inverse_permutation(perm)], np.arange(length))

    for trial in range(100):
        n = int(rng.integers(2, 90))
        bag = irregular_bag(n, d=3, seed=trial + 400, wsi_id=f"inv{trial}")
        w = int(rng.integers(2, 9))
        reb = knn_rearrange(bag, w)
        pad = -bag.n_patches % w
        assert reb.features.shape[0] == bag.n_patches + pad
        assert reb.features.shape[0] % w == 0
        counts = np.bincount(reb.source_rows, minlength=bag.n_patches)
        assert counts.min() >= 1 and counts.sum() == bag.n_patches + pad
        assert np.array_equal(reb.features, bag.features[reb.source_rows])

    import os, tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for trial in range(100):
            bag = irregular_bag(int(rng.integers(1, 40)), d=int(rng.integers(1, 6)),
                                seed=trial + 900, wsi_id=f"rt{trial}")
            path = os.path.join(tmp, f"rt{trial}.pbag")
            write_patch_bag(bag, path)
            back = read_patch_bag(path)
            assert np.array_equal(back.features.view(np.uint32),
                                  bag.features.view(np.uint32))
            assert np.array_equal(back.coords, bag.coords)

    elapsed = time.time() - start
    report(6, elapsed < 120,
           f"6 invariant families x 100 randomized cases, {elapsed:.0f}s (budget 120s)")


def test_criterion_7_masking_contract():
    """m=2 sub-WSIs partition the windows into whole-window halves."""
    start = time.time()
    rng = np.random.default_rng(55)
    for trial in range(100):
        n = int(rng.integers(8, 120))
        w = int(rng.integers(2, 9))
        bag = irregular_bag(n, d=3, seed=trial + 700, wsi_id=f"mask{trial}")
        reb = knn_rearrange(bag, w)
        if reb.n_windows < 2:
            continue
        a, b = random_window_mask(reb, 2, seed=trial)
        ids = sorted([*a.window_ids, *b.window_ids])
        assert ids == list(range(reb.n_windows))
        assert abs(len(a.window_ids) - len(b.window_ids)) <= 1
        for sub in (a, b):
            assert sub.features.shape[0] % w == 0
            for pos, win in enumerate(sub.window_ids):
                assert np.array_equal(sub.features[pos * w:(pos + 1) * w],
                                      reb.features[win * w:(win + 1) * w])
    elapsed = time.time() - start
    report(7, elapsed < 10,
           f"100 random bags partitioned into whole-window halves, "
           f"{elapsed:.0f}s (budget 10s)")
