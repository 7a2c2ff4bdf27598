#!/usr/bin/env python3
# End-to-end on a small planted-signal cohort: train with early stopping,
# score held-out patients, and run the survival statistics. A scaled-down
# version of the full acceptance run (~1 minute).

import numpy as np

from hvtsurv import survstats
from hvtsurv.bagio import bin_survival_times, stratified_kfold
from hvtsurv.seeding import derive_seed
from hvtsurv.survmodel import HVTSurvConfig, fit, predict_risks
from hvtsurv.synthgen import SynthConfig, gen_cohort

synth = SynthConfig(n_patients=80, signal_strength=5.0, censor_rate=0.3,
                    feature_dim=32, patches_per_wsi_range=(60, 120),
                    wsis_per_patient_range=(1, 2), seed=1)
records = gen_cohort(synth)
bin_survival_times(records, 4)
splits = stratified_kfold(records, folds=2, seed=1)

cfg = HVTSurvConfig(input_dim=32, model_dim=32, window_size=16, n_heads=4,
                    n_sub_wsis=2, n_intervals=4, pool_hidden=16,
                    learning_rate=2e-4, weight_decay=1e-5, patience=8,
                    max_epochs=15, seed=1)

cache = {}
pooled_low, pooled_high = [], []
fold_ci = []
for fold, split in enumerate(splits):
    result = fit(records, split.train, split.validation, cfg,
                 seed=derive_seed(1, f"fold:{fold}"))
    print(f"fold {fold}: stopped after {len(result.history)} epochs "
          f"(best val loss at epoch {result.best_epoch})")
    for h in result.history[:3]:
        print(f"    epoch {h['epoch']}: train {h['train_loss']:.3f} "
              f"val {h['val_loss']:.3f} val C-Index {h['val_cindex']:.3f}")

    preds = predict_risks([records[i] for i in split.test], result.params, cfg, cache)
    ci = survstats.c_index(preds)
    fold_ci.append(ci)
    print(f"  held-out C-Index: {ci:.3f}")
    low, high = survstats.risk_stratify(preds)
    pooled_low.extend(low)
    pooled_high.extend(high)

print(f"\nmean held-out C-Index over folds: {np.mean(fold_ci):.3f}")

chi, p = survstats.logrank_test(pooled_low, pooled_high)
print(f"pooled median-split log-rank: chi2 = {chi:.2f}, p = {p:.2e}")

km_low = survstats.km_curve(pooled_low)
km_high = survstats.km_curve(pooled_high)
print("\nKaplan-Meier at selected times (low-risk vs high-risk group):")
for t in (1.0, 5.0, 20.0, 100.0):
    print(f"  S({t:>5}) = {km_low.evaluate(t):.2f} vs {km_high.evaluate(t):.2f}")
