#!/usr/bin/env python3
# Train briefly on a planted cohort, export per-layer attention scores
# for one high-risk patient, and check whether the surviving scores land
# on the planted signature blob.

import numpy as np

from hvtsurv.bagio import bin_survival_times
from hvtsurv.seeding import derive_seed
from hvtsurv.survmodel import (
    EVAL_MASK_SEED,
    HVTSurvConfig,
    export_attention,
    fit,
    forward,
    preprocess_patient,
)
from hvtsurv.synthgen import SynthConfig, gen_cohort

synth = SynthConfig(n_patients=60, signal_strength=5.0, censor_rate=0.2,
                    feature_dim=32, patches_per_wsi_range=(60, 100),
                    wsis_per_patient_range=(1, 1), seed=4)
records, truth = gen_cohort(synth, return_truth=True)
bin_survival_times(records, 4)

cfg = HVTSurvConfig(input_dim=32, model_dim=32, window_size=16, n_heads=4,
                    n_sub_wsis=2, n_intervals=4, pool_hidden=16,
                    max_epochs=12, seed=4)
result = fit(records, train_idx=range(45), val_idx=range(45, 60), cfg=cfg,
             seed=derive_seed(4, "demo"))

# pick the highest-latent-risk training patient
target = int(np.argmax(truth.latent_risk))
rec = records[target]
bag = rec.bags[0]
blob = truth.signature_cells[target][bag.wsi_id]
print(f"patient {rec.patient_id}: latent risk {truth.latent_risk[target]:.2f}, "
      f"{len(blob)} signature patches of {bag.n_patches}")

subs = preprocess_patient(rec, cfg, EVAL_MASK_SEED)
_, state = forward(subs, result.params, cfg, want_attention=True)
layers = export_attention(subs, state, drop_fraction=0.8)

grid = {(int(x) // 256, int(y) // 256): i for i, (x, y) in enumerate(bag.coords)}
signature_rows = {grid[cell] for cell in blob}

for layer in ("local", "shuffle", "pool"):
    rows = layers[layer]
    kept = [r for r in rows if r["score"] > 0]
    on_sig = [r for r in kept if r["patch_index"] in signature_rows]
    sig_scores = [r["score"] for r in rows if r["patch_index"] in signature_rows]
    bg_scores = [r["score"] for r in rows if r["patch_index"] not in signature_rows]
    print(f"{layer:>7}: {len(kept)}/{len(rows)} rows survive the 80% drop; "
          f"{len(on_sig)} of the survivors sit on the signature blob "
          f"(mean score signature {np.mean(sig_scores):.3f} vs background "
          f"{np.mean(bg_scores):.3f})")
