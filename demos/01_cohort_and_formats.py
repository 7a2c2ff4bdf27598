#!/usr/bin/env python3
# Generate a small synthetic cohort, write it to disk in the PBAG +
# manifest format, read it back, and bin survival times into intervals.

import tempfile
from pathlib import Path

import numpy as np

from hvtsurv.bagio import (
    bin_survival_times,
    load_manifest,
    read_patch_bag,
    stratified_kfold,
    write_manifest,
    write_patch_bag,
)
from hvtsurv.synthgen import SynthConfig, gen_cohort

cfg = SynthConfig(
    n_patients=30,
    wsis_per_patient_range=(1, 2),
    patches_per_wsi_range=(40, 90),
    feature_dim=16,
    signal_strength=5.0,
    censor_rate=0.3,
    seed=7,
)
records = gen_cohort(cfg)
print(f"generated {len(records)} patients, "
      f"{sum(len(r.bags) for r in records)} WSIs")

# round-trip one bag through the binary format
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    bag = records[0].bags[0]
    write_patch_bag(bag, tmp / "demo.pbag")
    back = read_patch_bag(tmp / "demo.pbag")
    print(f"PBAG round trip: {back.n_patches} patches x {back.feature_dim} dims, "
          f"bit-exact = {np.array_equal(back.features, bag.features)}")

    # write the whole cohort with a manifest and load it back
    rows = []
    for rec in records:
        for b in rec.bags:
            write_patch_bag(b, tmp / f"{b.wsi_id}.pbag")
            rows.append(dict(patient_id=rec.patient_id, wsi_path=f"{b.wsi_id}.pbag",
                             time_months=rec.follow_up.time_months,
                             censored=rec.follow_up.censored))
    write_manifest(tmp / "manifest.csv", rows)
    loaded = load_manifest(tmp / "manifest.csv")
    print(f"manifest loaded {len(loaded)} patients")

# survival-time binning: quartiles of the uncensored times
cutpoints = bin_survival_times(records, 4)
print("interval cutpoints (months):", np.round(cutpoints, 2))
labels = [r.interval_label for r in records]
print("patients per interval:", np.bincount(labels, minlength=4))

# stratified splits preserve the censorship ratio
splits = stratified_kfold(records, folds=4, seed=0)
overall = np.mean([r.follow_up.censored for r in records])
print(f"overall censored ratio: {overall:.2f}")
for k, s in enumerate(splits):
    ratio = np.mean([records[i].follow_up.censored for i in s.test])
    print(f"  fold {k}: train/val/test = {len(s.train)}/{len(s.validation)}/{len(s.test)}"
          f", test censored ratio {ratio:.2f}")
