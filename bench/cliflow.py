"""The cli-large-slides workload: the on-disk pipeline, one process per
command, as a user runs it.

The cohort is written by ``hvtsurv synth --config``; ``rearrange
--report``, ``train``, ``eval`` and ``attn`` follow. Outputs are checked
afterwards through the benchmark's own PBAG, checkpoint and CSV readers.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from hvtsurv import bagio, rearrange, survmodel

import refimpl as ref
from harness import CheckFailed, Phases, children_peak_rss_mb, require
from inproc import FORWARD_TOL, check_sub_bags

CONFIG = {
    "n_patients": 12, "wsis_min": 1, "wsis_max": 1,
    "patches_min": 15000, "patches_max": 17000, "feature_dim": 64,
    "signal_strength": 5.0, "censor_rate": 0.3,
    "model_dim": 32, "n_heads": 4, "window_size": 49, "n_sub_wsis": 2,
    "n_intervals": 4, "folds": 2, "max_epochs": 0, "drop_fraction": 0.8,
}
ATTN_PATIENT = "P0000"
COMMAND_TIMEOUT_S = 170
HALF_RISK_UNIT = 5e-9     # risks.csv keeps 8 decimals
HALF_STAT_UNIT = 5e-7     # report.csv and km_curves.csv keep 6


class CliLargeSlides:
    """12 patients, one 15k-17k-patch slide each, through the CLI."""

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "run.cfg"
        self.config.write_text("".join(f"{k}={v}\n" for k, v in CONFIG.items()))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.child = Path(__file__).with_name("cli_child.py")
        self.tracer = None
        self.failures: list[str] = []

    def _command(self, phases: Phases, name: str, *args) -> float:
        """Run one command to completion; returns its wall time."""
        argv = [name, "--config", str(self.config), "--seed", str(self.seed), "--force", *args]
        spans_path = self.dir / f"spans-{name}.json"
        if self.tracer:
            cmd = [sys.executable, str(self.child), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "hvtsurv.cli", *argv]
        phases.attempted += 1
        parent = len(self.tracer.spans) if self.tracer else -1
        with self.tracer.span(f"command.{name}") if self.tracer else nullcontext():
            start = time.perf_counter()
            done = subprocess.run(cmd, cwd=self.dir, env=self.env, capture_output=True,
                                  text=True, timeout=COMMAND_TIMEOUT_S)
            seconds = time.perf_counter() - start
        if done.returncode != 0:
            phases.failed += 1
            self.failures.append(f"{name} exited {done.returncode}: {done.stderr.strip()[-400:]}")
        elif self.tracer:
            child = json.loads(spans_path.read_text())
            self.tracer.adopt(child["spans"], parent)
            main = next(s for s in child["spans"] if s["name"] == "cli.main")
            values = self.tracer.values
            values["cli.startup_s"] = values.get("cli.startup_s", 0.0) + seconds - (
                main["end"] - main["start"])
            if name == "eval":
                values["survmodel.forward_rss_mb"] = child["maxrss_mb"]
            if name == "train":
                values["survmodel.step_rss_mb"] = child["maxrss_mb"]
        return seconds

    def round(self, phases: Phases, repeat: bool) -> None:
        manifest = "cohort/manifest.csv"
        for _ in range(3 if repeat else 1):
            phases.add("setup_s", self._command(phases, "synth", "--out", "cohort"))
        phases.add("preprocess_s", self._command(phases, "rearrange", "--manifest", manifest,
                                                 "--out", "rearranged", "--report"))
        for _ in range(5 if repeat else 1):
            phases.add("train_s", self._command(phases, "train", "--manifest", manifest,
                                                "--out", "train"))
        infer = self._command(phases, "eval", "--manifest", manifest,
                              "--checkpoints", "train", "--out", "eval")
        infer += self._command(phases, "attn", "--manifest", manifest, "--checkpoint",
                               "train/fold0.ckpt", "--patient", ATTN_PATIENT, "--out", "attn")
        phases.add("infer_s", infer)

    def peak_rss_mb(self) -> float:
        return children_peak_rss_mb()

    # ------------------------------------------------------------ checks

    def check(self) -> None:
        require(not self.failures, "; ".join(self.failures))
        cohort = self.dir / "cohort"
        rows = ref.read_csv(cohort / "manifest.csv")
        require(len(rows) == CONFIG["n_patients"], f"manifest has {len(rows)} rows")
        patients = {}
        for row in rows:
            coords, feats = ref.read_pbag(cohort / row["wsi_path"])
            require(len(np.unique(coords, axis=0)) == len(coords)
                    and feats.shape[1] == CONFIG["feature_dim"],
                    f"{row['wsi_path']}: duplicate coordinates or wrong feature width")
            wsi = Path(row["wsi_path"]).stem
            patients.setdefault(row["patient_id"], dict(
                time=float(row["time_months"]), event=1 - int(row["censored"]), bags={}))
            patients[row["patient_id"]]["bags"][wsi] = (coords, feats)
        rearranged = self._check_rearranged(patients)
        risks = self._check_risks(patients, rearranged)
        self._check_report(patients, risks)
        self._check_attention(patients[ATTN_PATIENT], rearranged)

    def _check_rearranged(self, patients) -> dict:
        """Rearranged PBAGs, window sidecars and the distance report."""
        w = CONFIG["window_size"]
        out_dir = self.dir / "rearranged"
        report = {r["wsi_id"]: r for r in ref.read_csv(out_dir / "window_distance_report.csv")}
        result = {}
        for p in patients.values():
            for wsi, (coords, feats) in p["bags"].items():
                grid, out_feats = ref.read_pbag(out_dir / "rearranged" / f"{wsi}.pbag")
                src_grid = ref.grid_of(coords)
                try:
                    rows = ref.source_rows_of(grid.astype(np.int64), src_grid)
                    ref.check_knn_windows(rows, src_grid, w)
                except ref.RearrangementMismatch as exc:
                    raise CheckFailed(f"{wsi}: {exc}") from exc
                require(np.array_equal(out_feats, feats[rows]),
                        f"{wsi}: rearranged features are not the source rows")
                side = np.loadtxt(out_dir / "rearranged" / f"{wsi}.windows.csv", delimiter=",",
                                  skiprows=1, dtype=np.int64, ndmin=2)
                n = len(rows)
                require(side.shape == (n, 4) and np.array_equal(side[:, 0], np.arange(n))
                        and np.array_equal(side[:, 1], np.arange(n) // w)
                        and np.array_equal(side[:, 2:], grid),
                        f"{wsi}: window sidecar disagrees with the rearranged bag")
                knn = ref.mean_window_manhattan(grid, w)
                raster = ref.mean_window_manhattan(ref.raster_grid(src_grid, w), w)
                row = report[wsi]
                for label, got, want in (("knn", row["knn_mean"], knn),
                                         ("raster", row["raster_mean"], raster)):
                    require(abs(float(got) - want) <= HALF_STAT_UNIT + 1e-12 * want,
                            f"{wsi}: report {label}_mean {got}, recomputed {want:.6f}")
                result[wsi] = (grid, out_feats, rows)
        require(len(report) == len(result), "distance report rows do not match the slides")
        return result

    def _check_risks(self, patients, rearranged) -> dict:
        """risks.csv against the reference forward on each fold's checkpoint."""
        folds = CONFIG["folds"]
        cfg = survmodel.HVTSurvConfig(
            input_dim=CONFIG["feature_dim"], model_dim=CONFIG["model_dim"],
            window_size=CONFIG["window_size"], n_heads=CONFIG["n_heads"],
            n_sub_wsis=CONFIG["n_sub_wsis"], n_intervals=CONFIG["n_intervals"])
        models = {}
        for f in range(folds):
            tensors, meta = ref.read_checkpoint(self.dir / "train" / f"fold{f}.ckpt")
            require(int(meta["fold"]) == f and int(meta["folds"]) == folds
                    and int(meta["window_size"]) == CONFIG["window_size"],
                    f"fold{f}.ckpt metadata {meta}")
            shape = ref.ModelShape(int(meta["window_size"]), int(meta["n_heads"]),
                                   float(meta["bucket_alpha"]), float(meta["bucket_beta"]),
                                   float(meta["bucket_gamma"]), int(meta["bucket_lambda"]))
            models[f] = (tensors, shape)
        rows = ref.read_csv(self.dir / "eval" / "risks.csv")
        require(sorted(r["patient_id"] for r in rows) == sorted(patients),
                "risks.csv does not list every patient exactly once")
        risks = {}
        for r in rows:
            pid, fold = r["patient_id"], int(r["fold"])
            p = patients[pid]
            require(0 <= fold < folds, f"{pid}: fold {fold}")
            require(abs(float(r["time_months"]) - p["time"]) <= HALF_STAT_UNIT * (1 + p["time"])
                    and 1 - int(r["censored"]) == p["event"], f"{pid}: follow-up differs")
            subs = self._sub_bags(pid, p, rearranged, cfg)
            want = ref.forward_ref([(s.features, s.scaled_coords) for s in subs],
                                   *models[fold])["risk"]
            got = float(r["risk"])
            require(abs(got - want) <= FORWARD_TOL,
                    f"{pid}: risk {got} in risks.csv, reference {want:.8f}")
            risks[pid] = (fold, got)
        return risks

    def _sub_bags(self, pid, p, rearranged, cfg):
        """The patient's evaluation sub-bags, cut by the program from the
        rearranged bags already checked above."""
        cache, bags = {}, []
        for wsi, (coords, feats) in p["bags"].items():
            grid, out_feats, rows = rearranged[wsi]
            cache[wsi] = rearrange.RearrangedBag(wsi_id=wsi, features=out_feats,
                                                 scaled_coords=grid.astype(np.int64),
                                                 source_rows=rows, window_size=cfg.window_size)
            bags.append(bagio.PatchBag(wsi_id=wsi, coords=coords, features=feats))
        record = bagio.PatientRecord(pid, bags, bagio.FollowUp(p["time"], 1 - p["event"]))
        subs = survmodel.preprocess_patient(record, cfg, survmodel.EVAL_MASK_SEED, cache)
        check_sub_bags(subs, cache, cfg.n_sub_wsis, cfg.window_size)
        return subs

    def _check_report(self, patients, risks) -> None:
        """report.csv and km_curves.csv against statistics recomputed from
        risks.csv, allowing for the digits each file keeps."""
        report = ref.read_csv(self.dir / "eval" / "report.csv")
        value = {(r["metric"], r["fold"]): float(r["value"]) for r in report}
        require(sum(metric == "c_index" for metric, _ in value) == CONFIG["folds"],
                "report.csv does not hold one C-index per fold")
        by_fold: dict[int, list] = {}
        for pid, (fold, risk) in sorted(risks.items()):
            by_fold.setdefault(fold, []).append((pid, risk))
        per_fold = []
        candidates = []
        for fold, members in sorted(by_fold.items()):
            t = [patients[pid]["time"] for pid, _ in members]
            e = [patients[pid]["event"] for pid, _ in members]
            r = [risk for _, risk in members]
            lo, hi = ref.c_index_range_rounded(t, e, r, HALF_RISK_UNIT)
            ci = value[("c_index", str(fold))]
            require(lo - HALF_STAT_UNIT <= ci <= hi + HALF_STAT_UNIT,
                    f"fold {fold}: report C-index {ci}, risks.csv allows [{lo:.6f}, {hi:.6f}]")
            per_fold.append(ci)
            ids = [pid for pid, _ in members]
            candidates.append([([ids[i] for i in low], [ids[i] for i in high])
                               for low, high in ref.ambiguous_splits(r, HALF_RISK_UNIT)])
        mean = value[("c_index_mean", "all")]
        require(abs(mean - float(np.mean(per_fold))) <= 2 * HALF_STAT_UNIT,
                f"report mean C-index {mean} is not the mean of its folds")
        chi, pval = value[("logrank_chi_square", "pooled")], value[("logrank_p", "pooled")]
        km_rows = ref.read_csv(self.dir / "eval" / "km_curves.csv")
        km = {g: np.array([[float(r["time"]), float(r["survival"])] for r in km_rows
                           if r["group"] == g]).reshape(-1, 2) for g in ("low", "high")}
        for choice in itertools.product(*candidates):
            low = [pid for lo_ids, _ in choice for pid in lo_ids]
            high = [pid for _, hi_ids in choice for pid in hi_ids]
            if self._split_matches(patients, low, high, chi, pval, km):
                return
        raise CheckFailed(f"no median split of risks.csv reproduces log-rank "
                          f"chi {chi}, p {pval} and the Kaplan-Meier curves")

    @staticmethod
    def _split_matches(patients, low, high, chi, pval, km) -> bool:
        arrays = []
        for group in (low, high):
            arrays.append((np.array([patients[p]["time"] for p in group]),
                           np.array([patients[p]["event"] for p in group])))
        chi_ref, p_ref = ref.logrank_scipy(*arrays[0], *arrays[1])
        if abs(chi - chi_ref) > HALF_STAT_UNIT + 1e-9 * chi_ref:
            return False
        if abs(pval - p_ref) > 5e-6 * p_ref:          # 6 significant digits
            return False
        for name, (t, e) in zip(("low", "high"), arrays):
            times, surv = ref.km_scipy(t, e)
            got = km[name]
            if got.shape != (len(times), 2):
                return False
            time_gap = np.abs(got[:, 0] - times).max(initial=0)
            if (time_gap > HALF_STAT_UNIT * (1 + times.max(initial=0))
                    or np.abs(got[:, 1] - surv).max(initial=0) > HALF_STAT_UNIT + 1e-12):
                return False
        return True

    def _check_attention(self, patient, rearranged) -> None:
        """Scores in [0, 1], at least floor(0.8 n) zeros per layer, one row
        per sub-bag row."""
        n = sum(len(rearranged[wsi][2]) for wsi in patient["bags"])
        rows = ref.read_csv(self.dir / "attn" / f"attention_{ATTN_PATIENT}.csv")
        for layer in ("local", "shuffle", "pool"):
            scores = np.array([float(r["score"]) for r in rows if r["layer"] == layer])
            require(scores.size == n, f"attention layer {layer}: {scores.size} rows, expected {n}")
            require(scores.min() >= 0.0 and scores.max() <= 1.0,
                    f"attention layer {layer}: scores outside [0, 1]")
            zeros = int((scores == 0.0).sum())
            require(zeros >= math.floor(CONFIG["drop_fraction"] * n),
                    f"attention layer {layer}: {zeros} zeros of {n}")

