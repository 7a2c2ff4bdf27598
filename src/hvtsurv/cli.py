"""Command-line entry point.

Subcommands cover the whole pipeline: ``synth`` writes a synthetic
cohort, ``rearrange`` applies the window rearrangement, ``train`` runs
cross-validated training, ``eval`` produces the survival report, and
``attn`` exports attention heatmap scores.

Configuration is flat key=value text (an optional ``[run]`` INI header
is tolerated); command-line flags override file values, which override
defaults. The keys are RunConfig's run-level fields plus the model and
training keys of survmodel.CONFIG_DEFAULTS. Every run directory receives
a manifest of produced files.
Exit codes: 0 success, 1 validation/configuration error (a usage error
included), 2 runtime or numeric error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import logging
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import survstats
from .bagio import (
    atomic_open,
    bin_survival_times,
    check_bag_files,
    load_manifest,
    load_patient,
    read_manifest,
    stratified_kfold,
    write_csv,
    write_int_csv,
    write_manifest,
    write_patch_bag,
    write_pbag_arrays,
)
from .errors import ConfigurationError, FormatError, HVTSurvError, NumericError, ValidationError
from .rearrange import knn_rearrange, raster_order, window_mean_manhattan
from .seeding import derive_seed
from .survmodel import (
    CONFIG_DEFAULTS,
    EVAL_MASK_SEED,
    HVTSurvConfig,
    config_from_items,
    export_attention,
    fit,
    forward,
    load_checkpoint,
    predict_risks,
    preprocess_patient,
    save_checkpoint,
)
from .synthgen import SynthConfig, gen_patients

log = logging.getLogger("hvtsurv")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


@dataclass(slots=True)
class RunConfig:
    """Run-level settings plus the model and training keys set for the run.

    ``model`` maps keys of survmodel.CONFIG_DEFAULTS to the values set in
    the config file or by flags; the rest keep HVTSurvConfig's defaults.
    Slots make assigning a model key as an attribute an error.
    """

    seed: int = 0
    # cohort synthesis
    n_patients: int = 200
    wsis_min: int = 1
    wsis_max: int = 2
    patches_min: int = 100
    patches_max: int = 200
    feature_dim: int = 64
    signal_strength: float = 5.0
    censor_rate: float = 0.3
    hole_density: float = 0.25
    # cross-validation
    folds: int = 4
    # attention export
    drop_fraction: float = 0.8
    model: dict = field(default_factory=dict)

    def synth_config(self) -> SynthConfig:
        return SynthConfig(
            n_patients=self.n_patients,
            wsis_per_patient_range=(self.wsis_min, self.wsis_max),
            patches_per_wsi_range=(self.patches_min, self.patches_max),
            feature_dim=self.feature_dim,
            signal_strength=self.signal_strength,
            censor_rate=self.censor_rate,
            hole_density=self.hole_density,
            seed=derive_seed(self.seed, "synth"),
        )

    def model_config(self, input_dim: int) -> HVTSurvConfig:
        return config_from_items({**CONFIG_DEFAULTS, **self.model,
                                  "input_dim": input_dim, "seed": self.seed})


_RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.name != "model"}
# input_dim comes from the cohort's features and seed is the run seed
_MODEL_DEFAULTS = {k: v for k, v in CONFIG_DEFAULTS.items()
                   if k != "input_dim" and k not in _RUN_DEFAULTS}
# every configuration key, with the default whose type its values are cast to
CONFIG_KEYS = {**_RUN_DEFAULTS, **_MODEL_DEFAULTS}


def parse_config_file(path) -> dict[str, str]:
    """Read flat key=value lines; a leading [section] header is skipped."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        text = line.strip()
        if not text or text.startswith(("#", ";")) or (text.startswith("[") and text.endswith("]")):
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        values[key.strip()] = value.strip()
    return values


def build_run_config(file_values: dict, overrides: dict) -> RunConfig:
    """Merge defaults < config file < flags, rejecting unknown keys and bad
    values, NaN and infinities among them."""
    rc = RunConfig()
    for source in (file_values, overrides):
        for key, value in source.items():
            if value is None:
                continue
            if key not in CONFIG_KEYS:
                raise ConfigurationError(f"unknown configuration key {key!r}")
            try:
                cast = type(CONFIG_KEYS[key])(value)
                if isinstance(cast, float) and not math.isfinite(cast):
                    raise ValueError(f"{value!r} is not finite")
            except ValueError as exc:
                raise ConfigurationError(f"configuration key {key!r}: {exc}") from exc
            if key in _MODEL_DEFAULTS:
                rc.model[key] = cast
            else:
                setattr(rc, key, cast)
    return rc


def _prepare_out(out: str, force: bool, marker: str) -> Path:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sentinel = out_dir / marker
    if sentinel.exists() and not force:
        raise ValidationError(f"{sentinel} already exists; pass --force to overwrite")
    return out_dir


def _require_path(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"{what} {p} does not exist")
    return p


def _write_produced(out_dir: Path, command: str, paths: list[Path]) -> None:
    listing = out_dir / f"{command}_files.txt"
    with atomic_open(listing) as fh:
        for p in sorted(paths):
            fh.write(f"{p.relative_to(out_dir)}\n")


def _cohort_fingerprint(records) -> str:
    """sha256 over the (patient_id, time_months, censored) rows in record
    order: the folds that stratified_kfold deals depend on that order too.
    Records are PatientRecords or read_manifest's entries, which agree."""
    rows = ((r.patient_id, r.follow_up.time_months, r.follow_up.censored) for r in records)
    return hashlib.sha256("".join(f"{p},{t!r},{c}\n" for p, t, c in rows).encode()).hexdigest()


def _load_trained(path, cohort: str, *keys: str) -> tuple:
    """load_checkpoint of a file that train wrote for the cohort of fingerprint
    ``cohort``: it holds that fingerprint as ``cohort_sha256``, and ``keys``."""
    params, cfg, extra = load_checkpoint(path)
    for key in ("cohort_sha256", *keys):
        if key not in extra:
            raise FormatError(f"{path}: checkpoint has no {key!r} key")
    if extra["cohort_sha256"] != cohort:
        raise FormatError(f"{path}: trained on cohort {extra['cohort_sha256']}, "
                          f"manifest has cohort {cohort}")
    return params, cfg, extra


def cmd_synth(rc: RunConfig, out: str, force: bool) -> dict:
    """Generate a cohort and write it in manifest + PBAG form, one patient
    at a time: each patient's slides are written and dropped before the
    next patient is drawn."""
    synth = rc.synth_config()
    out_dir = _prepare_out(out, force, "manifest.csv")
    # a run that fails part-way must leave no earlier manifest over its bags
    for stale in ("manifest.csv", "synth_files.txt"):
        (out_dir / stale).unlink(missing_ok=True)
    bag_dir = out_dir / "bags"
    bag_dir.mkdir(exist_ok=True)

    produced, rows, censored, patches = [], [], [], 0
    for rec in gen_patients(synth):
        for bag in rec.bags:
            path = bag_dir / f"{bag.wsi_id}.pbag"
            write_patch_bag(bag, path)
            produced.append(path)
            patches += bag.n_patches
            rows.append(dict(patient_id=rec.patient_id, wsi_path=f"bags/{bag.wsi_id}.pbag",
                             time_months=rec.follow_up.time_months,
                             censored=rec.follow_up.censored))
        censored.append(rec.follow_up.censored)
        del rec, bag   # before the next patient is drawn
    manifest = out_dir / "manifest.csv"
    write_manifest(manifest, rows)
    _write_produced(out_dir, "synth", produced + [manifest])

    summary = dict(
        patients=len(censored),
        wsis=len(rows),
        censored_ratio=float(np.mean(censored)),
        mean_patches_per_wsi=patches / len(rows),
    )
    print(f"cohort: {summary['patients']} patients, {summary['wsis']} WSIs, "
          f"censored ratio {summary['censored_ratio']:.3f}, "
          f"mean patches/WSI {summary['mean_patches_per_wsi']:.1f}")
    return summary


def cmd_rearrange(rc: RunConfig, manifest: str, out: str, force: bool,
                  report: bool = False) -> None:
    """Rearrange every WSI; write PBAG outputs plus window sidecars.

    Patients are read one at a time, after every PBAG file's header has
    been checked, and each one's slides are dropped before the next is read.
    """
    _require_path(manifest, "manifest")
    entries = read_manifest(manifest)
    w = rc.model_config(input_dim=check_bag_files(manifest, entries)).window_size
    out_dir = _prepare_out(out, force, "rearranged")
    re_dir = out_dir / "rearranged"
    re_dir.mkdir(exist_ok=True)

    produced = []
    report_rows = []
    for entry in entries:
        for bag in load_patient(entry).bags:
            reb = knn_rearrange(bag, w)
            pbag_path = re_dir / f"{bag.wsi_id}.pbag"
            write_pbag_arrays(pbag_path, reb.scaled_coords, reb.features)
            sidecar = re_dir / f"{bag.wsi_id}.windows.csv"
            i = np.arange(reb.features.shape[0])
            write_int_csv(sidecar, ["row_index", "window_index", "gx", "gy"],
                          np.column_stack([i, i // reb.window_size, reb.scaled_coords]))
            produced += [pbag_path, sidecar]
            if report:
                report_rows.append([bag.wsi_id, f"{window_mean_manhattan(reb):.6f}",
                                    f"{window_mean_manhattan(raster_order(bag, w)):.6f}"])
        del bag, reb   # before the next patient is read

    if report:
        report_path = out_dir / "window_distance_report.csv"
        write_csv(report_path, ["wsi_id", "knn_mean", "raster_mean"], report_rows)
        produced.append(report_path)
    _write_produced(out_dir, "rearrange", produced)
    n_wsis = sum(len(entry.bag_paths) for entry in entries)
    print(f"rearranged {n_wsis} WSIs at window size {w}")


def cmd_train(rc: RunConfig, manifest: str, out: str, force: bool) -> None:
    """Cross-validated training; emits one checkpoint per fold + metrics."""
    _require_path(manifest, "manifest")
    records = load_manifest(manifest)
    cfg = rc.model_config(input_dim=records[0].bags[0].feature_dim)
    bin_survival_times(records, cfg.n_intervals)
    splits = stratified_kfold(records, rc.folds, seed=derive_seed(rc.seed, "splits"))
    out_dir = _prepare_out(out, force, "metrics.csv")
    for stale in out_dir.glob("fold*.ckpt"):   # an earlier run's folds would mix with these
        stale.unlink()
    cohort = _cohort_fingerprint(records)

    produced = []
    histories = {}
    cache: dict = {}  # every fold rearranges the same slides
    for fold, split in enumerate(splits):
        try:
            result = fit(records, split.train, split.validation, cfg,
                         seed=derive_seed(rc.seed, f"fold:{fold}"), cache=cache)
        except NumericError as exc:
            raise NumericError(f"fold {fold}: {exc}") from exc
        ckpt = out_dir / f"fold{fold}.ckpt"
        save_checkpoint(ckpt, result.params, cfg,
                        extra={"fold": fold, "folds": rc.folds, "best_epoch": result.best_epoch,
                               "cohort_sha256": cohort})
        histories[fold] = result.history
        produced.append(ckpt)
        log.info("fold %d: %d epochs, final val loss %s", fold, len(result.history),
                 result.history[-1]["val_loss"] if result.history else "n/a")

    metrics = out_dir / "metrics.csv"
    write_csv(metrics, ["fold", "epoch", "train_loss", "val_loss", "val_cindex"],
              ([fold, h["epoch"], f"{h['train_loss']:.6f}", f"{h['val_loss']:.6f}",
                f"{h['val_cindex']:.6f}"] for fold, history in histories.items() for h in history))
    produced.append(metrics)
    _write_produced(out_dir, "train", produced)
    print(f"trained {len(splits)} folds -> {out_dir}")


def _fold_checkpoints(ckpt_dir: Path, seed: int, entries, feature_dim: int) -> list[tuple]:
    """(params, config) of each fold*.ckpt file of one training run, in the
    order of the stored fold keys. Each file is read once.

    Each checkpoint must be of the manifest entries' cohort. All must
    agree on the fold count, seed, input_dim, window_size and n_intervals,
    and input_dim must be the entries' feature width. The fold keys must
    be exactly 0..k-1 for k files.
    """
    paths = sorted(ckpt_dir.glob("fold*.ckpt"))
    if not paths:
        raise ValidationError(f"no fold checkpoints found in {ckpt_dir}")
    by_fold: dict[int, tuple] = {}
    first = None
    cohort = _cohort_fingerprint(entries)
    for path in paths:
        params, cfg, extra = _load_trained(path, cohort, "fold", "folds")
        run = dict(folds=int(extra["folds"]), seed=cfg.seed, input_dim=cfg.input_dim,
                   window_size=cfg.window_size, n_intervals=cfg.n_intervals)
        if first is None:
            first = (path, run)
        elif run != first[1]:
            raise FormatError(f"checkpoint set inconsistent: {path} has {run}, "
                              f"{first[0]} has {first[1]}")
        by_fold.setdefault(int(extra["fold"]), (params, cfg))
    path, run = first
    if run["folds"] != len(paths):
        raise FormatError(
            f"checkpoint set inconsistent: metadata says {run['folds']} folds, "
            f"found {len(paths)} files")
    if sorted(by_fold) != list(range(len(paths))):
        raise FormatError(f"checkpoint fold keys {sorted(by_fold)} are not "
                          f"0..{len(paths) - 1}, one per file")
    if run["seed"] != seed:
        raise FormatError(
            f"checkpoint/config mismatch: trained with seed {run['seed']}, "
            f"evaluating with seed {seed}")
    if run["input_dim"] != feature_dim:
        raise FormatError(f"{path}: model expects {run['input_dim']}-dim features, "
                          f"cohort has {feature_dim}")
    return [by_fold[k] for k in range(len(paths))]


def cmd_eval(rc: RunConfig, manifest: str, checkpoint_dir: str, out: str,
             force: bool) -> None:
    """Out-of-sample risks per fold, pooled stratified KM and log-rank.

    Every PBAG file's header is checked first; then each patient is read
    when predict_risks reaches it and dropped before the next one.
    """
    _require_path(manifest, "manifest")
    _require_path(checkpoint_dir, "checkpoint directory")
    entries = read_manifest(manifest)
    feature_dim = check_bag_files(manifest, entries)
    ckpts = _fold_checkpoints(Path(checkpoint_dir), rc.seed, entries, feature_dim)
    splits = stratified_kfold(entries, len(ckpts), seed=derive_seed(rc.seed, "splits"))
    out_dir = _prepare_out(out, force, "report.csv")

    fold_ci = []
    pooled_low: list = []
    pooled_high: list = []
    risk_rows = []
    for fold, (params, cfg) in enumerate(ckpts):
        preds = predict_risks((load_patient(entries[i]) for i in splits[fold].test),
                              params, cfg)
        fold_ci.append(survstats.c_index(preds))
        low, high = survstats.risk_stratify(preds)
        pooled_low.extend(low)
        pooled_high.extend(high)
        risk_rows.extend([fold, p.patient_id, f"{p.risk:.8f}", f"{p.time_months:.6f}",
                          p.censored] for p in preds)

    chi, p_value = survstats.logrank_test(pooled_low, pooled_high)
    report = out_dir / "report.csv"
    survstats.write_evaluation_report(report, fold_ci, p_value, chi)
    km_path = out_dir / "km_curves.csv"
    survstats.write_km_csv(km_path, {
        "low": survstats.km_curve(pooled_low),
        "high": survstats.km_curve(pooled_high),
    })
    risks_path = out_dir / "risks.csv"
    write_csv(risks_path, ["fold", "patient_id", "risk", "time_months", "censored"], risk_rows)
    _write_produced(out_dir, "eval", [report, km_path, risks_path])
    print(f"mean test C-Index {np.mean(fold_ci):.4f} over {len(fold_ci)} folds; "
          f"pooled log-rank p = {p_value:.3g}")


def cmd_attn(rc: RunConfig, manifest: str, checkpoint: str, patient_id: str,
             out: str, force: bool) -> None:
    """Export per-layer attention scores for one patient; of the cohort's
    PBAG files, only that patient's are read."""
    _require_path(manifest, "manifest")
    _require_path(checkpoint, "checkpoint")
    cohort = read_manifest(manifest)
    entry = next((e for e in cohort if e.patient_id == patient_id), None)
    if entry is None:
        raise ValidationError(f"unknown patient {patient_id!r}")
    rec = load_patient(entry)
    params, cfg, _ = _load_trained(checkpoint, _cohort_fingerprint(cohort))

    subs = preprocess_patient(rec, cfg, EVAL_MASK_SEED)
    _, state = forward(subs, params, cfg, want_attention=True)
    layers = export_attention(subs, state, rc.drop_fraction)
    # wsi_id, patch_index, gx and gy of the stacked rows, one array each
    tags = (np.repeat([sub.source_wsi for sub in subs], [len(sub.source_rows) for sub in subs]),
            *np.concatenate([np.column_stack([sub.source_rows, sub.scaled_coords])
                             for sub in subs]).T)

    out_dir = _prepare_out(out, force, f"attention_{patient_id}.csv")
    path = out_dir / f"attention_{patient_id}.csv"
    write_csv(path, ["layer", "wsi_id", "patch_index", "gx", "gy", "score"],
              itertools.chain.from_iterable(
                  zip(itertools.repeat(layer), *(tag[rows].tolist() for tag in tags),
                      map("{:.6f}".format, scores.tolist()))
                  for layer, (rows, scores) in layers.items()))
    _write_produced(out_dir, "attn", list(out_dir.glob("attention_*.csv")))
    print(f"attention scores for {patient_id} -> {path}")


def _key_flags(parser: argparse.ArgumentParser, *keys: str) -> None:
    """One flag per configuration key, ``--n-patients`` for ``n_patients``,
    kept as text: build_run_config casts it as it casts a config file's."""
    for key in keys:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, as every other bad input
    does, instead of argparse's 2; subparsers are of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value configuration file")
    common.add_argument("--seed", help="master seed")
    common.add_argument("--out", default="hvtsurv-run", help="output directory")
    common.add_argument("--force", action="store_true",
                        help="overwrite existing outputs")

    parser = _Parser(prog="hvtsurv", description="windowed-attention survival pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic cohort")
    _key_flags(p, "n_patients", "censor_rate", "signal_strength")

    p = sub.add_parser("rearrange", parents=[common], help="window-rearrange a cohort")
    p.add_argument("--manifest", required=True)
    _key_flags(p, "window_size")
    p.add_argument("--report", action="store_true",
                   help="also emit the kNN vs raster distance report")

    p = sub.add_parser("train", parents=[common], help="cross-validated training")
    p.add_argument("--manifest", required=True)
    _key_flags(p, "folds")
    p.add_argument("--epochs", dest="max_epochs")
    _key_flags(p, "model_dim", "window_size", "n_heads")

    p = sub.add_parser("eval", parents=[common], help="evaluate fold checkpoints")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoints", required=True, dest="checkpoint_dir",
                   help="directory with fold*.ckpt")

    p = sub.add_parser("attn", parents=[common], help="export attention scores")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--patient", required=True, dest="patient_id")
    _key_flags(p, "drop_fraction")

    return parser


def run(argv=None) -> int:
    level = os.environ.get("HVTSURV_LOG", "info").lower()
    if level not in _LOG_LEVELS:
        raise ConfigurationError(f"HVTSURV_LOG must be one of {sorted(_LOG_LEVELS)}")
    logging.basicConfig(level=_LOG_LEVELS[level], format="%(levelname)s %(message)s")

    args = build_parser().parse_args(argv)
    if args.config:
        _require_path(args.config, "config file")
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {k: v for k, v in vars(args).items() if k in CONFIG_KEYS}
    rc = build_run_config(file_values, overrides)

    if args.command == "synth":
        cmd_synth(rc, args.out, args.force)
    elif args.command == "rearrange":
        cmd_rearrange(rc, args.manifest, args.out, args.force, report=args.report)
    elif args.command == "train":
        cmd_train(rc, args.manifest, args.out, args.force)
    elif args.command == "eval":
        cmd_eval(rc, args.manifest, args.checkpoint_dir, args.out, args.force)
    elif args.command == "attn":
        cmd_attn(rc, args.manifest, args.checkpoint, args.patient_id, args.out, args.force)
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except NumericError as exc:
        log.error("numeric failure: %s", exc)
        return 2
    except HVTSurvError as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:
        log.error("i/o failure: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
