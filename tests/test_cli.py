import argparse
import csv
import inspect
import logging
import os
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import hvtsurv
from hvtsurv import cli
from hvtsurv.errors import (ConfigurationError, FormatError, ResolutionError,
                             ValidationError)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


FAST_FLAGS = ["--model-dim", "16", "--window-size", "8", "--n-heads", "2"]


def synth_args(out, n=10, seed=3, extra=()):
    return ["synth", "--out", str(out), "--seed", str(seed),
            "--n-patients", str(n), *extra]


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    config = out / "run.ini"
    config.write_text(
        "[run]\npatches_min = 80\npatches_max = 140\nfeature_dim = 12\n"
        "wsis_min = 1\nwsis_max = 2\n"
    )
    assert cli.main(synth_args(out / "data", n=12, seed=3,
                               extra=["--config", str(config)])) == 0
    return out / "data"


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            cli.build_run_config({"not_a_key": "1"}, {})

    def test_precedence_flag_over_file_over_default(self):
        rc = cli.build_run_config({"n_patients": "50"}, {"n_patients": 7})
        assert rc.n_patients == 7
        rc = cli.build_run_config({"n_patients": "50"}, {})
        assert rc.n_patients == 50
        assert cli.build_run_config({}, {}).n_patients == 200

    def test_window_size_defaults_to_49(self):
        assert cli.build_run_config({}, {}).model_config(input_dim=8).window_size == 49

    def test_model_keys_are_not_attributes(self):
        rc = cli.build_run_config({"window_size": "10"}, {"n_heads": 2})
        assert rc.model == {"window_size": 10, "n_heads": 2}
        with pytest.raises(AttributeError):
            rc.window_size = 12

    def test_sectionless_config_file(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("seed = 5\n# comment\nmodel_dim = 32\n")
        values = cli.parse_config_file(path)
        assert values == {"seed": "5", "model_dim": "32"}

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("just some text\n")
        with pytest.raises(ConfigurationError):
            cli.parse_config_file(path)

    # the command that has each key's flag
    FLAG_COMMANDS = {"folds": "train", "window_size": "rearrange", "n_patients": "synth"}

    @pytest.mark.parametrize("key, value", [("folds", "abc"), ("window_size", "4.5"),
                                            ("n_patients", "abc")])
    def test_unreadable_value_names_key_and_value(self, tmp_path, key, value, caplog):
        # run-level keys and a model key, from a config file and as a flag:
        # either is cast once, by build_run_config, and exits 1
        with pytest.raises(ConfigurationError, match=f"{key}.*{value}"):
            cli.build_run_config({key: value}, {})
        path = tmp_path / "c.ini"
        path.write_text(f"{key} = {value}\n")
        with caplog.at_level("ERROR", logger="hvtsurv"):
            assert cli.main(synth_args(tmp_path / "out", n=4, extra=["--config", str(path)])) == 1
        assert key in caplog.text and value in caplog.text
        assert not (tmp_path / "out").exists()

        caplog.clear()
        command = self.FLAG_COMMANDS[key]
        argv = [command, "--out", str(tmp_path / "out"), f"--{key.replace('_', '-')}", value]
        if command != "synth":
            argv += ["--manifest", str(tmp_path / "manifest.csv")]
        with caplog.at_level("ERROR", logger="hvtsurv"):
            assert cli.main(argv) == 1
        assert f"configuration key {key!r}" in caplog.text and value in caplog.text
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["learning_rate", "bucket_alpha", "signal_strength",
                                     "drop_fraction"])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=f"{key}.*{value}.*not finite"):
            cli.build_run_config({key: value}, {})
        with pytest.raises(ConfigurationError, match=f"{key}.*not finite"):
            cli.build_run_config({}, {key: value})

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_setting_fails_before_out(self, cohort, tmp_path, caplog, value):
        config = tmp_path / "c.ini"
        config.write_text(f"learning_rate = {value}\n")
        runs = [["train", "--manifest", str(cohort / "manifest.csv"), "--config", str(config),
                 "--epochs", "1", *FAST_FLAGS],
                ["synth", "--n-patients", "4", "--signal-strength", value]]
        for argv in runs:
            caplog.clear()
            with caplog.at_level(logging.ERROR, logger="hvtsurv"):
                assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 1
            assert "not finite" in caplog.text
            assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["synth", "--bogus", "1"], ["train", "--out", "x"],
                                  ["nonsense"], []],
                         ids=["unknown-flag", "missing-manifest", "unknown-command", "none"])
def test_usage_error_exits_1(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    assert "usage: hvtsurv" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [["--help"], ["synth", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage: hvtsurv" in capsys.readouterr().out


class TestSynth:
    def test_manifest_groups_by_patient(self, cohort):
        from hvtsurv.bagio import load_manifest
        records = load_manifest(cohort / "manifest.csv")
        assert len(records) == 12
        assert all(len(r.bags) >= 1 for r in records)

    def test_repeat_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(synth_args(out, n=6, seed=11)) == 0
        assert (a / "manifest.csv").read_bytes() == (b / "manifest.csv").read_bytes()
        bags = sorted(p.name for p in (a / "bags").iterdir())
        assert bags == sorted(p.name for p in (b / "bags").iterdir())
        for name in bags:
            assert (a / "bags" / name).read_bytes() == (b / "bags" / name).read_bytes()

    def test_force_required_to_overwrite(self, tmp_path):
        out = tmp_path / "c"
        assert cli.main(synth_args(out, n=4)) == 0
        assert cli.main(synth_args(out, n=4)) == 1
        assert cli.main(synth_args(out, n=4, extra=["--force"])) == 0

    def test_force_failing_part_way_leaves_no_manifest(self, tmp_path, monkeypatch):
        """A rewrite that fails after some bags leaves no manifest over a mix of
        the two runs' bags, and no listing of the earlier run."""
        out = tmp_path / "c"
        assert cli.main(synth_args(out, n=6, seed=1)) == 0
        written, real = [], cli.write_patch_bag

        def failing(bag, path):
            written.append(path)
            if len(written) == 4:
                raise OSError("disk full")
            real(bag, path)

        monkeypatch.setattr(cli, "write_patch_bag", failing)
        assert cli.main(synth_args(out, n=6, seed=2, extra=["--force"])) == 2
        assert len(written) == 4
        assert not (out / "manifest.csv").exists()
        assert not (out / "synth_files.txt").exists()

    def test_censor_rate_reported(self, tmp_path):
        rc = cli.build_run_config({}, dict(
            n_patients=500, censor_rate=0.86, seed=1,
        ))
        rc.patches_min, rc.patches_max, rc.feature_dim = 5, 8, 2
        summary = cli.cmd_synth(rc, str(tmp_path / "big"), force=False)
        assert abs(summary["censored_ratio"] - 0.86) < 0.05

    def test_produced_files_manifest(self, cohort):
        listing = (cohort / "synth_files.txt").read_text().splitlines()
        assert "manifest.csv" in listing
        assert any(line.startswith("bags/") for line in listing)


def test_failed_listing_write_keeps_the_previous_listing(tmp_path):
    listing = tmp_path / "synth_files.txt"
    cli._write_produced(tmp_path, "synth", [tmp_path / "a.pbag", tmp_path / "manifest.csv"])
    before = listing.read_bytes()
    with pytest.raises(ValueError):   # a path outside the run directory
        cli._write_produced(tmp_path, "synth", [tmp_path / "b.pbag", tmp_path.parent / "x"])
    assert listing.read_bytes() == before
    assert not (tmp_path / "synth_files.txt.tmp").exists()


class TestRearrange:
    def test_report_and_sidecars(self, cohort, tmp_path):
        out = tmp_path / "rearr"
        rc = ["rearrange", "--manifest", str(cohort / "manifest.csv"),
              "--out", str(out), "--window-size", "8", "--report"]
        assert cli.main(rc) == 0
        rows = read_csv(out / "window_distance_report.csv")
        assert len(rows) >= 12
        wins = sum(float(r["knn_mean"]) <= float(r["raster_mean"]) for r in rows)
        assert wins / len(rows) >= 0.95
        sidecars = list((out / "rearranged").glob("*.windows.csv"))
        assert sidecars
        side = read_csv(sidecars[0])
        assert set(side[0]) == {"row_index", "window_index", "gx", "gy"}
        n_rows = len(side)
        assert n_rows % 8 == 0

    def test_report_runs_knn_once_per_slide(self, cohort, tmp_path, monkeypatch):
        from hvtsurv import rearrange
        calls = []
        real_knn = rearrange.knn_rearrange

        def counting_knn(bag, w):
            calls.append(bag.wsi_id)
            return real_knn(bag, w)

        monkeypatch.setattr(rearrange, "knn_rearrange", counting_knn)
        monkeypatch.setattr(cli, "knn_rearrange", counting_knn)
        out = tmp_path / "rearr3"
        assert cli.main(["rearrange", "--manifest", str(cohort / "manifest.csv"),
                         "--out", str(out), "--window-size", "8", "--report"]) == 0
        slides = [r["wsi_id"] for r in read_csv(out / "window_distance_report.csv")]
        assert sorted(calls) == sorted(slides)

    def test_rearranged_pbag_readable(self, cohort, tmp_path):
        from hvtsurv.bagio import read_patch_bag, read_pbag_arrays
        from hvtsurv.errors import ValidationError
        out = tmp_path / "rearr2"
        assert cli.main(["rearrange", "--manifest", str(cohort / "manifest.csv"),
                         "--out", str(out), "--window-size", "8"]) == 0
        paths = sorted((out / "rearranged").glob("*.pbag"))
        assert paths
        padded = 0
        for path in paths:
            coords, features = read_pbag_arrays(path)
            side = read_csv(path.with_suffix(".windows.csv"))
            assert len(side) == len(coords) == len(features) and len(coords) % 8 == 0
            for i, row in enumerate(side):
                assert (int(row["row_index"]), int(row["window_index"])) == (i, i // 8)
                assert (int(row["gx"]), int(row["gy"])) == tuple(coords[i])
            # padding repeats rows, so the validating reader rejects the file
            if len(np.unique(coords, axis=0)) < len(coords):
                padded += 1
                with pytest.raises(ValidationError, match="duplicate"):
                    read_patch_bag(path)
        assert padded

    def test_outputs_do_not_depend_on_cpu_count(self, cohort, tmp_path, monkeypatch):
        outs = []
        for n_cpus in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n_cpus: set(range(n)))
            out = tmp_path / f"cpus{n_cpus}"
            assert cli.main(["rearrange", "--manifest", str(cohort / "manifest.csv"),
                             "--out", str(out), "--window-size", "8", "--report"]) == 0
            outs.append({p.relative_to(out): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(outs[0]) > 3
        assert outs[0] == outs[1]


# sha256 of every file that `rearrange --report` writes for three slides of
# 600-900 patches at w=49 (large enough for the square search), taken before
# the sidecar, the report's mean and the kNN start radius were rewritten
PINNED_REARRANGE = {
    "rearrange_files.txt": "b41d40f56595bfdd11851be7d6212a382834d499ffafbe53c0637dc421a26a52",
    "rearranged/P0000-W0.pbag": "9e0bc6ef4059485caf803edba5e476c00d348dc77a203fab6eff807506f2acb7",
    "rearranged/P0000-W0.windows.csv":
        "9683f9020ce7b9f7a7dfabc59d0a78326ae4c5420882769f86be2a0c27985510",
    "rearranged/P0001-W0.pbag": "25a8654987163417eca359b395f4704213ddec9f5f64fafcd6e8db153e0e31e9",
    "rearranged/P0001-W0.windows.csv":
        "0981e1c8110c714ca2ad1e9647102be9efd1d14e1a1f1e81f533377d52700801",
    "rearranged/P0002-W0.pbag": "2a3b0c054cdd2c6f8dbc3c521be0ab33764b8d23f177a6c566943ea137cf2c1d",
    "rearranged/P0002-W0.windows.csv":
        "7856fc77c2a2ed06a2ea5a0e1a786c3f15f5bcfa4cca7a16c0cd5d72217291c9",
    "window_distance_report.csv":
        "298fbfbf08463bb77bffb2a8b591569e1f997467f3fd381f0cf835814eeec6f9",
}


def test_rearrange_output_bytes_are_pinned(tmp_path):
    import hashlib
    config = tmp_path / "run.cfg"
    config.write_text("n_patients=3\nwsis_min=1\nwsis_max=1\n"
                      "patches_min=600\npatches_max=900\nfeature_dim=8\n")
    assert cli.main(["synth", "--config", str(config), "--seed", "5",
                     "--out", str(tmp_path / "cohort")]) == 0
    out = tmp_path / "re"
    assert cli.main(["rearrange", "--config", str(config), "--seed", "5", "--manifest",
                     str(tmp_path / "cohort" / "manifest.csv"), "--out", str(out),
                     "--window-size", "49", "--report"]) == 0
    assert {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.rglob("*") if p.is_file()} == PINNED_REARRANGE


def test_sidecar_bytes_are_those_of_csv_writer(tmp_path):
    """A one-window bag and a bag padded from 10 to 12 rows at w=4."""
    import io
    from hvtsurv.bagio import PatchBag, read_pbag_arrays, write_manifest, write_patch_bag
    (tmp_path / "bags").mkdir()
    rows = []
    for pid, cells in (("A", [(3, 1), (1, 1), (2, 2), (5, 4)]),
                       ("B", [(x, y) for x in range(5) for y in (0, 2)])):
        bag = PatchBag(f"{pid}-W0", np.array(cells) * 256, np.ones((len(cells), 2)))
        write_patch_bag(bag, tmp_path / "bags" / f"{bag.wsi_id}.pbag")
        rows.append(dict(patient_id=pid, wsi_path=f"bags/{bag.wsi_id}.pbag",
                         time_months=1.0, censored=0))
    write_manifest(tmp_path / "manifest.csv", rows)
    out = tmp_path / "re"
    assert cli.main(["rearrange", "--manifest", str(tmp_path / "manifest.csv"),
                     "--out", str(out), "--window-size", "4"]) == 0
    for wsi, n_rows in (("A-W0", 4), ("B-W0", 12)):
        coords, _ = read_pbag_arrays(out / "rearranged" / f"{wsi}.pbag")
        assert len(coords) == n_rows
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["row_index", "window_index", "gx", "gy"])
        writer.writerows([i, i // 4, int(gx), int(gy)] for i, (gx, gy) in enumerate(coords))
        got = (out / "rearranged" / f"{wsi}.windows.csv").read_bytes()
        assert got == want.getvalue().encode() and got.count(b"\r\n") == n_rows + 1


@pytest.fixture(scope="module")
def trained(cohort, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    args = ["train", "--manifest", str(cohort / "manifest.csv"),
            "--out", str(out), "--folds", "3", "--epochs", "2",
            "--seed", "0", *FAST_FLAGS]
    assert cli.main(args) == 0
    return out


class TestTrainEvalAttn:
    def test_force_removes_the_earlier_runs_folds(self, cohort, tmp_path):
        manifest, train = str(cohort / "manifest.csv"), tmp_path / "train"
        argv = ["train", "--manifest", manifest, "--out", str(train), "--epochs", "0",
                "--seed", "0", *FAST_FLAGS]
        assert cli.main([*argv, "--folds", "4"]) == 0
        assert cli.main([*argv, "--folds", "2", "--force"]) == 0
        assert sorted(p.name for p in train.glob("fold*.ckpt")) == ["fold0.ckpt", "fold1.ckpt"]
        assert cli.main(["eval", "--manifest", manifest, "--checkpoints", str(train),
                         "--out", str(tmp_path / "ev"), "--seed", "0"]) == 0

    def test_fold_checkpoints_written(self, trained):
        assert sorted(p.name for p in trained.glob("fold*.ckpt")) == [
            "fold0.ckpt", "fold1.ckpt", "fold2.ckpt"]

    def test_metrics_csv_columns(self, trained):
        rows = read_csv(trained / "metrics.csv")
        assert set(rows[0]) == {"fold", "epoch", "train_loss", "val_loss", "val_cindex"}
        assert len(rows) > 0

    def test_epochs_zero_writes_initial_params(self, cohort, tmp_path):
        out = tmp_path / "e0"
        args = ["train", "--manifest", str(cohort / "manifest.csv"),
                "--out", str(out), "--folds", "2", "--epochs", "0",
                "--seed", "4", *FAST_FLAGS]
        assert cli.main(args) == 0
        assert read_csv(out / "metrics.csv") == []
        from hvtsurv.survmodel import load_checkpoint, init_params
        from hvtsurv.seeding import derive_seed
        params, cfg, extra = load_checkpoint(out / "fold0.ckpt")
        fresh = init_params(cfg, derive_seed(derive_seed(4, "fold:0"), "fit-init"))
        for name in fresh.names():
            assert np.allclose(params[name], fresh[name], atol=1e-6)

    def test_eval_deterministic_bytes(self, cohort, trained, tmp_path):
        outs = []
        for tag in ("e1", "e2"):
            out = tmp_path / tag
            args = ["eval", "--manifest", str(cohort / "manifest.csv"),
                    "--checkpoints", str(trained), "--out", str(out), "--seed", "0"]
            assert cli.main(args) == 0
            outs.append(out)
        for name in ("report.csv", "km_curves.csv", "risks.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_eval_reads_each_checkpoint_once(self, cohort, tmp_path, monkeypatch):
        manifest = str(cohort / "manifest.csv")
        train = tmp_path / "train"
        assert cli.main(["train", "--manifest", manifest, "--out", str(train), "--folds", "2",
                         "--epochs", "0", "--seed", "0", *FAST_FLAGS]) == 0
        loaded = []

        def counting_load(path):
            loaded.append(path)
            return load(path)

        load = cli.load_checkpoint
        monkeypatch.setattr(cli, "load_checkpoint", counting_load)
        assert cli.main(["eval", "--manifest", manifest, "--checkpoints", str(train),
                         "--out", str(tmp_path / "eval"), "--seed", "0"]) == 0
        assert sorted(p.name for p in loaded) == ["fold0.ckpt", "fold1.ckpt"]

    def test_eval_seed_mismatch_rejected(self, cohort, trained, tmp_path):
        args = ["eval", "--manifest", str(cohort / "manifest.csv"),
                "--checkpoints", str(trained), "--out", str(tmp_path / "bad"),
                "--seed", "99"]
        assert cli.main(args) == 1

    def test_eval_checks_the_checkpoint_seed_key(self, cohort, trained, tmp_path):
        # the run seed is stored once, as the config's seed key
        import dataclasses
        from hvtsurv.survmodel import load_checkpoint, save_checkpoint
        ckpts = tmp_path / "seed5"
        ckpts.mkdir()
        for path in trained.glob("fold*.ckpt"):
            params, cfg, extra = load_checkpoint(path)
            extra.pop("master_seed", None)
            save_checkpoint(ckpts / path.name, params, dataclasses.replace(cfg, seed=5), extra)
            assert b"master_seed" not in (ckpts / path.name).read_bytes()
        manifest = str(cohort / "manifest.csv")
        with pytest.raises(FormatError, match="trained with seed 5, evaluating with seed 0"):
            cli.cmd_eval(cli.build_run_config({}, {"seed": 0}), manifest, str(ckpts),
                         str(tmp_path / "e0"), force=False)
        cli.cmd_eval(cli.build_run_config({}, {"seed": 5}), manifest, str(ckpts),
                     str(tmp_path / "e5"), force=False)
        scored = {r["patient_id"] for r in read_csv(tmp_path / "e5" / "risks.csv")}
        assert scored == {r["patient_id"] for r in read_csv(cohort / "manifest.csv")}

    def test_attn_unknown_patient(self, cohort, trained, tmp_path):
        args = ["attn", "--manifest", str(cohort / "manifest.csv"),
                "--checkpoint", str(trained / "fold0.ckpt"),
                "--patient", "NOBODY", "--out", str(tmp_path / "a")]
        assert cli.main(args) == 1

    def test_train_shares_one_rearrangement_across_folds(self, cohort, tmp_path, monkeypatch):
        from hvtsurv import survmodel
        calls = []
        real_knn = survmodel.knn_rearrange

        def counting_knn(bag, w):
            calls.append(bag.wsi_id)
            return real_knn(bag, w)

        monkeypatch.setattr(survmodel, "knn_rearrange", counting_knn)
        args = ["train", "--manifest", str(cohort / "manifest.csv"),
                "--out", str(tmp_path / "shared"), "--folds", "3", "--epochs", "1",
                "--seed", "0", *FAST_FLAGS]
        assert cli.main(args) == 0
        slides = [Path(r["wsi_path"]).stem for r in read_csv(cohort / "manifest.csv")]
        assert sorted(calls) == sorted(slides)

    def test_commands_after_synth_load_no_scipy(self, cohort, tmp_path):
        """synth, rearrange, train (one epoch of float32 training), eval and
        attn each run in a process that never imports a scipy module."""
        src = str(Path(hvtsurv.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        probe = ("import sys; from hvtsurv import cli; code = cli.main(sys.argv[1:]); "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
                 "sys.exit(code)")
        manifest = str(cohort / "manifest.csv")
        train = tmp_path / "train"
        commands = [
            synth_args(tmp_path / "synth", n=3),
            ["rearrange", "--manifest", manifest, "--out", str(tmp_path / "re"),
             "--window-size", "8", "--report"],
            ["train", "--manifest", manifest, "--out", str(train), "--folds", "2",
             "--epochs", "1", "--seed", "0", *FAST_FLAGS],
            ["eval", "--manifest", manifest, "--checkpoints", str(train),
             "--out", str(tmp_path / "eval"), "--seed", "0"],
            ["attn", "--manifest", manifest, "--checkpoint", str(train / "fold0.ckpt"),
             "--patient", "P0000", "--out", str(tmp_path / "attn")],
        ]
        for argv in commands:
            result = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                                    capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip().splitlines()[-1] == "[]", argv[0]

    def test_cli_import_and_untrained_run_load_no_thread_pool(self, cohort, tmp_path):
        """concurrent.futures is imported only by a layer that runs chunk
        workers, so CLI start-up and ``train --epochs 0`` do without it."""
        src = str(Path(hvtsurv.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        probe = ("import sys; from hvtsurv import cli; "
                 "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
                 "print('concurrent.futures' in sys.modules); sys.exit(code)")
        train = ["train", "--manifest", str(cohort / "manifest.csv"), "--out",
                 str(tmp_path / "train"), "--folds", "2", "--epochs", "0", *FAST_FLAGS]
        for argv in ([], train):
            result = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                                    capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip().splitlines()[-1] == "False", argv

    def test_train_logs_each_fold(self, cohort, tmp_path, caplog):
        args = ["train", "--manifest", str(cohort / "manifest.csv"),
                "--out", str(tmp_path / "folds"), "--folds", "3", "--epochs", "1",
                "--seed", "0", *FAST_FLAGS]
        with caplog.at_level(logging.INFO, logger="hvtsurv"):
            assert cli.main(args) == 0
        folds = [r.getMessage().partition(":")[0] for r in caplog.records
                 if r.getMessage().startswith("fold ")]
        assert folds == ["fold 0", "fold 1", "fold 2"]

    def test_missing_manifest_is_validation_error(self, trained, tmp_path):
        args = ["eval", "--manifest", str(tmp_path / "nope.csv"),
                "--checkpoints", str(trained), "--out", str(tmp_path / "o")]
        assert cli.main(args) == 1

    def test_attn_scores_bounded(self, cohort, trained, tmp_path):
        args = ["attn", "--manifest", str(cohort / "manifest.csv"),
                "--checkpoint", str(trained / "fold0.ckpt"),
                "--patient", "P0001", "--out", str(tmp_path / "a2"), "--seed", "0"]
        assert cli.main(args) == 0
        rows = read_csv(tmp_path / "a2" / "attention_P0001.csv")
        assert {r["layer"] for r in rows} == {"local", "shuffle", "pool"}
        scores = [float(r["score"]) for r in rows]
        assert min(scores) >= 0.0 and max(scores) <= 1.0

    def test_attn_files_lists_every_patient_in_out(self, cohort, trained, tmp_path):
        out = tmp_path / "shared"
        for pid in ("P0002", "P0000"):
            assert cli.main(["attn", "--manifest", str(cohort / "manifest.csv"),
                             "--checkpoint", str(trained / "fold0.ckpt"),
                             "--patient", pid, "--out", str(out)]) == 0
        assert (out / "attn_files.txt").read_text().split() == [
            "attention_P0000.csv", "attention_P0002.csv"]

    def test_attn_reads_only_its_patients_bags(self, cohort, trained, tmp_path, monkeypatch):
        from hvtsurv import bagio
        from hvtsurv.survmodel import (EVAL_MASK_SEED, export_attention, forward,
                                       load_checkpoint, preprocess_patient)
        rec = next(r for r in bagio.load_manifest(cohort / "manifest.csv") if len(r.bags) == 2)
        # the file the whole-cohort load wrote, before attn read one patient alone
        params, cfg, _ = load_checkpoint(trained / "fold0.ckpt")
        subs = preprocess_patient(rec, cfg, EVAL_MASK_SEED)
        layers = export_attention(subs, forward(subs, params, cfg, want_attention=True)[1],
                                  cli.RunConfig().drop_fraction)
        stacked = [(sub.source_wsi, row, gx, gy) for sub in subs for row, (gx, gy)
                   in zip(sub.source_rows.tolist(), sub.scaled_coords.tolist())]
        want = tmp_path / "want.csv"
        bagio.write_csv(want, ["layer", "wsi_id", "patch_index", "gx", "gy", "score"],
                        ([layer, *stacked[j], f"{score:.6f}"]
                         for layer, (rows, scores) in layers.items()
                         for j, score in zip(rows.tolist(), scores.tolist())))
        read, real_read = [], bagio.read_patch_bag

        def counting_read(path):
            read.append(Path(path).stem)
            return real_read(path)

        monkeypatch.setattr(bagio, "read_patch_bag", counting_read)
        assert cli.main(["attn", "--manifest", str(cohort / "manifest.csv"),
                         "--checkpoint", str(trained / "fold0.ckpt"),
                         "--patient", rec.patient_id, "--out", str(tmp_path / "a")]) == 0
        assert read == [bag.wsi_id for bag in rec.bags]
        got = tmp_path / "a" / f"attention_{rec.patient_id}.csv"
        assert got.read_bytes() == want.read_bytes()

    def test_attn_needs_only_its_patients_bags(self, cohort, trained, tmp_path, caplog):
        rows = read_csv(cohort / "manifest.csv")
        for row in rows:
            row["wsi_path"] = str(cohort / row["wsi_path"])
        patient, other = rows[0]["patient_id"], rows[-1]["patient_id"]
        assert patient != other
        from hvtsurv.bagio import write_manifest

        def attn(missing_for, out):
            edited = [dict(row, wsi_path=row["wsi_path"] + ".gone")
                      if row["patient_id"] == missing_for else row for row in rows]
            write_manifest(tmp_path / "manifest.csv", edited)
            return cli.main(["attn", "--manifest", str(tmp_path / "manifest.csv"),
                             "--checkpoint", str(trained / "fold0.ckpt"),
                             "--patient", patient, "--out", str(tmp_path / out)])

        assert attn(other, "a") == 0
        with caplog.at_level(logging.ERROR, logger="hvtsurv"):
            assert attn(patient, "b") == 1
        assert "does not exist" in caplog.text

    def test_train_on_empty_manifest_exits_1(self, tmp_path, caplog):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("patient_id,wsi_path,time_months,censored\n")
        with caplog.at_level(logging.ERROR, logger="hvtsurv"):
            assert cli.main(["train", "--manifest", str(manifest),
                             "--out", str(tmp_path / "t"), *FAST_FLAGS]) == 1
        assert any("no rows" in r.getMessage() for r in caplog.records)


@pytest.mark.parametrize("case", ["synth", "rearrange", "train", "eval", "attn",
                                  "attn-drop-fraction"])
def test_failed_check_writes_no_output_directory(case, cohort, trained, tmp_path, caplog):
    # each command reads and checks its inputs before it makes --out
    manifest = str(cohort / "manifest.csv")
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--n-patients", "0"],
        "rearrange": ["rearrange", "--manifest", manifest, "--window-size", "0"],
        "train": ["train", "--manifest", manifest, "--folds", "20", *FAST_FLAGS],
        "eval": ["eval", "--manifest", manifest, "--checkpoints", str(trained), "--seed", "9"],
        "attn": ["attn", "--manifest", manifest, "--checkpoint", str(trained / "fold0.ckpt"),
                 "--patient", "NOPE"],
        "attn-drop-fraction": ["attn", "--manifest", manifest, "--checkpoint",
                               str(trained / "fold0.ckpt"), "--patient", "P0000",
                               "--drop-fraction", "1.5"],
    }[case]
    with caplog.at_level(logging.ERROR, logger="hvtsurv"):
        assert cli.main([*argv, "--out", str(out)]) == 1
    assert caplog.records
    assert not out.exists()


class TestOnePatientAtATime:
    """synth, rearrange, eval and attn hold one patient's slides at a time:
    when a patient's slide is read or written, no other patient's is alive."""

    @staticmethod
    def watch(monkeypatch, module, name, bag_of):
        """Wrap module.name so that each call notes how many other patients'
        bags are still alive, and keeps a weak reference to the call's bag,
        found by bag_of(args, result); returns the list of those counts."""
        alive, overlaps = [], []
        real = getattr(module, name)

        def watched(*args):
            result = real(*args)
            bag = bag_of(args, result)
            patient = bag.wsi_id.rsplit("-W", 1)[0]
            others = {p for p, ref in alive if ref() is not None and p != patient}
            overlaps.append(len(others))
            alive.append((patient, weakref.ref(bag)))
            return result

        monkeypatch.setattr(module, name, watched)
        return overlaps

    def read_watch(self, monkeypatch):
        from hvtsurv import bagio
        return self.watch(monkeypatch, bagio, "read_patch_bag", lambda args, bag: bag)

    def test_rearrange(self, cohort, tmp_path, monkeypatch):
        overlaps = self.read_watch(monkeypatch)
        assert cli.main(["rearrange", "--manifest", str(cohort / "manifest.csv"),
                         "--out", str(tmp_path / "r"), "--window-size", "8", "--report"]) == 0
        assert len(overlaps) == len(read_csv(cohort / "manifest.csv"))
        assert max(overlaps) == 0

    def test_eval(self, cohort, trained, tmp_path, monkeypatch):
        overlaps = self.read_watch(monkeypatch)
        assert cli.main(["eval", "--manifest", str(cohort / "manifest.csv"),
                         "--checkpoints", str(trained), "--out", str(tmp_path / "e"),
                         "--seed", "0"]) == 0
        assert len(overlaps) == len(read_csv(cohort / "manifest.csv"))
        assert max(overlaps) == 0

    def test_attn(self, cohort, trained, tmp_path, monkeypatch):
        overlaps = self.read_watch(monkeypatch)
        assert cli.main(["attn", "--manifest", str(cohort / "manifest.csv"),
                         "--checkpoint", str(trained / "fold0.ckpt"), "--patient", "P0003",
                         "--out", str(tmp_path / "a")]) == 0
        assert overlaps and max(overlaps) == 0

    def test_synth(self, tmp_path, monkeypatch):
        overlaps = self.watch(monkeypatch, cli, "write_patch_bag", lambda args, _: args[0])
        config = tmp_path / "run.ini"
        config.write_text("patches_min = 20\npatches_max = 30\nwsis_min = 1\nwsis_max = 3\n")
        assert cli.main(synth_args(tmp_path / "s", n=6, extra=["--config", str(config)])) == 0
        assert len(overlaps) == len(read_csv(tmp_path / "s" / "manifest.csv"))
        assert max(overlaps) == 0

    @pytest.fixture
    def broken_last(self, cohort, tmp_path):
        """A manifest of the cohort whose last patient's first slide is missing
        ("missing") or is rewritten one feature wider ("wider")."""
        from hvtsurv.bagio import read_pbag_arrays, write_manifest, write_pbag_arrays

        def make(fault):
            rows = read_csv(cohort / "manifest.csv")
            for row in rows:
                row["wsi_path"] = str(cohort / row["wsi_path"])
            last = next(r for r in rows if r["patient_id"] == rows[-1]["patient_id"])
            moved = tmp_path / f"{fault}.pbag"
            if fault == "wider":
                coords, features = read_pbag_arrays(last["wsi_path"])
                write_pbag_arrays(moved, coords, np.pad(features, ((0, 0), (0, 1))))
            last["wsi_path"] = str(moved)
            manifest = tmp_path / f"manifest-{fault}.csv"
            write_manifest(manifest, rows)
            return manifest
        return make

    @pytest.mark.parametrize("fault, error, message", [
        ("missing", ResolutionError, "does not exist"),
        ("wider", ValidationError, "mixed feature dimensions"),
    ])
    @pytest.mark.parametrize("command", ["rearrange", "eval"])
    def test_bad_last_patient_fails_before_any_output(self, command, fault, error, message,
                                                      broken_last, trained, tmp_path, caplog):
        out = tmp_path / "out"
        argv = [command, "--manifest", str(broken_last(fault)), "--out", str(out), "--seed", "0",
                "--force"]
        argv += ["--window-size", "8"] if command == "rearrange" else ["--checkpoints",
                                                                       str(trained)]
        with caplog.at_level(logging.ERROR, logger="hvtsurv"):
            assert cli.main(argv) == 1
        assert message in caplog.text
        with pytest.raises(error):
            cli.run(argv)
        assert not list(out.glob("*_files.txt"))
        assert not [p for p in out.rglob("*") if p.is_file()]


class TestCheckpointCohort:
    """A checkpoint names the cohort it was trained on, so that a test fold
    cannot take in patients that its model trained or validated on."""

    def test_eval_rejects_a_regrown_cohort(self, tmp_path, caplog):
        # the first 12 patients of the 16-patient cohort are the old 12, so
        # each fold's test set would now hold patients its model trained on
        data, train = tmp_path / "data", tmp_path / "train"
        assert cli.main(synth_args(data, n=12, seed=1)) == 0
        assert cli.main(["train", "--manifest", str(data / "manifest.csv"), "--out", str(train),
                         "--folds", "2", "--epochs", "1", "--seed", "1", *FAST_FLAGS]) == 0
        assert cli.main(synth_args(data, n=16, seed=1, extra=["--force"])) == 0
        caplog.clear()
        assert cli.main(["eval", "--manifest", str(data / "manifest.csv"),
                         "--checkpoints", str(train), "--out", str(tmp_path / "ev"),
                         "--seed", "1"]) == 1
        assert any("trained on cohort" in r.getMessage() for r in caplog.records)
        assert cli.main(["attn", "--manifest", str(data / "manifest.csv"), "--checkpoint",
                         str(train / "fold0.ckpt"), "--patient", "P0000",
                         "--out", str(tmp_path / "at"), "--seed", "1"]) == 1

    def test_fingerprint_names_both_cohorts(self, cohort, trained, tmp_path):
        from hvtsurv.bagio import load_manifest, write_manifest
        from hvtsurv.survmodel import load_checkpoint
        stored = load_checkpoint(trained / "fold0.ckpt")[2]["cohort_sha256"]
        assert stored == cli._cohort_fingerprint(load_manifest(cohort / "manifest.csv"))
        # one follow-up changed, the slides kept
        rows = read_csv(cohort / "manifest.csv")
        rows[0]["time_months"] = str(float(rows[0]["time_months"]) + 1.0)
        for row in rows:
            row["wsi_path"] = str(cohort / row["wsi_path"])
        manifest = tmp_path / "changed.csv"
        write_manifest(manifest, rows)
        changed = cli._cohort_fingerprint(load_manifest(manifest))
        rc = cli.build_run_config({}, {"seed": 0})
        with pytest.raises(FormatError, match=f"trained on cohort {stored}, "
                                              f"manifest has cohort {changed}"):
            cli.cmd_eval(rc, str(manifest), str(trained), str(tmp_path / "ev"), force=False)
        with pytest.raises(FormatError, match=f"cohort {changed}"):
            cli.cmd_attn(rc, str(manifest), str(trained / "fold0.ckpt"), rows[0]["patient_id"],
                         str(tmp_path / "at"), force=False)

    def test_eval_rejects_the_same_rows_in_another_order(self, cohort, trained, tmp_path):
        from hvtsurv.bagio import load_manifest, stratified_kfold, write_manifest
        from hvtsurv.seeding import derive_seed
        rows = read_csv(cohort / "manifest.csv")[::-1]
        for row in rows:
            row["wsi_path"] = str(cohort / row["wsi_path"])
        manifest = tmp_path / "reversed.csv"
        write_manifest(manifest, rows)

        # the same seed deals the reordered patients into other test folds
        def test_ids(records):
            splits = stratified_kfold(records, 3, seed=derive_seed(0, "splits"))
            return [sorted(records[i].patient_id for i in s.test) for s in splits]
        assert test_ids(load_manifest(manifest)) != \
            test_ids(load_manifest(cohort / "manifest.csv"))
        rc = cli.build_run_config({}, {"seed": 0})
        with pytest.raises(FormatError, match="trained on cohort"):
            cli.cmd_eval(rc, str(manifest), str(trained), str(tmp_path / "ev"), force=False)

    @pytest.mark.parametrize("key", ["cohort_sha256", "fold", "folds", "local.bias_table"])
    def test_checkpoint_that_train_does_not_write_is_rejected(self, cohort, trained, tmp_path,
                                                              caplog, key):
        """A checkpoint without one of the run keys that train writes, or with the
        signed (2*lam+1)-row bias table of older checkpoints, fails eval, and attn
        too where attn reads the key, naming the file and the key."""
        from hvtsurv.numerics import ParamStore
        from hvtsurv.survmodel import load_checkpoint, save_checkpoint
        ckpts = tmp_path / "old"
        ckpts.mkdir()
        for path in trained.glob("fold*.ckpt"):
            params, cfg, extra = load_checkpoint(path)
            if key == "local.bias_table":
                table = params[key]
                params = ParamStore({**{n: params[n] for n in params.names()},
                                     key: np.vstack([table, table[1:]])})
            else:
                del extra[key]
            save_checkpoint(ckpts / path.name, params, cfg, extra)
        manifest = str(cohort / "manifest.csv")
        runs = {"eval": ["--checkpoints", str(ckpts), "--seed", "0"]}
        if key not in ("fold", "folds"):   # attn reads neither
            runs["attn"] = ["--checkpoint", str(ckpts / "fold0.ckpt"), "--patient", "P0000"]
        for command, args in runs.items():
            caplog.clear()
            out = tmp_path / command
            with caplog.at_level(logging.ERROR, logger="hvtsurv"):
                assert cli.main([command, "--manifest", manifest, *args, "--out", str(out)]) == 1
            assert f"{ckpts / 'fold0.ckpt'}: " in caplog.text and f"{key!r}" in caplog.text
            assert not out.exists()


@pytest.fixture(scope="module")
def eleven_folds(tmp_path_factory):
    """An untrained 11-fold run: every fold checkpoint holds distinct weights."""
    root = tmp_path_factory.mktemp("eleven")
    config = root / "run.ini"
    config.write_text("patches_min = 20\npatches_max = 40\nfeature_dim = 6\n"
                      "wsis_min = 1\nwsis_max = 1\n")
    assert cli.main(synth_args(root / "data", n=66, seed=5,
                               extra=["--config", str(config)])) == 0
    assert cli.main(["train", "--manifest", str(root / "data" / "manifest.csv"),
                     "--out", str(root / "train"), "--folds", "11", "--epochs", "0",
                     "--seed", "0", "--model-dim", "8", "--window-size", "4",
                     "--n-heads", "2"]) == 0
    return root / "data" / "manifest.csv", root / "train"


class TestEvalFoldPairing:
    def test_each_risk_scored_by_its_own_fold_checkpoint(self, eleven_folds, tmp_path):
        from hvtsurv.bagio import load_manifest
        from hvtsurv.survmodel import (EVAL_MASK_SEED, forward, load_checkpoint,
                                       preprocess_patient)
        manifest, train = eleven_folds
        assert cli.main(["eval", "--manifest", str(manifest), "--checkpoints", str(train),
                         "--out", str(tmp_path / "ev"), "--seed", "0"]) == 0
        rows = read_csv(tmp_path / "ev" / "risks.csv")
        assert {int(r["fold"]) for r in rows} == set(range(11))
        records = {r.patient_id: r for r in load_manifest(manifest)}
        for fold in range(11):
            params, cfg, extra = load_checkpoint(train / f"fold{fold}.ckpt")
            assert int(extra["fold"]) == fold
            for row in (r for r in rows if int(r["fold"]) == fold):
                subs = preprocess_patient(records[row["patient_id"]], cfg, EVAL_MASK_SEED)
                assert abs(float(row["risk"]) - forward(subs, params, cfg).risk) < 1e-7

    def copy_run(self, train, dest):
        dest.mkdir()
        for path in train.glob("fold*.ckpt"):
            (dest / path.name).write_bytes(path.read_bytes())
        return dest

    def test_duplicate_fold_key_rejected(self, eleven_folds, tmp_path):
        manifest, train = eleven_folds
        ckpts = self.copy_run(train, tmp_path / "dup")
        (ckpts / "fold3.ckpt").write_bytes((ckpts / "fold0.ckpt").read_bytes())
        rc = cli.build_run_config({}, {"seed": 0})
        with pytest.raises(FormatError, match="fold keys"):
            cli.cmd_eval(rc, str(manifest), str(ckpts), str(tmp_path / "ev"), force=False)

    def test_window_size_mismatch_rejected(self, eleven_folds, tmp_path):
        import dataclasses
        from hvtsurv.survmodel import load_checkpoint, save_checkpoint
        manifest, train = eleven_folds
        ckpts = self.copy_run(train, tmp_path / "mixed")
        params, cfg, extra = load_checkpoint(ckpts / "fold7.ckpt")
        save_checkpoint(ckpts / "fold7.ckpt", params,
                        dataclasses.replace(cfg, window_size=8), extra)
        rc = cli.build_run_config({}, {"seed": 0})
        with pytest.raises(FormatError, match="inconsistent"):
            cli.cmd_eval(rc, str(manifest), str(ckpts), str(tmp_path / "ev"), force=False)


class TestAttnDropExact:
    def test_hundred_patches_drop_eighty(self, tmp_path):
        # 100 patches at window size 10 pad to exactly 100 rows, so each
        # layer scores 100 rows and drop 0.8 leaves exactly 20 nonzero
        rc = cli.build_run_config({}, dict(n_patients=8, seed=8))
        rc.patches_min = rc.patches_max = 100
        rc.wsis_min = rc.wsis_max = 1
        rc.feature_dim = 8
        rc.censor_rate = 0.0
        data = tmp_path / "data"
        cli.cmd_synth(rc, str(data), force=False)

        rc.model.update(model_dim=16, window_size=10, n_heads=2, max_epochs=0)
        rc.folds = 2
        train_out = tmp_path / "train"
        cli.cmd_train(rc, str(data / "manifest.csv"), str(train_out), force=False)
        attn_out = tmp_path / "attn"
        cli.cmd_attn(rc, str(data / "manifest.csv"), str(train_out / "fold0.ckpt"),
                     "P0000", str(attn_out), force=False)
        rows = read_csv(attn_out / "attention_P0000.csv")
        for layer in ("local", "shuffle", "pool"):
            layer_rows = [r for r in rows if r["layer"] == layer]
            assert len(layer_rows) == 100
            nonzero = [r for r in layer_rows if float(r["score"]) > 0.0]
            assert len(nonzero) == 20


class TestConfigReachesCommands:
    def test_every_model_key_in_config_file_reaches_checkpoint(self, cohort, tmp_path):
        from hvtsurv.survmodel import CONFIG_DEFAULTS, config_items, load_checkpoint
        values = dict(model_dim=16, window_size=8, n_heads=2, n_sub_wsis=3, n_intervals=3,
                      pool_hidden=5, ffn_ratio=2, bucket_alpha=1.5, bucket_beta=6.0,
                      bucket_gamma=10.0, bucket_lambda=6, learning_rate=0.001,
                      weight_decay=0.01, patience=3, max_epochs=0)
        assert set(values) == set(CONFIG_DEFAULTS) - {"input_dim", "seed"}
        assert all(v != CONFIG_DEFAULTS[k] for k, v in values.items())
        config = tmp_path / "model.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        out = tmp_path / "train"
        assert cli.main(["train", "--manifest", str(cohort / "manifest.csv"), "--out", str(out),
                         "--config", str(config), "--folds", "2", "--seed", "6"]) == 0
        _, cfg, extra = load_checkpoint(out / "fold0.ckpt")
        items = config_items(cfg)
        assert {k: items[k] for k in values} == values
        assert items["seed"] == 6 and "master_seed" not in extra

    def test_eval_needs_no_interval_config(self, tmp_path):
        # eval takes the model from the checkpoints and labels no survival
        # intervals: this cohort has only 3 distinct uncensored times, so
        # binning it into the default 4 intervals would fail
        from hvtsurv.bagio import load_manifest
        config = tmp_path / "run.cfg"
        config.write_text("patches_min = 20\npatches_max = 30\nn_intervals = 3\n")
        data = tmp_path / "data"
        assert cli.main(synth_args(data, n=8, seed=1,
                                   extra=["--censor-rate", "0.55", "--config", str(config)])) == 0
        manifest = str(data / "manifest.csv")
        records = load_manifest(manifest)
        assert len({r.follow_up.time_months for r in records if not r.follow_up.censored}) == 3
        assert cli.main(["train", "--manifest", manifest, "--out", str(tmp_path / "train"),
                         "--config", str(config), "--folds", "2", "--epochs", "0",
                         "--seed", "1", *FAST_FLAGS]) == 0
        assert cli.main(["eval", "--manifest", manifest, "--checkpoints", str(tmp_path / "train"),
                         "--out", str(tmp_path / "eval"), "--seed", "1"]) == 0
        assert len(read_csv(tmp_path / "eval" / "risks.csv")) == 8

    def test_every_flag_is_used_by_its_command(self, tmp_path):
        """Each subcommand flag is a parameter of its cmd_* function or a
        configuration key that the command reads."""
        model_keys = set(cli.CONFIG_KEYS) - {f.name for f in fields(cli.RunConfig)}
        base = cli.build_run_config({}, dict(n_patients=6, patches_min=20, patches_max=30,
                                            feature_dim=4, folds=2, seed=3))
        base.model.update(model_dim=8, window_size=4, n_heads=2, max_epochs=0)

        def run_recorded(command, *args):
            reads = set()

            class Recording(cli.RunConfig):
                def __getattribute__(self, name):
                    reads.add(name)
                    return object.__getattribute__(self, name)

            rc = Recording(**{f.name: getattr(base, f.name) for f in fields(base)})
            getattr(cli, f"cmd_{command}")(rc, *args)
            return reads | (model_keys if "model" in reads else set())

        data, manifest = tmp_path / "data", str(tmp_path / "data" / "manifest.csv")
        reads = {
            "synth": run_recorded("synth", str(data), False),
            "rearrange": run_recorded("rearrange", manifest, str(tmp_path / "re"), False, True),
            "train": run_recorded("train", manifest, str(tmp_path / "train"), False),
            "eval": run_recorded("eval", manifest, str(tmp_path / "train"),
                                 str(tmp_path / "eval"), False),
            "attn": run_recorded("attn", manifest, str(tmp_path / "train" / "fold0.ckpt"),
                                 "P0000", str(tmp_path / "attn"), False),
        }
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(reads)
        for command, parser in sub.choices.items():
            params = set(inspect.signature(getattr(cli, f"cmd_{command}")).parameters)
            for action in parser._actions:
                # --config is read by cli.run itself; --seed is shared by every
                # subcommand so that one command line serves the whole pipeline
                if action.dest in ("help", "config", "seed"):
                    continue
                assert action.dest in params | reads[command], (command, action.option_strings)
