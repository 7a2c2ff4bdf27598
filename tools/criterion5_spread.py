"""Spread of acceptance criterion 5 under last-bit perturbations.

    PYTHONPATH=src python tools/criterion5_spread.py [PSEED ...]

Runs ``tests/test_acceptance.py::test_criterion_5_end_to_end_planted_signal``
unchanged, once per perturbation seed PSEED (default 1-7). For each run,
every tensor that ``fit`` draws through ``init_params(cfg, seed)`` is
multiplied by ``1 + eps * N(0, 1)``, where eps is float32's machine
epsilon: ``fit`` trains a float32 copy of the drawn tensors, and a
smaller relative change would vanish in that cast for almost every
element. The noise is drawn from
``np.random.default_rng([PSEED, seed, crc32(name)])``: keyed by the
tensor's name, so a change in another tensor's size or in the buffer
layout leaves it as it was. PSEED 0 leaves the tensors as drawn, which
is the pinned test. Each run prints its mean held-out
C-index, the per-fold C-index and the per-fold best epoch; the last
lines give the minimum, median and maximum mean C-index and the range
of each fold's best epoch.

The script measures how far criterion 5 moves when training starts a
float32 last bit away; it gates nothing. The runs go in
``os.cpu_count()`` worker processes, and their lines print in PSEED
order. BLAS runs on one thread per process unless OPENBLAS_NUM_THREADS
says otherwise: threaded BLAS rounds some training products
differently, so results would depend on the core count. One run takes
about as long as the test itself.
"""

from __future__ import annotations

import importlib.util
import multiprocessing
import os
import re
import sys
import zlib
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")   # before numpy loads BLAS

import numpy as np

from hvtsurv import survmodel

TEST_FILE = Path(__file__).resolve().parents[1] / "tests" / "test_acceptance.py"
PROTOCOL = "test_criterion_5_end_to_end_planted_signal"
NOISE = float(np.finfo(np.float32).eps)


def load_acceptance_module():
    spec = importlib.util.spec_from_file_location("acceptance", TEST_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_once(module, pseed: int) -> dict:
    """One criterion-5 run; returns its printed report and fold records."""
    init_params, fit = survmodel.init_params, module.fit
    best_epochs: list[int] = []

    def perturbed_init_params(cfg, seed, scale=0.02):
        params = init_params(cfg, seed, scale)
        if pseed:
            for name in params.names():
                key = zlib.crc32(name.encode("utf-8"))
                noise = np.random.default_rng([pseed, seed, key]).normal(size=params[name].shape)
                params[name][...] *= 1.0 + NOISE * noise
        return params

    def recording_fit(*args, **kwargs):
        result = fit(*args, **kwargs)
        best_epochs.append(result.best_epoch)
        return result

    lines: list[str] = []
    survmodel.init_params = perturbed_init_params   # fit looks it up here
    module.fit = recording_fit
    module.print = lines.append
    try:
        getattr(module, PROTOCOL)()
    except AssertionError:
        pass    # a failing run is still a sample; its report line says FAIL
    finally:
        survmodel.init_params, module.fit = init_params, fit
        del module.print
    report = next(line for line in lines if "criterion 5" in line)
    mean = float(re.search(r"C-Index ([0-9.]+)", report).group(1))
    folds = [float(c) for c in re.search(r"folds \[([^]]*)\]", report).group(1).split(",")]
    return dict(pseed=pseed, mean=mean, folds=folds, best_epochs=best_epochs, report=report)


def run_in_worker(pseed: int) -> dict:
    return run_once(load_acceptance_module(), pseed)


def main(argv: list[str]) -> int:
    pseeds = [int(a) for a in argv] or list(range(1, 8))
    runs = []
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, len(pseeds)),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        for run in pool.map(run_in_worker, pseeds):
            runs.append(run)
            print(f"pseed {run['pseed']}: mean C-index {run['mean']:.4f}, "
                  f"folds {run['folds']}, best epochs {run['best_epochs']}", flush=True)
    means = [run["mean"] for run in runs]
    print(f"mean C-index over {len(runs)} runs: min {min(means):.4f}, "
          f"median {float(np.median(means)):.4f}, max {max(means):.4f}")
    for fold, epochs in enumerate(zip(*(run["best_epochs"] for run in runs))):
        print(f"fold {fold} best epoch: {min(epochs)}-{max(epochs)} {list(epochs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
