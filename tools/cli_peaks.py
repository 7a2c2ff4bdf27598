"""Wall time and peak RSS of each CLI command on one config.

    PYTHONPATH=src python tools/cli_peaks.py CONFIG [--seed N] [--workdir DIR]

Runs ``synth``, ``rearrange --report``, ``train``, ``eval`` and ``attn``
(on the cohort's first patient) with ``--config CONFIG``, each as its own
``python -m hvtsurv.cli`` process, and prints one line per command with
its wall time and peak RSS, then the command with the largest peak. Each
command runs under a forked child of this script, which waits for it and
reads ``RUSAGE_CHILDREN``, so each peak is that command's alone. Linux
keeps a process's peak across ``exec``, so a command's peak is never below
the RSS of the process that spawned it: here that is this script's own,
about 14 MB, since it imports no numpy. It measures and checks nothing
else; the outputs go to DIR (a temporary directory by default, removed
afterwards).
"""

from __future__ import annotations

import argparse
import csv
import os
import resource
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RESULT = "<idd"   # exit code, wall seconds, peak RSS in MB


def run_measured(argv: list[str], cwd: Path) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of ``hvtsurv argv``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:   # a fresh parent, so RUSAGE_CHILDREN holds this command alone
        try:
            os.close(read_end)
            start = time.perf_counter()
            code = subprocess.run([sys.executable, "-m", "hvtsurv.cli", *argv], cwd=cwd,
                                  env=env, stdout=subprocess.DEVNULL).returncode
            seconds = time.perf_counter() - start
            peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            os.write(write_end, struct.pack(RESULT, code, seconds, peak_mb))
        finally:
            os._exit(0)   # never return into the caller's code from the fork
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        packed = fh.read()
    os.waitpid(pid, 0)
    if len(packed) != struct.calcsize(RESULT):
        raise RuntimeError(f"could not run or measure hvtsurv {argv[0]}")
    return struct.unpack(RESULT, packed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", type=Path, help="flat key=value configuration file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", type=Path,
                        help="where the commands write (default: a temporary directory)")
    args = parser.parse_args(argv)
    config = args.config.resolve()

    with tempfile.TemporaryDirectory() as tmp:
        work = args.workdir or Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        common = ["--config", str(config), "--seed", str(args.seed), "--force"]
        manifest = "cohort/manifest.csv"
        steps = [("synth", ["--out", "cohort"]),
                 ("rearrange", ["--manifest", manifest, "--out", "rearranged", "--report"]),
                 ("train", ["--manifest", manifest, "--out", "train"]),
                 ("eval", ["--manifest", manifest, "--checkpoints", "train", "--out", "eval"]),
                 ("attn", ["--manifest", manifest, "--checkpoint", "train/fold0.ckpt",
                           "--patient", None, "--out", "attn"])]
        peaks = {}
        print(f"{'command':<10} {'wall_s':>8} {'peak_rss_mb':>12}")
        for name, rest in steps:
            if None in rest:   # attn scores the cohort's first patient
                with open(work / manifest, newline="") as fh:
                    first = next(csv.DictReader(fh))["patient_id"]
                rest = [first if a is None else a for a in rest]
            code, seconds, peak = run_measured([name, *common, *rest], work)
            if code:
                print(f"{name} exited {code}", file=sys.stderr)
                return code
            peaks[name] = peak
            print(f"{name:<10} {seconds:>8.3f} {peak:>12.1f}")
        top = max(peaks, key=peaks.get)
        print(f"largest peak: {top} ({peaks[top]:.1f} MB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
