"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` whole rounds of the workload run until S
seconds have passed and the end-to-end metrics (medians over the
rounds' samples, and peak RSS) are reported. With ``--trace 1`` one
traced and then one untraced round run, and the per-layer metrics
derived from the traced round's spans are reported, with the tracing
overhead.
Either way the program's outputs are then checked against the
benchmark's own computations. The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

WORKLOADS = ("cohort-train", "paper-slide", "cli-large-slides")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program(root: Path):
    """Import hvtsurv from the checkout's src/, and from nowhere else."""
    src = root / "src"
    if not (src / "hvtsurv" / "__init__.py").is_file():
        sys.exit(f"bench: {src / 'hvtsurv'} not found; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import hvtsurv

    if Path(hvtsurv.__file__).resolve().parent != (src / "hvtsurv").resolve():
        sys.exit(f"bench: hvtsurv imported from {hvtsurv.__file__}, not {src}")


def make_workload(name: str, seed: int, root: Path, workdir: Path):
    if name == "cli-large-slides":
        from cliflow import CliLargeSlides

        return CliLargeSlides(seed, root, workdir)
    from inproc import CohortTrain, PaperSlide

    return {"cohort-train": CohortTrain, "paper-slide": PaperSlide}[name](seed)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_program(root)
    from harness import CheckFailed, Phases, end_to_end_metrics, run_rounds, self_peak_rss_mb
    from spans import Tracer, layer_metrics

    out_dir = root / ".bench_work"
    workdir = out_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed, root, workdir)
    phases = Phases()
    try:
        if args.trace:
            # Traced round first, so that the high-water RSS it reads is its own.
            tracer = Tracer()
            workload.tracer = phases.tracer = tracer
            tracer.install()
            start = time.perf_counter()
            with tracer.span("round"):
                workload.round(phases, repeat=False)
            traced = time.perf_counter() - start
            tracer.uninstall()
            workload.tracer = None
            start = time.perf_counter()
            workload.round(Phases(), repeat=False)
            untraced = time.perf_counter() - start
            tracer.values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
            tracer.values["trace.spans"] = len(tracer.spans)
            tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
            metrics = layer_metrics(tracer.spans, tracer.values)
        else:
            run_rounds(workload, args.seconds, phases)
            peak = getattr(workload, "peak_rss_mb", self_peak_rss_mb)()
            metrics = end_to_end_metrics(phases, peak)
            print("bench: samples " + json.dumps(phases.samples), file=sys.stderr)
        correct = True
        try:
            workload.check()
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            print(f"bench: check failed: {exc}", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": phases.attempted,
                      "failed": phases.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
