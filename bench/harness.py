"""Phase timing, round scheduling and result assembly shared by the
workloads."""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext

END_TO_END = {
    "setup_s": "s",
    "preprocess_s": "s",
    "train_s": "s",
    "infer_s": "s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any child process waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Phases:
    """Times calls into the program, one sample per call, grouped by
    end-to-end phase; counts every call as an attempted operation."""

    def __init__(self, tracer=None):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.tracer = tracer

    def time(self, phase: str, fn, *args, **kwargs):
        self.attempted += 1
        gc.collect()    # start every sample from the same collector state
        span = self.tracer.span(f"phase.{phase}") if self.tracer else nullcontext()
        with span:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.samples[phase].append(time.perf_counter() - start)
        return result

    def add(self, phase: str, seconds: float) -> None:
        self.samples[phase].append(seconds)

    def medians(self) -> dict[str, float]:
        return {phase: statistics.median(v) for phase, v in self.samples.items()}


def run_rounds(workload, seconds: float, phases: Phases) -> int:
    """Whole rounds until ``seconds`` have passed; at least one."""
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        workload.round(phases, repeat=True)
        rounds += 1
    return rounds


def end_to_end_metrics(phases: Phases, peak_rss_mb: float) -> dict:
    med = phases.medians()
    values = {**{k: med[k] for k in ("setup_s", "preprocess_s", "train_s", "infer_s")},
              "peak_rss_mb": peak_rss_mb}
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
