"""Survival evaluation statistics.

Concordance index with a strict comparison indicator (risk ties score
zero), the product-limit survival estimator, the two-group log-rank
test, and the median risk split used for stratified curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bagio import write_csv
from .errors import UndefinedStatisticError, ValidationError


@dataclass
class RiskPrediction:
    patient_id: str
    risk: float
    time_months: float
    censored: int

    def __post_init__(self):
        if not np.isfinite(self.risk):
            raise ValidationError(f"non-finite risk for {self.patient_id}")
        if self.time_months < 0:
            raise ValidationError(f"negative time for {self.patient_id}")
        if self.censored not in (0, 1):
            raise ValidationError(f"censored flag must be 0/1 for {self.patient_id}")


@dataclass
class KMCurve:
    """Step-function survival estimate over the distinct event times."""

    event_times: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray

    def evaluate(self, t: float) -> float:
        """Estimated S(t); 1.0 before the first event."""
        idx = np.searchsorted(self.event_times, t, side="right")
        return 1.0 if idx == 0 else float(self.survival[idx - 1])


def c_index(preds: list[RiskPrediction]) -> float:
    """Fraction of comparable pairs ordered concordantly by risk.

    A pair (i, j) is comparable when i is uncensored and j's time is
    strictly larger; it scores 1 only when risk_i > risk_j (ties and
    reversals score 0).
    """
    times = np.array([p.time_months for p in preds])
    risks = np.array([p.risk for p in preds])
    censored = np.array([p.censored for p in preds])
    concordant = comparable = 0
    for i in range(len(preds)):
        if censored[i]:
            continue
        later = times > times[i]
        comparable += int(later.sum())
        concordant += int((risks[i] > risks[later]).sum())
    if comparable == 0:
        raise UndefinedStatisticError("no comparable pairs")
    return concordant / comparable


def km_curve(preds: list[RiskPrediction]) -> KMCurve:
    """Product-limit estimator; censored patients leave the risk set
    after their censoring time without contributing events."""
    if not preds:
        raise ValidationError("empty prediction list")
    times = np.array([p.time_months for p in preds])
    events = np.array([1 - p.censored for p in preds])
    event_times = np.unique(times[events == 1])
    at_risk = np.array([(times >= t).sum() for t in event_times])
    d = np.array([((times == t) & (events == 1)).sum() for t in event_times])
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = 1.0 - d / at_risk
    survival = np.cumprod(factors) if event_times.size else np.empty(0)
    return KMCurve(event_times=event_times, survival=survival,
                   at_risk=at_risk, events=d)


def logrank_test(group_a: list[RiskPrediction],
                 group_b: list[RiskPrediction]) -> tuple[float, float]:
    """Two-group log-rank statistic and its chi-square(1) p-value."""
    if not group_a or not group_b:
        raise UndefinedStatisticError("both groups must be non-empty")
    times_a = np.array([p.time_months for p in group_a])
    times_b = np.array([p.time_months for p in group_b])
    events_a = np.array([1 - p.censored for p in group_a])
    events_b = np.array([1 - p.censored for p in group_b])

    all_times = np.concatenate([times_a, times_b])
    all_events = np.concatenate([events_a, events_b])
    event_times = np.unique(all_times[all_events == 1])
    if event_times.size == 0:
        raise UndefinedStatisticError("no events in either group")

    observed_minus_expected = 0.0
    variance = 0.0
    for t in event_times:
        n_a = int((times_a >= t).sum())
        n_b = int((times_b >= t).sum())
        n = n_a + n_b
        d = int(((all_times == t) & (all_events == 1)).sum())
        d_a = int(((times_a == t) & (events_a == 1)).sum())
        if n < 1:
            continue
        expected_a = d * n_a / n
        observed_minus_expected += d_a - expected_a
        if n > 1:
            variance += d * (n_a / n) * (n_b / n) * (n - d) / (n - 1)

    if variance <= 0:
        return 0.0, 1.0
    chi_square = observed_minus_expected ** 2 / variance
    # survival function of chi-square with 1 df: P(|Z| > sqrt(chi)) for a
    # standard normal Z, which is gammaincc(0.5, chi / 2)
    p_value = math.erfc(math.sqrt(chi_square / 2.0))
    return float(chi_square), max(p_value, np.finfo(float).tiny)


def risk_stratify(preds: list[RiskPrediction],
                  ) -> tuple[list[RiskPrediction], list[RiskPrediction]]:
    """Median split into (low, high) risk groups; ties go to the low group."""
    if len(preds) < 2:
        raise ValidationError("need at least 2 patients to stratify")
    median = float(np.median([p.risk for p in preds]))
    low = [p for p in preds if p.risk <= median]
    high = [p for p in preds if p.risk > median]
    return low, high


def write_evaluation_report(path, fold_cindex: list[float], pooled_logrank_p: float,
                            pooled_chi_square: float) -> None:
    """Per-fold concordance plus the pooled stratified log-rank result."""
    write_csv(path, ["metric", "fold", "value"],
              [["c_index", fold, f"{ci:.6f}"] for fold, ci in enumerate(fold_cindex)]
              + [["c_index_mean", "all", f"{np.mean(fold_cindex):.6f}"],
                 ["logrank_chi_square", "pooled", f"{pooled_chi_square:.6f}"],
                 ["logrank_p", "pooled", f"{pooled_logrank_p:.6g}"]])


def write_km_csv(path, curves: dict[str, KMCurve]) -> None:
    """KM curves as (time, survival, group) rows for external plotting."""
    write_csv(path, ["time", "survival", "group"],
              ([f"{t:.6f}", f"{s:.6f}", group] for group, curve in curves.items()
               for t, s in zip(curve.event_times, curve.survival)))
