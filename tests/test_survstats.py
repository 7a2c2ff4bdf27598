import numpy as np
import pytest
from scipy import special

from hvtsurv.errors import UndefinedStatisticError, ValidationError
from hvtsurv.survstats import (
    RiskPrediction,
    c_index,
    km_curve,
    logrank_test,
    risk_stratify,
)

P = RiskPrediction


def brute_c_index(preds):
    concordant = comparable = 0
    for i in range(len(preds)):
        for j in range(len(preds)):
            if preds[i].censored == 0 and preds[j].time_months > preds[i].time_months:
                comparable += 1
                concordant += preds[i].risk > preds[j].risk
    return None if comparable == 0 else concordant / comparable


class TestCIndex:
    def test_fully_concordant(self):
        preds = [P("A", 0.9, 1.0, 0), P("B", 0.5, 2.0, 0), P("C", 0.1, 3.0, 1)]
        assert c_index(preds) == 1.0

    def test_all_risks_tied_scores_zero(self):
        preds = [P("A", 0.5, 1.0, 0), P("B", 0.5, 2.0, 0), P("C", 0.5, 3.0, 1)]
        assert c_index(preds) == 0.0

    def test_reversal_antisymmetry(self):
        preds = [P("A", 0.9, 1.0, 0), P("B", 0.5, 2.0, 0), P("C", 0.1, 3.0, 0)]
        flipped = [P(p.patient_id, -p.risk, p.time_months, p.censored) for p in preds]
        assert c_index(preds) == 1.0
        assert c_index(flipped) == 0.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        preds = [P(f"p{i}", float(rng.normal()), float(rng.uniform(1, 50)),
                   int(rng.random() < 0.3)) for i in range(25)]
        mapped = [P(p.patient_id, float(np.exp(2 * p.risk) + 3), p.time_months, p.censored)
                  for p in preds]
        assert c_index(preds) == c_index(mapped)

    def test_matches_brute_force_on_random_cohorts(self):
        rng = np.random.default_rng(0)
        checked = 0
        for trial in range(200):
            n = int(rng.integers(2, 9))
            preds = [P(f"p{i}", float(rng.normal()), float(rng.integers(1, 6)),
                       int(rng.random() < 0.4)) for i in range(n)]
            expected = brute_c_index(preds)
            if expected is None:
                with pytest.raises(UndefinedStatisticError):
                    c_index(preds)
            else:
                assert c_index(preds) == expected
                checked += 1
        assert checked > 100

    def test_no_comparable_pairs(self):
        with pytest.raises(UndefinedStatisticError):
            c_index([P("A", 0.1, 5.0, 1), P("B", 0.2, 7.0, 1)])


class TestKMCurve:
    def test_all_censored_flat_one(self):
        km = km_curve([P("a", 0, 3.0, 1), P("b", 0, 5.0, 1)])
        assert km.event_times.size == 0
        assert km.evaluate(100.0) == 1.0

    def test_worked_example(self):
        km = km_curve([P("a", 0, 1.0, 0), P("b", 0, 2.0, 0), P("c", 0, 5.0, 1)])
        assert np.allclose(km.event_times, [1.0, 2.0])
        assert np.allclose(km.survival, [2 / 3, 1 / 3])
        assert km.at_risk.tolist() == [3, 2]

    def test_single_uncensored_drops_to_zero(self):
        km = km_curve([P("a", 0, 3.0, 0)])
        assert km.evaluate(3.0) == 0.0
        assert km.evaluate(2.9) == 1.0

    def test_equals_empirical_survivor_without_censoring(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            times = rng.integers(1, 20, size=int(rng.integers(3, 30))).astype(float)
            km = km_curve([P(f"p{i}", 0, t, 0) for i, t in enumerate(times)])
            for t in np.unique(times):
                assert np.isclose(km.evaluate(t), np.mean(times > t))

    def test_survival_non_increasing(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            preds = [P(f"p{i}", 0, float(rng.uniform(0, 30)), int(rng.random() < 0.5))
                     for i in range(int(rng.integers(2, 40)))]
            km = km_curve(preds)
            assert np.all(np.diff(km.survival) <= 1e-12)
            assert np.all(np.diff(km.at_risk) <= 0)


class TestLogrank:
    def test_identical_groups(self):
        g = [P(f"x{i}", 0, t, c) for i, (t, c) in enumerate([(1, 0), (2, 0), (3, 1), (4, 0)])]
        chi, p = logrank_test(g, list(g))
        assert chi == 0.0
        assert p == 1.0

    def test_separated_groups_significant(self):
        a = [P(f"a{i}", 0, 1.0, 0) for i in range(20)]
        b = [P(f"b{i}", 0, 100.0, 0) for i in range(20)]
        chi, p = logrank_test(a, b)
        assert p < 0.001

    def test_label_symmetry(self):
        rng = np.random.default_rng(6)
        a = [P(f"a{i}", 0, float(rng.uniform(1, 30)), int(rng.random() < 0.3))
             for i in range(15)]
        b = [P(f"b{i}", 0, float(rng.uniform(1, 50)), int(rng.random() < 0.3))
             for i in range(15)]
        chi_ab, p_ab = logrank_test(a, b)
        chi_ba, p_ba = logrank_test(b, a)
        assert np.isclose(chi_ab, chi_ba) and np.isclose(p_ab, p_ba)

    def test_statistic_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a = [P(f"a{i}", 0, float(rng.uniform(1, 30)), int(rng.random() < 0.4))
                 for i in range(int(rng.integers(2, 20)))]
            b = [P(f"b{i}", 0, float(rng.uniform(1, 30)), int(rng.random() < 0.4))
                 for i in range(int(rng.integers(2, 20)))]
            try:
                chi, p = logrank_test(a, b)
            except UndefinedStatisticError:
                continue
            assert chi >= 0.0
            assert 0.0 < p <= 1.0

    def test_p_value_is_gammaincc_to_1e_12(self):
        """The p-value is the chi-square(1) tail, gammaincc(0.5, chi / 2),
        from chi = 0 up to 1357, where it is about 5e-297."""
        rng = np.random.default_rng(8)
        chis = [0.0]
        g = [P(f"x{i}", 0, float(i + 1), i % 2) for i in range(6)]
        assert logrank_test(g, list(g)) == (0.0, 1.0)
        for n, shift in [(4, 0.0), (12, 1.0), (40, 3.0), (120, 6.0), (300, 10.0),
                         (400, 15.0), (500, 25.0), (600, 40.0), (700, 60.0)]:
            a = [P(f"a{i}", 0, float(rng.exponential(10.0)), int(rng.random() < 0.2))
                 for i in range(n)]
            b = [P(f"b{i}", 0, float(shift + rng.exponential(10.0)), int(rng.random() < 0.2))
                 for i in range(n)]
            chi, p = logrank_test(a, b)
            want = special.gammaincc(0.5, chi / 2.0)
            assert abs(p - want) <= 1e-12 * want, (chi, p, want)
            chis.append(chi)
        assert max(chis) > 1300.0

    def test_no_events(self):
        a = [P("a", 0, 1.0, 1)]
        b = [P("b", 0, 2.0, 1)]
        with pytest.raises(UndefinedStatisticError):
            logrank_test(a, b)


class TestRiskStratify:
    def test_even_split(self):
        low, high = risk_stratify([P("a", 1, 1, 0), P("b", 2, 1, 0),
                                   P("c", 3, 1, 0), P("d", 4, 1, 0)])
        assert [p.risk for p in low] == [1, 2]
        assert [p.risk for p in high] == [3, 4]

    def test_odd_split_tie_to_low(self):
        low, high = risk_stratify([P("a", 1, 1, 0), P("b", 2, 1, 0), P("c", 3, 1, 0)])
        assert [p.risk for p in low] == [1, 2]
        assert [p.risk for p in high] == [3]

    def test_all_equal_risks(self):
        preds = [P(f"p{i}", 1.0, 1, 0) for i in range(5)]
        low, high = risk_stratify(preds)
        assert len(low) == 5 and len(high) == 0
        with pytest.raises(UndefinedStatisticError):
            logrank_test(low, high)

    def test_too_few(self):
        with pytest.raises(ValidationError):
            risk_stratify([P("a", 1, 1, 0)])
