import numpy as np
import pytest
from scipy import stats

from hvtsurv.errors import ConfigurationError
from hvtsurv.synthgen import SynthConfig, gen_cohort, gen_irregular_mask, largest_component


class TestIrregularMask:
    def test_no_holes_gives_full_rectangle(self):
        assert gen_irregular_mask(5, 3, 0.0, 0) == {(x, y) for x in range(5) for y in range(3)}

    def test_determinism(self):
        assert gen_irregular_mask(20, 20, 0.3, 11) == gen_irregular_mask(20, 20, 0.3, 11)

    def test_occupancy_bound(self):
        # Binomial(400, 0.7) concentrates far above 200; the diagonal
        # connectivity keeps the largest component at nearly every
        # occupied cell, so all draws land inside [200, 400].
        occ = [len(gen_irregular_mask(20, 20, 0.3, seed)) for seed in range(300)]
        assert all(200 <= o <= 400 for o in occ)

    def test_at_least_one_cell(self):
        for seed in range(50):
            assert len(gen_irregular_mask(3, 3, 0.8, seed)) >= 1

    def test_degenerate_density_errors(self):
        with pytest.raises(ConfigurationError):
            gen_irregular_mask(1, 1, 0.999, 0)

    def test_largest_component_matches_ndimage_label(self):
        from scipy import ndimage

        rng = np.random.default_rng(17)
        ties = 0
        for trial in range(300):
            h, w = rng.integers(1, 121 if trial % 5 == 0 else 25, size=2)
            occupied = rng.random((h, w)) >= rng.uniform(0.05, 0.7)
            if not occupied.any():
                continue
            labels, _ = ndimage.label(occupied, structure=np.ones((3, 3), dtype=int))
            counts = np.bincount(labels.ravel())
            counts[0] = 0
            ties += np.count_nonzero(counts == counts.max()) > 1
            assert np.array_equal(largest_component(occupied), labels == counts.argmax())
        assert ties > 0   # equal-sized largest components, broken by raster order

    def test_largest_component_ties_go_to_the_first_in_raster_order(self):
        occupied = np.array([[0, 0, 1, 1],
                             [1, 0, 0, 0],
                             [1, 0, 0, 1],
                             [0, 0, 0, 1]], dtype=bool)
        want = np.zeros_like(occupied)
        want[0, 2:] = True
        assert np.array_equal(largest_component(occupied), want)
        # a diagonal step joins cells; a spiral takes many label rounds
        spiral = np.zeros((9, 9), dtype=bool)
        spiral[0, :], spiral[:, 8], spiral[8, :], spiral[2:, 0] = True, True, True, True
        spiral[2, :7], spiral[2:7, 6], spiral[6, 2:7], spiral[4:7, 2] = True, True, True, True
        spiral[4, 4] = spiral[5, 3] = True
        got = largest_component(spiral)
        assert got[4, 4] and got[5, 3] and np.array_equal(got, spiral)

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            gen_irregular_mask(0, 5, 0.1, 0)
        with pytest.raises(ConfigurationError):
            gen_irregular_mask(5, 5, 1.0, 0)


class TestGenCohort:
    def test_determinism(self):
        cfg = SynthConfig(n_patients=6, seed=9, patches_per_wsi_range=(20, 30), feature_dim=4)
        a = gen_cohort(cfg)
        b = gen_cohort(cfg)
        for ra, rb in zip(a, b):
            assert ra.patient_id == rb.patient_id
            assert ra.follow_up == rb.follow_up
            assert len(ra.bags) == len(rb.bags)
            for ba, bb in zip(ra.bags, rb.bags):
                assert np.array_equal(ba.coords, bb.coords)
                assert np.array_equal(ba.features, bb.features)

    def test_zero_signal_fraction_independent_of_risk(self):
        cfg = SynthConfig(
            n_patients=300, signal_strength=0.0, seed=3,
            patches_per_wsi_range=(30, 60), feature_dim=8,
        )
        recs, truth = gen_cohort(cfg, return_truth=True)
        assert np.allclose(truth.signature_fraction, truth.signature_fraction[0])
        realized = np.array(
            [sum(len(s) for s in truth.signature_cells[i].values()) / sum(b.n_patches for b in r.bags)
             for i, r in enumerate(recs)]
        )
        rho = stats.spearmanr(truth.latent_risk, realized).statistic
        assert abs(rho) < 0.15

    def test_planted_signal_correlation(self):
        cfg = SynthConfig(
            n_patients=200, signal_strength=5.0, censor_rate=0.3, seed=0,
            patches_per_wsi_range=(20, 40), feature_dim=8,
        )
        _, truth = gen_cohort(cfg, return_truth=True)
        rho = stats.spearmanr(truth.latent_risk, truth.true_time_months).statistic
        assert rho < -0.6

    def test_planted_monotonicity(self):
        cfg = SynthConfig(
            n_patients=1200, signal_strength=5.0, seed=17,
            patches_per_wsi_range=(5, 10), feature_dim=4,
            wsis_per_patient_range=(1, 1),
        )
        _, truth = gen_cohort(cfg, return_truth=True)
        order = np.argsort(truth.latent_risk)
        decile_means = [truth.true_time_months[d].mean() for d in np.array_split(order, 10)]
        assert all(a >= b for a, b in zip(decile_means, decile_means[1:]))

    def test_bag_validity_and_grid_alignment(self):
        cfg = SynthConfig(n_patients=10, seed=4, patches_per_wsi_range=(40, 80), feature_dim=6)
        recs = gen_cohort(cfg)
        for rec in recs:
            lo, hi = cfg.wsis_per_patient_range
            assert lo <= len(rec.bags) <= hi
            for bag in rec.bags:
                assert 40 <= bag.n_patches <= 80
                assert np.all(bag.coords % 256 == 0)
                assert np.all(bag.coords >= 0)

    def test_censor_rate_respected(self):
        cfg = SynthConfig(
            n_patients=500, seed=8, censor_rate=0.4,
            patches_per_wsi_range=(5, 8), feature_dim=2,
        )
        recs = gen_cohort(cfg)
        rate = np.mean([r.follow_up.censored for r in recs])
        assert abs(rate - 0.4) < 0.07

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SynthConfig(n_patients=0)
        with pytest.raises(ConfigurationError):
            SynthConfig(n_patients=5, censor_rate=1.5)
        with pytest.raises(ConfigurationError):
            SynthConfig(n_patients=5, patches_per_wsi_range=(10, 5))
