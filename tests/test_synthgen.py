import hashlib

import numpy as np
import pytest
from scipy import stats

from hvtsurv.errors import ConfigurationError
from hvtsurv.seeding import derive_seed
from hvtsurv.synthgen import (
    SynthConfig,
    _bfs_blob,
    _irregular_grid,
    _mask_for_target,
    gen_cohort,
    gen_irregular_mask,
    gen_patients,
    largest_component,
)


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

    @pytest.mark.parametrize("with_truth", [False, True])
    def test_patients_one_at_a_time_are_the_cohorts(self, with_truth):
        cfg = SynthConfig(n_patients=5, seed=2, patches_per_wsi_range=(20, 40), feature_dim=3,
                          wsis_per_patient_range=(1, 3))
        if with_truth:
            records, truth = gen_cohort(cfg, return_truth=True)
            pairs = list(gen_patients(cfg, return_truth=True))
            assert [t.latent_risk for _, t in pairs] == truth.latent_risk.tolist()
            assert [t.true_time_months for _, t in pairs] == truth.true_time_months.tolist()
            assert [t.signature_fraction for _, t in pairs] == truth.signature_fraction.tolist()
            assert [t.signature_cells for _, t in pairs] == truth.signature_cells
            streamed = [rec for rec, _ in pairs]
        else:
            records, streamed = gen_cohort(cfg), list(gen_patients(cfg))
        assert len(streamed) == len(records) == 5
        for got, want in zip(streamed, records):
            assert (got.patient_id, got.follow_up) == (want.patient_id, want.follow_up)
            assert [b.wsi_id for b in got.bags] == [b.wsi_id for b in want.bags]
            for a, b in zip(got.bags, want.bags):
                assert a.coords.tobytes() == b.coords.tobytes()
                assert a.features.tobytes() == b.features.tobytes()

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
        with pytest.raises(ConfigurationError, match="hole_density"):
            SynthConfig(n_patients=5, hole_density=1.0)


def grid_from_rows(*rows):
    """[x, y] grid from text rows, one per y: '#' occupied, '.' a hole."""
    return np.array([[c == "#" for c in row] for row in rows]).T


def reference_blob(mask, start, size):
    """The contract, spelled out: BFS distances over the 8-neighbours in
    the mask, then every cell closer than layer L plus the first cells of
    layer L in sorted (x, y) order, L being the first layer to reach size."""
    cells = {(int(x), int(y)) for x, y in zip(*np.nonzero(mask))}
    dist, layer, d = {start: 0}, [start], 0
    while layer:
        d += 1
        nxt = {(x + dx, y + dy) for x, y in layer for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
        layer = sorted(c for c in nxt if c in cells and c not in dist)
        dist.update((c, d) for c in layer)
    ordered = sorted(dist, key=lambda c: (dist[c], c))[:size]
    want = np.zeros_like(mask)
    for x, y in ordered:
        want[x, y] = True
    return want


class TestBfsBlob:
    # y rows of an [x, y] grid; the hole column at x=1 and x=3 forces a detour,
    # so BFS distance from (0, 0) is not the Chebyshev distance.
    DETOUR = grid_from_rows("#.###",
                            "#.#.#",
                            "###.#",
                            "....#")

    def test_layers_then_x_major_within_the_last_layer(self):
        mask = self.DETOUR
        # layers: 0 {(0,0)}, 1 {(0,1)}, 2 {(0,2),(1,2)}, 3 {(2,1),(2,2)},
        # 4 {(2,0),(3,0)}, 5 {(4,0),(4,1)}, 6 {(4,2)}, 7 {(4,3)}
        want = {5: {(0, 0), (0, 1), (0, 2), (1, 2), (2, 1)},
                7: {(0, 0), (0, 1), (0, 2), (1, 2), (2, 1), (2, 2), (2, 0)},
                9: {(0, 0), (0, 1), (0, 2), (1, 2), (2, 1), (2, 2), (2, 0), (3, 0), (4, 0)}}
        for size, cells in want.items():
            got = _bfs_blob(mask, (0, 0), size)
            assert {(int(x), int(y)) for x, y in zip(*np.nonzero(got))} == cells

    def test_ties_in_a_layer_go_x_major(self):
        full = np.ones((3, 3), dtype=bool)
        got = _bfs_blob(full, (1, 1), 5)
        # x-major: (0,0), (0,1), (0,2), (1,0); a y-major order would take (2,0)
        assert {(int(x), int(y)) for x, y in zip(*np.nonzero(got))} == {
            (1, 1), (0, 0), (0, 1), (0, 2), (1, 0)}

    def test_size_one_is_the_start_cell(self):
        got = _bfs_blob(self.DETOUR, (4, 3), 1)
        assert np.count_nonzero(got) == 1 and got[4, 3]

    def test_small_component_is_returned_whole(self):
        mask = grid_from_rows("##..#",
                              "#...#",
                              "....#",
                              "#####")
        got = _bfs_blob(mask, (0, 1), 20)
        want = np.zeros_like(mask)
        want[0, 0] = want[1, 0] = want[0, 1] = True
        assert np.array_equal(got, want)
        assert np.array_equal(_bfs_blob(mask, (4, 0), 20), mask & ~want)

    def test_matches_the_reference_on_grids_with_holes(self):
        rng = np.random.default_rng(23)
        for trial in range(150):
            w, h = rng.integers(1, 30, size=2)
            mask = rng.random((w, h)) >= rng.uniform(0.0, 0.6)
            if not mask.any():
                continue
            xs, ys = np.nonzero(mask)
            k = int(rng.integers(len(xs)))
            start = (int(xs[k]), int(ys[k]))
            size = int(rng.integers(1, mask.sum() + 3))
            assert np.array_equal(_bfs_blob(mask, start, size),
                                  reference_blob(mask, start, size)), trial

    def test_mask_for_target_falls_back_to_the_last_draw(self):
        # At 90% holes no draw's largest component gets near the target, so
        # after three growing draws the last one is returned untrimmed.
        cfg = SynthConfig(n_patients=1, hole_density=0.9)
        target, seed = 60, 5
        area, s, draws = target / (1 - 0.9), seed, []
        for _ in range(3):
            width = max(1, round(np.sqrt(area)))
            draws.append(_irregular_grid(width, max(1, int(np.ceil(area / width))), 0.9, s))
            area *= 1.3
            s = derive_seed(s, "mask-regrow")
        assert all(np.count_nonzero(d) < target for d in draws)
        assert np.array_equal(_mask_for_target(cfg, target, seed), draws[-1])


def cohort_digest(records, truth=None):
    h = hashlib.sha256()
    for i, rec in enumerate(records):
        h.update(rec.patient_id.encode())
        h.update(np.array([rec.follow_up.time_months, rec.follow_up.censored],
                          dtype=np.float64).tobytes())
        for bag in rec.bags:
            h.update(bag.wsi_id.encode())
            h.update(np.ascontiguousarray(bag.coords, dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(bag.features, dtype=np.float64).tobytes())
            if truth is not None:
                cells = sorted(truth.signature_cells[i][bag.wsi_id])
                h.update(np.array(cells, dtype=np.int64).tobytes())
    return h.hexdigest()


# sha256 of coords, features, follow-ups and sorted signature cells, taken
# with the set-and-tuple generator that the boolean-grid one replaced; the
# grid form must reproduce every cohort byte for byte.
PINNED_COHORTS = [
    ("cohort-train", dict(n_patients=200, wsis_per_patient_range=(1, 2),
                          patches_per_wsi_range=(100, 200), feature_dim=64,
                          signal_strength=5.0, censor_rate=0.3, seed=1), True,
     "ceae921dd335adbc68e52ffecb20814c8b851805084ecf4b641b4a38cad9b40f"),
    ("paper-slide", dict(n_patients=1, wsis_per_patient_range=(1, 1),
                         patches_per_wsi_range=(8000, 8000), feature_dim=1024, seed=1), True,
     "c7cf09a4d5ede10b7425cb57e1e6e1396577727816f67ff1bd8677d362f11075"),
    ("criterion-5", dict(n_patients=200, signal_strength=5.0, censor_rate=0.3,
                         feature_dim=64, patches_per_wsi_range=(100, 200),
                         wsis_per_patient_range=(1, 2), seed=0), True,
     "3ab71380e28f83eed6562daaae7e7f65113222e6eda16253ddbbad9a8f07fb8b"),
    ("cli-shaped", dict(n_patients=3, wsis_per_patient_range=(1, 1),
                        patches_per_wsi_range=(1500, 1700), feature_dim=8, seed=5), False,
     "d11135440e00710e16ed07f4a6efe23d3a3d9ef6d293a046cda25a1a88d26114"),
    ("cli-shaped", dict(n_patients=3, wsis_per_patient_range=(1, 1),
                        patches_per_wsi_range=(1500, 1700), feature_dim=8, seed=5), True,
     "7084fbb41d7907cbb1a1e36108a08233b4a0cb1c9bd9f7248c9b2c52b5c458bd"),
]


@pytest.mark.parametrize("name, kwargs, with_truth, digest", PINNED_COHORTS,
                         ids=[f"{c[0]}-{'truth' if c[2] else 'records'}" for c in PINNED_COHORTS])
def test_cohort_bytes_are_pinned(name, kwargs, with_truth, digest):
    cfg = SynthConfig(**kwargs)
    if with_truth:
        assert cohort_digest(*gen_cohort(cfg, return_truth=True)) == digest
    else:
        assert cohort_digest(gen_cohort(cfg)) == digest
