"""Tests of the benchmark's own reference computations on inputs small
enough to check by hand. Run with ``python3 -m pytest bench``."""

import math
import struct

import numpy as np
import pytest

import refimpl as ref
from spans import layer_metrics


def test_bucket_map_hand_values():
    s = ref.ModelShape(window_size=4, n_heads=1)
    # round(d) up to alpha=1.9; beyond, round(1.9 + ln(d/1.9)/ln(6) * 3.8) capped at 7
    got = ref.bucket_of_distance(np.array([0, 1, 2, 3, 5, 11.4, 100]), s)
    assert got.tolist() == [0, 1, 2, 3, 4, 6, 7]


def test_padded_positions_reflect_and_edge():
    assert ref.padded_positions(5, 4).tolist() == [1, 0, 1, 2, 3, 4, 3, 2]
    assert ref.padded_positions(4, 4).tolist() == [0, 1, 2, 3]
    assert ref.padded_positions(2, 4).tolist() == [0, 0, 1, 1]
    assert ref.padded_positions(1, 3).tolist() == [0, 0, 0]


def test_grid_of_scales_and_shifts():
    grid = ref.grid_of(np.array([[512, 256], [1024, 768]]))
    assert grid.tolist() == [[1, 1], [3, 3]]


def line(n):
    return np.array([[x, 1] for x in range(1, n + 1)])


def test_knn_windows_accepts_greedy_order():
    ref.check_knn_windows(np.array([0, 1, 2, 3]), line(4), 2)


def test_knn_windows_tie_breaks_by_gy_then_gx():
    # anchor (2, 2); (1, 2), (3, 2), (2, 1), (2, 3) are all at distance 1;
    # gy orders (2, 1) first, then gx orders (1, 2) before (3, 2)
    grid = np.array([[2, 2], [1, 2], [3, 2], [2, 1], [2, 3], [5, 5]])
    ref.check_knn_windows(np.array([0, 3, 1, 2, 4, 5]), grid, 3)
    with pytest.raises(ref.RearrangementMismatch):
        ref.check_knn_windows(np.array([0, 1, 3, 2, 4, 5]), grid, 3)


@pytest.mark.parametrize("rows, n, w, why", [
    ([0, 2, 1, 3], 4, 2, "misses a nearer"),
    ([1, 0, 2, 3], 4, 2, "earliest remaining"),
    ([0, 1, 3, 2], 4, 2, "earliest remaining"),
    ([0, 2, 1], 3, 3, "ascending key"),
    ([0, 1, 2, 2], 4, 2, "permutation"),
])
def test_knn_windows_rejects_wrong_orders(rows, n, w, why):
    with pytest.raises(ref.RearrangementMismatch, match=why):
        ref.check_knn_windows(np.array(rows), line(n), w)


def test_knn_windows_with_padding_copies():
    # 3 rows at w=2 pad to positions [0, 1, 2, 1]; the copy of row 1 at
    # position 3 goes with row 2, the last anchor
    ref.check_knn_windows(np.array([0, 1, 2, 1]), line(3), 2)
    with pytest.raises(ref.RearrangementMismatch):
        ref.check_knn_windows(np.array([0, 2, 1, 1]), line(3), 2)


def test_source_rows_of_maps_cells_back():
    src = np.array([[1, 1], [2, 1], [1, 2]])
    assert ref.source_rows_of(np.array([[1, 2], [1, 1], [1, 2]]), src).tolist() == [2, 0, 2]
    with pytest.raises(ref.RearrangementMismatch):
        ref.source_rows_of(np.array([[2, 2]]), src)


def test_raster_and_window_distance_on_a_square():
    square = np.array([[2, 2], [1, 1], [1, 2], [2, 1]])
    raster = ref.raster_grid(square, 2)
    assert raster.tolist() == [[1, 1], [2, 1], [1, 2], [2, 2]]
    assert ref.mean_window_manhattan(raster, 2) == 1.0
    assert ref.mean_window_manhattan(np.array([[1, 1], [2, 2], [1, 2], [2, 1]]), 2) == 2.0


def test_window_split_contract():
    ref.check_window_split(5, [np.array([0, 3, 4]), np.array([1, 2])], 2)
    ref.check_window_split(1, [np.array([0])], 2)
    for bad in ([np.array([0, 1, 2, 3]), np.array([4])],
                [np.array([0, 1, 2]), np.array([2, 3])],
                [np.array([3, 0, 4]), np.array([1, 2])]):
        with pytest.raises(ref.RearrangementMismatch):
            ref.check_window_split(5, bad, 2)


def test_c_index_pairs_hand_cases():
    times, events = [1.0, 2.0, 3.0], [1, 1, 0]
    assert ref.c_index_pairs(times, events, [3, 2, 1]) == 1.0
    assert ref.c_index_pairs(times, events, [1, 2, 3]) == 0.0
    assert ref.c_index_pairs(times, events, [1, 1, 0]) == 2 / 3   # the tie scores 0
    with pytest.raises(ValueError):
        ref.c_index_pairs([1.0, 2.0], [0, 0], [1, 2])


def test_c_index_range_of_rounded_risks():
    times, events = [1.0, 2.0, 3.0], [1, 1, 0]
    assert ref.c_index_range_rounded(times, events, [3, 2, 1], 5e-9) == (1.0, 1.0)
    lo, hi = ref.c_index_range_rounded(times, events, [1e-8, 0.0, -1.0], 5e-9)
    assert (lo, hi) == (2 / 3, 1.0)


def test_median_split_ties_go_low():
    low, high = ref.median_split([4, 1, 3, 2])
    assert low.tolist() == [1, 3] and high.tolist() == [0, 2]
    low, high = ref.median_split([1, 1, 1, 2])
    assert low.tolist() == [0, 1, 2] and high.tolist() == [3]


def test_ambiguous_splits():
    assert [(lo.tolist(), hi.tolist()) for lo, hi in ref.ambiguous_splits([1, 2, 3, 4], 5e-9)] \
        == [([0, 1], [2, 3])]
    # the two middle risks are equal after rounding: either may be the higher
    splits = {(tuple(lo), tuple(hi)) for lo, hi in ref.ambiguous_splits([1, 2, 2, 4], 5e-9)}
    assert ((0, 1), (2, 3)) in splits and ((0, 2), (1, 3)) in splits


def test_logrank_hand_case():
    # one event in each group, at t=1 (group a) and t=2 (group b):
    # O-E = 1 - 1/2, V = 1/4, so chi-square = 1 and p = P(chi2_1 > 1)
    chi, p = ref.logrank_scipy([1.0], [1], [2.0], [1])
    assert chi == pytest.approx(1.0, abs=1e-12)
    assert p == pytest.approx(math.erfc(math.sqrt(0.5)), abs=1e-12)


def test_kaplan_meier_hand_case():
    times, surv = ref.km_scipy([1.0, 2.0, 3.0], [1, 0, 1])
    assert times.tolist() == [1.0, 3.0]
    assert surv == pytest.approx([2 / 3, 0.0], abs=1e-15)


def test_stride_shuffle():
    assert ref.stride_shuffle(6, 3).tolist() == [0, 3, 1, 4, 2, 5]


def zero_model(d_in, d, n_int, hidden=2, heads=1):
    p = {"reduce.weight": np.zeros((d_in, d)), "reduce.bias": np.zeros(d),
         "local.bias_table": np.zeros((15, heads)),
         "pool.V": np.zeros((hidden, d)), "pool.U": np.zeros((1, hidden)),
         "head.weight": np.zeros((d, n_int)), "head.bias": np.zeros(n_int)}
    for prefix in ("local", "shuffle"):
        p.update({f"{prefix}.ln1_gamma": np.ones(d), f"{prefix}.ln1_beta": np.zeros(d),
                  f"{prefix}.ln2_gamma": np.ones(d), f"{prefix}.ln2_beta": np.zeros(d),
                  f"{prefix}.ffn_w1": np.zeros((d, 4 * d)), f"{prefix}.ffn_b1": np.zeros(4 * d),
                  f"{prefix}.ffn_w2": np.zeros((4 * d, d)), f"{prefix}.ffn_b2": np.zeros(d)})
        for m in ("wq", "wk", "wv", "wo"):
            p[f"{prefix}.{m}"] = np.zeros((d, d))
    return p


def test_forward_with_identity_blocks_pools_the_mean():
    # zero projections make both blocks the identity and the pool uniform
    p = zero_model(d_in=2, d=2, n_int=2)
    p["reduce.weight"] = np.eye(2)
    p["head.weight"] = np.array([[2.0, 0.0], [0.0, 0.0]])
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = ref.forward_ref([(feats, np.array([[1, 1], [2, 1]]))], p, ref.ModelShape(2, 1))
    h = 1 / (1 + math.exp(-1.0))             # logit 2 * mean(1, 0) = 1
    assert out["hazards"] == pytest.approx([h, 0.5], abs=1e-15)
    assert out["risk"] == pytest.approx(-((1 - h) + (1 - h) * 0.5), abs=1e-15)
    assert ref.nll_ref(out, 1, 0) == pytest.approx(-math.log(1 - h) - math.log(0.5))
    assert ref.nll_ref(out, 0, 1) == pytest.approx(-math.log(1 - h))


def test_attention_weights_follow_the_bias():
    # wq = wk = 0: scores are the bias alone; rows u0 = -u1 after layer norm
    p = zero_model(d_in=2, d=2, n_int=1)
    p["local.wv"] = p["local.wo"] = np.eye(2)
    x = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
    b = 0.7
    bias = np.array([[[[0.0, b], [b, 0.0]]]])
    out = ref._attention_block(x, p, "local", 1, bias)
    a_self = 1 / (1 + math.exp(b / math.sqrt(2)))   # softmax of (0, b) / sqrt(2)
    u0 = np.array([1.0, -1.0]) / math.sqrt(1 + 1e-5)
    assert out[0, 0] == pytest.approx(x[0, 0] + (2 * a_self - 1) * u0, abs=1e-12)


def test_directional_derivative_and_adamw():
    p = {"a": np.array([1.0, 2.0]), "b": np.array([5.0])}
    d = ref.directional_derivative(lambda q: float((q["a"] ** 2).sum() + q["b"][0]), p,
                                   {"a": np.array([0.0, 1.0])}, 1e-4)
    assert d == pytest.approx(4.0, abs=1e-8)
    after = ref.adamw_first_step(np.array([0.0, 0.0, 1.0]), np.array([1.0, -2.0, 0.0]),
                                 lr=0.1, wd=0.5)
    assert after == pytest.approx([-0.1, 0.1, 0.95], abs=1e-8)


def test_read_pbag_and_checkpoint(tmp_path):
    pbag = tmp_path / "a.pbag"
    pbag.write_bytes(b"PBAG" + struct.pack("<III", 1, 2, 1) + struct.pack("<4i", 0, 256, 512, 0)
                     + struct.pack("<2f", 1.5, -2.0))
    coords, feats = ref.read_pbag(pbag)
    assert coords.tolist() == [[0, 256], [512, 0]] and feats.tolist() == [[1.5], [-2.0]]
    text = b"fold=3\nwindow_size=49\n"
    ckpt = tmp_path / "f.ckpt"
    ckpt.write_bytes(b"HVTC" + struct.pack("<II", 1, len(text)) + text + struct.pack("<I", 1)
                     + struct.pack("<H", 1) + b"w" + struct.pack("<BII", 2, 1, 2)
                     + struct.pack("<2f", 0.25, 4.0))
    tensors, config = ref.read_checkpoint(ckpt)
    assert config == {"fold": "3", "window_size": "49"}
    assert tensors["w"].tolist() == [[0.25, 4.0]]


def test_layer_metrics_self_time_and_counts():
    spans = [
        {"name": "survmodel.loss_and_grads", "start": 0.0, "end": 10.0, "parent": -1, "attrs": {}},
        {"name": "survmodel.forward", "start": 1.0, "end": 4.0, "parent": 0, "attrs": {}},
        {"name": "rearrange.knn", "start": 11.0, "end": 12.0, "parent": -1,
         "attrs": {"wsi": "A", "rows": 5}},
        {"name": "rearrange.knn", "start": 12.0, "end": 14.0, "parent": -1,
         "attrs": {"wsi": "A", "rows": 5}},
    ]
    m = layer_metrics(spans, {"cli.startup_s": 0.5})
    assert m["survmodel.backward_s"]["value"] == 7.0
    assert m["survmodel.forward_s"]["value"] == 3.0
    assert m["rearrange.knn.calls"]["value"] == 2
    assert m["rearrange.knn_rows"]["value"] == 10
    assert m["rearrange.knn_calls_per_wsi"]["value"] == 2.0
    assert m["cli.startup_s"] == {"value": 0.5, "unit": "s"}
