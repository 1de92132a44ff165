import numpy as np
import pytest

from mpseg.decoder import LayerOutputs
from mpseg.metrics import (MetricsReport, _threshold_exists, ap_lite, extract_predictions,
                           miou_layerwise, refinement_bounds, sample_refinement_instance,
                           util_layerwise)
from mpseg.synth import Scene
from mpseg.tensor import Tensor
from oracle import scan_for_threshold


def outputs_from_bits(layer_bits, num_categories=2):
    """LayerOutputs whose binarized masks equal the given boolean arrays."""
    mask_logits = [np.where(b, 20.0, -20.0) for b in layer_bits]
    n = layer_bits[0].shape[0]
    class_logits = [Tensor(np.zeros((n, num_categories + 1)))
                    for _ in layer_bits]
    return LayerOutputs(mask_logits=mask_logits, class_logits=class_logits, n_match=n)


def test_miou_identity_layers():
    rng = np.random.default_rng(0)
    bits = rng.uniform(size=(3, 6, 6)) < 0.5
    out = outputs_from_bits([bits, bits, bits])
    assert np.array_equal(miou_layerwise(out), [1.0, 1.0])


def test_miou_swapped_disjoint_regions():
    a = np.zeros((2, 4, 4), dtype=bool)
    a[0, :2] = True
    a[1, 2:] = True
    b = a[::-1].copy()  # queries swap regions
    out = outputs_from_bits([a, b])
    assert np.array_equal(miou_layerwise(out), [0.0])


def test_miou_hand_mean():
    q0_l0 = np.zeros((4, 4), dtype=bool)
    q0_l0[0] = True
    q1_l0 = np.zeros((4, 4), dtype=bool)
    q1_l0[2, 0:2] = True
    q1_l1 = np.zeros((4, 4), dtype=bool)
    q1_l1[2, 1:3] = True  # IoU with q1_l0 = 1/3
    layer0 = np.stack([q0_l0, q1_l0])
    layer1 = np.stack([q0_l0, q1_l1])
    out = outputs_from_bits([layer0, layer1])
    assert abs(miou_layerwise(out)[0] - (1.0 + 1 / 3) / 2) < 1e-12


def test_miou_needs_two_layers():
    bits = np.zeros((1, 2, 2), dtype=bool)
    with pytest.raises(ValueError):
        miou_layerwise(outputs_from_bits([bits]))


def test_util_self_agreement():
    v = np.array([[0, 1, -1], [0, 1, -1]])
    assert np.array_equal(util_layerwise(v, 2), [1.0, 1.0])


def test_util_all_unmatched():
    v = np.array([[-1, -1], [0, 1]])
    assert util_layerwise(v, 2)[0] == 0.0


def test_util_hand_case():
    v = np.array([[0, 2, -1, 1], [0, 1, -1, 2]])
    assert abs(util_layerwise(v, 3)[0] - 1 / 3) < 1e-12


def square_mask(h, w, r, c, size):
    bits = np.zeros((h, w), dtype=bool)
    bits[r:r + size, c:c + size] = True
    return bits


def scene_of(index, instances):
    """A Scene of (category, mask) pairs."""
    return Scene(index=index, categories=[c for c, _ in instances],
                 masks=np.stack([m for _, m in instances]))


def predictions_of(triples, h=8, w=8):
    """extract_predictions' arrays of (category, score, mask) triples."""
    return (np.array([c for c, _, _ in triples], dtype=np.intp),
            np.array([s for _, s, _ in triples], dtype=np.float64),
            np.array([m for _, _, m in triples], dtype=bool).reshape(-1, h, w))


def test_ap_perfect_predictions():
    scenes = [scene_of(i, [(0, square_mask(8, 8, 0, 0, 3)),
                           (1, square_mask(8, 8, 4, 4, 3))])
              for i in range(3)]
    preds = [predictions_of([(0, 0.9, square_mask(8, 8, 0, 0, 3)),
                             (1, 0.8, square_mask(8, 8, 4, 4, 3))]) for _ in scenes]
    ap = ap_lite(preds, scenes)
    assert ap[0.5] == 1.0
    assert ap[0.75] == 1.0
    assert ap["mean"] == 1.0


def test_ap_zero_predictions():
    scenes = [scene_of(0, [(0, square_mask(8, 8, 0, 0, 3))])]
    ap = ap_lite([predictions_of([])], scenes)
    assert ap[0.5] == 0.0 and ap[0.75] == 0.0


def test_ap_two_gt_one_detection_hand_curve():
    scenes = [scene_of(0, [(0, square_mask(8, 8, 0, 0, 3)),
                           (0, square_mask(8, 8, 4, 4, 3))])]
    preds = [predictions_of([(0, 0.9, square_mask(8, 8, 0, 0, 3))])]
    ap = ap_lite(preds, scenes)
    # 101-point interpolation: precision 1 up to recall 0.5 -> 51 of 101 points
    assert abs(ap[0.5] - 51 / 101) < 1e-12


def test_ap_greedy_ties_take_the_first_gt_and_the_earlier_scene():
    top, bottom, middle = (np.zeros((4, 4), dtype=bool) for _ in range(3))
    top[:2], bottom[2:], middle[1:3] = True, True, True  # middle: IoU 1/3 with both
    scenes = [scene_of(0, [(0, top), (0, bottom)]), scene_of(1, [(1, bottom)])]
    preds = [predictions_of([(0, 0.9, middle), (0, 0.8, top), (1, 0.5, top)], 4, 4),
             predictions_of([(1, 0.5, bottom)], 4, 4)]
    ap = ap_lite(preds, scenes, thresholds=(0.3,))
    # category 0: middle takes top, the first of its equal IoUs, so the exact
    # top prediction misses: AP 51/101. Category 1: of the two 0.5 scores,
    # scene 0's miss ranks first: precision 0.5 at every recall
    assert abs(ap[0.3] - (51 / 101 + 0.5) / 2) < 1e-12


def test_extract_predictions_arrays():
    bits = np.zeros((2, 4, 4), dtype=bool)
    bits[1, 0] = True
    out = outputs_from_bits([bits, bits])
    out.class_logits[-1] = Tensor(np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]]))
    cats, scores, masks = extract_predictions(out)
    assert np.array_equal(cats, [1, 0]) and cats.dtype == np.intp
    e = np.exp([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]])
    np.testing.assert_allclose(scores, [e[0, 1] / e[0].sum(), e[1, 0] / e[1].sum()],
                               rtol=1e-12)
    assert masks.dtype == bool and np.array_equal(masks, bits)


def test_ap_monotone_in_threshold():
    rng = np.random.default_rng(1)
    scenes = []
    preds = []
    for i in range(5):
        gt = square_mask(8, 8, int(rng.integers(0, 4)), int(rng.integers(0, 4)), 4)
        scenes.append(scene_of(i, [(0, gt)]))
        jitter = square_mask(8, 8, int(rng.integers(0, 4)), int(rng.integers(0, 4)), 4)
        preds.append(predictions_of([(0, float(rng.uniform()), jitter)]))
    ap = ap_lite(preds, scenes, thresholds=(0.5, 0.75))
    assert ap[0.5] >= ap[0.75]


def test_refinement_orthonormal_case():
    feats = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 2)
    cats = np.array([0, 0, 0, 0, 1, 1])
    in_m0 = np.array([True, True, False, False, True, False])
    w = np.ones(6)
    b = refinement_bounds(feats, cats, in_m0, w)
    assert b.intra_min == 1.0 and b.intra_max == 1.0
    assert b.inter_min == 0.0 and b.inter_max == 0.0
    assert b.ratio_bound == 1.0
    assert b.condition_holds           # sum_beta/sum_alpha = 0.5 < 1
    assert b.threshold_exists
    assert b.separation == "full"
    lo, hi = b.threshold_interval
    assert lo == 1.0 and hi == 2.0     # t1*2+T1*1 = 1, T0*2+t0*1 = 2


def test_refinement_identical_categories_fail():
    feats = np.ones((6, 3))
    cats = np.array([0, 0, 0, 1, 1, 1])
    in_m0 = np.array([True, True, False, True, False, False])
    b = refinement_bounds(feats, cats, in_m0, np.ones(6))
    assert not b.condition_holds
    assert b.threshold_interval is None
    assert not b.threshold_exists
    assert b.separation == "partial"


def test_refinement_requires_both_categories():
    feats = np.ones((4, 2))
    cats = np.array([0, 0, 1, 1])
    in_m0 = np.array([True, True, False, False])
    with pytest.raises(ValueError):
        refinement_bounds(feats, cats, in_m0, np.ones(4))


def test_threshold_closed_form_matches_the_scan():
    """Integer scores in [0, 5), the C0 ones shifted by 3, 4 or 5: by 3
    the categories overlap and tie, by 4 the lowest C0 score ties with
    the highest C1 score or clears it, by 5 it always clears it."""
    rng = np.random.default_rng(31)
    outcomes = []
    for trial in range(300):
        n = int(rng.integers(2, 12))
        cats = rng.permutation(np.arange(n) % 2)
        scores = rng.integers(0, 5, size=n) + np.where(cats == 0, trial % 3 + 3, 0)
        scores = scores.astype(np.float64)
        got = _threshold_exists(scores, cats)
        assert got == scan_for_threshold(scores, cats), (trial, scores, cats)
        outcomes.append(got)
    assert 50 < sum(outcomes) < 250


def test_refinement_implication_monte_carlo():
    rng = np.random.default_rng(2)
    n_condition = 0
    for i in range(1000):
        b = sample_refinement_instance(rng, dim=8, sigma=float(rng.uniform(0, 0.5)),
                                       gaussian=(i % 2 == 0))
        if b.condition_holds and b.intra_min > b.inter_max:
            n_condition += 1
            assert b.threshold_exists, f"counterexample at instance {i}"
    assert n_condition > 50  # the antecedent is exercised, not vacuous


def test_report_text_stable_and_percentages():
    rep = MetricsReport(miou_l=np.array([0.5, 0.75]), util=np.array([0.1, 0.6, 1.0]),
                        ap={0.5: 0.8, 0.75: 0.5, "mean": 0.65},
                        losses=[2.5, 1.25], config_hash="abc", seed=3)
    t1 = rep.to_text()
    t2 = rep.to_text()
    assert t1 == t2
    assert "miou_l[1] = 50.000000" in t1
    assert "util[2] = 100.000000" in t1
    assert "ap_mean = 65.000000" in t1
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "layer,miou_l,util"
    assert len(csv.splitlines()) == 3
