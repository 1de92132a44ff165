from itertools import permutations

import numpy as np
import pytest

import oracle
from mpseg.decoder import ForwardSpec, LayerOutputs, binarize_masks, full_forward, init_params
from mpseg.losses import (DICE_EPS, LossWeights, _solve_rows_leq_cols, cost_matrix, gt_pixels,
                          hungarian, layer_losses, layer_stats, loss_over_layers, mask_stats)
from mpseg.metrics import compute_matching_vectors
from mpseg.mp import MPConfig, MPPart
from mpseg.synth import Scene, SynthConfig, generate_scene, synth_features
from mpseg.tensor import Tensor
from mpseg.trainer import mp_forward_spec
from oracle import (add, bce_with_logits, cross_entropy_rows, dense_cost, div, gather_cols,
                    log1p_exp_neg_abs, logsumexp_lastdim, mask_loss_rows, matmul, mean_all, mul,
                    reshape, sigmoid, sigmoid_where, solve_rows_leq_cols, sub, sum_all,
                    sum_lastdim, sum_scalars)


def brute_force_min_cost(cost: np.ndarray) -> float:
    n, m = cost.shape
    if n > m:
        return brute_force_min_cost(cost.T)
    return min(sum(cost[i, p[i]] for i in range(n))
               for p in permutations(range(m), n))


def matching_cost(cost: np.ndarray, vec: np.ndarray) -> float:
    """Total cost of a row -> column vector (-1 = unmatched), checked to be
    an intp one-to-one matching of min(n, m) pairs."""
    n, m = cost.shape
    assert vec.dtype == np.intp and vec.shape == (n,)
    assert ((vec >= -1) & (vec < m)).all()
    rows = np.flatnonzero(vec >= 0)
    assert len(rows) == min(n, m)
    assert len(set(vec[rows].tolist())) == len(rows)
    return float(cost[rows, vec[rows]].sum())


def test_hungarian_zero_diagonal():
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = hungarian(c)
    assert list(a) == [0, 1]
    assert matching_cost(c, a) == 0.0


def test_hungarian_two_permutations():
    c = np.array([[1.0, 2.0], [2.0, 1.0]])
    a = hungarian(c)
    assert list(a) == [0, 1]
    assert matching_cost(c, a) == 2.0


def test_hungarian_three_by_three():
    c = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    a = hungarian(c)
    assert matching_cost(c, a) == 5.0
    assert list(a) == [1, 0, 2]


def test_hungarian_nonfinite_error():
    with pytest.raises(ValueError):
        hungarian(np.array([[0.0, np.inf], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        hungarian(np.array([[0.0, np.nan], [1.0, 0.0]]))


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        cost = rng.uniform(-5, 5, size=(n, m))
        a = hungarian(cost)
        expected = brute_force_min_cost(cost)
        assert abs(matching_cost(cost, a) - expected) < 1e-9, (trial, n, m)


def solver_problems(count, rng):
    """Cost matrices of up to 12 x 30, in turn random, small integers (many
    ties) and one row repeated (every row tied)."""
    for trial in range(count):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 31))
        if trial % 3 == 0:
            yield rng.normal(size=(n, m))
        elif trial % 3 == 1:
            yield rng.integers(0, 4, size=(n, m)).astype(np.float64)
        else:
            yield np.tile(rng.uniform(-1, 1, size=m), (n, 1))


def test_the_list_solver_returns_the_oracle_numpy_loop_vectors():
    rng = np.random.default_rng(5)
    for cost in solver_problems(2700, rng):
        n, m = cost.shape
        if n <= m:
            col_to_row = solve_rows_leq_cols(cost)
            assert np.array_equal(_solve_rows_leq_cols(cost), col_to_row)
            expected = np.full(n, -1, dtype=np.intp)
            expected[col_to_row[col_to_row >= 0]] = np.flatnonzero(col_to_row >= 0)
        else:
            expected = solve_rows_leq_cols(cost.T)
        vec = hungarian(cost)
        assert vec.dtype == np.intp and np.array_equal(vec, expected), cost


def one_query_scene(h=4, w=4):
    bits = np.zeros((h, w), dtype=bool)
    bits[1:3, 1:3] = True
    return Scene(index=0, categories=[1], masks=bits[None])


def saturated_outputs(scene, n_queries=1, n_layers=2, num_categories=3):
    """Predictions that exactly hit the single GT at every layer."""
    cat, gt = scene.categories[0], scene.masks[0]
    mask_logits = []
    class_logits = []
    ml = np.where(gt, 20.0, -20.0)[None].repeat(n_queries, axis=0)
    cl = np.full((n_queries, num_categories + 1), -20.0)
    cl[:, cat] = 20.0
    for _ in range(n_layers + 1):
        mask_logits.append(ml.copy())
        class_logits.append(Tensor(cl.copy()))
    return LayerOutputs(mask_logits=mask_logits, class_logits=class_logits,
                        n_match=n_queries)


def cost(ml, cl, scene, w):
    """cost_matrix of (n, h, w) mask logits and class logits, from their
    mask_stats as one part."""
    _, _, stats = mask_stats(ml, gt_pixels(scene), [slice(None)])
    return cost_matrix(stats, cl, scene.categories, w)


def test_cost_matrix_perfect_prediction():
    scene = one_query_scene()
    out = saturated_outputs(scene)
    w = LossWeights()
    ml = out.mask_logits[0]
    cm = cost(ml, out.class_logits[0].values, scene, w)
    assert cm.shape == (1, 1)
    assert abs(cm[0, 0] - (-w.cls)) < 1e-3


def test_cost_matrix_uniform_closed_form():
    scene = one_query_scene()
    w = LossWeights()
    num_categories = 3
    ml = np.zeros((1, 4, 4))
    cl = np.zeros((1, num_categories + 1))
    cm = cost(ml, cl, scene, w)
    cls_term = -1.0 / (num_categories + 1)
    bce_term = np.log(2.0)
    area = scene.masks[0].sum()
    dice_term = 1.0 - (2 * 0.5 * area + 1.0) / (0.5 * 16 + area + 1.0)
    expected = w.cls * cls_term + w.bce * bce_term + w.dice * dice_term
    assert abs(cm[0, 0] - expected) < 1e-12


def test_cost_matrix_permutation_equivariant():
    rng = np.random.default_rng(1)
    bits1 = np.zeros((4, 4), dtype=bool)
    bits1[0, :2] = True
    bits2 = np.zeros((4, 4), dtype=bool)
    bits2[3, 2:] = True
    scene = Scene(index=0, categories=[0, 2], masks=np.stack([bits1, bits2]))
    swapped = Scene(index=0, categories=[2, 0], masks=np.stack([bits2, bits1]))
    ml = rng.uniform(-2, 2, size=(3, 4, 4))
    cl = rng.uniform(-2, 2, size=(3, 4))
    a = cost(ml, cl, scene, LossWeights())
    b = cost(ml, cl, swapped, LossWeights())
    assert np.array_equal(a, b[:, [1, 0]])


def scored(outputs, gt, categories, index, consistency, w):
    """loss_over_layers of the outputs' layers over their parts: the
    matching rows and any rows after them."""
    n, n_match = outputs.class_logits[0].values.shape[0], outputs.n_match
    parts = [slice(0, n_match)] + ([slice(n_match, n)] if n > n_match else [])
    probs, means, stats = layer_stats(outputs.mask_logits, gt, parts)
    return loss_over_layers(outputs, probs, means, stats, gt, categories, np.asarray(index),
                            consistency, w)


def bce_and_dice(logits: np.ndarray, gt: np.ndarray) -> tuple:
    """(BCE, dice): the loss of (1, H, W) logits matched to the one GT
    mask, with no class weight and the weights (bce, dice) (1, 0) and (0, 1)."""
    scene = Scene(index=0, categories=[0], masks=gt[None])
    outputs = LayerOutputs([logits[None]], [Tensor(np.zeros((1, 2)))], 1)
    return tuple(scored(outputs, gt_pixels(scene), scene.categories, [[0]], [None],
                        LossWeights(cls=0.0, bce=w_bce, dice=w_dice))
                 for w_bce, w_dice in ((1.0, 0.0), (0.0, 1.0)))


def test_mask_losses_saturated():
    scene = one_query_scene()
    gt = scene.masks[0]
    bce, dice = bce_and_dice(np.where(gt, 20.0, -20.0), gt)
    assert bce.values < 1e-6
    assert dice.values < 1e-2


def test_mask_losses_half_probability_hand_value():
    gt = np.array([[True, True], [False, False]])
    bce, dice = bce_and_dice(np.zeros((2, 2)), gt)
    assert abs(dice.values - 0.4) < 1e-12
    assert abs(bce.values - np.log(2.0)) < 1e-12


def test_mask_losses_all_negative_hand_value():
    gt = np.array([[True, True], [False, False]])
    _, dice = bce_and_dice(np.full((2, 2), -20.0), gt)
    assert abs(dice.values - 2.0 / 3.0) < 1e-6


def test_layer_losses_perfect_prediction():
    scene = one_query_scene()
    n_layers = 2
    out = saturated_outputs(scene, n_layers=n_layers)
    total, assigns = layer_losses(out, scene, mp_part=None,
                                  mode="per-layer-bipartite", weights=LossWeights())
    assert float(total.values) < 1e-3 * (n_layers + 1)
    assert assigns.tolist() == [[0]] * (n_layers + 1)


def test_layer_losses_fixed_matching_identical_assignments():
    rng = np.random.default_rng(2)
    scene = one_query_scene()
    mask_logits = [rng.uniform(-2, 2, size=(3, 4, 4)) for _ in range(4)]
    class_logits = [Tensor(rng.uniform(-2, 2, size=(3, 4))) for _ in range(4)]
    out = LayerOutputs(mask_logits=mask_logits, class_logits=class_logits, n_match=3)
    _, assigns = layer_losses(out, scene, mp_part=None, mode="fixed-last-layer",
                              weights=LossWeights())
    assert (assigns == assigns[-1]).all()


def test_layer_losses_consistency_aux_floor():
    scene = one_query_scene()
    n_layers = 3
    out = saturated_outputs(scene, n_layers=n_layers)
    base, _ = layer_losses(out, scene, None, "per-layer-bipartite", LossWeights())
    with_aux, _ = layer_losses(out, scene, None, "consistency-aux", LossWeights())
    aux = float(with_aux.values) - float(base.values)
    assert 0.0 <= aux < 0.02 * n_layers


def test_layer_losses_gt_permutation_invariant():
    rng = np.random.default_rng(3)
    bits1 = np.zeros((4, 4), dtype=bool)
    bits1[0:2, 0:2] = True
    bits2 = np.zeros((4, 4), dtype=bool)
    bits2[2:4, 2:4] = True
    scene = Scene(index=0, categories=[0, 1], masks=np.stack([bits1, bits2]))
    swapped = Scene(index=0, categories=[1, 0], masks=np.stack([bits2, bits1]))
    mask_logits = [rng.uniform(-2, 2, size=(3, 4, 4)) for _ in range(3)]
    class_logits = [Tensor(rng.uniform(-2, 2, size=(3, 3))) for _ in range(3)]
    out = LayerOutputs(mask_logits=mask_logits, class_logits=class_logits, n_match=3)
    a, _ = layer_losses(out, scene, None, "per-layer-bipartite", LossWeights())
    b, _ = layer_losses(out, swapped, None, "per-layer-bipartite", LossWeights())
    assert abs(float(a.values) - float(b.values)) < 1e-9


def embedded_outputs(embeds, class_values, n_match, grid, h, w) -> LayerOutputs:
    """LayerOutputs of fresh leaf Tensors of the given (n, d) mask
    embeddings and class logits, whose (n, h, w) mask logits are the
    embeddings times the (h * w, d) grid."""
    return LayerOutputs(mask_logits=[(e @ grid.T).reshape(-1, h, w) for e in embeds],
                        class_logits=[Tensor(v.copy(), requires_grad=True)
                                      for v in class_values],
                        n_match=n_match,
                        mask_embeds=[Tensor(e.copy(), requires_grad=True) for e in embeds],
                        grid=grid)


def test_layer_losses_finite_and_bounded_below():
    rng = np.random.default_rng(4)
    scene = one_query_scene()
    w = LossWeights()
    # an identity grid: the mask logits are the embeddings
    out = embedded_outputs([rng.uniform(-30, 30, size=(2, 16)) for _ in range(3)],
                           [rng.uniform(-30, 30, size=(2, 4)) for _ in range(3)], 2,
                           np.eye(16), 4, 4)
    total, _ = layer_losses(out, scene, None, "per-layer-bipartite", w)
    assert np.isfinite(total.values)
    assert float(total.values) >= -w.cls * 2
    total.backward()
    for t in out.mask_embeds + out.class_logits:
        assert t.grad is not None and np.isfinite(t.grad).all()


def test_mode_validation():
    scene = one_query_scene()
    out = saturated_outputs(scene)
    with pytest.raises(ValueError):
        layer_losses(out, scene, None, "bogus-mode", LossWeights())


# ----------------------------------------------------------------------
# the fused loss nodes against their compositions of primitives


def composed_class_loss(cls_rows, targets, num_categories, no_object):
    ce_each = sub(logsumexp_lastdim(cls_rows), gather_cols(cls_rows, targets))
    wts = np.where(targets == num_categories, no_object, 1.0)
    return div(sum_all(mul(ce_each, wts)), float(wts.sum()))


def composed_mask_loss(rows, targets, w):
    """w.bce * mean BCE + w.dice * mean dice of row-aligned predictions
    and targets."""
    bce = mean_all(bce_with_logits(rows, targets))
    p = sigmoid(rows)
    inter = sum_lastdim(mul(p, targets))
    dice_each = sub(1.0, div(add(mul(2.0, inter), DICE_EPS),
                             add(sum_lastdim(p), Tensor(targets.sum(axis=1) + DICE_EPS))))
    return add(mul(w.bce, bce), mul(w.dice, mean_all(dice_each)))


def composed_layer_losses(outputs, scene, mp_part, mode, w):
    """layer_losses written with one primitive per step."""
    n_match = outputs.n_match
    num_categories = outputs.class_logits[0].values.shape[1] - 1
    cats = scene.categories
    gt_flat = np.stack([m.reshape(-1).astype(np.float64) for m in scene.masks])
    match_rows = np.arange(n_match)
    fixed = None
    if mode == "fixed-last-layer":
        fixed = hungarian(dense_cost(outputs.mask_logits[-1].values[:n_match],
                                      outputs.class_logits[-1].values[:n_match], scene, w))
    terms = []
    vectors = []
    for i, (ml, cl) in enumerate(zip(outputs.mask_logits, outputs.class_logits)):
        flat = reshape(ml, ml.values.shape[0], -1)
        vec = fixed if fixed is not None else hungarian(
            dense_cost(ml.values[:n_match], cl.values[:n_match], scene, w))
        vectors.append(vec)
        rows = np.flatnonzero(vec >= 0)
        gt_idx = vec[rows]
        targets = np.full(n_match, num_categories, dtype=np.intp)
        targets[rows] = cats[gt_idx]
        terms.append(mul(w.cls, composed_class_loss(cl.take_rows(match_rows), targets,
                                                    num_categories, w.no_object)))
        if rows.size:
            terms.append(composed_mask_loss(flat.take_rows(rows), gt_flat[gt_idx], w))
        if mp_part is not None:
            mp_rows = n_match + np.arange(mp_part.num_queries)
            terms.append(mul(w.cls, composed_class_loss(
                cl.take_rows(mp_rows), cats[mp_part.instance_index], num_categories,
                w.no_object)))
            terms.append(composed_mask_loss(flat.take_rows(mp_rows),
                                            gt_flat[mp_part.instance_index], w))
        if mode == "consistency-aux" and i >= 1:
            prev = binarize_masks(outputs.mask_logits[i - 1].values[:n_match])
            terms.append(composed_mask_loss(flat.take_rows(match_rows),
                                            prev.reshape(n_match, -1).astype(np.float64), w))
    total = Tensor(0.0)
    for term in terms:
        total = add(total, term)
    return total, vectors


def two_instance_scene():
    bits1 = np.zeros((4, 4), dtype=bool)
    bits1[0:2, 0:3] = True
    bits2 = np.zeros((4, 4), dtype=bool)
    bits2[2:4, 1:4] = True
    return Scene(index=0, categories=[2, 0], masks=np.stack([bits1, bits2]))


def assert_grads_close(got, want):
    for g, r in zip(got, want):
        assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max()


@pytest.mark.parametrize("rows", [[0, 1, 2, 3], [5, 4, 6]], ids=["matching", "mp"])
def test_cross_entropy_node_matches_composition(rows):
    rng = np.random.default_rng(20)
    values = rng.uniform(-3, 3, size=(7, 4))
    targets = np.array([3, 1, 0, 3][:len(rows)])
    w = LossWeights()
    runs = []
    for fused in (True, False):
        cl = Tensor(values.copy(), requires_grad=True)
        if fused:
            wts = np.where(targets == 3, w.no_object, 1.0)
            out = cross_entropy_rows(cl, rows, targets, wts, w.cls)
        else:
            out = mul(w.cls, composed_class_loss(cl.take_rows(rows), targets, 3, w.no_object))
        out.backward(1.7)
        runs.append((out.values, cl.grad))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert not runs[0][1][[r for r in range(7) if r not in rows]].any()
    assert_grads_close([runs[0][1]], [runs[1][1]])


@pytest.mark.parametrize("rows", [[2, 0], [4, 5, 6, 3]], ids=["matching", "mp"])
def test_mask_node_matches_composition(rows):
    rng = np.random.default_rng(21)
    values = rng.uniform(-4, 4, size=(7, 4, 4))
    targets = (rng.uniform(size=(len(rows), 16)) < 0.4).astype(np.float64)
    w = LossWeights()
    runs = []
    for fused in (True, False):
        ml = Tensor(values.copy(), requires_grad=True)
        if fused:
            out = mask_loss_rows(ml, *oracle_acts(ml.values), rows, targets, w.bce,
                                 w.dice, DICE_EPS)
        else:
            out = composed_mask_loss(reshape(ml, 7, -1).take_rows(rows), targets, w)
        out.backward(0.6)
        runs.append((out.values, ml.grad))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert_grads_close([runs[0][1]], [runs[1][1]])


LOSS_MODES = pytest.mark.parametrize(
    "mode,with_mp", [("per-layer-bipartite", True), ("consistency-aux", False),
                     ("fixed-last-layer", False)],
    ids=["matching+mp", "consistency-aux", "fixed-last-layer"])


def random_layer_outputs(with_mp):
    """A maker of fresh LayerOutputs over 3 layers of fixed random (n, 3)
    mask embeddings and class logits that require grad, over an embedding
    grid of 4x4 pixels, and the MP part of 4 rows when with_mp."""
    rng = np.random.default_rng(22)
    n_match, n_mp, n_layers = 3, 4, 3
    n = n_match + (n_mp if with_mp else 0)
    embeds = [rng.uniform(-3, 3, size=(n, 3)) for _ in range(n_layers)]
    class_values = [rng.uniform(-3, 3, size=(n, 4)) for _ in range(n_layers)]
    grid = rng.uniform(-1, 1, size=(16, 3))
    mp_part = None
    if with_mp:
        instance_index = np.array([0, 1, 0, 1])
        mp_part = MPPart(group_id=np.array([0, 0, 1, 1]), instance_index=instance_index,
                         query_categories=np.array([2, 0, 1, 0]))
    return lambda: embedded_outputs(embeds, class_values, n_match, grid, 4, 4), mp_part


def logit_nodes(outputs) -> LayerOutputs:
    """The outputs with each layer's mask logits an oracle product node of
    its embeddings and the grid."""
    n, h, w = outputs.mask_logits[0].shape
    return LayerOutputs([reshape(matmul(e, Tensor(outputs.grid.T)), n, h, w)
                         for e in outputs.mask_embeds], outputs.class_logits, outputs.n_match)


@LOSS_MODES
def test_layer_losses_match_composition_of_primitives(mode, with_mp):
    make_outputs, mp_part = random_layer_outputs(with_mp)
    scene = two_instance_scene()
    runs = []
    for f in (layer_losses, composed_layer_losses):
        out = make_outputs()
        total, assigns = f(out if f is layer_losses else logit_nodes(out), scene, mp_part, mode,
                           LossWeights())
        total.backward()
        runs.append((float(total.values), np.stack(assigns),
                     [t.grad for t in out.mask_embeds + out.class_logits]))
    (loss, assigns, grads), (ref_loss, ref_assigns, ref_grads) = runs
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert np.array_equal(assigns, ref_assigns)
    assert_grads_close(grads, ref_grads)


@LOSS_MODES
def test_layer_losses_total_is_one_node_over_every_term(mode, with_mp):
    """The loss of every layer is one node over the layers' class logits
    and mask embeddings; the mask logits are arrays."""
    make_outputs, mp_part = random_layer_outputs(with_mp)
    outputs = make_outputs()
    total, _ = layer_losses(outputs, two_instance_scene(), mp_part, mode, LossWeights())
    assert total._parents == tuple(outputs.class_logits + outputs.mask_embeds)
    assert not any(t._parents for t in total._parents)
    assert all(isinstance(ml, np.ndarray) for ml in outputs.mask_logits)


def test_cost_matrix_with_given_probabilities_is_bitwise_equal():
    """The cost of mask_stats' statistics is the oracle's cost from the
    pixels, bitwise, for a whole layer and for each part of it."""
    rng = np.random.default_rng(23)
    ml = rng.uniform(-3, 3, size=(5, 4, 4))
    cl = rng.uniform(-3, 3, size=(5, 4))
    scene = two_instance_scene()
    w = LossWeights()
    assert cost(ml, cl, scene, w).tobytes() == dense_cost(ml, cl, scene, w).tobytes()
    parts = [slice(0, 2), slice(2, None)]
    _, _, stats = mask_stats(ml, gt_pixels(scene), parts)
    for rows in parts:
        given = cost_matrix(stats.rows(rows), cl[rows], scene.categories, w)
        assert given.tobytes() == dense_cost(ml[rows], cl[rows], scene, w).tobytes()


def oracle_acts(values):
    """The oracle's (sigmoid, log1p(exp(-|x|))) pair of mask logits."""
    return sigmoid_where(values), log1p_exp_neg_abs(values)


def oracle_layer_loss(ml, cl, gt, categories, indices, w, consistency=None):
    """layer_loss as one oracle node per term: a class-loss node per part,
    a mask-loss node per part with a hit row, and one for the consistency
    target, from the pixels; their sum_scalars."""
    num_categories = cl.values.shape[1] - 1
    acts = oracle_acts(ml.values)
    terms, start = [], 0
    for index in indices:
        rows = start + np.arange(index.size)
        hit = index >= 0
        targets = np.where(hit, categories[index], num_categories)
        terms.append(cross_entropy_rows(cl, rows, targets,
                                        np.where(hit, 1.0, w.no_object), w.cls))
        if hit.any():
            terms.append(mask_loss_rows(ml, *acts, rows[hit], gt[index[hit]], w.bce, w.dice,
                                        DICE_EPS))
        start += index.size
    if consistency is not None:
        terms.append(mask_loss_rows(ml, *acts, np.arange(len(consistency)), consistency,
                                    w.bce, w.dice, DICE_EPS))
    return sum_scalars(terms)


@pytest.mark.parametrize("indices,consistency,identity_grid", [
    ([[1, -1, 0]], False, False), ([[1, -1, 0], [0, 1, 1, 0]], False, False),
    ([[-1, -1, -1], [1, 0, 0, 1]], False, False), ([[0, -1, 1]], True, False),
    ([[-1, 1, 0], [1, 1, 0, 0]], True, False), ([[-1, 1, 0], [1, 1, 0, 0]], True, True)],
    ids=["matching", "matching+mp", "no-hit-part", "consistency", "mp+consistency",
         "mp+consistency+identity-grid"])
def test_layer_loss_node_matches_the_oracle_pair(indices, consistency, identity_grid):
    """The loss node at one layer against the oracle's class-loss and
    mask-loss nodes per term over the oracle's mask-logit node of the
    embeddings: values within 1e-14 relative, each gradient within 1e-13
    of its largest entry, and no embedding gradient on a row that no mask
    term reads. With an identity grid the embeddings are the mask logits,
    so the embedding gradient compared is the whole per-pixel gradient."""
    rng = np.random.default_rng(24)
    indices = [np.array(index) for index in indices]
    n = sum(index.size for index in indices)
    d = 16 if identity_grid else 3
    values = [rng.uniform(-2, 2, size=(n, d)), rng.uniform(-3, 3, size=(n, 4))]
    grid = np.eye(16) if identity_grid else rng.uniform(-1, 1, size=(16, 3))
    scene = two_instance_scene()
    gt = gt_pixels(scene)
    target = (rng.uniform(size=(3, 16)) < 0.4).astype(np.float64) if consistency else None
    runs = []
    for fused in (True, False):
        out = embedded_outputs(values[:1], values[1:], indices[0].size, grid, 4, 4)
        e, cl = out.mask_embeds[0], out.class_logits[0]
        if fused:
            total = scored(out, gt, scene.categories, [np.concatenate(indices)], [target],
                           LossWeights())
            assert total._parents == (cl, e)
        else:
            ml = oracle.mask_head(e, [slice(None)], grid.reshape(4, 4, d))
            total = oracle_layer_loss(ml, cl, gt, scene.categories, indices, LossWeights(),
                                      target)
        total.backward(1.3)
        runs.append((float(total.values), e.grad, cl.grad))
    (value, *grads), (ref_value, *ref_grads) = runs
    assert abs(value - ref_value) <= 1e-14 * abs(ref_value)
    for g, r in zip(grads, ref_grads):
        assert np.abs(g - r).max() <= 1e-13 * np.abs(r).max()
    unread = np.concatenate(indices) < 0  # the rows of no mask term
    if target is not None:
        unread[:3] = False
    assert not grads[0][unread].any()


def test_tracked_embeddings_without_a_grid_raise():
    """A LayerOutputs whose embeddings track gradients but hold no grid
    cannot pass the mask gradient on, so the loss raises rather than
    count the mask terms without it."""
    make_outputs, _ = random_layer_outputs(False)
    outputs = make_outputs()
    outputs.grid = None
    with pytest.raises(ValueError, match="grid"):
        layer_losses(outputs, two_instance_scene(), None, "per-layer-bipartite", LossWeights())


def small_forward(with_mp: bool):
    """(outputs, scene, MP part or None) of a small decoder on one
    synthetic scene."""
    cfg = SynthConfig(height=8, width=8, feat_dim=8, instance_range=(2, 3),
                      size_range=(2, 3), seed=9)
    scene = generate_scene(cfg, 0)
    params = init_params(seed=10, n_queries=4, n_layers=3, dim=8, ffn_hidden=8)
    features = synth_features(scene, cfg)
    if not with_mp:
        return full_forward(ForwardSpec(features), params), scene, None
    spec, part = mp_forward_spec(features, scene, params, MPConfig(n_q=6),
                                 range(1, params.num_layers + 1), [11])
    assert part is not None
    return full_forward(spec, params), scene, part


@pytest.mark.parametrize("mode,with_mp", [("per-layer-bipartite", False),
                                          ("per-layer-bipartite", True),
                                          ("consistency-aux", False),
                                          ("fixed-last-layer", False)],
                         ids=["plain", "mp", "consistency-aux", "fixed-last-layer"])
def test_layer_losses_vectors_are_the_matching_vectors(mode, with_mp):
    """layer_losses' vectors are compute_matching_vectors' on the same
    outputs; fixed-last-layer repeats the last layer's in every row."""
    outputs, scene, part = small_forward(with_mp)
    _, vectors = layer_losses(outputs, scene, part, mode, LossWeights())
    expected = compute_matching_vectors(outputs, scene, LossWeights())
    if mode == "fixed-last-layer":
        expected = np.repeat(expected[-1:], len(expected), axis=0)
    assert vectors.dtype == np.intp
    assert vectors.shape == (len(outputs.mask_logits), outputs.n_match)
    assert np.array_equal(vectors, expected)


@pytest.mark.parametrize("mode,with_mp", [("per-layer-bipartite", False),
                                          ("per-layer-bipartite", True),
                                          ("consistency-aux", False),
                                          ("fixed-last-layer", False)],
                         ids=["plain", "mp", "consistency-aux", "fixed-last-layer"])
def test_the_one_loss_node_matches_the_per_layer_oracle(mode, with_mp):
    """layer_losses, one node over every layer, against the oracle's
    mask-logit node per layer, a fused_loss node per layer and their
    sum_scalars, on a 3-layer forward's predictions: the loss within
    1e-15 relative, the vectors equal, and each embedding and class
    gradient within 1e-13 of its array's largest entry."""
    outputs, scene, part = small_forward(with_mp)
    n, h, w = outputs.mask_logits[0].shape
    assert len(outputs.mask_logits) == 4 and outputs.grid is not None
    spans = [slice(0, outputs.n_match)] + ([slice(outputs.n_match, n)] if with_mp else [])
    runs = []
    for one_node in (True, False):
        out = LayerOutputs(outputs.mask_logits,
                           [Tensor(c.values, requires_grad=True) for c in outputs.class_logits],
                           outputs.n_match,
                           [Tensor(e.values, requires_grad=True) for e in outputs.mask_embeds],
                           outputs.grid)
        if one_node:
            total, vectors = layer_losses(out, scene, part, mode, LossWeights())
        else:
            logits = [oracle.mask_head(e, spans, outputs.grid.reshape(h, w, -1))
                      for e in out.mask_embeds]
            assert all(a.values.tobytes() == b.tobytes()
                       for a, b in zip(logits, outputs.mask_logits))
            total, vectors = oracle.layer_losses(
                LayerOutputs(logits, out.class_logits, out.n_match), scene, part, mode,
                LossWeights())
        total.backward()
        runs.append((float(total.values), vectors,
                     [t.grad for t in out.mask_embeds + out.class_logits]))
    (loss, vectors, grads), (ref_loss, ref_vectors, ref_grads) = runs
    assert abs(loss - ref_loss) <= 1e-15 * abs(ref_loss)
    assert np.array_equal(vectors, ref_vectors)
    for g, r in zip(grads, ref_grads):
        assert np.abs(g - r).max() <= 1e-13 * np.abs(r).max()
