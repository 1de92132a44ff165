"""Bipartite matching and the set-prediction losses.

Matching uses an exact Hungarian solve of the class+mask cost matrix.
Losses are dense (no point sampling): weighted cross-entropy over K+1
classes with a down-weighted no-object class, plus sigmoid BCE and
smooth dice on the assigned masks. Auxiliary-query predictions skip
matching entirely and are scored against their assigned instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Checked, setting
from .tensor import cross_entropy_rows, mask_loss_rows, sigmoid_softplus, sum_scalars
from .decoder import LayerOutputs, binarize_masks

DICE_EPS = 1.0

MODES = ("per-layer-bipartite", "fixed-last-layer", "consistency-aux")


class NonFiniteError(ValueError):
    """A non-finite number where the computation needs a finite one."""


@dataclass
class LossWeights(Checked):
    cls: float = setting(2.0, float, "[0, inf)")
    bce: float = setting(5.0, float, "[0, inf)")
    dice: float = setting(5.0, float, "[0, inf)")
    no_object: float = setting(0.1, float, "[0, inf)")


def _solve_rows_leq_cols(cost: np.ndarray) -> np.ndarray:
    """Potential-based Hungarian for n <= m; returns col -> row (-1 = unmatched).

    It runs on Python lists: at the matrices the model makes (at most a
    few dozen columns) a numpy call costs more than the loop it replaces.
    The float operations and their order, and the tie rule (the first
    column of least slack), are those of the numpy loop that
    tests/oracle.py keeps, so the vectors are identical. On a 2-core x86
    VM a 5x20 solve takes ~35-45 us (numpy loop: ~165 us); the two are
    level near 10x100, and at 60x300 this takes ~4.8 ms to the numpy
    loop's ~2.1-2.5 ms.
    """
    n, m = cost.shape
    INF = np.inf
    rows = cost.tolist()
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)    # p[j]: row assigned to column j (1-based, 0=none)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        used = [0]                   # columns on the alternating tree, in visit order
        free = list(range(1, m + 1))  # the others, ascending
        while True:
            i0 = p[j0]
            row = rows[i0 - 1]
            u_i0 = u[i0]
            delta = INF
            j1 = 0
            for j in free:
                cur = row[j - 1] - u_i0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in used:
                u[p[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
            free.remove(j0)
            used.append(j0)
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return np.array(p[1:], dtype=np.intp) - 1


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost one-to-one assignment of min(n, m) pairs, as the
    (n,) intp vector row -> column (-1 = unmatched)."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError(f"cost matrix must be 2-D and non-empty, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise NonFiniteError("cost matrix contains non-finite entries")
    n, m = cost.shape
    if n > m:
        return _solve_rows_leq_cols(cost.T)
    col_to_row = _solve_rows_leq_cols(cost)
    cols = np.flatnonzero(col_to_row >= 0)
    row_to_col = np.full(n, -1, dtype=np.intp)
    row_to_col[col_to_row[cols]] = cols
    return row_to_col


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax of each row of x: the class probabilities of class logits."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cost_matrix(mask_logit_values: np.ndarray, class_logit_values: np.ndarray,
                scene, w: LossWeights, acts: tuple) -> np.ndarray:
    """(queries x GT) matching cost: -class prob + BCE + dice, dense.

    `acts` is the pair (probs, softplus) that sigmoid_softplus makes of
    mask_logit_values; every caller has it already. A query's BCE against
    a GT mask is the pixel mean of its max(x, 0) + softplus, less the sum
    of its logits inside the mask over the pixel count.
    """
    n = mask_logit_values.shape[0]
    pred = mask_logit_values.reshape(n, -1)
    npix = pred.shape[1]
    gt = scene.masks.reshape(scene.num_instances, -1).astype(np.float64)
    if gt.shape[1] != npix:
        raise ValueError(f"prediction has {npix} pixels, GT has {gt.shape[1]}")
    probs, softplus = acts

    cls_term = -softmax_rows(class_logit_values)[:, scene.categories]

    sp = np.maximum(pred, 0.0)
    sp += softplus.reshape(n, -1)
    bce = sp.mean(axis=1)[:, None] - (pred @ gt.T) / npix

    p = probs.reshape(n, -1)
    inter = p @ gt.T
    dice = 1.0 - (2.0 * inter + DICE_EPS) / (p.sum(axis=1)[:, None]
                                             + gt.sum(axis=1)[None, :] + DICE_EPS)
    return w.cls * cls_term + w.bce * bce + w.dice * dice


def layer_losses(outputs: LayerOutputs, scene, mp_part, mode: str, weights: LossWeights):
    """Total loss over layers 0..L for both query parts.

    Returns (total scalar Tensor, (L+1, n_match) intp matching vectors:
    each layer's GT index per matching query, -1 = unmatched). Modes:
    per-layer bipartite matching (default), a fixed matching computed at
    the last layer and reused everywhere, or default matching plus an
    adjacent-layer mask consistency term with the earlier layer detached.

    Both parts are scored by one rule against a GT index per row (the
    matching vector; the MP part's instance_index): class loss over all
    rows, no-object where the index is -1, and mask loss over the rows
    with an index. Each layer's mask logits take one sigmoid_softplus
    pass over all their rows: the matching cost and every mask loss of
    that layer read their rows of its sigmoid and softplus, so each
    layer computes one exp over its logits. The consistency target is
    binarize_masks of the earlier layer's logits. Each (layer, part) adds
    one class-loss node and at most one mask-loss node to the tape, and
    the total is one sum_scalars node over those terms, in the order they
    are made.
    """
    if mode not in MODES:
        raise ValueError(f"unknown loss mode {mode!r} (choose from {MODES})")
    if mode != "per-layer-bipartite" and mp_part is not None:
        raise ValueError(f"mode {mode!r} is a baseline ablation; it cannot be "
                         f"combined with an auxiliary query part")
    n_match = outputs.n_match
    num_categories = outputs.class_logits[0].values.shape[1] - 1
    cats = scene.categories
    gt_flat = scene.masks.reshape(scene.num_instances, -1).astype(np.float64)
    match_rows = np.arange(n_match)
    acts = [sigmoid_softplus(ml.values) for ml in outputs.mask_logits]

    def match(i):
        return hungarian(cost_matrix(outputs.mask_logits[i].values[:n_match],
                                     outputs.class_logits[i].values[:n_match],
                                     scene, weights, [a[:n_match] for a in acts[i]]))

    layers = range(len(outputs.mask_logits))
    vectors = ([match(-1)] * len(layers) if mode == "fixed-last-layer"
               else [match(i) for i in layers])

    terms = []

    def score(i, rows, vec):
        hit = vec >= 0
        targets = np.where(hit, cats[vec], num_categories)
        row_weights = np.where(targets == num_categories, weights.no_object, 1.0)
        terms.append(cross_entropy_rows(outputs.class_logits[i], rows, targets, row_weights,
                                        weights.cls))
        if hit.any():
            terms.append(mask_loss_rows(outputs.mask_logits[i], *acts[i], rows[hit],
                                        gt_flat[vec[hit]], weights.bce, weights.dice, DICE_EPS))

    for i, vec in enumerate(vectors):
        score(i, match_rows, vec)
        if mp_part is not None:
            score(i, n_match + np.arange(mp_part.num_queries), mp_part.instance_index)
        if mode == "consistency-aux" and i >= 1:
            prev = binarize_masks(outputs.mask_logits[i - 1].values[:n_match])
            prev = prev.reshape(n_match, -1).astype(np.float64)
            terms.append(mask_loss_rows(outputs.mask_logits[i], *acts[i], match_rows, prev,
                                        weights.bce, weights.dice, DICE_EPS))
    return sum_scalars(terms), np.stack(vectors)
