"""Bipartite matching and the set-prediction losses.

Matching uses an exact Hungarian solve of the class+mask cost matrix.
Losses are dense (no point sampling): weighted cross-entropy over K+1
classes with a down-weighted no-object class, plus sigmoid BCE and
smooth dice on the assigned masks. Auxiliary-query predictions skip
matching entirely and are scored against their assigned instances.

The pixels of a layer's mask logits are read once, into per-row
statistics (mask_stats): each row's mean BCE and probability mass inside
every GT mask, and its probability sum. The matching cost is built from
them, and so is the mask loss, which picks their [row, assigned GT]
entries. Each layer's loss is one node over all its query parts
(layer_loss).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Checked, setting
from .tensor import Tensor, fused_loss, sigmoid_softplus, sum_scalars
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


@dataclass
class MaskStats:
    """All that the matching cost and the mask loss read of some query
    rows' mask logits against a scene's GT masks."""
    bce: np.ndarray    # (rows, GT) each row's mean sigmoid BCE against each mask
    inter: np.ndarray  # (rows, GT) the sum of each row's probabilities inside each mask
    psum: np.ndarray   # (rows,) the sum of each row's probabilities
    area: np.ndarray   # (GT,) each mask's pixel count


def gt_pixels(scene) -> np.ndarray:
    """The scene's GT masks as (GT, pixels) float64 rows."""
    return scene.masks.reshape(scene.num_instances, -1).astype(np.float64)


def mask_stats(mask_logit_values: np.ndarray, gt: np.ndarray, parts) -> tuple:
    """(probs, softplus means, [MaskStats of each part]) of one layer's
    (n, h, w) mask logits against (GT, pixels) masks, where each part is
    a slice of the rows.

    One sigmoid_softplus pass covers every row; probs is its (n, pixels)
    sigmoid. Its softplus becomes at once each row's mean of
    max(x, 0) + log1p(exp(-|x|)) and is dropped: a row's mean BCE
    against a mask is that mean less the sum of its logits inside the
    mask over the pixel count. Each part's matrices are products of its
    own rows, so a part's statistics do not depend on the other parts',
    bit for bit.
    """
    n = mask_logit_values.shape[0]
    x = mask_logit_values.reshape(n, -1)
    npix = x.shape[1]
    if gt.shape[1] != npix:
        raise ValueError(f"prediction has {npix} pixels, GT has {gt.shape[1]}")
    probs, softplus = sigmoid_softplus(x)
    softplus += np.maximum(x, 0.0)
    means = softplus.mean(axis=1)
    area = gt.sum(axis=1)
    return probs, means, [MaskStats(means[s, None] - (x[s] @ gt.T) / npix, probs[s] @ gt.T,
                                    probs[s].sum(axis=1), area) for s in parts]


def cost_matrix(stats: MaskStats, class_logit_values: np.ndarray, categories,
                w: LossWeights) -> np.ndarray:
    """(queries x GT) matching cost: -class prob + BCE + dice, from the
    rows' statistics."""
    cls_term = -softmax_rows(class_logit_values)[:, categories]
    dice = 1.0 - (2.0 * stats.inter + DICE_EPS) / (stats.psum[:, None] + stats.area[None, :]
                                                   + DICE_EPS)
    return w.cls * cls_term + w.bce * stats.bce + w.dice * dice


def layer_loss(mask_logits: Tensor, class_logits: Tensor, layer_stats: tuple, gt: np.ndarray,
               categories, indices, w: LossWeights, consistency=None) -> Tensor:
    """One layer's loss, one fused_loss node over its query parts.

    layer_stats is mask_stats of the layer's mask logits over its parts,
    and indices holds each part's GT index per row (-1 = no object), the
    parts in row order. Each part gets a class term over all its rows,
    no-object where the index is -1, and a mask term over the rows with an
    index, whose statistics are the [row, index] entries of its own. A
    consistency target, (rows of the first part, pixels), adds a mask term
    over the first part's rows, whose statistics come from row-wise dot
    products.
    """
    probs, means, stats = layer_stats
    num_categories = class_logits.values.shape[1] - 1
    class_terms, mask_terms = [], []
    start = 0
    for st, index in zip(stats, indices):
        hit = index >= 0
        targets = np.where(hit, categories[index], num_categories)
        class_terms.append((slice(start, start + index.size), targets,
                            np.where(targets == num_categories, w.no_object, 1.0)))
        if hit.any():
            rows = np.flatnonzero(hit)
            cols = index[hit]
            at = slice(start, start + index.size) if hit.all() else start + rows
            mask_terms.append((at, gt[cols], st.bce[rows, cols], st.inter[rows, cols],
                               st.psum[rows], st.area[cols]))
        start += index.size
    if consistency is not None:
        k, npix = consistency.shape
        x = mask_logits.values.reshape(probs.shape)[:k]
        mask_terms.append((slice(0, k), consistency,
                           means[:k] - np.einsum("ij,ij->i", x, consistency) / npix,
                           np.einsum("ij,ij->i", probs[:k], consistency), stats[0].psum,
                           consistency.sum(axis=1)))
    return fused_loss(mask_logits, class_logits, probs, class_terms, mask_terms, w.cls, w.bce,
                      w.dice, DICE_EPS)


def layer_losses(outputs: LayerOutputs, scene, mp_part, mode: str, weights: LossWeights):
    """Total loss over layers 0..L for both query parts.

    Returns (total scalar Tensor, (L+1, n_match) intp matching vectors:
    each layer's GT index per matching query, -1 = unmatched). Modes:
    per-layer bipartite matching (default), a fixed matching computed at
    the last layer and reused everywhere, or default matching plus an
    adjacent-layer mask consistency term with the earlier layer detached.

    Both parts are scored by one rule against a GT index per row (the
    matching vector; the MP part's instance_index), layer_loss's. Each
    layer's mask_stats, one sigmoid_softplus pass over all its rows, are
    the one source of the matching cost and of every mask loss of that
    layer. The consistency target is binarize_masks of the earlier
    layer's logits. Each layer adds one node to the tape, and the total is
    one sum_scalars node over them.
    """
    if mode not in MODES:
        raise ValueError(f"unknown loss mode {mode!r} (choose from {MODES})")
    if mode != "per-layer-bipartite" and mp_part is not None:
        raise ValueError(f"mode {mode!r} is a baseline ablation; it cannot be "
                         f"combined with an auxiliary query part")
    n_match = outputs.n_match
    gt = gt_pixels(scene)
    parts = [slice(0, n_match)] + ([slice(n_match, None)] if mp_part is not None else [])
    stats = [mask_stats(ml.values, gt, parts) for ml in outputs.mask_logits]

    def match(i):
        return hungarian(cost_matrix(stats[i][2][0], outputs.class_logits[i].values[:n_match],
                                     scene.categories, weights))

    layers = range(len(outputs.mask_logits))
    vectors = ([match(-1)] * len(layers) if mode == "fixed-last-layer"
               else [match(i) for i in layers])
    terms = []
    for i, vec in enumerate(vectors):
        indices = [vec] + ([mp_part.instance_index] if mp_part is not None else [])
        consistency = None
        if mode == "consistency-aux" and i >= 1:
            prev = binarize_masks(outputs.mask_logits[i - 1].values[:n_match])
            consistency = prev.reshape(n_match, -1).astype(np.float64)
        terms.append(layer_loss(outputs.mask_logits[i], outputs.class_logits[i], stats[i], gt,
                                scene.categories, indices, weights, consistency))
    return sum_scalars(terms), np.stack(vectors)
