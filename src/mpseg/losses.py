"""Bipartite matching and the set-prediction losses.

Matching uses an exact Hungarian solve of the class+mask cost matrix.
Losses are dense (no point sampling): weighted cross-entropy over K+1
classes with a down-weighted no-object class, plus sigmoid BCE and
smooth dice on the matched masks. Auxiliary-query predictions skip
matching entirely and are scored against their assigned instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, cross_entropy_rows, mask_loss_rows, _sigmoid
from .decoder import LayerOutputs, binarize_masks

DICE_EPS = 1.0

MODES = ("per-layer-bipartite", "fixed-last-layer", "consistency-aux")


@dataclass
class LossWeights:
    cls: float = 2.0
    bce: float = 5.0
    dice: float = 5.0
    no_object: float = 0.1


@dataclass
class Assignment:
    query_to_gt: np.ndarray  # per query: GT index or -1
    total_cost: float

    def matched(self):
        rows = np.flatnonzero(self.query_to_gt >= 0)
        return rows, self.query_to_gt[rows]


def _solve_rows_leq_cols(cost: np.ndarray):
    """Potential-based Hungarian for n <= m; returns row -> col (all rows matched)."""
    n, m = cost.shape
    INF = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=np.intp)   # p[j]: row matched to column j (1-based, 0=none)
    way = np.zeros(m + 1, dtype=np.intp)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, INF)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            cur = cost[i0 - 1] - u[i0] - v[1:]
            better = ~used[1:] & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            free = ~used[1:]
            if free.any():
                idx = np.argmin(np.where(free, minv[1:], INF))
                delta = minv[idx + 1]
                j1 = idx + 1
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_to_col = np.full(n, -1, dtype=np.intp)
    for j in range(1, m + 1):
        if p[j]:
            row_to_col[p[j] - 1] = j - 1
    return row_to_col


def hungarian(cost: np.ndarray) -> Assignment:
    """Exact minimum-cost one-to-one assignment of min(n, m) pairs."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise ValueError(f"cost matrix must be 2-D and non-empty, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")
    n, m = cost.shape
    if n <= m:
        row_to_col = _solve_rows_leq_cols(cost)
    else:
        col_to_row = _solve_rows_leq_cols(cost.T)
        row_to_col = np.full(n, -1, dtype=np.intp)
        for col, row in enumerate(col_to_row):
            row_to_col[row] = col
    matched = row_to_col >= 0
    total = float(cost[np.flatnonzero(matched), row_to_col[matched]].sum())
    return Assignment(query_to_gt=row_to_col, total_cost=total)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cost_matrix(mask_logit_values: np.ndarray, class_logit_values: np.ndarray,
                scene, w: LossWeights, probs: np.ndarray = None) -> np.ndarray:
    """(queries x GT) matching cost: -class prob + BCE + dice, dense.

    `probs` is sigmoid(mask_logit_values) when the caller has it already.
    """
    n = mask_logit_values.shape[0]
    pred = mask_logit_values.reshape(n, -1)
    npix = pred.shape[1]
    gt = np.stack([inst.bits.reshape(-1).astype(np.float64)
                   for _, inst in scene.instances])
    if gt.shape[1] != npix:
        raise ValueError(f"prediction has {npix} pixels, GT has {gt.shape[1]}")
    cats = np.array([c for c, _ in scene.instances], dtype=np.intp)

    cls_term = -_softmax_rows(class_logit_values)[:, cats]

    softplus_mean = (np.maximum(pred, 0.0) + np.log1p(np.exp(-np.abs(pred)))).mean(axis=1)
    bce = softplus_mean[:, None] - (pred @ gt.T) / npix

    p = _sigmoid(pred) if probs is None else probs.reshape(n, -1)
    inter = p @ gt.T
    dice = 1.0 - (2.0 * inter + DICE_EPS) / (p.sum(axis=1)[:, None]
                                             + gt.sum(axis=1)[None, :] + DICE_EPS)
    return w.cls * cls_term + w.bce * bce + w.dice * dice


def _mask_loss(logits: Tensor, probs: np.ndarray, rows, targets: np.ndarray,
               w: LossWeights) -> Tensor:
    """w.bce * mean BCE + w.dice * mean dice of logits[rows] against the
    row-aligned (M, pixels) targets; one tape node."""
    return mask_loss_rows(logits, probs, rows, targets, w.bce, w.dice, DICE_EPS)


def _class_loss(logits: Tensor, rows, targets: np.ndarray, w: LossWeights) -> Tensor:
    """w.cls * cross-entropy of logits[rows] with the no-object class
    (the last one) down-weighted; one tape node."""
    num_categories = logits.values.shape[1] - 1
    row_weights = np.where(targets == num_categories, w.no_object, 1.0)
    return cross_entropy_rows(logits, rows, targets, row_weights, w.cls)


def mask_losses(pred_logits: Tensor, gt) -> tuple:
    """(bce, dice) scalars for one prediction against one binary mask."""
    logits = pred_logits.reshape(1, -1)
    probs = _sigmoid(logits.values)
    t = gt.bits.reshape(1, -1).astype(np.float64)
    return (mask_loss_rows(logits, probs, [0], t, 1.0, 0.0, DICE_EPS),
            mask_loss_rows(logits, probs, [0], t, 0.0, 1.0, DICE_EPS))


def layer_losses(outputs: LayerOutputs, scene, mp_part, mode: str, weights: LossWeights):
    """Total loss over layers 0..L for both query parts.

    Returns (total scalar Tensor, per-layer Assignment list for the
    matching part). Modes: per-layer bipartite matching (default), a
    fixed matching computed at the last layer and reused everywhere, or
    default matching plus an adjacent-layer mask consistency term with
    the earlier layer detached.

    Each layer's mask-logit sigmoid is computed once and shared by the
    dice terms of the matching cost and of every mask loss of that layer;
    the consistency target is binarize_masks of the earlier layer's
    logits. Each (layer, part) adds one class-loss node and at most one
    mask-loss node to the tape.
    """
    if mode not in MODES:
        raise ValueError(f"unknown loss mode {mode!r} (choose from {MODES})")
    if mode != "per-layer-bipartite" and mp_part is not None:
        raise ValueError(f"mode {mode!r} is a baseline ablation; it cannot be "
                         f"combined with an auxiliary query part")
    n_match = outputs.n_match
    num_categories = outputs.class_logits[0].values.shape[1] - 1
    cats = np.array([c for c, _ in scene.instances], dtype=np.intp)
    gt_flat = np.stack([inst.bits.reshape(-1).astype(np.float64)
                        for _, inst in scene.instances])
    match_rows = np.arange(n_match)
    probs = [_sigmoid(ml.values) for ml in outputs.mask_logits]

    fixed = None
    if mode == "fixed-last-layer":
        fixed = hungarian(cost_matrix(outputs.mask_logits[-1].values[:n_match],
                                      outputs.class_logits[-1].values[:n_match],
                                      scene, weights, probs[-1][:n_match]))

    total = Tensor(0.0)
    assignments = []
    for i, (ml, cl) in enumerate(zip(outputs.mask_logits, outputs.class_logits)):
        if fixed is not None:
            assign = fixed
        else:
            assign = hungarian(cost_matrix(ml.values[:n_match], cl.values[:n_match],
                                           scene, weights, probs[i][:n_match]))
        assignments.append(assign)
        rows, gt_idx = assign.matched()

        targets = np.full(n_match, num_categories, dtype=np.intp)
        targets[rows] = cats[gt_idx]
        total = total + _class_loss(cl, match_rows, targets, weights)
        if rows.size:
            total = total + _mask_loss(ml, probs[i], rows, gt_flat[gt_idx], weights)

        if mp_part is not None:
            mp_rows = n_match + np.arange(mp_part.num_queries)
            total = total + _class_loss(cl, mp_rows, mp_part.gt_categories, weights)
            total = total + _mask_loss(ml, probs[i], mp_rows,
                                       gt_flat[mp_part.instance_index], weights)

        if mode == "consistency-aux" and i >= 1:
            prev = binarize_masks(outputs.mask_logits[i - 1].values[:n_match])
            prev = prev.reshape(n_match, -1).astype(np.float64)
            total = total + _mask_loss(ml, probs[i], match_rows, prev, weights)
    return total, assignments
