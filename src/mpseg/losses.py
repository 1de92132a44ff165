"""Bipartite matching and the set-prediction losses.

Matching uses an exact Hungarian solve of the class+mask cost matrix.
Losses are dense (no point sampling): weighted cross-entropy over K+1
classes with a down-weighted no-object class, plus sigmoid BCE and
smooth dice on the assigned masks. Auxiliary-query predictions skip
matching entirely and are scored against their assigned instances.

The pixels of a layer's mask logits are read once, into per-row
statistics (mask_stats): each row's mean BCE and probability mass inside
every GT mask, and its probability sum. The matching cost of every layer
is built from them at once (layer_stats, cost_matrix: metrics reads the
same), and so is the mask loss, which picks their [row, assigned GT]
entries. The loss of every layer and both query parts is one tape node
(loss_over_layers) over each layer's mask embeddings and class logits:
its backward forms the gradient at the mask logits of only the rows that
a mask term reads, and multiplies it by the embedding grid at once, so
no pixel array is stored on the tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Checked, setting
from .tensor import Tensor, _make, part_products, sigmoid_softplus
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
    """Softmax over the last axis of x: the class probabilities of class
    logits."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class MaskStats:
    """All that the matching cost and the mask loss read of some query
    rows' mask logits against a scene's GT masks, for one layer or
    stacked over layers (a leading layer axis)."""
    bce: np.ndarray    # (..., rows, GT) each row's mean sigmoid BCE against each mask
    inter: np.ndarray  # (..., rows, GT) the sum of each row's probabilities inside each mask
    psum: np.ndarray   # (..., rows) the sum of each row's probabilities
    area: np.ndarray   # (GT,) each mask's pixel count

    def rows(self, s) -> "MaskStats":
        """The statistics of the rows `s`, a slice."""
        return MaskStats(self.bce[..., s, :], self.inter[..., s, :], self.psum[..., s],
                         self.area)


def gt_pixels(scene) -> np.ndarray:
    """The scene's GT masks as (GT, pixels) float64 rows."""
    return scene.masks.reshape(scene.num_instances, -1).astype(np.float64)


def mask_stats(mask_logit_values: np.ndarray, gt: np.ndarray, parts) -> tuple:
    """(probs, softplus means, MaskStats) of one layer's (n, h, w) mask
    logits against (GT, pixels) masks, where the parts are slices that
    tile the rows.

    One sigmoid_softplus pass covers every row; probs is its (n, pixels)
    sigmoid. Its softplus becomes at once each row's mean of
    max(x, 0) + log1p(exp(-|x|)) and is dropped: a row's mean BCE
    against a mask is that mean less the sum of its logits inside the
    mask over the pixel count. Each part's products with the masks are
    its own, so a part's statistics do not depend on the other parts',
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
    return probs, means, MaskStats(means[:, None] - part_products(x, parts, gt.T) / npix,
                                   part_products(probs, parts, gt.T), probs.sum(axis=1),
                                   gt.sum(axis=1))


def stack_stats(stats) -> MaskStats:
    """The MaskStats of several layers, stacked into (layers, ...) arrays."""
    stats = list(stats)
    return MaskStats(np.stack([st.bce for st in stats]), np.stack([st.inter for st in stats]),
                     np.stack([st.psum for st in stats]), stats[0].area)


def layer_stats(mask_logit_values, gt: np.ndarray, parts) -> tuple:
    """(probs, means, MaskStats) of every layer's mask logits: each
    layer's mask_stats, its probs and means in per-layer lists and its
    statistics stacked."""
    probs, means, stats = zip(*(mask_stats(v, gt, parts) for v in mask_logit_values))
    return list(probs), list(means), stack_stats(stats)


def cost_matrix(stats: MaskStats, class_logit_values: np.ndarray, categories,
                w: LossWeights) -> np.ndarray:
    """(..., queries, GT) matching cost: -class prob + BCE + dice, from the
    rows' statistics and class logits, of one layer or stacked over
    layers."""
    cls_term = -softmax_rows(class_logit_values)[..., categories]
    dice = 1.0 - (2.0 * stats.inter + DICE_EPS) / (stats.psum[..., None] + stats.area
                                                   + DICE_EPS)
    return w.cls * cls_term + w.bce * stats.bce + w.dice * dice


def _pixel_gradient(p, t, a, b, c):
    """a * (p - t) + (b * t - c) * p * (1 - p) for (rows, pixels)
    probabilities p and targets t and per-row a, b and c: the gradient at
    the rows' logits of a mask term, whose BCE gives a and whose dice, by
    its numerator and denominator, gives b and c. It is written into p,
    and t is overwritten: both are the caller's own copies."""
    q = 1.0 - p
    q *= p
    p -= t
    p *= a[:, None]
    t *= b[:, None]
    t -= c[:, None]
    t *= q
    p += t
    return p


def loss_over_layers(outputs: LayerOutputs, probs, means, stats: MaskStats, gt: np.ndarray,
                     categories, index: np.ndarray, consistency, w: LossWeights) -> Tensor:
    """The loss of every layer and query part, one node.

    probs, means and stats are layer_stats of the layers' mask logits
    over the parts, which are the matching rows [0, n_match) and, when
    there are more rows, the MP rows after them. index holds each row's
    GT index at each layer, (layers, rows), -1 = no object; consistency
    holds each layer's (n_match, pixels) target of the matching rows, or
    None. Each layer and part adds:

    - a class term: w.cls times the mean cross-entropy of its rows'
      class logits, weighted 1 where the index is a GT's (its category
      the target) and w.no_object where it is -1 (no-object the target);
    - a mask term over its rows with an index, when it has one:
      w.bce * mean BCE + w.dice * mean(1 - (2 inter + eps) / (psum + (area + eps))),
      read off the [row, index] entries of the statistics.

    A consistency target adds a mask term over the matching rows, whose
    statistics come from row-wise dot products. The value is the sum of
    every term.

    The node's inputs are the class logits and the mask embeddings. When
    the embeddings track gradients (the track rule) they need
    outputs.grid, and the backward forms, layer by layer, the gradient at the
    mask logits of only the rows that a mask term reads, and multiplies
    it by the grid into their embeddings' gradient, so rows of no mask
    term take no pixel work. It hands every class logit its gradient;
    _accumulate keeps those of the tracked ones.
    """
    num_layers, n = index.shape
    n_match = outputs.n_match
    npix = gt.shape[1]
    # each row's segment: its layer and query part
    n_parts = 1 + (n > n_match)
    seg = np.arange(num_layers)[:, None] * n_parts + (np.arange(n) >= n_match)
    n_seg = num_layers * n_parts

    logits = np.stack([cl.values for cl in outputs.class_logits])
    hit = index >= 0
    targets = np.where(hit, categories[index], logits.shape[2] - 1)
    row_w = np.where(hit, 1.0, w.no_object)
    m = logits.max(axis=2, keepdims=True)
    e = np.exp(logits - m)
    s = e.sum(axis=2, keepdims=True)
    lse = (np.log(s) + m)[..., 0]
    picked = np.take_along_axis(logits, targets[..., None], axis=2)[..., 0]
    wsum = np.bincount(seg.ravel(), row_w.ravel(), n_seg)
    ce = np.bincount(seg.ravel(), ((lse - picked) * row_w).ravel(), n_seg)
    class_terms = ce / wsum * w.cls

    # mask entries: (layer, row, target) of every [row, index] pair, then
    # of every consistency row, one segment per consistency target
    layer, row = np.nonzero(hit)
    gi = index[layer, row]
    entries = [(seg[layer, row], stats.bce[layer, row, gi], stats.inter[layer, row, gi],
                stats.psum[layer, row], stats.area[gi])]
    cons = [(i, t) for i, t in enumerate(consistency) if t is not None]
    for j, (i, t) in enumerate(cons):
        k = t.shape[0]
        x = outputs.mask_logits[i].reshape(n, npix)[:k]
        entries.append((np.full(k, n_seg + j), means[i][:k] - np.einsum("ij,ij->i", x, t) / npix,
                        np.einsum("ij,ij->i", probs[i][:k], t), stats.psum[i, :k],
                        t.sum(axis=1)))
    mseg, bce, inter, psum, area = (np.concatenate(a) for a in zip(*entries))
    count = np.bincount(mseg, minlength=n_seg + len(cons))
    num = 2.0 * inter + DICE_EPS
    den = psum + (area + DICE_EPS)
    used = count > 0

    def means_of(v):
        return np.bincount(mseg, v, count.size)[used] / count[used]

    mask_terms = w.bce * means_of(bce) + w.dice * means_of(1.0 - num / den)
    total = class_terms.sum() + mask_terms.sum()

    track = any(e.requires_grad for e in outputs.mask_embeds)
    if track and outputs.grid is None:
        raise ValueError("tracked mask embeddings need the embedding grid their gradient "
                         "goes through")

    def bw(g):
        g = float(g)
        coef = (g * w.cls) / wsum[seg] * row_w
        g_c = coef[..., None] * (e / s)
        g_c[np.arange(num_layers)[:, None], np.arange(n), targets] -= coef
        for cl, gc in zip(outputs.class_logits, g_c):
            cl._accumulate(gc)
        if not track:
            return
        per = count[mseg]
        a = g * w.bce / (per * npix)
        g_num = -(g * w.dice) / per / den
        b, c = 2.0 * g_num, g_num * num / den
        g_e = np.zeros((num_layers, n, outputs.grid.shape[1]))
        starts = np.searchsorted(layer, np.arange(num_layers + 1))
        for i, rows in enumerate(zip(starts[:-1], starts[1:])):
            rows = slice(*rows)
            # indexing by arrays copies the rows
            g_v = _pixel_gradient(probs[i][row[rows]], gt[gi[rows]], a[rows], b[rows],
                                  c[rows])
            g_e[i, row[rows]] = g_v @ outputs.grid
        at = gi.size
        for i, t in cons:
            k = t.shape[0]
            rows = slice(at, at + k)
            g_v = _pixel_gradient(probs[i][:k].copy(), t.copy(), a[rows], b[rows], c[rows])
            g_e[i, :k] += g_v @ outputs.grid
            at += k
        for emb, ge in zip(outputs.mask_embeds, g_e):
            emb._accumulate(ge)
    return _make(total, outputs.class_logits + outputs.mask_embeds, bw)


def layer_losses(outputs: LayerOutputs, scene, mp_part, mode: str, weights: LossWeights):
    """Total loss over layers 0..L for both query parts, one node.

    Returns (total scalar Tensor, (L+1, n_match) intp matching vectors:
    each layer's GT index per matching query, -1 = unmatched). Modes:
    per-layer bipartite matching (default), a fixed matching computed at
    the last layer and reused everywhere, or default matching plus an
    adjacent-layer mask consistency term with the earlier layer detached.

    Both parts are scored by one rule against a GT index per row (the
    matching vector; the MP part's instance_index): loss_over_layers's,
    one node over every layer in all three modes. Each layer's
    mask_stats, one sigmoid_softplus pass over all its rows, are the one
    source of the matching cost and of every mask loss of that layer.
    The consistency target is binarize_masks of the earlier layer's
    logits.
    """
    if mode not in MODES:
        raise ValueError(f"unknown loss mode {mode!r} (choose from {MODES})")
    if mode != "per-layer-bipartite" and mp_part is not None:
        raise ValueError(f"mode {mode!r} is a baseline ablation; it cannot be "
                         f"combined with an auxiliary query part")
    n_match = outputs.n_match
    gt = gt_pixels(scene)
    parts = [slice(0, n_match)] + ([slice(n_match, None)] if mp_part is not None else [])
    probs, means, stats = layer_stats(outputs.mask_logits, gt, parts)
    costs = cost_matrix(stats.rows(parts[0]),
                        np.stack([cl.values[:n_match] for cl in outputs.class_logits]),
                        scene.categories, weights)
    if mode == "fixed-last-layer":
        vectors = np.repeat(hungarian(costs[-1])[None], len(costs), axis=0)
    else:
        vectors = np.stack([hungarian(cost) for cost in costs])
    index = vectors
    if mp_part is not None:
        index = np.hstack([vectors, np.broadcast_to(mp_part.instance_index,
                                                    (len(vectors), mp_part.num_queries))])
    consistency = [None] * len(vectors)
    if mode == "consistency-aux":
        consistency[1:] = [binarize_masks(ml[:n_match]).reshape(n_match, -1)
                           .astype(np.float64) for ml in outputs.mask_logits[:-1]]
    return (loss_over_layers(outputs, probs, means, stats, gt, scene.categories, index,
                             consistency, weights), vectors)
