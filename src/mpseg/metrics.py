"""Layer-consistency diagnostics, a small AP evaluator, the
refinement-threshold analysis, and the report and per-layer table
(layer_table) that every verb writes.

The two consistency diagnostics: per-layer mean IoU between a query's
masks in adjacent layers, and per-layer utilization (fraction of GT
instances assigned at layer i to the same query that serves them at the
final layer). Both are computed over the matching part.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .decoder import LayerOutputs, binarize_masks
from .losses import (LossWeights, cost_matrix, gt_pixels, hungarian, mask_stats, softmax_rows,
                     stack_stats)
from .masks import iou


def miou_layerwise(outputs: LayerOutputs) -> np.ndarray:
    """Mean-over-queries IoU between binarized masks of layers i-1 and i,
    for i = 1..L (matching part only)."""
    if len(outputs.mask_logits) < 2:
        raise ValueError("need at least two layer entries")
    n = outputs.n_match
    bits = np.stack([binarize_masks(ml[:n]) for ml in outputs.mask_logits])
    return iou(bits[:-1], bits[1:]).mean(axis=1)


def _matching_vectors(outputs: LayerOutputs, rows: slice, scene,
                      weights: LossWeights) -> np.ndarray:
    """(L+1, len(rows)) GT index that bipartite matching gives each of the
    query rows, per layer (-1 = unmatched): the statistics and cost that
    losses.layer_losses matches by. Each layer's probabilities are dropped
    once its statistics are read."""
    gt = gt_pixels(scene)
    stats = stack_stats(mask_stats(ml[rows], gt, [slice(None)])[2]
                        for ml in outputs.mask_logits)
    costs = cost_matrix(stats, np.stack([cl.values[rows] for cl in outputs.class_logits]),
                        scene.categories, weights)
    return np.stack([hungarian(cost) for cost in costs])


def compute_matching_vectors(outputs: LayerOutputs, scene,
                             weights: LossWeights) -> np.ndarray:
    """(L+1, N) GT index assigned to each query per layer (-1 = unmatched)."""
    return _matching_vectors(outputs, slice(None, outputs.n_match), scene, weights)


def util_layerwise(vectors: np.ndarray, num_gt: int) -> np.ndarray:
    """Per-layer fraction of GT assigned to the same query as at the last layer."""
    if num_gt < 1:
        raise ValueError("num_gt must be >= 1")
    last = vectors[-1]
    agree = (vectors == last[None, :]) & (vectors != -1)
    return agree.sum(axis=1) / float(num_gt)


def util_mp_bipartite(outputs: LayerOutputs, scene, weights: LossWeights) -> np.ndarray:
    """Utilization of the MP rows when re-assigned by bipartite matching.

    The row is tie-sensitive: MP rows of different groups that pilot one
    instance can reach costs within an ulp of each other, so a change in
    the last bits of the logits can move which of them is matched."""
    vectors = _matching_vectors(outputs, slice(outputs.n_match, None), scene, weights)
    return util_layerwise(vectors, scene.num_instances)


# ----------------------------------------------------------------------
# AP-lite

def ap_lite(predictions, scenes, thresholds=(0.5, 0.75)) -> dict:
    """Average precision over a scene set at fixed IoU thresholds.

    predictions: per scene, the (categories, scores, masks) arrays of
    extract_predictions. Ranked greedy matching per category: in order of
    falling score (equal scores in scene order, then prediction order),
    each detection takes the first untaken GT of highest positive IoU in
    its scene.
    101-point interpolated AP, averaged over categories that appear in the
    GT.
    """
    aps = {thr: [] for thr in thresholds}
    for cat in sorted({int(c) for scene in scenes for c in scene.categories}):
        num_gt, scores, dets = 0, [], []  # dets: (scene, IoU row against its GT of cat)
        for si, (preds, scene) in enumerate(zip(predictions, scenes, strict=True)):
            cats, sc, masks = preds
            det = cats == cat
            gt = scene.masks[scene.categories == cat]
            num_gt += len(gt)
            scores.append(sc[det])
            dets += [(si, row) for row in iou(masks[det][:, None], gt[None])]
        order = np.argsort(-np.concatenate(scores), kind="stable")
        for thr in thresholds:
            if not dets:
                aps[thr].append(0.0)
                continue
            tp = np.zeros(len(dets))
            taken = {}  # scene -> which of its GT of cat are taken
            for di, k in enumerate(order):
                si, row = dets[k]
                used = taken.setdefault(si, np.zeros(row.size, dtype=bool))
                v = np.where(used, 0.0, row)
                gi = int(np.argmax(v)) if v.size else -1
                if gi >= 0 and v[gi] > 0.0 and v[gi] >= thr:
                    tp[di] = 1
                    used[gi] = True
            ctp = np.cumsum(tp)
            cfp = np.cumsum(1.0 - tp)
            recall = ctp / num_gt
            precision = ctp / np.maximum(ctp + cfp, 1e-12)
            aps[thr].append(_interp101(recall, precision))
    result = {thr: float(np.mean(aps[thr])) if aps[thr] else 0.0 for thr in thresholds}
    result["mean"] = float(np.mean([result[t] for t in thresholds]))
    return result


def _interp101(recall, precision) -> float:
    grid = np.linspace(0.0, 1.0, 101)
    vals = np.zeros(101)
    for gi, r in enumerate(grid):
        above = precision[recall >= r - 1e-12]
        vals[gi] = above.max() if above.size else 0.0
    return float(vals.mean())


def extract_predictions(outputs: LayerOutputs):
    """Final-layer (categories, scores, masks) arrays, one row per
    matching query."""
    n = outputs.n_match
    real = softmax_rows(outputs.class_logits[-1].values[:n])[:, :-1]
    cats = real.argmax(axis=1)
    scores = real[np.arange(n), cats]
    return cats, scores, binarize_masks(outputs.mask_logits[-1][:n])


# ----------------------------------------------------------------------
# refinement-threshold analysis

@dataclass
class RefinementBounds:
    intra_min: float        # T0
    intra_max: float        # T1
    inter_min: float        # t0
    inter_max: float        # t1
    sum_alpha: float
    sum_beta: float
    ratio_bound: float      # (T0 - t1) / (T1 - t0)
    condition_holds: bool
    threshold_interval: tuple | None
    threshold_exists: bool  # the actual scores separate the two categories
    separation: str         # "full" | "partial"


def refinement_bounds(features: np.ndarray, categories: np.ndarray,
                      in_m0: np.ndarray, attn_weights: np.ndarray) -> RefinementBounds:
    """Dot-product separation analysis for a mask straddling two categories.

    The updated query is the attention-weighted sum of features inside
    the initial mask; each pixel is then scored by its dot product with
    that query. Intra/inter-category dot-product ranges over all
    (mask member, any pixel) pairs give guaranteed score intervals per
    category; the interval gap, when the weight-ratio condition holds,
    contains every separating threshold. Whether the actual scores
    separate is reported alongside.
    """
    features = np.asarray(features, dtype=np.float64)
    categories = np.asarray(categories)
    in_m0 = np.asarray(in_m0, dtype=bool)
    attn_weights = np.asarray(attn_weights, dtype=np.float64)
    if (attn_weights < 0).any():
        raise ValueError("attention weights must be nonnegative")
    m0_c0 = in_m0 & (categories == 0)
    m0_c1 = in_m0 & (categories == 1)
    if not m0_c0.any() or not m0_c1.any():
        raise ValueError("mask must intersect both categories")

    pair_dots = features[in_m0] @ features.T            # (|M0|, P)
    same = categories[in_m0][:, None] == categories[None, :]
    intra_min = float(pair_dots[same].min())
    intra_max = float(pair_dots[same].max())
    inter_min = float(pair_dots[~same].min())
    inter_max = float(pair_dots[~same].max())

    w = attn_weights[in_m0]
    sum_alpha = float(w[categories[in_m0] == 0].sum())
    sum_beta = float(w[categories[in_m0] == 1].sum())

    denom = intra_max - inter_min
    ratio_bound = (intra_min - inter_max) / denom if denom != 0 else np.inf
    # interval-gap form of the condition; avoids dividing by the weight sums
    lo = inter_max * sum_alpha + intra_max * sum_beta   # max possible C1 score
    hi = intra_min * sum_alpha + inter_min * sum_beta   # min possible C0 score
    condition = hi > lo
    interval = (lo, hi) if condition else None

    scores = w @ pair_dots                              # dot(q1, V_k) for all k
    exists = _threshold_exists(scores, categories)
    return RefinementBounds(
        intra_min=intra_min, intra_max=intra_max,
        inter_min=inter_min, inter_max=inter_max,
        sum_alpha=sum_alpha, sum_beta=sum_beta,
        ratio_bound=float(ratio_bound), condition_holds=bool(condition),
        threshold_interval=interval, threshold_exists=bool(exists),
        separation="full" if exists else "partial")


def _threshold_exists(scores: np.ndarray, categories: np.ndarray) -> bool:
    """Any threshold with all C0 scores >= t and all C1 scores < t? With
    both categories present, t = the lowest C0 score answers it."""
    return bool(scores[categories == 0].min() > scores[categories == 1].max())


def sample_refinement_instance(rng, dim: int, sigma: float,
                               gaussian: bool = False) -> RefinementBounds:
    """One random two-category feature patch with random positive weights.

    Prototype mode draws each category around a unit vector with noise
    `sigma`; gaussian mode ignores sigma and draws fully random features
    (mostly outside the separation condition's reach).
    """
    n0 = int(rng.integers(3, 12))
    n1 = int(rng.integers(3, 12))
    if gaussian:
        feats = rng.standard_normal((n0 + n1, dim))
    else:
        protos = rng.standard_normal((2, dim))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        feats = np.concatenate([
            protos[0] + sigma * rng.standard_normal((n0, dim)),
            protos[1] + sigma * rng.standard_normal((n1, dim))])
    cats = np.array([0] * n0 + [1] * n1)
    # C0-dominant membership keeps the weight-ratio condition reachable
    in_m0 = np.zeros(n0 + n1, dtype=bool)
    in_m0[rng.choice(n0, size=int(rng.integers(2, n0 + 1)), replace=False)] = True
    n1_in = int(rng.integers(1, max(2, n1 // 3 + 1)))
    in_m0[n0 + rng.choice(n1, size=n1_in, replace=False)] = True
    w = rng.uniform(0.1, 1.0, size=n0 + n1)
    w /= w[in_m0].sum()
    return refinement_bounds(feats, cats, in_m0, w)


# ----------------------------------------------------------------------
# report

@dataclass
class MetricsReport:
    miou_l: np.ndarray            # (L,) fractions, layers 1..L
    util: np.ndarray              # (L+1,) fractions, layers 0..L
    ap: dict                      # {0.5: _, 0.75: _, "mean": _}
    losses: list = field(default_factory=list)   # per-epoch mean training loss
    config_hash: str = ""
    seed: int = 0

    def to_text(self) -> str:
        lines = [f"config_hash = {self.config_hash}", f"seed = {self.seed}"]
        for i, v in enumerate(self.miou_l, start=1):
            lines.append(f"miou_l[{i}] = {100.0 * v:.6f}")
        for i, v in enumerate(self.util):
            lines.append(f"util[{i}] = {100.0 * v:.6f}")
        lines.append(f"ap50 = {100.0 * self.ap[0.5]:.6f}")
        lines.append(f"ap75 = {100.0 * self.ap[0.75]:.6f}")
        lines.append(f"ap_mean = {100.0 * self.ap['mean']:.6f}")
        for e, v in enumerate(self.losses):
            lines.append(f"epoch_loss[{e}] = {v:.6f}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        return layer_table({"miou_l": self.miou_l, "util": self.util[1:]})[1]


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def layer_table(rows: dict):
    """(text table, CSV) of a per-layer table, {row name: (L,) fractions
    for layers 1..L} in table order, in percent: one line per row in the
    text and one column per row in the CSV."""
    num_layers = len(next(iter(rows.values())))
    table = [["layer"] + [str(i) for i in range(1, num_layers + 1)]]
    table += [[f"{name}(%)"] + [f"{100 * v:.1f}" for v in row] for name, row in rows.items()]
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    text = "".join("  ".join(s.rjust(w) for s, w in zip(r, widths)) + "\n" for r in table)

    csv_lines = [",".join(["layer", *rows])]
    for i in range(num_layers):
        csv_lines.append(",".join([str(i + 1)] + [f"{100 * row[i]:.6f}"
                                                 for row in rows.values()]))
    return text, "\n".join(csv_lines) + "\n"
