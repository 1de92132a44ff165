"""Layer-consistency diagnostics, a small AP evaluator, and the
refinement-threshold analysis.

The two consistency diagnostics: per-layer mean IoU between a query's
masks in adjacent layers, and per-layer utilization (fraction of GT
instances matched at layer i to the same query that serves them at the
final layer). Both are computed over the matching part.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .decoder import LayerOutputs, binarize_masks
from .losses import LossWeights, cost_matrix, hungarian
from .masks import BinaryMask, iou


def miou_layerwise(outputs: LayerOutputs) -> np.ndarray:
    """Mean-over-queries IoU between binarized masks of layers i-1 and i,
    for i = 1..L (matching part only)."""
    if len(outputs.mask_logits) < 2:
        raise ValueError("need at least two layer entries")
    n = outputs.n_match
    bits = [binarize_masks(ml.values[:n]) for ml in outputs.mask_logits]
    vals = []
    for i in range(1, len(bits)):
        per_query = [iou(BinaryMask(bits[i - 1][q]), BinaryMask(bits[i][q]))
                     for q in range(n)]
        vals.append(float(np.mean(per_query)))
    return np.array(vals)


def _matching_vectors(outputs: LayerOutputs, rows: slice, scene,
                      weights: LossWeights) -> np.ndarray:
    """(L+1, len(rows)) GT index that bipartite matching gives each of the
    query rows, per layer (-1 = unmatched)."""
    return np.stack([hungarian(cost_matrix(ml.values[rows], cl.values[rows], scene,
                                           weights)).query_to_gt
                     for ml, cl in zip(outputs.mask_logits, outputs.class_logits)])


def compute_matching_vectors(outputs: LayerOutputs, scene,
                             weights: LossWeights) -> np.ndarray:
    """(L+1, N) matched-GT index per query per layer (-1 = unmatched)."""
    return _matching_vectors(outputs, slice(None, outputs.n_match), scene, weights)


def util_layerwise(vectors: np.ndarray, num_gt: int) -> np.ndarray:
    """Per-layer fraction of GT matched to the same query as at the last layer."""
    if num_gt < 1:
        raise ValueError("num_gt must be >= 1")
    last = vectors[-1]
    agree = (vectors == last[None, :]) & (vectors != -1)
    return agree.sum(axis=1) / float(num_gt)


def util_mp_hard(mp_part) -> float:
    """Utilization under hard assignment: identically 1.0.

    Every MP query maps to the same GT instance at every layer, so the
    layer-i assignment trivially equals the final one.
    """
    if mp_part is None or mp_part.num_queries == 0:
        raise ValueError("empty MP part")
    return 1.0


def util_mp_bipartite(outputs: LayerOutputs, scene, weights: LossWeights) -> np.ndarray:
    """Utilization of the MP rows when re-assigned by bipartite matching."""
    vectors = _matching_vectors(outputs, slice(outputs.n_match, None), scene, weights)
    return util_layerwise(vectors, scene.num_instances)


# ----------------------------------------------------------------------
# AP-lite

def ap_lite(predictions, scenes, thresholds=(0.5, 0.75)) -> dict:
    """Average precision over a scene set at fixed IoU thresholds.

    predictions: per scene, a list of (category, score, BinaryMask).
    Ranked greedy matching per category, 101-point interpolated AP,
    averaged over categories that appear in the GT.
    """
    categories = sorted({cat for scene in scenes for cat, _ in scene.instances})
    result = {}
    for thr in thresholds:
        aps = []
        for cat in categories:
            num_gt = sum(1 for scene in scenes for c, _ in scene.instances if c == cat)
            dets = []  # (score, scene_idx, mask)
            for si, preds in enumerate(predictions):
                for c, score, mask in preds:
                    if c == cat:
                        dets.append((score, si, mask))
            dets.sort(key=lambda d: -d[0])
            tp = np.zeros(len(dets))
            fp = np.zeros(len(dets))
            taken = {}  # scene_idx -> set of matched GT positions
            for di, (_score, si, mask) in enumerate(dets):
                gts = [(gi, m) for gi, (c, m) in enumerate(scenes[si].instances)
                       if c == cat]
                best, best_gi = 0.0, -1
                for gi, gm in gts:
                    if gi in taken.get(si, set()):
                        continue
                    v = iou(mask, gm)
                    if v > best:
                        best, best_gi = v, gi
                if best >= thr and best_gi >= 0:
                    tp[di] = 1
                    taken.setdefault(si, set()).add(best_gi)
                else:
                    fp[di] = 1
            if num_gt == 0:
                continue
            if len(dets) == 0:
                aps.append(0.0)
                continue
            ctp = np.cumsum(tp)
            cfp = np.cumsum(fp)
            recall = ctp / num_gt
            precision = ctp / np.maximum(ctp + cfp, 1e-12)
            aps.append(_interp101(recall, precision))
        result[thr] = float(np.mean(aps)) if aps else 0.0
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
    """Final-layer (category, score, mask) triples for every matching query."""
    n = outputs.n_match
    cls = outputs.class_logits[-1].values[:n]
    e = np.exp(cls - cls.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    real = probs[:, :-1]
    cats = real.argmax(axis=1)
    scores = real[np.arange(n), cats]
    bits = binarize_masks(outputs.mask_logits[-1].values[:n])
    return [(int(cats[q]), float(scores[q]), BinaryMask(bits[q])) for q in range(n)]


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
    threshold_exists: bool  # brute-force scan outcome
    separation: str         # "full" | "partial"


def refinement_bounds(features: np.ndarray, categories: np.ndarray,
                      in_m0: np.ndarray, attn_weights: np.ndarray) -> RefinementBounds:
    """Dot-product separation analysis for a mask straddling two categories.

    The updated query is the attention-weighted sum of features inside
    the initial mask; each pixel is then scored by its dot product with
    that query. Intra/inter-category dot-product ranges over all
    (mask member, any pixel) pairs give guaranteed score intervals per
    category; the interval gap, when the weight-ratio condition holds,
    contains every separating threshold. A brute-force scan over the
    actual scores reports whether separation really occurs.
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
    exists = _scan_for_threshold(scores, categories)
    return RefinementBounds(
        intra_min=intra_min, intra_max=intra_max,
        inter_min=inter_min, inter_max=inter_max,
        sum_alpha=sum_alpha, sum_beta=sum_beta,
        ratio_bound=float(ratio_bound), condition_holds=bool(condition),
        threshold_interval=interval, threshold_exists=bool(exists),
        separation="full" if exists else "partial")


def _scan_for_threshold(scores: np.ndarray, categories: np.ndarray) -> bool:
    """Any threshold with all C0 scores >= t and all C1 scores < t?"""
    c0 = scores[categories == 0]
    c1 = scores[categories == 1]
    for t in np.sort(np.unique(scores)):
        if (c0 >= t).all() and (c1 < t).all():
            return True
    return False


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


@dataclass
class WeightRatioRecord:
    weight_ratio: float
    area_ratio: float
    equal: bool


def unbiased_weight_ratio(alpha: np.ndarray, beta: np.ndarray,
                          areas: tuple | None = None) -> WeightRatioRecord:
    """Compare the attention-weight ratio sum(beta)/sum(alpha) with the
    area ratio. Constant weights cancel, so the two are then exactly equal."""
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if areas is None:
        areas = (alpha.size, beta.size)
    area_ratio = float(areas[1]) / float(areas[0])
    allv = np.concatenate([alpha, beta])
    if allv.size and np.all(allv == allv[0]):
        weight_ratio = float(beta.size) / float(alpha.size)
    else:
        s = alpha.sum()
        weight_ratio = float(beta.sum() / s) if s != 0 else np.inf
    return WeightRatioRecord(weight_ratio=weight_ratio, area_ratio=area_ratio,
                             equal=weight_ratio == area_ratio)


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
        lines = ["layer,miou_l,util"]
        for i in range(1, len(self.miou_l) + 1):
            lines.append(f"{i},{100.0 * self.miou_l[i - 1]:.6f},{100.0 * self.util[i]:.6f}")
        return "\n".join(lines) + "\n"


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def save_report(path, report: MetricsReport):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(report.to_text())


def save_layer_csv(path, report: MetricsReport):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(report.to_csv())
