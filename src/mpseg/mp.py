"""Construction of the mask-piloted (MP) query part.

MP queries are GT class embeddings (optionally flipped to a wrong class
with probability lambda_label), repeated over dynamically-sized groups so
the query budget is filled. Each configured layer gets an independently
noised copy of every instance's GT mask, resized to that layer's
attention scale and converted to a blocking grid. Point noise computes
each instance's flip budget and region once per scene. The part reaches
the decoder as its own query part (decoder.ForwardSpec.mp): the matching
queries never read it, and its group ids keep the MP groups from reading
each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import MAX_LAYERS, MAX_SIZE, Checked, setting
from .masks import (apply_noise, point_flips, point_noise_region, seeded_rng,
                    to_attention_blocks)
from .tensor import Tensor


@dataclass
class MPConfig(Checked):
    n_q: int = setting(20, int, f"[1, {MAX_SIZE}]")  # MP query budget
    lambda_point: float = setting(0.2, float, "[0, 1]")
    lambda_label: float = setting(0.2, float, "[0, 1]")
    # layers receiving GT overrides; None = all
    mp_layers: tuple = setting(None, int, f"[1, {MAX_LAYERS}]", many=True, nullable=True)
    noise_kind: str = setting("point", str, ("point", "shift", "scale", "none"))
    scale_range: tuple = setting((0.8, 1.2), float, "(0, 2]", many=True, length="[2, 2]",
                                 order="<=")
    enabled: bool = setting(True, bool)


@dataclass
class MPPart:
    n_groups: int
    group_id: np.ndarray          # (M,) group of each MP query
    instance_index: np.ndarray    # (M,) GT instance hard-assigned to each MP query
    gt_categories: np.ndarray     # (M,) true category of that instance
    query_categories: np.ndarray  # (M,) category whose embedding seeds the query (post flip)
    queries: Tensor               # (M, d), rows of the class-embedding table
    overrides: dict = field(default_factory=dict)  # layer -> (M, h*w) bool blocks

    @property
    def num_queries(self) -> int:
        return int(self.instance_index.shape[0])


def dynamic_groups(n_q: int, n_o: int) -> int:
    """floor(n_q / n_o) groups; 0 objects -> no groups; more objects than
    budget -> one truncated group."""
    if n_q < 1:
        raise ValueError("n_q must be >= 1")
    if n_o <= 0:
        return 0
    if n_o > n_q:
        return 1
    return n_q // n_o


def _subseed(seed, *tags) -> list:
    base = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    return [int(s) for s in base] + [int(t) for t in tags]


def build_mp_part(scene, class_embed: Tensor, cfg: MPConfig, layer_scales,
                  seed: int):
    """Build the MP part for one scene, or None when there is nothing to pilot.

    layer_scales maps layer index (1-based) to that layer's (h, w)
    attention extents. Fresh noise sub-seeds are drawn per (layer, group,
    instance) so every layer sees independently corrupted masks.
    Deterministic in `seed`.
    """
    if not cfg.enabled:
        raise ValueError("build_mp_part called with MP disabled")
    n_o = scene.num_instances
    n_g = dynamic_groups(cfg.n_q, n_o)
    if n_g == 0:
        return None
    instances = scene.instances
    if n_o > cfg.n_q:
        instances = instances[:cfg.n_q]
    per_group = len(instances)

    # row g * per_group + j is group g's copy of instance j
    group_id = np.repeat(np.arange(n_g, dtype=np.intp), per_group)
    instance_index = np.tile(np.arange(per_group, dtype=np.intp), n_g)
    gt_cats = np.array([cat for cat, _mask in instances], dtype=np.intp)[instance_index]
    query_cats = gt_cats.copy()
    num_categories = class_embed.values.shape[0]
    for k, (g, j, cat) in enumerate(zip(group_id, instance_index, gt_cats)):
        rng = seeded_rng(_subseed(seed, 0, g, j))
        if rng.uniform() < cfg.lambda_label and num_categories > 1:
            others = [c for c in range(num_categories) if c != cat]
            query_cats[k] = others[rng.integers(0, len(others))]
    queries = class_embed.take_rows(query_cats)

    mp_layer_set = cfg.mp_layers
    if mp_layer_set is None:
        mp_layer_set = tuple(layer_scales.keys())
    # each layer's stack holds the MP part's rows in the same order
    gt_bits = np.stack([mask.bits for _cat, mask in instances])
    regions = None
    if cfg.noise_kind == "point":
        regions = [point_noise_region(mask, cfg.lambda_point) for _cat, mask in instances]
    overrides = {}
    for layer in sorted(mp_layer_set):
        if cfg.noise_kind in ("shift", "scale"):
            noised = np.stack([apply_noise(mask, cfg.noise_kind, cfg.lambda_point,
                                           cfg.scale_range, _subseed(seed, 1, layer, g, j)).bits
                               for g in range(n_g) for j, (_cat, mask) in enumerate(instances)])
        else:
            noised = np.tile(gt_bits, (n_g, 1, 1))
            if regions is not None:
                _flip_points(noised, regions, layer, seed)
        overrides[layer] = to_attention_blocks(noised, *layer_scales[layer])
    return MPPart(n_groups=n_g, group_id=group_id, instance_index=instance_index,
                  gt_categories=gt_cats, query_categories=query_cats,
                  queries=queries, overrides=overrides)


def _flip_points(noised: np.ndarray, regions, layer: int, seed):
    """Point noise, in place, on a stack of tiled GT masks whose row
    g * len(regions) + j is group g's copy of instance j: the flips
    masks.point_noise makes with the (layer, group, instance) seed."""
    for k in range(noised.shape[0]):
        g, j = divmod(k, len(regions))
        c_max, bbox = regions[j]
        if c_max:
            rr, cc = point_flips(c_max, bbox, _subseed(seed, 1, layer, g, j))
            noised[k, rr, cc] = ~noised[k, rr, cc]
