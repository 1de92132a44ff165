"""Construction of the mask-piloted (MP) query part.

MP queries are GT class embeddings (optionally flipped to a wrong class
with probability lambda_label), repeated over dynamically-sized groups so
the query budget is filled. Each piloted layer gets an independently
noised copy of every instance's GT mask, at the scene's resolution; the
decoder grids it as it grids a predicted mask. Point noise computes each
instance's flip budget and region once per scene, and the random
streams of a scene's part come from two masks.seeded_rngs calls: one for
the label flips, one for every noised row of every layer, whatever the
noise kind. The part reaches the decoder as its own query part
(decoder.ForwardSpec.mp): the matching queries never read it, and its
group ids keep the MP groups from reading each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import MAX_LAYERS, MAX_SIZE, Checked, setting
from .masks import point_flips, point_noise_region, scale_noise, seeded_rngs, shift_noise
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
    """One scene's MP queries. Row k pilots GT instance instance_index[k]
    and is scored against it: that is its matching, with no solve."""
    n_groups: int
    group_id: np.ndarray          # (M,) group of each MP query
    instance_index: np.ndarray    # (M,) GT instance hard-assigned to each MP query
    query_categories: np.ndarray  # (M,) category whose embedding seeds the query (post flip)
    queries: Tensor               # (M, d), rows of the class-embedding table
    overrides: dict = field(default_factory=dict)  # layer -> (M, H, W) bool noised GT masks

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


def build_mp_part(scene, class_embed: Tensor, cfg: MPConfig, layers, seed: list):
    """Build the MP part for one scene, or None when MP is off
    (cfg.enabled false) or there is nothing to pilot.

    layers, the decoder's 1-based layer indices (any iterable, so a dict
    keyed by layer works), are piloted when cfg.mp_layers is None. Fresh
    noise sub-seeds are drawn per (layer, group, instance) so every layer
    sees independently corrupted masks. Deterministic in `seed`, a list of
    ints (a bare int is taken as a list of one). The label-flip streams
    come from one masks.seeded_rngs call, and those of every noised row of
    every layer, whatever the noise kind, from one more.
    """
    n_g = dynamic_groups(cfg.n_q, scene.num_instances)
    if not cfg.enabled or n_g == 0:
        return None
    gt_masks = scene.masks[:cfg.n_q]  # the first n_q instances when there are more
    per_group = len(gt_masks)

    # row g * per_group + j is group g's copy of instance j
    group_id = np.repeat(np.arange(n_g, dtype=np.intp), per_group)
    instance_index = np.tile(np.arange(per_group, dtype=np.intp), n_g)
    gt_cats = scene.categories[instance_index]
    query_cats = gt_cats.copy()
    num_categories = class_embed.values.shape[0]
    rngs = seeded_rngs([_subseed(seed, 0, g, j) for g, j in zip(group_id, instance_index)])
    for k, (rng, cat) in enumerate(zip(rngs, gt_cats)):
        if rng.uniform() < cfg.lambda_label and num_categories > 1:
            others = [c for c in range(num_categories) if c != cat]
            query_cats[k] = others[rng.integers(0, len(others))]
    queries = class_embed.take_rows(query_cats)

    if cfg.mp_layers is not None:
        layers = cfg.mp_layers
    # each layer's stack is a tiled copy in row order: no noise reaches the scene
    overrides = {layer: np.tile(gt_masks, (n_g, 1, 1)) for layer in sorted(layers)}
    if cfg.noise_kind == "point":
        regions = [point_noise_region(mask, cfg.lambda_point) for mask in gt_masks]
        noisy = [j for j, (c_max, _) in enumerate(regions) if c_max]  # instances that can flip
    else:
        noisy = [] if cfg.noise_kind == "none" else range(per_group)
    rows = [(layer, g, j) for layer in overrides for g in range(n_g) for j in noisy]
    rngs = seeded_rngs([_subseed(seed, 1, *row) for row in rows])
    for (layer, g, j), rng in zip(rows, rngs):
        mask = overrides[layer][g * per_group + j]
        if cfg.noise_kind == "point":
            rr, cc = point_flips(*regions[j], rng)
            mask[rr, cc] = ~mask[rr, cc]
        elif cfg.noise_kind == "shift":
            mask[...] = shift_noise(gt_masks[j], rng)
        else:
            mask[...] = scale_noise(gt_masks[j], cfg.scale_range, rng)
    return MPPart(n_groups=n_g, group_id=group_id, instance_index=instance_index,
                  query_categories=query_cats, queries=queries, overrides=overrides)
