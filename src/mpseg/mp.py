"""Construction of the mask-piloted (MP) query part.

MP queries are GT class embeddings (optionally flipped to a wrong class
with probability lambda_label), repeated over dynamically-sized groups so
the query budget is filled. Each configured layer gets an independently
noised copy of every instance's GT mask, resized to that layer's
attention scale and converted to a blocking grid. A self-attention
blocking grid stops information flow from MP queries to matching queries
and between MP groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .masks import apply_noise, to_attention_blocks
from .tensor import Tensor


@dataclass
class MPConfig:
    n_q: int = 20                 # MP query budget
    lambda_point: float = 0.2
    lambda_label: float = 0.2
    mp_layers: tuple = None       # layers receiving GT overrides; None = all
    noise_kind: str = "point"     # point | shift | scale | none
    scale_range: tuple = (0.8, 1.2)
    enabled: bool = True

    def __post_init__(self):
        if not 0.0 <= self.lambda_point <= 1.0:
            raise ValueError(f"lambda_point must be in [0,1], got {self.lambda_point}")
        if not 0.0 <= self.lambda_label <= 1.0:
            raise ValueError(f"lambda_label must be in [0,1], got {self.lambda_label}")
        if self.noise_kind not in ("point", "shift", "scale", "none"):
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")
        if self.n_q < 1:
            raise ValueError("n_q must be >= 1")
        if (len(self.scale_range) != 2
                or not 0.0 < self.scale_range[0] <= self.scale_range[1] <= 2.0):
            raise ValueError(f"scale_range must be two numbers lo, hi with "
                             f"0 < lo <= hi <= 2, got {list(self.scale_range)}")


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

    @property
    def group_sizes(self):
        return [int((self.group_id == g).sum()) for g in range(self.n_groups)]


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
    return [int(s) & 0xFFFFFFFFFFFFFFFF for s in base] + [int(t) for t in tags]


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

    group_id, instance_index, gt_cats, query_cats = [], [], [], []
    num_categories = class_embed.values.shape[0]
    for g in range(n_g):
        for j, (cat, _mask) in enumerate(instances):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(_subseed(seed, 0, g, j))))
            qcat = cat
            if rng.uniform() < cfg.lambda_label and num_categories > 1:
                others = [c for c in range(num_categories) if c != cat]
                qcat = int(others[rng.integers(0, len(others))])
            group_id.append(g)
            instance_index.append(j)
            gt_cats.append(cat)
            query_cats.append(qcat)
    group_id = np.array(group_id, dtype=np.intp)
    instance_index = np.array(instance_index, dtype=np.intp)
    gt_cats = np.array(gt_cats, dtype=np.intp)
    query_cats = np.array(query_cats, dtype=np.intp)
    queries = class_embed.take_rows(query_cats)

    mp_layer_set = cfg.mp_layers
    if mp_layer_set is None:
        mp_layer_set = tuple(layer_scales.keys())
    overrides = {}
    for layer in sorted(mp_layer_set):
        noised = np.stack([apply_noise(mask, cfg.noise_kind, cfg.lambda_point,
                                       cfg.scale_range, _subseed(seed, 1, layer, g, j)).bits
                           for g in range(n_g) for j, (_cat, mask) in enumerate(instances)])
        overrides[layer] = to_attention_blocks(noised, *layer_scales[layer])
    return MPPart(n_groups=n_g, group_id=group_id, instance_index=instance_index,
                  gt_categories=gt_cats, query_categories=query_cats,
                  queries=queries, overrides=overrides)


def build_self_block(n_match: int, group_sizes) -> np.ndarray:
    """Blocking grid over all queries: matching rows see only matching
    columns; MP rows see matching columns and their own group."""
    n_mp = int(sum(group_sizes))
    n = n_match + n_mp
    block = np.zeros((n, n), dtype=bool)
    if n_mp == 0:
        return block
    block[:n_match, n_match:] = True
    offsets = np.cumsum([0] + list(group_sizes))
    for a, b in zip(offsets[:-1], offsets[1:]):
        block[n_match + a:n_match + b, n_match:n_match + a] = True
        block[n_match + a:n_match + b, n_match + b:] = True
    return block
