"""Construction of the mask-piloted (MP) query part, as plain data.

MP queries are GT class embeddings (optionally flipped to a wrong class
with probability lambda_label), repeated over dynamically-sized groups so
the query budget is filled. A part holds each row's category, not its
embedding: decoder.full_forward looks the rows up in the class-embedding
table, as it makes the matching queries, so a part is built, compared
and tested without parameters. Each piloted layer gets its own noised
copy of every instance's GT mask, at the scene's resolution; the decoder
grids it as it grids a predicted mask. Every random number of a part
comes from one masks.seeded_rng(seed, MP_KEY) stream, keyed so that it
is never a scene's, in the order build_mp_part documents. So a row's
noise depends on which other rows are drawn before it (on mp_layers, the
group count and the noise kind, for example), not on its own (layer,
group, instance) alone; the label flips come first and depend on none of
them. The part reaches the decoder as its own query part
(decoder.ForwardSpec.mp): the matching queries never read it, and its
group ids keep the MP groups from reading each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import MAX_LAYERS, MAX_SIZE, Checked, setting
from .masks import MP_KEY, point_noise_region, scale_noise, seeded_rng, shift_noise


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
    and is scored against it: that is its matching, with no solve. Its
    query is the class embedding of query_categories[k]."""
    group_id: np.ndarray          # (M,) group of each MP query
    instance_index: np.ndarray    # (M,) GT instance hard-assigned to each MP query
    query_categories: np.ndarray  # (M,) category whose embedding is the query (post flip)
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


def build_mp_part(scene, num_categories: int, cfg: MPConfig, layers, seed: list):
    """Build the MP part for one scene, or None when MP is off
    (cfg.enabled false) or there is nothing to pilot.

    layers, the decoder's 1-based layer indices (any iterable, so a dict
    keyed by layer works), are piloted when cfg.mp_layers is None. Row
    g * P + j of the part is group g's copy of instance j, for the first
    P = min(n_q, instances) instances; each piloted layer gets its own
    noised stack of the M rows. Every random number comes from one
    masks.seeded_rng(seed, MP_KEY) stream (seed is a list of ints, or an
    int), drawn in this order, K = num_categories:

    1. Label flips, when K > 1: one random(M) call; row k flips when its
       value is below lambda_label. Then one integers(0, K - 1) call, one
       draw o per flipped row, whose wrong class is o + (o >= true class):
       uniform over the other K - 1.
    2. Point noise: instances j in order, skipping those whose flip budget
       c_max is 0. Instance j's R rows are its copies over (layer, group),
       in that order. One integers(0, c_max + 1, size=R) call draws the
       counts, then one random((R, bbox area)) call the keys over the
       dilated bbox; each row flips the count pixels with the lowest keys
       (those whose key ranks below the count).
    3. Shift or scale noise: rows in (layer, group, instance) order, each
       one shift_noise or scale_noise call.

    So a row's noise depends on which rows are drawn before it: changing
    mp_layers, the group count or the noise kind changes the noise of rows
    that stay. The label flips depend only on the seed and the rows'
    categories.
    """
    n_g = dynamic_groups(cfg.n_q, scene.num_instances)
    if not cfg.enabled or n_g == 0:
        return None
    gt_masks = scene.masks[:cfg.n_q]  # the first n_q instances when there are more
    per_group, h, w = gt_masks.shape
    rng = seeded_rng(seed, MP_KEY)

    # row g * per_group + j is group g's copy of instance j
    group_id = np.repeat(np.arange(n_g, dtype=np.intp), per_group)
    instance_index = np.tile(np.arange(per_group, dtype=np.intp), n_g)
    gt_cats = scene.categories[instance_index]
    query_cats = gt_cats.copy()
    if num_categories > 1:
        flip = rng.random(len(gt_cats)) < cfg.lambda_label
        other = rng.integers(0, num_categories - 1, size=int(flip.sum()))
        query_cats[flip] = other + (other >= gt_cats[flip])

    layers = sorted(set(layers if cfg.mp_layers is None else cfg.mp_layers))
    # axes (layer, group, instance, H, W): tiled copies, so no noise reaches the scene
    noised = np.tile(gt_masks, (len(layers), n_g, 1, 1, 1))
    if cfg.noise_kind == "point":
        for j, mask in enumerate(gt_masks):
            c_max, bbox = point_noise_region(mask, cfg.lambda_point)
            if not c_max:
                continue
            r0, r1, c0, c1 = bbox
            box = noised[:, :, j, r0:r1 + 1, c0:c1 + 1]  # a view, axes (layer, group, y, x)
            counts = rng.integers(0, c_max + 1, size=len(layers) * n_g)
            keys = rng.random((len(counts), (r1 - r0 + 1) * (c1 - c0 + 1)))
            box ^= (keys.argsort(axis=1).argsort(axis=1) < counts[:, None]).reshape(box.shape)
    elif cfg.noise_kind != "none":
        for k, row in enumerate(noised.reshape(-1, h, w)):
            mask = gt_masks[k % per_group]
            row[...] = (shift_noise(mask, rng) if cfg.noise_kind == "shift"
                        else scale_noise(mask, cfg.scale_range, rng))
    overrides = {layer: stack.reshape(-1, h, w) for layer, stack in zip(layers, noised)}
    return MPPart(group_id=group_id, instance_index=instance_index,
                  query_categories=query_cats, overrides=overrides)
