import os

import numpy as np
import pytest

from mpseg.decoder import full_forward, init_params, plain_spec
from mpseg.masks import scale_noise, seeded_rng, shift_noise, to_attention_blocks
from mpseg.mp import MPConfig, _subseed, build_mp_part, dynamic_groups
from mpseg.synth import SynthConfig, generate_scene, synth_features
from mpseg.tensor import Tensor, concat_rows
from mpseg.trainer import layer_scale_table, mp_forward_spec
from oracle import point_noise

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
LAYERS = range(1, 10)  # the default decoder's layer indices


def test_dynamic_groups_paper_formula():
    assert dynamic_groups(100, 7) == 14
    assert dynamic_groups(100, 100) == 1
    assert dynamic_groups(20, 0) == 0


def test_dynamic_groups_overflow_truncates_to_one_group():
    assert dynamic_groups(20, 33) == 1


def scene_setup(seed=0, **cfg_kw):
    base = dict(num_categories=4, seed=seed, instance_range=(2, 4))
    base.update(cfg_kw)
    cfg = SynthConfig(**base)
    scene = generate_scene(cfg, 0)
    return cfg, scene


def test_build_mp_part_noiseless_exact_gt():
    cfg, scene = scene_setup()
    params = init_params(seed=1, num_categories=4)
    mp_cfg = MPConfig(n_q=20, lambda_point=0.0, lambda_label=0.0, noise_kind="none")
    part = build_mp_part(scene, params.class_embed, mp_cfg, LAYERS, seed=5)
    n_o = scene.num_instances
    assert part.n_groups == 20 // n_o
    assert part.num_queries == part.n_groups * n_o
    # queries are exactly the class embeddings of the true categories
    for row in range(part.num_queries):
        cat = scene.categories[part.instance_index[row]]
        assert part.query_categories[row] == cat
        assert np.array_equal(part.queries.values[row], params.class_embed.values[cat])
    # overrides equal the exact GT, tiled over the groups
    assert sorted(part.overrides.keys()) == list(range(1, 10))
    for masks in part.overrides.values():
        assert np.array_equal(masks, scene.masks[part.instance_index])


def test_build_mp_part_forced_label_flip():
    cfg, scene = scene_setup(num_categories=2)
    params = init_params(seed=2, num_categories=2)
    mp_cfg = MPConfig(n_q=8, lambda_point=0.0, lambda_label=1.0, noise_kind="none")
    part = build_mp_part(scene, params.class_embed, mp_cfg, LAYERS, seed=6)
    for row in range(part.num_queries):
        true_cat = scene.categories[part.instance_index[row]]
        assert part.query_categories[row] == 1 - true_cat
        assert np.array_equal(part.queries.values[row],
                              params.class_embed.values[1 - true_cat])


def test_build_mp_part_independent_layer_noise_golden():
    cfg, scene = scene_setup(seed=3, instance_range=(2, 2))
    params = init_params(seed=3, num_categories=4)
    mp_cfg = MPConfig(n_q=4, lambda_point=0.2, lambda_label=0.0,
                      mp_layers=(1, 2), noise_kind="point")
    part = build_mp_part(scene, params.class_embed, mp_cfg, LAYERS, seed=7)
    assert not np.array_equal(part.overrides[1], part.overrides[2])
    lines = []
    for layer in (1, 2):
        for row in to_attention_blocks(part.overrides[layer], 16, 16):
            lines.append("".join("1" if b else "0" for b in row))
    text = "\n".join(lines) + "\n"
    with open(os.path.join(GOLDEN, "mp_overrides_seed7.txt")) as fh:
        assert fh.read() == text


@pytest.mark.parametrize("lambda_point", [0.2, 0.5])
def test_point_noise_overrides_are_the_oracle_row_by_row(lambda_point):
    """Every layer's row for group g's copy of instance j is
    oracle.point_noise on that GT mask with the (layer, g, j) sub-seed."""
    cfg = SynthConfig(num_categories=4, seed=9)
    params = init_params(seed=4, num_categories=4)
    mp_cfg = MPConfig(n_q=20, lambda_point=lambda_point, lambda_label=0.0)
    for index in range(3):
        scene = generate_scene(cfg, index)
        seed = [12, index]
        part = build_mp_part(scene, params.class_embed, mp_cfg, LAYERS, seed)
        assert part.n_groups > 1 and sorted(part.overrides) == list(range(1, 10))
        for layer, masks in part.overrides.items():
            noised = np.stack([point_noise(scene.masks[j], lambda_point,
                                           _subseed(seed, 1, layer, g, j))
                               for g, j in zip(part.group_id, part.instance_index)])
            assert np.array_equal(masks, noised)


@pytest.mark.parametrize("kind", ["shift", "scale"])
def test_shift_and_scale_overrides_are_the_noise_of_the_subseed_row_by_row(kind):
    """Every layer's row for group g's copy of instance j is shift_noise or
    scale_noise of that GT mask with the stream of the (layer, g, j) sub-seed."""
    cfg = SynthConfig(num_categories=4, seed=9)
    params = init_params(seed=4, num_categories=4)
    mp_cfg = MPConfig(n_q=20, lambda_label=0.0, noise_kind=kind, scale_range=(0.7, 1.3))

    def noise(mask, rng):
        return shift_noise(mask, rng) if kind == "shift" else scale_noise(
            mask, mp_cfg.scale_range, rng)

    for index in range(3):
        scene = generate_scene(cfg, index)
        seed = [12, index]
        part = build_mp_part(scene, params.class_embed, mp_cfg, LAYERS, seed)
        assert part.n_groups > 1 and sorted(part.overrides) == list(range(1, 10))
        for layer, masks in part.overrides.items():
            noised = np.stack([noise(scene.masks[j], seeded_rng(_subseed(seed, 1, layer, g, j)))
                               for g, j in zip(part.group_id, part.instance_index)])
            assert np.array_equal(masks, noised)


def count_seed_sequences(monkeypatch) -> list:
    """Counts every SeedSequence built through numpy.random's name for it."""
    calls = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    return calls


def test_no_mp_part_builds_a_seed_sequence(monkeypatch):
    """Its label-flip and noise streams come from masks.seeded_rngs, for
    every noise kind; one seeded_rng call shows that the counter sees
    the SeedSequence it builds."""
    cfg, scene = scene_setup(seed=4)
    params = init_params(seed=4, num_categories=4)
    calls = count_seed_sequences(monkeypatch)
    for kind in ("point", "shift", "scale", "none"):
        part = build_mp_part(scene, params.class_embed, MPConfig(noise_kind=kind), LAYERS,
                             seed=[3, 2, 1])
        assert part.n_groups > 1 and not calls
    seeded_rng([3])
    assert len(calls) == 1


def test_build_mp_part_deterministic():
    cfg, scene = scene_setup(seed=4)
    params = init_params(seed=4, num_categories=4)
    mp_cfg = MPConfig(n_q=12)
    a = build_mp_part(scene, params.class_embed, mp_cfg, LAYERS, seed=9)
    # a dict keyed by layer, as the benchmark passes, iterates as its layers
    b = build_mp_part(scene, params.class_embed, mp_cfg, layer_scale_table(32, 32, 9),
                      seed=9)
    assert np.array_equal(a.queries.values, b.queries.values)
    assert sorted(a.overrides) == sorted(b.overrides) == list(LAYERS)
    for layer in a.overrides:
        assert np.array_equal(a.overrides[layer], b.overrides[layer])


def test_build_mp_part_more_objects_than_budget():
    cfg = SynthConfig(num_categories=4, seed=8, instance_range=(5, 5),
                      size_range=(3, 5))
    scene = generate_scene(cfg, 0)
    params = init_params(seed=5, num_categories=4)
    mp_cfg = MPConfig(n_q=3, lambda_label=0.0, noise_kind="none")
    part = build_mp_part(scene, params.class_embed, mp_cfg, LAYERS, seed=10)
    assert part.n_groups == 1
    assert part.num_queries == 3
    assert list(part.instance_index) == [0, 1, 2]


def test_label_flip_draws_are_pinned():
    """Label flips of a fixed scene and seed, recorded as literals: a
    changed draw order or sub-seed changes them."""
    cfg = SynthConfig(num_categories=4, seed=21, instance_range=(3, 3))
    scene = generate_scene(cfg, 0)
    params = init_params(seed=2, num_categories=4)
    mp_cfg = MPConfig(n_q=10, lambda_label=0.5, noise_kind="none")
    part = build_mp_part(scene, params.class_embed, mp_cfg, LAYERS, seed=[4, 2, 1])
    assert scene.categories[part.instance_index].tolist() == [1, 2, 0, 1, 2, 0, 1, 2, 0]
    assert part.query_categories.tolist() == [1, 2, 2, 2, 0, 0, 2, 2, 3]
    assert part.group_id.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert part.instance_index.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2]


def test_seeds_past_64_bits_draw_their_own_mp_part():
    cfg, scene = scene_setup(seed=3)
    params = init_params(seed=4, num_categories=4)
    mp_cfg = MPConfig(n_q=20, lambda_label=0.5)
    big, small = (build_mp_part(scene, params.class_embed, mp_cfg, LAYERS, seed=[s, 3, 0])
                  for s in (2**64, 0))
    assert not np.array_equal(big.query_categories, small.query_categories)
    assert not all(np.array_equal(big.overrides[l], small.overrides[l])
                   for l in big.overrides)


def test_matching_part_isolation_bitwise():
    """Matching-part outputs must not change when an MP part is attached."""
    cfg, scene = scene_setup(seed=11)
    pyramid = synth_features(scene, cfg)
    params = init_params(seed=6, n_queries=5, num_categories=4)
    plain = full_forward(plain_spec(pyramid, params), params)

    for mp_seed in ([0, 1], [0, 2]):  # different MP content
        spec, part = mp_forward_spec(pyramid, scene, params, MPConfig(n_q=12),
                                     LAYERS, seed=mp_seed)
        assert part is not None
        piloted = full_forward(spec, params)
        for a, b in zip(plain.mask_logits, piloted.mask_logits):
            assert np.array_equal(a.values, b.values[:5])
        for a, b in zip(plain.class_logits, piloted.class_logits):
            assert np.array_equal(a.values, b.values[:5])


def test_mp_disabled_spec_is_plain():
    cfg, scene = scene_setup(seed=12)
    pyramid = synth_features(scene, cfg)
    params = init_params(seed=7, num_categories=4)
    mp_cfg = MPConfig(enabled=False)
    assert build_mp_part(scene, params.class_embed, mp_cfg, LAYERS, seed=0) is None
    spec, part = mp_forward_spec(pyramid, scene, params, mp_cfg, LAYERS, seed=[0, 2, 0])
    assert part is None and spec.mp is None
    off = full_forward(spec, params)
    plain = full_forward(plain_spec(pyramid, params), params)
    assert off.n_match == plain.n_match
    for a, b in zip(off.mask_logits + off.class_logits, plain.mask_logits + plain.class_logits,
                    strict=True):
        assert np.array_equal(a.values, b.values)


def test_mp_queries_backprop_to_class_embeddings():
    cfg, scene = scene_setup(seed=13)
    params = init_params(seed=8, num_categories=4)
    mp_cfg = MPConfig(n_q=8, lambda_label=0.0, noise_kind="none")
    part = build_mp_part(scene, params.class_embed, mp_cfg, LAYERS, seed=11)
    joined = concat_rows([params.query_embed, part.queries])
    joined.backward(np.ones_like(joined.values))
    assert params.class_embed.grad is not None
    counts = np.bincount(part.query_categories, minlength=4)
    expected = np.repeat(counts[:, None].astype(float),
                         params.class_embed.values.shape[1], axis=1)
    assert np.array_equal(params.class_embed.grad, expected)
