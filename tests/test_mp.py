import os

import numpy as np
import pytest

from mpseg import decoder
from mpseg.decoder import ForwardSpec, full_forward, init_params, plain_spec
from mpseg.masks import (MP_KEY, _centroid, _dilated_bbox, scale_noise, seeded_rng,
                         to_attention_blocks)
from mpseg.mp import MPConfig, build_mp_part, dynamic_groups
from mpseg.synth import Scene, SynthConfig, generate_scene, synth_features
from mpseg.tensor import concat_rows
from mpseg.trainer import layer_scale_table, mp_forward_spec
from oracle import mp_part_draws

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


def layer0_mp_queries(monkeypatch, part, cfg, scene, params):
    """The MP query part the decoder's heads receive at layer 0 of a
    forward carrying part."""
    seen = []

    def recording(params, x, spans, embed, real=decoder.heads):
        seen.append((x, spans))
        return real(params, x, spans, embed)

    monkeypatch.setattr(decoder, "heads", recording)
    full_forward(ForwardSpec(synth_features(scene, cfg), part), params)
    x, spans = seen[0]
    return x.take_rows(np.arange(x.values.shape[0])[spans[1]])


def test_build_mp_part_noiseless_exact_gt(monkeypatch):
    cfg, scene = scene_setup()
    params = init_params(seed=1, num_categories=4)
    mp_cfg = MPConfig(n_q=20, lambda_point=0.0, lambda_label=0.0, noise_kind="none")
    part = build_mp_part(scene, 4, mp_cfg, LAYERS, seed=5)
    n_o = scene.num_instances
    assert part.group_id.max() + 1 == 20 // n_o
    assert part.num_queries == (part.group_id.max() + 1) * n_o
    # queries are exactly the class embeddings of the true categories
    queries = layer0_mp_queries(monkeypatch, part, cfg, scene, params)
    for row in range(part.num_queries):
        cat = scene.categories[part.instance_index[row]]
        assert part.query_categories[row] == cat
        assert np.array_equal(queries.values[row], params.class_embed.values[cat])
    # overrides equal the exact GT, tiled over the groups
    assert sorted(part.overrides.keys()) == list(range(1, 10))
    for masks in part.overrides.values():
        assert np.array_equal(masks, scene.masks[part.instance_index])


def test_build_mp_part_forced_label_flip(monkeypatch):
    cfg, scene = scene_setup(num_categories=2)
    params = init_params(seed=2, num_categories=2)
    mp_cfg = MPConfig(n_q=8, lambda_point=0.0, lambda_label=1.0, noise_kind="none")
    part = build_mp_part(scene, 2, mp_cfg, LAYERS, seed=6)
    queries = layer0_mp_queries(monkeypatch, part, cfg, scene, params)
    for row in range(part.num_queries):
        true_cat = scene.categories[part.instance_index[row]]
        assert part.query_categories[row] == 1 - true_cat
        assert np.array_equal(queries.values[row], params.class_embed.values[1 - true_cat])


def test_build_mp_part_independent_layer_noise_golden():
    cfg, scene = scene_setup(seed=3, instance_range=(2, 2))
    mp_cfg = MPConfig(n_q=4, lambda_point=0.2, lambda_label=0.0,
                      mp_layers=(1, 2), noise_kind="point")
    part = build_mp_part(scene, 4, mp_cfg, LAYERS, seed=7)
    assert not np.array_equal(part.overrides[1], part.overrides[2])
    lines = []
    for layer in (1, 2):
        for row in to_attention_blocks(part.overrides[layer], 16, 16):
            lines.append("".join("1" if b else "0" for b in row))
    text = "\n".join(lines) + "\n"
    with open(os.path.join(GOLDEN, "mp_overrides_seed7.txt")) as fh:
        assert fh.read() == text


def assert_parts_are_the_oracle(mp_cfg):
    """build_mp_part's label flips and every layer's stack are
    oracle.mp_part_draws's, row by row, on three scenes."""
    cfg = SynthConfig(num_categories=4, seed=9)
    for index in range(3):
        scene = generate_scene(cfg, index)
        seed = [12, index]
        part = build_mp_part(scene, 4, mp_cfg, LAYERS, seed)
        cats, overrides = mp_part_draws(scene, 4, mp_cfg, LAYERS, seed)
        assert part.group_id.max() + 1 > 1 and sorted(part.overrides) == sorted(overrides)
        assert part.query_categories.tolist() == cats
        for layer, masks in overrides.items():
            assert np.array_equal(part.overrides[layer], masks)


@pytest.mark.parametrize("lambda_point", [0.2, 0.5])
def test_point_noise_overrides_are_the_oracle_row_by_row(lambda_point):
    assert_parts_are_the_oracle(MPConfig(n_q=20, lambda_point=lambda_point))


@pytest.mark.parametrize("kind", ["shift", "scale"])
def test_shift_and_scale_overrides_are_the_oracle_row_by_row(kind):
    assert_parts_are_the_oracle(MPConfig(n_q=20, noise_kind=kind, scale_range=(0.7, 1.3)))


def test_a_subset_of_layers_named_twice_is_the_oracle():
    assert_parts_are_the_oracle(MPConfig(n_q=20, mp_layers=(5, 2, 5)))


def count_seed_sequences(monkeypatch) -> list:
    """Counts every SeedSequence built through numpy.random's name for it."""
    calls = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    return calls


def test_each_mp_part_builds_one_seed_sequence(monkeypatch):
    """Every random number of a part, for every noise kind, comes from one
    seeded_rng stream."""
    cfg, scene = scene_setup(seed=4)
    calls = count_seed_sequences(monkeypatch)
    for kind in ("point", "shift", "scale", "none"):
        calls.clear()
        part = build_mp_part(scene, 4, MPConfig(noise_kind=kind), LAYERS,
                             seed=[3, 2, 1])
        assert part.group_id.max() + 1 > 1 and len(calls) == 1


def test_label_flips_depend_on_the_seed_alone():
    """The label flips come first in the part's stream, so the noise kind,
    the piloted layers and the point budget drawn after them leave them
    as they are."""
    cfg, scene = scene_setup(seed=5)
    flips = set()
    for kind in ("point", "shift", "scale", "none"):
        for mp_layers in (None, (2,), ()):
            for lambda_point in (0.0, 0.2, 0.9):
                mp_cfg = MPConfig(noise_kind=kind, mp_layers=mp_layers,
                                  lambda_point=lambda_point, lambda_label=0.5)
                part = build_mp_part(scene, 4, mp_cfg, LAYERS, seed=[8, 2, 3])
                flips.add(tuple(part.query_categories.tolist()))
    (cats,) = flips
    assert cats != tuple(scene.categories[part.instance_index].tolist())


def test_build_mp_part_deterministic():
    cfg, scene = scene_setup(seed=4)
    mp_cfg = MPConfig(n_q=12)
    a = build_mp_part(scene, 4, mp_cfg, LAYERS, seed=9)
    # a dict keyed by layer, as the benchmark passes, iterates as its layers
    b = build_mp_part(scene, 4, mp_cfg, layer_scale_table(32, 32, 9), seed=9)
    assert np.array_equal(a.query_categories, b.query_categories)
    assert sorted(a.overrides) == sorted(b.overrides) == list(LAYERS)
    for layer in a.overrides:
        assert np.array_equal(a.overrides[layer], b.overrides[layer])


def test_build_mp_part_more_objects_than_budget():
    cfg = SynthConfig(num_categories=4, seed=8, instance_range=(5, 5),
                      size_range=(3, 5))
    scene = generate_scene(cfg, 0)
    mp_cfg = MPConfig(n_q=3, lambda_label=0.0, noise_kind="none")
    part = build_mp_part(scene, 4, mp_cfg, LAYERS, seed=10)
    assert part.group_id.max() + 1 == 1
    assert part.num_queries == 3
    assert list(part.instance_index) == [0, 1, 2]


def test_label_flip_draws_are_pinned():
    """Label flips of a fixed scene and seed, recorded as literals: a
    changed draw order changes them."""
    cfg = SynthConfig(num_categories=4, seed=21, instance_range=(3, 3))
    scene = generate_scene(cfg, 0)
    mp_cfg = MPConfig(n_q=10, lambda_label=0.5, noise_kind="none")
    part = build_mp_part(scene, 4, mp_cfg, LAYERS, seed=[4, 2, 1])
    assert scene.categories[part.instance_index].tolist() == [1, 2, 0, 1, 2, 0, 1, 2, 0]
    assert part.query_categories.tolist() == [1, 3, 2, 2, 2, 2, 1, 3, 0]
    assert part.group_id.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert part.instance_index.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2]


def test_seeds_past_64_bits_draw_their_own_mp_part():
    cfg, scene = scene_setup(seed=3)
    mp_cfg = MPConfig(n_q=20, lambda_label=0.5)
    big, small = (build_mp_part(scene, 4, mp_cfg, LAYERS, seed=[s, 3, 0])
                  for s in (2**64, 0))
    assert not np.array_equal(big.query_categories, small.query_categories)
    assert not all(np.array_equal(big.overrides[l], small.overrides[l])
                   for l in big.overrides)


def test_matching_part_isolation_bitwise():
    """Matching-part outputs must not change when an MP part is attached."""
    cfg, scene = scene_setup(seed=11)
    features = synth_features(scene, cfg)
    params = init_params(seed=6, n_queries=5, num_categories=4)
    plain = full_forward(ForwardSpec(features), params)

    for mp_seed in ([0, 1], [0, 2]):  # different MP content
        spec, part = mp_forward_spec(features, scene, params, MPConfig(n_q=12),
                                     LAYERS, seed=mp_seed)
        assert part is not None
        piloted = full_forward(spec, params)
        for a, b in zip(plain.mask_logits, piloted.mask_logits):
            assert np.array_equal(a, b[:5])
        for a, b in zip(plain.class_logits, piloted.class_logits):
            assert np.array_equal(a.values, b.values[:5])


def test_mp_disabled_spec_is_plain():
    cfg, scene = scene_setup(seed=12)
    features = synth_features(scene, cfg)
    params = init_params(seed=7, num_categories=4)
    mp_cfg = MPConfig(enabled=False)
    assert build_mp_part(scene, 4, mp_cfg, LAYERS, seed=0) is None
    spec, part = mp_forward_spec(features, scene, params, mp_cfg, LAYERS, seed=[0, 2, 0])
    assert part is None and spec.mp is None
    off = full_forward(spec, params)
    plain = full_forward(plain_spec(features, params), params)
    assert off.n_match == plain.n_match
    for a, b in zip(off.mask_logits, plain.mask_logits, strict=True):
        assert np.array_equal(a, b)
    for a, b in zip(off.class_logits, plain.class_logits, strict=True):
        assert np.array_equal(a.values, b.values)


def test_mp_queries_backprop_to_class_embeddings(monkeypatch):
    cfg, scene = scene_setup(seed=13)
    params = init_params(seed=8, num_categories=4)
    mp_cfg = MPConfig(n_q=8, lambda_label=0.0, noise_kind="none")
    part = build_mp_part(scene, 4, mp_cfg, LAYERS, seed=11)
    queries = layer0_mp_queries(monkeypatch, part, cfg, scene, params)
    joined = concat_rows([params.query_embed, queries])
    joined.backward(np.ones_like(joined.values))
    assert params.class_embed.grad is not None
    counts = np.bincount(part.query_categories, minlength=4)
    expected = np.repeat(counts[:, None].astype(float),
                         params.class_embed.values.shape[1], axis=1)
    assert np.array_equal(params.class_embed.grad, expected)


# The distribution tests below draw thousands of rows from seeded MP parts
# and compare their counts with the expected ones by a chi-squared
# statistic. Each bound is the 0.999 quantile of the chi-squared law with
# the test's degrees of freedom, so a correct sampler fails one seed in a
# thousand; the seeds are fixed, so the tests are deterministic.


def one_instance_part(mask, mp_cfg, seed, category=0, num_categories=1):
    """The MP part of a scene holding the one instance mask."""
    scene = Scene(index=0, categories=[category], masks=mask[None])
    return build_mp_part(scene, num_categories, mp_cfg, LAYERS, seed)


def chi_squared(observed, expected) -> float:
    observed, expected = np.asarray(observed, float), np.asarray(expected, float)
    return float(((observed - expected) ** 2 / expected).sum())


def test_point_flips_are_uniform_in_count_and_position():
    """With one category no label is drawn, so the part's stream opens
    with the flip counts of its R = 450 rows: each row flips exactly its
    count of distinct pixels, all inside the dilated bbox; the counts are
    uniform on [0, c_max], and every bbox pixel is flipped equally often."""
    mask = np.zeros((16, 16), dtype=bool)
    mask[6:12, 5:11] = True  # area 36; c_max = 9; dilated bbox 8x8
    mp_cfg = MPConfig(n_q=50, lambda_point=0.25, noise_kind="point")
    r0, r1, c0, c1 = _dilated_bbox(mask)
    inside = np.zeros_like(mask)
    inside[r0:r1 + 1, c0:c1 + 1] = True
    counts, flipped = [], np.zeros(mask.shape)
    for seed in range(20):
        part = one_instance_part(mask, mp_cfg, [seed])
        flips = np.concatenate(list(part.overrides.values())) ^ mask
        drawn = seeded_rng([seed], MP_KEY).integers(0, 10, size=len(flips))
        assert np.array_equal(flips.sum(axis=(1, 2)), drawn)
        assert not (flips & ~inside).any()
        counts.append(drawn)
        flipped += flips.sum(axis=0)
    counts = np.concatenate(counts)
    assert chi_squared(np.bincount(counts, minlength=10), [len(counts) / 10] * 10) < 27.88  # df 9
    # Rows flip without replacement, so a pixel's count varies less than
    # under the multinomial law the bound assumes: the test is conservative.
    cells = flipped[inside]
    assert chi_squared(cells, [cells.sum() / cells.size] * cells.size) < 103.44  # df 63


def test_label_flips_are_at_the_rate_and_uniform_over_the_wrong_classes():
    """The part's stream opens with one uniform per row: a row flips when
    it is below lambda_label, and a flipped row takes one of the K - 1
    wrong classes, each equally often."""
    cfg = SynthConfig(num_categories=5, seed=2, instance_range=(2, 2))
    scene = generate_scene(cfg, 0)
    gt_cats = scene.categories
    mp_cfg = MPConfig(n_q=100, lambda_label=0.3, noise_kind="none")
    n_rows = n_flips = 0
    wrong = {int(c): np.zeros(5, int) for c in gt_cats}
    for seed in range(50):
        part = build_mp_part(scene, 5, mp_cfg, LAYERS, [seed])
        true = gt_cats[part.instance_index]
        flip = seeded_rng([seed], MP_KEY).random(part.num_queries) < 0.3
        assert np.array_equal(part.query_categories != true, flip)
        for t, q in zip(true[flip], part.query_categories[flip]):
            wrong[int(t)][q] += 1
        n_rows += part.num_queries
        n_flips += int(flip.sum())
    # 5000 rows: the binomial sd of the rate is 0.0065, and the bound 5 sd
    assert abs(n_flips / n_rows - 0.3) < 0.033
    for t, seen in wrong.items():
        others = np.delete(seen, t)
        assert chi_squared(others, [others.sum() / 4] * 4) < 16.27  # df 3


def test_shift_offsets_are_uniform_on_the_legal_range():
    """The legal offsets, enumerated, are those that keep the centroid
    strictly inside the GT bbox; every row is the mask moved by one of
    them, and each is drawn equally often. The mask sits far from the
    image border, so no pixel is dropped."""
    mask = np.zeros((32, 32), dtype=bool)
    mask[14:17, 12:18] = True  # bbox rows [14, 17), cols [12, 18) in continuous coords
    cy, cx = _centroid(mask)
    legal = [(dy, dx) for dy in range(-8, 9) for dx in range(-8, 9)
             if 14 < cy + dy < 17 and 12 < cx + dx < 18]
    assert len(legal) == 15  # dy in [-1, 1], dx in [-2, 2]
    seen = dict.fromkeys(legal, 0)
    for seed in range(10):
        part = one_instance_part(mask, MPConfig(n_q=50, noise_kind="shift"), [seed])
        for row in np.concatenate(list(part.overrides.values())):
            oy, ox = _centroid(row)
            offset = (round(oy - cy), round(ox - cx))
            assert np.array_equal(np.roll(mask, offset, axis=(0, 1)), row)
            seen[offset] += 1
    n = sum(seen.values())
    assert len(seen) == 15 and chi_squared(list(seen.values()), [n / 15] * 15) < 36.12  # df 14


def test_scale_ratios_are_uniform_on_the_scale_range():
    """Exact enumeration: scale_noise at each of 10000 evenly spaced ratios
    of scale_range gives the masks a ratio can give, and the share of
    ratios giving each is its chance under a uniform ratio (to 1e-4). The
    rows of seeded parts give those masks at those rates."""
    mask = np.zeros((16, 16), dtype=bool)
    mask[6:9, 5:10] = True
    lo, hi = 0.5, 2.0
    chance, rng = {}, np.random.default_rng(0)  # uniform(r, r) draws r
    for ratio in lo + (hi - lo) * (np.arange(10000) + 0.5) / 10000:
        out = scale_noise(mask, (ratio, ratio), rng).tobytes()
        chance[out] = chance.get(out, 0) + 1 / 10000
    assert len(chance) == 6
    seen = dict.fromkeys(chance, 0)
    for seed in range(10):
        part = one_instance_part(mask, MPConfig(n_q=50, noise_kind="scale",
                                                scale_range=(lo, hi)), [seed])
        for row in np.concatenate(list(part.overrides.values())):
            seen[row.tobytes()] += 1
    n = sum(seen.values())
    assert len(seen) == 6
    assert chi_squared(list(seen.values()), [n * chance[k] for k in seen]) < 20.52  # df 5
