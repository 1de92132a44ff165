import json
from pathlib import Path

import numpy as np
import pytest

from mpseg import decoder
from mpseg.fields import MAX_HIDDEN, MAX_LAYERS, MAX_SIZE
from mpseg.decoder import (ForwardSpec, attention, binarize_masks, decoder_layer,
                           full_forward, heads, init_params, load_checkpoint,
                           named_parameters, plain_spec, save_checkpoint)
from mpseg.gradcheck import check_gradient
from mpseg.masks import FormatError, to_attention_blocks
from mpseg.mp import MPPart
from mpseg.synth import SynthConfig, generate_scene, synth_features
from mpseg.tensor import Tensor, _sigmoid, concat_rows, mlp2
from mpseg.trainer import detach_params, layer_scale_table

BENCH_CHECKPOINT = Path(__file__).resolve().parent.parent / "bench" / "data" / "checkpoint.bin"


def identity_mask_head_params(d=2, num_categories=2):
    p = init_params(seed=0, n_queries=1, n_layers=1, dim=d,
                    num_categories=num_categories, ffn_hidden=4)
    p.mask_w1.values = np.eye(d)
    p.mask_b1.values = np.zeros(d)
    p.mask_w2.values = np.eye(d)
    p.mask_b2.values = np.zeros(d)
    return p


def mask_head(params, queries: Tensor, embed_grid) -> Tensor:
    """The oracle of heads' mask logits, one part at a time:
    logits[n, y, x] = MLP(query_n) . embed[y, x]."""
    h, w, d = embed_grid.shape
    e = mlp2(queries, params.mask_w1, params.mask_b1, params.mask_w2, params.mask_b2)
    return (e @ Tensor(embed_grid.reshape(h * w, d).T)).reshape(-1, h, w)


def class_head(params, queries: Tensor) -> Tensor:
    """The oracle of heads' class logits, one part at a time."""
    return queries @ params.cls_w + params.cls_b


def mask_logits(params, queries, embed):
    return heads(params, [queries], embed)[0]


def test_mask_head_basis_case():
    p = identity_mask_head_params(d=2)
    embed = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # 1x2 grid of 2-vectors
    out = mask_logits(p, Tensor([[1.0, 0.0]]), embed)
    assert out.values.shape == (1, 1, 2)
    assert np.array_equal(out.values[0, 0], [1.0, 0.0])


def test_mask_head_zero_query():
    p = identity_mask_head_params(d=2)
    embed = np.ones((3, 3, 2))
    out = mask_logits(p, Tensor([[0.0, 0.0]]), embed)
    assert np.array_equal(out.values, np.zeros((1, 3, 3)))


def test_mask_head_dimension_mismatch():
    p = identity_mask_head_params(d=2)
    with pytest.raises(ValueError):
        mask_logits(p, Tensor([[1.0, 0.0]]), np.ones((2, 2, 5)))


def test_mask_head_gradient():
    p = init_params(seed=1, n_queries=2, n_layers=1, dim=4, num_categories=2,
                    ffn_hidden=8)
    rng = np.random.default_rng(2)
    embed = rng.uniform(-1, 1, size=(3, 3, 4))
    w = rng.uniform(-1, 1, size=(2, 3, 3))

    def f(xs):
        p.mask_w1 = xs[1]
        return (mask_logits(p, xs[0], embed) * w).sum()

    err = check_gradient(f, [rng.uniform(-1, 1, size=(2, 4)), p.mask_w1.values.copy()])
    assert err < 1e-4


@pytest.mark.parametrize("part_rows", [[3], [3, 4]], ids=["one-part", "two-parts"])
def test_heads_match_the_per_part_oracle(part_rows):
    """Forward bitwise; every gradient within 1e-12 of its largest entry."""
    rng = np.random.default_rng(3)
    embed = rng.uniform(-1, 1, size=(4, 5, 6))
    weights = [rng.uniform(-1, 1, size=(sum(part_rows), 4, 5)),
               rng.uniform(-1, 1, size=(sum(part_rows), 3))]
    queries = [rng.uniform(-1, 1, size=(n, 6)) for n in part_rows]

    def run(forward):
        p = init_params(seed=5, n_queries=1, n_layers=1, dim=6, num_categories=2,
                        ffn_hidden=4)
        parts = [Tensor(q, requires_grad=True) for q in queries]
        outs = forward(p, parts)
        ((outs[0] * weights[0]).sum() + (outs[1] * weights[1]).sum()).backward()
        grads = [x.grad for x in parts] + [t.grad for _, t in named_parameters(p)
                                           if t.grad is not None]
        return [o.values for o in outs], grads

    values, grads = run(lambda p, parts: heads(p, parts, embed))
    oracle_values, oracle_grads = run(lambda p, parts: (
        concat_rows([mask_head(p, x, embed) for x in parts]),
        concat_rows([class_head(p, x) for x in parts])))
    for v, o in zip(values, oracle_values):
        assert np.array_equal(v, o)
    assert len(grads) == len(oracle_grads) == len(part_rows) + 6
    for g, o in zip(grads, oracle_grads):
        assert np.abs(g - o).max() <= 1e-12 * np.abs(o).max()


def test_heads_record_one_mask_and_one_class_node():
    p = init_params(seed=5, n_queries=1, n_layers=1, dim=2, num_categories=2,
                    ffn_hidden=4)
    parts = [Tensor(np.ones((1, 2)), requires_grad=True),
             Tensor(np.ones((2, 2)), requires_grad=True)]
    masks, classes = heads(p, parts, np.ones((3, 3, 2)))
    assert masks._parents == (*parts, p.mask_w1, p.mask_b1, p.mask_w2, p.mask_b2)
    assert classes._parents == (*parts, p.cls_w, p.cls_b)


def blocks_of_logits(logits, h, w):
    """The forward's blocking grids of one layer's mask logits."""
    return to_attention_blocks(binarize_masks(logits), h, w)


def test_binarize_all_positive_no_blocking():
    logits = np.full((2, 8, 8), 10.0)
    block = blocks_of_logits(logits, 4, 4)
    assert not block.any()


def test_binarize_all_negative_fallback():
    logits = np.full((2, 8, 8), -10.0)
    block = blocks_of_logits(logits, 4, 4)
    assert not block.any()


def test_binarize_half_plane_downsample():
    logits = np.full((1, 32, 32), -1.0)
    logits[0, :, :16] = 1.0
    block = blocks_of_logits(logits, 8, 8).reshape(8, 8)
    # nearest sampling at centers: target col c reads source col floor((c+.5)*4)
    src_cols = ((np.arange(8) + 0.5) * 4).astype(int)
    expected_mask = src_cols < 16
    expected_block = ~np.tile(expected_mask, (8, 1))
    assert np.array_equal(block, expected_block)


def test_binarize_masks_is_the_sigmoid_rule_read_off_the_sign():
    logits = np.random.default_rng(0).normal(scale=10.0, size=10 ** 6)
    assert np.array_equal(binarize_masks(logits), _sigmoid(logits) > 0.5)
    assert not binarize_masks(np.array([0.0, -0.0])).any()
    # The one gap: for 0 < x < 1.6e-16 the float sigmoid rounds to exactly
    # 0.5, so the sigmoid rule read "off" where the sign rule reads "on".
    tiny = np.array([5e-324, 1e-16, 1.56e-16])
    assert not (_sigmoid(tiny) > 0.5).any() and binarize_masks(tiny).all()
    assert _sigmoid(np.array([1.57e-16]))[0] > 0.5


def test_cross_attention_single_pixel_support():
    d = 4
    p = init_params(seed=3, n_queries=1, n_layers=1, dim=d, num_categories=2,
                    ffn_hidden=8)
    lp = p.layers[0]
    lp.wo.values = np.eye(d)
    rng = np.random.default_rng(4)
    feats = Tensor(rng.uniform(-1, 1, size=(6, d)))
    block = np.ones((1, 6), dtype=bool)
    block[0, 2] = False
    x = Tensor(rng.uniform(-1, 1, size=(1, d)))
    out = attention(x, feats @ lp.wk, feats @ lp.wv, block, lp.wq, lp.wo, d)
    expected = feats.values[2] @ lp.wv.values
    assert np.allclose(out.values[0], expected, atol=1e-12)


def test_self_attention_single_query_identity():
    d = 4
    p = init_params(seed=5, n_queries=1, n_layers=1, dim=d, num_categories=2,
                    ffn_hidden=8)
    lp = p.layers[0]
    lp.so.values = np.eye(d)
    x = Tensor(np.random.default_rng(6).uniform(-1, 1, size=(1, d)))
    out = attention(x, x @ lp.sk, x @ lp.sv, np.zeros((1, 1), dtype=bool), lp.sq, lp.so, d)
    assert np.allclose(out.values[0], x.values[0] @ lp.sv.values, atol=1e-12)


def test_decoder_layer_gradient():
    d = 4
    p = init_params(seed=7, n_queries=2, n_layers=1, dim=d, num_categories=2,
                    ffn_hidden=8)
    lp = p.layers[0]
    rng = np.random.default_rng(8)
    feats_v = rng.uniform(-1, 1, size=(4, d))
    block = rng.uniform(size=(2, 4)) < 0.3
    w = rng.uniform(-1, 1, size=(2, d))

    def f(xs):
        lp.wq = xs[1]
        lp.ffn_w1 = xs[2]
        lp.ln1_g = xs[3]
        [out] = decoder_layer([xs[0]], Tensor(feats_v), [block], [None], lp, d)
        return (out * w).sum()

    err = check_gradient(f, [rng.uniform(-1, 1, size=(2, d)), lp.wq.values.copy(),
                             lp.ffn_w1.values.copy(), lp.ln1_g.values.copy()])
    assert err < 1e-4


def test_decoder_layer_two_part_gradient():
    """The MP part's self-attention reads the matching rows through a
    row concatenation; gradients must flow through it to both parts."""
    d = 4
    p = init_params(seed=7, n_queries=2, n_layers=1, dim=d, num_categories=2,
                    ffn_hidden=8)
    lp = p.layers[0]
    rng = np.random.default_rng(9)
    feats_v = rng.uniform(-1, 1, size=(4, d))
    cross = [rng.uniform(size=(2, 4)) < 0.3, rng.uniform(size=(3, 4)) < 0.3]
    # MP rows in groups [0, 1, 1]: each sees the matching rows and its own group
    mp_self = np.array([[0, 0, 0, 1, 1], [0, 0, 1, 0, 0], [0, 0, 1, 0, 0]], dtype=bool)
    w = rng.uniform(-1, 1, size=(5, d))

    def f(xs):
        lp.sk = xs[2]
        parts = decoder_layer([xs[0], xs[1]], Tensor(feats_v), cross, [None, mp_self],
                              lp, d)
        return (concat_rows(parts) * w).sum()

    err = check_gradient(f, [rng.uniform(-1, 1, size=(2, d)),
                             rng.uniform(-1, 1, size=(3, d)), lp.sk.values.copy()])
    assert err < 1e-4


def scene_and_pyramid(seed=0, n_cat=4):
    cfg = SynthConfig(num_categories=n_cat, seed=seed)
    scene = generate_scene(cfg, 0)
    return scene, synth_features(scene, cfg), cfg


def test_full_forward_shape_contract():
    _, pyramid, cfg = scene_and_pyramid()
    params = init_params(seed=9, n_queries=5, n_layers=9, dim=32,
                         num_categories=cfg.num_categories)
    out = full_forward(plain_spec(pyramid, params), params)
    assert len(out.mask_logits) == 10
    assert len(out.class_logits) == 10
    for ml, cl in zip(out.mask_logits, out.class_logits):
        assert ml.values.shape == (5, 32, 32)
        assert cl.values.shape == (5, cfg.num_categories + 1)


def test_full_forward_deterministic():
    _, pyramid, cfg = scene_and_pyramid(seed=1)
    params = init_params(seed=10, n_queries=4, n_layers=9, dim=32,
                         num_categories=cfg.num_categories)
    a = full_forward(plain_spec(pyramid, params), params)
    b = full_forward(plain_spec(pyramid, params), params)
    for x, y in zip(a.mask_logits, b.mask_logits):
        assert np.array_equal(x.values, y.values)
    for x, y in zip(a.class_logits, b.class_logits):
        assert np.array_equal(x.values, y.values)


def test_checkpoint_roundtrip_and_byte_stability(tmp_path):
    params = init_params(seed=12, n_queries=3, n_layers=2, dim=8, num_categories=2,
                         ffn_hidden=16)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_checkpoint(p1, params)
    save_checkpoint(p2, params)
    assert p1.read_bytes() == p2.read_bytes()
    loaded, meta = load_checkpoint(p1)
    assert meta["num_layers"] == 2
    for (n1, t1), (n2, t2) in zip(named_parameters(params), named_parameters(loaded)):
        assert n1 == n2
        assert np.array_equal(t1.values, t2.values)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"not a checkpoint\n")
    with pytest.raises(ValueError):
        load_checkpoint(p)


def test_checkpoint_every_prefix_is_format_error(tmp_path):
    params = init_params(seed=14, n_queries=2, n_layers=1, dim=4, num_categories=2,
                         ffn_hidden=4)
    full = tmp_path / "full.bin"
    save_checkpoint(full, params)
    data = full.read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(FormatError):
            load_checkpoint(cut)
    cut.write_bytes(data + b"\0")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(cut)


def checkpoint_with_extent(tmp_path, monkeypatch, key, value):
    """A small checkpoint whose header gives `value` for `key`, with
    init_params stubbed so that reaching it raises instead of allocating."""
    params = init_params(seed=21, n_queries=2, n_layers=1, dim=4, num_categories=2,
                         ffn_hidden=4)
    path = tmp_path / "extent.bin"
    save_checkpoint(path, params)
    header, rest = path.read_bytes().split(b"\n", 1)
    magic, version, meta = header.decode("ascii").split(" ", 2)
    meta = json.dumps({**json.loads(meta), key: value})
    path.write_bytes(f"{magic} {version} {meta}\n".encode("ascii") + rest)

    def reached(**kw):
        raise AssertionError("init_params reached")

    monkeypatch.setattr(decoder, "init_params", reached)
    return path


CAPS = [("n_queries", MAX_SIZE), ("num_layers", MAX_LAYERS), ("dim", MAX_SIZE),
        ("num_categories", MAX_SIZE), ("ffn_hidden", MAX_HIDDEN)]


@pytest.mark.parametrize("key,value", [(key, cap + 1) for key, cap in CAPS] + [("dim", 10**6)])
def test_checkpoint_extent_above_its_cap_is_format_error(tmp_path, monkeypatch, key, value):
    path = checkpoint_with_extent(tmp_path, monkeypatch, key, value)
    with pytest.raises(FormatError, match=key):
        load_checkpoint(path)


@pytest.mark.parametrize("key,cap", CAPS)
def test_checkpoint_extent_at_its_cap_reaches_init_params(tmp_path, monkeypatch, key, cap):
    path = checkpoint_with_extent(tmp_path, monkeypatch, key, cap)
    with pytest.raises(AssertionError, match="init_params reached"):
        load_checkpoint(path)


def test_committed_checkpoint_resaves_byte_identical(tmp_path):
    """Pins the checkpoint layout: named_parameters order must not move."""
    params, meta = load_checkpoint(BENCH_CHECKPOINT)
    out = tmp_path / "resaved.bin"
    save_checkpoint(out, params, extra_meta=meta)
    assert out.read_bytes() == BENCH_CHECKPOINT.read_bytes()


def test_detach_params_shares_values_and_tracks_nothing():
    params = init_params(seed=15, n_queries=2, n_layers=2, dim=4, num_categories=2,
                         ffn_hidden=4)
    for _, t in named_parameters(params):
        t.grad = np.full(t.values.shape, 7.0)
    frozen = detach_params(params)
    assert frozen.layers is not params.layers
    assert (frozen.n_queries, frozen.num_layers, frozen.dim) == (2, 2, 4)
    for (n1, src), (n2, dst) in zip(named_parameters(params), named_parameters(frozen)):
        assert n1 == n2 and dst is not src
        assert not dst.requires_grad and dst.grad is None
        assert np.array_equal(dst.values, src.values)
        assert src.requires_grad
        assert np.array_equal(src.grad, np.full(src.values.shape, 7.0))


def small_pyramid_and_params(n_queries=2):
    cfg = SynthConfig(height=8, width=8, num_categories=2, feat_dim=8,
                      instance_range=(1, 2), size_range=(2, 3), seed=16)
    pyramid = synth_features(generate_scene(cfg, 0), cfg)
    params = init_params(seed=17, n_queries=n_queries, n_layers=2, dim=8,
                         num_categories=2, ffn_hidden=8)
    return pyramid, params


def mp_spec(pyramid, params, group_id=(0, 0, 0), overrides=None):
    """A spec whose MP part is random query rows in the given groups."""
    group_id = np.array(group_id, dtype=np.intp)
    rows = Tensor(np.random.default_rng(18).uniform(-1, 1, size=(group_id.size, params.dim)))
    zeros = np.zeros(group_id.size, dtype=np.intp)
    part = MPPart(n_groups=int(group_id.max()) + 1, group_id=group_id,
                  instance_index=zeros, gt_categories=zeros, query_categories=zeros,
                  queries=rows, overrides=overrides or {})
    return ForwardSpec(pyramid, params.query_embed, part)


@pytest.mark.parametrize("group_id,expected", [
    ((0, 0, 1, 1), [[0, 0, 0, 0, 1, 1],
                    [0, 0, 0, 0, 1, 1],
                    [0, 0, 1, 1, 0, 0],
                    [0, 0, 1, 1, 0, 0]]),
    ((0,), [[0, 0, 0]]),
], ids=["two-groups-of-two", "one-group-of-one"])
def test_mp_self_block_is_the_mp_rows_of_the_group_grid(monkeypatch, group_id, expected):
    """`expected` is the MP rows of the full (n_match + n_mp)-square grid:
    MP rows see the 2 matching columns and their own group's columns."""
    pyramid, params = small_pyramid_and_params(n_queries=2)
    seen = []

    def recording(parts, feats, cross_blocks, self_blocks, lp, dim):
        seen.append(self_blocks)
        return decoder_layer(parts, feats, cross_blocks, self_blocks, lp, dim)

    monkeypatch.setattr(decoder, "decoder_layer", recording)
    full_forward(mp_spec(pyramid, params, group_id), params)
    assert len(seen) == params.num_layers
    for matching_block, mp_block in seen:
        assert matching_block is None
        assert mp_block.dtype == bool
        assert np.array_equal(mp_block, np.array(expected, dtype=bool))


def test_mp_spec_override_of_wrong_shape_rejected():
    pyramid, params = small_pyramid_and_params()
    spec = mp_spec(pyramid, params, overrides={2: np.zeros((3, 5), dtype=bool)})
    with pytest.raises(ValueError, match="override for layer 2"):
        full_forward(spec, params)


@pytest.mark.parametrize("height,width", [(32, 32), (16, 8)])
def test_layer_scale_table_is_the_scale_full_forward_uses(monkeypatch, height, width):
    cfg = SynthConfig(height=height, width=width, instance_range=(1, 2),
                      size_range=(2, 4), seed=19)
    pyramid = synth_features(generate_scene(cfg, 0), cfg)
    params = init_params(seed=20, n_queries=3, num_categories=cfg.num_categories)
    used = []

    def recording(bits, h, w):
        used.append((h, w))
        return to_attention_blocks(bits, h, w)

    monkeypatch.setattr(decoder, "to_attention_blocks", recording)
    full_forward(plain_spec(pyramid, params), params)
    table = layer_scale_table(height, width, params.num_layers)
    assert [table[i] for i in range(1, params.num_layers + 1)] == used
