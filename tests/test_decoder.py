import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from mpseg import decoder
from mpseg.config import parse_run_config
from mpseg.fields import MAX_HIDDEN, MAX_LAYERS, MAX_SIZE
from mpseg.decoder import (ForwardSpec, binarize_masks, decoder_layer,
                           full_forward, heads, init_params, load_checkpoint,
                           named_parameters, save_checkpoint)
from mpseg.gradcheck import check_gradient
from mpseg.losses import LossWeights, gt_pixels, layer_stats, loss_over_layers
from mpseg.masks import FormatError, to_attention_blocks
from mpseg.mp import MPPart
from mpseg.synth import Scene, SynthConfig, generate_scene, synth_features
from mpseg.tensor import Tensor, concat_rows, fused_attention, mlp2, sigmoid_softplus
from mpseg.trainer import detach_params, layer_scale_table, step_loss
from oracle import add, matmul, mean_pool2x2, mul, per_part_decoder_layer, reshape, sum_all

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
    e = mlp2(queries, [slice(None)], params.mask_w1, params.mask_b1, params.mask_w2,
             params.mask_b2)
    return reshape(matmul(e, Tensor(embed_grid.reshape(h * w, d).T)), -1, h, w)


def spans_of(part_rows) -> list:
    """The row slices of consecutive parts of the given row counts."""
    ends = np.cumsum(part_rows)
    return [slice(int(end - n), int(end)) for n, end in zip(part_rows, ends)]


def class_head(params, queries: Tensor) -> Tensor:
    """The oracle of heads' class logits, one part at a time."""
    return add(matmul(queries, params.cls_w), params.cls_b)


def mask_logits(params, queries, embed):
    return heads(params, queries, [slice(None)], embed)[1]


def test_mask_head_basis_case():
    p = identity_mask_head_params(d=2)
    embed = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # 1x2 grid of 2-vectors
    out = mask_logits(p, Tensor([[1.0, 0.0]]), embed)
    assert out.shape == (1, 1, 2)
    assert np.array_equal(out[0, 0], [1.0, 0.0])


def test_mask_head_zero_query():
    p = identity_mask_head_params(d=2)
    embed = np.ones((3, 3, 2))
    out = mask_logits(p, Tensor([[0.0, 0.0]]), embed)
    assert np.array_equal(out, np.zeros((1, 3, 3)))


def test_mask_head_dimension_mismatch():
    p = identity_mask_head_params(d=2)
    with pytest.raises(ValueError):
        mask_logits(p, Tensor([[1.0, 0.0]]), np.ones((2, 2, 5)))


def test_mask_head_gradient():
    """The mask logits are arrays, so the mask head's gradient reaches
    the queries and its weights through the loss node's gradient at the
    embeddings: the loss of one layer whose two rows are matched to the
    two GT masks, against its central differences."""
    p = init_params(seed=1, n_queries=2, n_layers=1, dim=4, num_categories=2,
                    ffn_hidden=8)
    rng = np.random.default_rng(2)
    embed = rng.uniform(-1, 1, size=(3, 3, 4))
    scene = Scene(index=0, categories=[1, 0], masks=rng.uniform(size=(2, 3, 3)) < 0.5)
    gt = gt_pixels(scene)

    def f(xs):
        p.mask_w1 = xs[1]
        e, masks, classes = heads(p, xs[0], [slice(None)], embed)
        assert isinstance(masks, np.ndarray)
        outputs = decoder.LayerOutputs([masks], [classes], 2, [e], embed.reshape(9, 4))
        probs, means, stats = layer_stats([masks], gt, [slice(None)])
        return loss_over_layers(outputs, probs, means, stats, gt, scene.categories,
                                np.array([[1, 0]]), [None], LossWeights())

    err = check_gradient(f, [rng.uniform(-1, 1, size=(2, 4)), p.mask_w1.values.copy()])
    assert err < 1e-4


@pytest.mark.parametrize("part_rows", [[3], [3, 4]], ids=["one-part", "two-parts"])
def test_heads_match_the_per_part_oracle(part_rows):
    """The mask embeddings, mask logits and class logits bitwise the
    per-part oracle's; every gradient of the embedding and class nodes
    within 1e-12 of its largest entry."""
    rng = np.random.default_rng(3)
    embed = rng.uniform(-1, 1, size=(4, 5, 6))
    weights = [rng.uniform(-1, 1, size=(sum(part_rows), 6)),
               rng.uniform(-1, 1, size=(sum(part_rows), 3))]
    queries = [rng.uniform(-1, 1, size=(n, 6)) for n in part_rows]

    def run(forward):
        p = init_params(seed=5, n_queries=1, n_layers=1, dim=6, num_categories=2,
                        ffn_hidden=4)
        parts = [Tensor(q, requires_grad=True) for q in queries]
        embeddings, masks, classes = forward(p, parts)
        add(sum_all(mul(embeddings, weights[0])), sum_all(mul(classes, weights[1]))).backward()
        grads = [x.grad for x in parts] + [t.grad for _, t in named_parameters(p)
                                           if t.grad is not None]
        return [embeddings.values, masks, classes.values], grads

    values, grads = run(lambda p, parts: heads(p, concat_rows(parts), spans_of(part_rows), embed))
    oracle_values, oracle_grads = run(lambda p, parts: (
        concat_rows([mlp2(x, [slice(None)], p.mask_w1, p.mask_b1, p.mask_w2, p.mask_b2)
                     for x in parts]),
        concat_rows([mask_head(p, x, embed) for x in parts]).values,
        concat_rows([class_head(p, x) for x in parts])))
    for v, o in zip(values, oracle_values):
        assert np.array_equal(v, o)
    assert len(grads) == len(oracle_grads) == len(part_rows) + 6
    for g, o in zip(grads, oracle_grads):
        assert np.abs(g - o).max() <= 1e-12 * np.abs(o).max()


def test_heads_record_one_mask_and_one_class_node():
    """The mask head records one mlp2 node, the embeddings; the class head
    one linear node; the mask logits are arrays. So does every layer of a
    forward that tracks gradients, whose outputs hold the embedding
    grid."""
    p = init_params(seed=5, n_queries=1, n_layers=1, dim=2, num_categories=2,
                    ffn_hidden=4)
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    embeddings, masks, classes = heads(p, x, [slice(0, 1), slice(1, 3)], np.ones((3, 3, 2)))
    assert embeddings._parents == (x, p.mask_w1, p.mask_b1, p.mask_w2, p.mask_b2)
    assert classes._parents == (x, p.cls_w, p.cls_b)
    assert isinstance(masks, np.ndarray)
    features, params = small_features_and_params()
    out = full_forward(ForwardSpec(features), params)
    kinds = [(e._backward.__qualname__.split(".")[0], c._backward.__qualname__.split(".")[0])
             for e, c in zip(out.mask_embeds, out.class_logits)]
    assert kinds == [("mlp2", "linear")] * (params.num_layers + 1)
    assert out.grid.base is features


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


def sigmoid(x):
    return sigmoid_softplus(x)[0]


def test_binarize_masks_is_the_sigmoid_rule_read_off_the_sign():
    logits = np.random.default_rng(0).normal(scale=10.0, size=10 ** 6)
    assert np.array_equal(binarize_masks(logits), sigmoid(logits) > 0.5)
    assert not binarize_masks(np.array([0.0, -0.0])).any()
    # The one gap: for 0 < x < 1.6e-16 the float sigmoid rounds to exactly
    # 0.5, so the sigmoid rule read "off" where the sign rule reads "on".
    tiny = np.array([5e-324, 1e-16, 1.56e-16])
    assert not (sigmoid(tiny) > 0.5).any() and binarize_masks(tiny).all()
    assert sigmoid(np.array([1.57e-16]))[0] > 0.5


def test_cross_attention_single_pixel_support():
    d = 4
    p = init_params(seed=3, n_queries=1, n_layers=1, dim=d, num_categories=2,
                    ffn_hidden=8)
    lp = p.layers[0]
    lp.wo.values = np.eye(d)
    rng = np.random.default_rng(4)
    feats = rng.uniform(-1, 1, size=(6, d))
    block = np.ones((1, 6), dtype=bool)
    block[0, 2] = False
    x = Tensor(rng.uniform(-1, 1, size=(1, d)))
    out = fused_attention(x, feats, [(slice(None), slice(None), block)], lp.wq, lp.wk, lp.wv,
                          lp.wo, 1.0 / np.sqrt(d))
    expected = feats[2] @ lp.wv.values
    assert np.allclose(out.values[0], expected, atol=1e-12)


def test_self_attention_single_query_identity():
    d = 4
    p = init_params(seed=5, n_queries=1, n_layers=1, dim=d, num_categories=2,
                    ffn_hidden=8)
    lp = p.layers[0]
    lp.so.values = np.eye(d)
    x = Tensor(np.random.default_rng(6).uniform(-1, 1, size=(1, d)))
    out = fused_attention(x, x, [(slice(None), slice(None), np.zeros((1, 1), dtype=bool))],
                          lp.sq, lp.sk, lp.sv, lp.so,
                          1.0 / np.sqrt(d))
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
        return decoder_layer(xs[0], [slice(0, 2)], feats_v, [block], [None], lp, d)

    err = check_gradient(f, [rng.uniform(-1, 1, size=(2, d)), lp.wq.values.copy(),
                             lp.ffn_w1.values.copy(), lp.ln1_g.values.copy()], w)
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
        return decoder_layer(concat_rows([xs[0], xs[1]]), [slice(0, 2), slice(2, 5)],
                             feats_v, cross, [None, mp_self], lp, d)

    err = check_gradient(f, [rng.uniform(-1, 1, size=(2, d)),
                             rng.uniform(-1, 1, size=(3, d)), lp.sk.values.copy()], w)
    assert err < 1e-4


@pytest.mark.parametrize("part_rows", [[5], [5, 7]], ids=["one-part", "two-parts"])
def test_decoder_layer_matches_the_per_part_oracle(part_rows):
    """Rows bitwise those of the layer with nodes of its own per part;
    every gradient, the parts' and each layer parameter's, within 1e-13
    of its largest entry. The matching part's cross grid closes columns
    0-9 for every row; the MP part's blocks its row 2 fully, and its
    self grid lets each row read the matching rows and its own group."""
    d = 8
    rng = np.random.default_rng(22)
    feats = rng.uniform(-1, 1, size=(48, d))
    queries = [rng.uniform(-1, 1, size=(n, d)) for n in part_rows]
    cross = [rng.uniform(size=(n, 48)) < 0.5 for n in part_rows]
    cross[0][:, :10] = True
    cross[0][:, 10] = False
    gid = np.array([0, 0, 0, 1, 1, 2, 2])
    self_blocks = [None, np.hstack([np.zeros((7, 5), dtype=bool), gid[:, None] != gid])]
    if len(part_rows) == 2:
        cross[1][2] = True
    weight = rng.uniform(-1, 1, size=(sum(part_rows), d))

    def run(layer):
        p = init_params(seed=23, n_queries=1, n_layers=1, dim=d, num_categories=2,
                        ffn_hidden=16)
        parts = [Tensor(q, requires_grad=True) for q in queries]
        out = layer(parts, p.layers[0])
        out.backward(weight)
        return out.values, [x.grad for x in parts] + [t.grad for _, t in
                                                       named_parameters(p)[-18:]]

    value, grads = run(lambda parts, lp: decoder_layer(
        concat_rows(parts), spans_of(part_rows), feats, cross, self_blocks, lp, d))
    expected, expected_grads = run(lambda parts, lp: concat_rows(per_part_decoder_layer(
        parts, feats, cross, self_blocks, lp, d)))
    assert np.array_equal(value, expected)
    assert len(grads) == len(part_rows) + 18
    for g, o in zip(grads, expected_grads):
        assert np.abs(g - o).max() <= 1e-13 * np.abs(o).max()


def scene_and_features(seed=0, n_cat=4):
    cfg = SynthConfig(num_categories=n_cat, seed=seed)
    scene = generate_scene(cfg, 0)
    return scene, synth_features(scene, cfg), cfg


def test_full_forward_shape_contract():
    _, features, cfg = scene_and_features()
    params = init_params(seed=9, n_queries=5, n_layers=9, dim=32,
                         num_categories=cfg.num_categories)
    out = full_forward(ForwardSpec(features), params)
    assert len(out.mask_logits) == 10
    assert len(out.class_logits) == 10
    for ml, cl in zip(out.mask_logits, out.class_logits):
        assert ml.shape == (5, 32, 32)
        assert cl.values.shape == (5, cfg.num_categories + 1)


def test_full_forward_deterministic():
    _, features, cfg = scene_and_features(seed=1)
    params = init_params(seed=10, n_queries=4, n_layers=9, dim=32,
                         num_categories=cfg.num_categories)
    a = full_forward(ForwardSpec(features), params)
    b = full_forward(ForwardSpec(features), params)
    for x, y in zip(a.mask_logits, b.mask_logits):
        assert np.array_equal(x, y)
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
    init_params' constructor, which the loader lays the parameters out
    with, stubbed so that reaching it raises instead of allocating."""
    params = init_params(seed=21, n_queries=2, n_layers=1, dim=4, num_categories=2,
                         ffn_hidden=4)
    path = tmp_path / "extent.bin"
    save_checkpoint(path, params)
    header, rest = path.read_bytes().split(b"\n", 1)
    magic, version, meta = header.decode("ascii").split(" ", 2)
    meta = json.dumps({**json.loads(meta), key: value})
    path.write_bytes(f"{magic} {version} {meta}\n".encode("ascii") + rest)

    def reached(*args):
        raise AssertionError("init_params reached")

    monkeypatch.setattr(decoder, "_assemble", reached)
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


def test_loading_a_checkpoint_draws_no_random_number(tmp_path, monkeypatch):
    tiny = init_params(seed=23, n_queries=3, n_layers=2, dim=6, num_categories=2,
                       ffn_hidden=5)
    path = tmp_path / "tiny.bin"
    save_checkpoint(path, tiny)

    def drawn(*args, **kw):
        raise AssertionError("a random number was drawn")

    monkeypatch.setattr(decoder, "seeded_rng", drawn)
    loaded, _ = load_checkpoint(path)
    for (n1, t1), (n2, t2) in zip(named_parameters(tiny), named_parameters(loaded),
                                  strict=True):
        assert n1 == n2
        assert t2.values.dtype == np.float64 and t2.values.flags.c_contiguous
        assert t2.values.tobytes() == t1.values.tobytes()
        assert t2.requires_grad and t2.grad is None
    # the bench checkpoint's arrays, resaved, are the file's bytes
    params, meta = load_checkpoint(BENCH_CHECKPOINT)
    save_checkpoint(tmp_path / "bench.bin", params, extra_meta=meta)
    assert (tmp_path / "bench.bin").read_bytes() == BENCH_CHECKPOINT.read_bytes()


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


def small_features_and_params(n_queries=2):
    cfg = SynthConfig(height=8, width=8, num_categories=2, feat_dim=8,
                      instance_range=(1, 2), size_range=(2, 3), seed=16)
    features = synth_features(generate_scene(cfg, 0), cfg)
    params = init_params(seed=17, n_queries=n_queries, n_layers=2, dim=8,
                         num_categories=2, ffn_hidden=8)
    return features, params


def mp_spec(features, params, group_id=(0, 0, 0), overrides=None):
    """A spec whose MP part is rows of random categories in the given groups."""
    group_id = np.array(group_id, dtype=np.intp)
    cats = np.random.default_rng(18).integers(0, params.num_categories, size=group_id.size)
    part = MPPart(group_id=group_id, instance_index=np.zeros(group_id.size, dtype=np.intp),
                  query_categories=cats, overrides=overrides or {})
    return ForwardSpec(features, part)


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
    features, params = small_features_and_params(n_queries=2)
    seen = []

    def recording(x, spans, feats, cross_blocks, self_blocks, lp, dim):
        seen.append(self_blocks)
        return decoder_layer(x, spans, feats, cross_blocks, self_blocks, lp, dim)

    monkeypatch.setattr(decoder, "decoder_layer", recording)
    full_forward(mp_spec(features, params, group_id), params)
    assert len(seen) == params.num_layers
    for matching_block, mp_block in seen:
        assert matching_block is None
        assert mp_block.dtype == bool
        assert np.array_equal(mp_block, np.array(expected, dtype=bool))


def recorded_pools(monkeypatch) -> list:
    """Weak references to every scale that decoder.pool2x2 makes from now on."""
    pool, made = decoder.pool2x2, []

    def recording(grid):
        scale = pool(grid)
        made.append(weakref.ref(scale))
        return scale

    monkeypatch.setattr(decoder, "pool2x2", recording)
    return made


def test_a_no_grad_forward_keeps_no_array_of_the_scene_alive(monkeypatch):
    """The outputs of a forward whose parameters track nothing hold no
    embedding grid and no pooled scale: the scales the forward pools are
    freed when it returns, and the feature grid once the spec is dropped,
    while the LayerOutputs lives on, as when evaluation moves on to its
    next scene."""
    pooled = recorded_pools(monkeypatch)
    features, params = small_features_and_params()
    grid = weakref.ref(features)
    spec = ForwardSpec(features)
    del features
    outputs = full_forward(spec, detach_params(params))
    assert len(pooled) == decoder.NUM_SCALES - 1
    assert all(scale() is None for scale in pooled)
    del spec
    assert outputs.grid is None and len(outputs.mask_logits) == params.num_layers + 1
    assert grid() is None


def test_a_tracked_forward_keeps_its_pooled_scales_only_on_its_tape(monkeypatch):
    """The cross-attention nodes of a forward that tracks gradients hold
    the scales they read until the outputs, and with them the tape, are
    dropped; no pooled scale is kept for the next forward."""
    pooled = recorded_pools(monkeypatch)
    features, params = small_features_and_params()
    outputs = full_forward(ForwardSpec(features), params)
    assert len(pooled) == decoder.NUM_SCALES - 1
    assert all(scale() is not None for scale in pooled)
    del outputs
    assert all(scale() is None for scale in pooled)


@pytest.mark.parametrize("forward", ["tracked", "tracked-mp", "detached"])
def test_only_what_the_tape_differentiates_is_a_tensor(forward):
    """Every mask logit is an array, in a tracked forward with and without
    an MP part and in a detached one; in a tracked forward every Tensor
    of the outputs tracks gradients."""
    features, params = small_features_and_params()
    spec = mp_spec(features, params) if forward == "tracked-mp" else ForwardSpec(features)
    out = full_forward(spec, detach_params(params) if forward == "detached" else params)
    assert len(out.mask_logits) == params.num_layers + 1
    assert all(type(ml) is np.ndarray for ml in out.mask_logits)
    items = [x for v in vars(out).values() for x in (v if isinstance(v, list) else [v])]
    tensors = [x for x in items if isinstance(x, Tensor)]
    assert len(tensors) == 2 * (params.num_layers + 1)  # class logits and mask embeddings
    assert {t.requires_grad for t in tensors} == {forward != "detached"}


def test_mp_spec_override_of_wrong_shape_rejected():
    """An override is the MP part's 3 masks at the scene's 8x8 extents: a
    grid, masks of other extents and another row count are rejected."""
    features, params = small_features_and_params()
    for shape in ((3, 5), (3, 5, 5), (4, 8, 8)):
        spec = mp_spec(features, params, overrides={2: np.zeros(shape, dtype=bool)})
        with pytest.raises(ValueError):
            full_forward(spec, params)


def test_cross_blocks_are_the_override_where_given_else_the_predictions(monkeypatch):
    """At layer 2 the MP rows' cross grid blocks outside their override
    masks; at layer 1 it comes from their own layer-0 predictions, by the
    same rule. The matching rows' grids are a plain forward's."""
    features, params = small_features_and_params(n_queries=2)
    override = np.random.default_rng(21).uniform(size=(3, 8, 8)) < 0.5
    seen = []

    def recording(x, spans, feats, cross_blocks, self_blocks, lp, dim):
        seen.append(cross_blocks)
        return decoder_layer(x, spans, feats, cross_blocks, self_blocks, lp, dim)

    monkeypatch.setattr(decoder, "decoder_layer", recording)
    plain = full_forward(ForwardSpec(features), params)
    piloted = full_forward(mp_spec(features, params, overrides={2: override}), params)
    (plain1,), (plain2,) = seen[:2]
    (match1, mp1), (match2, mp2) = seen[2:]
    assert np.array_equal(match1, plain1) and np.array_equal(match2, plain2)
    predicted = [blocks_of_logits(piloted.mask_logits[i][2:], *hw)
                 for i, hw in ((0, (2, 2)), (1, (4, 4)))]
    assert np.array_equal(mp1, predicted[0])
    assert np.array_equal(mp2, to_attention_blocks(override, 4, 4))
    assert not np.array_equal(mp2, predicted[1])


@pytest.mark.parametrize("height,width", [(32, 32), (16, 8)])
def test_layer_scale_table_is_the_scale_full_forward_uses(monkeypatch, height, width):
    cfg = SynthConfig(height=height, width=width, instance_range=(1, 2),
                      size_range=(2, 4), seed=19)
    features = synth_features(generate_scene(cfg, 0), cfg)
    params = init_params(seed=20, n_queries=3, num_categories=cfg.num_categories)
    used = []

    def recording(bits, h, w):
        used.append((h, w))
        return to_attention_blocks(bits, h, w)

    monkeypatch.setattr(decoder, "to_attention_blocks", recording)
    full_forward(ForwardSpec(features), params)
    table = layer_scale_table(height, width, params.num_layers)
    assert [table[i] for i in range(1, params.num_layers + 1)] == used


@pytest.mark.parametrize("height,width,dim", [(32, 32, 32), (16, 8, 8), (4, 4, 2)])
def test_the_forwards_scales_are_the_reference_pools_bitwise(monkeypatch, height, width, dim):
    """The scales layers 1-3 attend to are the oracle's numpy-mean pools
    of a random feature grid, twice and once, and the grid, bit for bit;
    at 4x4 the coarsest is 1x1."""
    grid = np.random.default_rng(22).standard_normal((height, width, dim))
    params = init_params(seed=23, n_queries=2, n_layers=3, dim=dim, num_categories=1,
                         ffn_hidden=8)
    seen = []

    def recording(x, spans, feats, cross_blocks, self_blocks, lp, dim):
        seen.append(feats)
        return decoder_layer(x, spans, feats, cross_blocks, self_blocks, lp, dim)

    monkeypatch.setattr(decoder, "decoder_layer", recording)
    full_forward(ForwardSpec(grid), params)
    half = mean_pool2x2(grid)
    expected = [mean_pool2x2(half), half, grid]
    assert [g.shape[:2] for g in expected] == decoder.scale_extents(height, width)
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        assert np.array_equal(got.view(np.uint64), want.reshape(-1, dim).view(np.uint64))


@pytest.mark.parametrize("variant", ["baseline", "mp-all+noises"])
def test_a_4x4_scene_steps_through_a_1x1_scale(monkeypatch, variant):
    """4x4 is the smallest scene SynthConfig allows, and its coarsest
    scale is 1x1: a plain step's forward and an MP one's, whose noised GT
    masks pilot every layer, attend to it, and the loss and every
    gradient are finite."""
    cfg = parse_run_config({"variant": variant,
                            "synth": {"height": 4, "width": 4, "feat_dim": 8,
                                      "instance_range": [1, 2], "size_range": [1, 2]},
                            "model": {"n_queries": 3, "num_layers": 3, "dim": 8,
                                      "ffn_hidden": 8}})
    scene = generate_scene(cfg.synth, 0)
    params = init_params(seed=24, n_queries=3, n_layers=3, dim=8,
                         num_categories=cfg.synth.num_categories, ffn_hidden=8)
    used = []

    def recording(bits, h, w):
        used.append((h, w))
        return to_attention_blocks(bits, h, w)

    monkeypatch.setattr(decoder, "to_attention_blocks", recording)
    loss, _, mp_part = step_loss(cfg, params, scene, synth_features(scene, cfg.synth), 0)
    loss.backward()
    assert used == [(1, 1), (2, 2), (4, 4)]
    assert (mp_part is not None) == (variant == "mp-all+noises")
    if mp_part is not None:
        assert sorted(mp_part.overrides) == [1, 2, 3]
    assert np.isfinite(loss.values)
    grads = [p.grad for _, p in named_parameters(params) if p.grad is not None]
    assert grads and all(np.isfinite(g).all() for g in grads)
