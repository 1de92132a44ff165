import numpy as np
import pytest

from mpseg.decoder import LayerOutputs, heads, init_params
from mpseg.gradcheck import check_gradient
from mpseg.losses import LossWeights, layer_losses
from mpseg.synth import Scene
from mpseg.tensor import (NEG_BIG, Tensor, add_norm_affine, concat_rows, fused_attention, linear,
                          mlp2, sigmoid_softplus)
from oracle import (add, bce_with_logits, dense_attention, div, gather_cols, layernorm_lastdim,
                    log, log1p_exp_neg_abs, logsumexp_lastdim, masked_fill, matmul, mean_all,
                    mul, relu, reshape, sigmoid, sigmoid_where, softmax_lastdim, sub, sum_all,
                    sum_lastdim, sum_scalars, transpose)


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(matmul(a, b).values, b.values)


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.values.shape == (1, 1)
    assert out.values[0, 0] == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError) as exc:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(3)
    a = rng.uniform(-2, 2, size=(3, 4))
    b = rng.uniform(-2, 2, size=(4, 2))
    w = rng.uniform(-1, 1, size=(3, 2))
    err = check_gradient(lambda xs: matmul(xs[0], xs[1]), [a, b], w)
    assert err < 1e-6


def test_check_gradient_perturbs_copies_of_its_inputs():
    w = np.random.default_rng(9).uniform(-2, 2, size=(3, 4))
    # w is both the input and a constant of f: d/dx sum(x * w) = w
    assert check_gradient(lambda xs: sum_all(mul(xs[0], w)), [w]) < 1e-6


def test_softmax_symmetry():
    out = softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.values, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_dominance_stability():
    out = softmax_lastdim(Tensor([1000.0, 0.0]))
    assert abs(out.values[0] - 1.0) < 1e-12
    assert abs(out.values[1]) < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = softmax_lastdim(Tensor(rng.uniform(-50, 50, size=(6, 9))))
    assert np.abs(out.values.sum(axis=-1) - 1.0).max() < 1e-12


def test_softmax_jacobian_vs_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.uniform(-2, 2, size=(5,))
    w = rng.uniform(-1, 1, size=(5,))
    err = check_gradient(lambda xs: softmax_lastdim(xs[0]), [x], w)
    assert err < 1e-6


def test_sigmoid_relu_values():
    assert sigmoid(Tensor([0.0])).values[0] == 0.5
    assert relu(Tensor([-3.0])).values[0] == 0.0
    assert relu(Tensor([3.0])).values[0] == 3.0


EDGE_LOGITS = [0.0, 5e-324, 1.57e-16, 36.8, 709.0, 746.0, np.inf]


@pytest.mark.parametrize("x", [
    np.array([s * v for v in EDGE_LOGITS for s in (1.0, -1.0)]),
    np.random.default_rng(24).normal(scale=8.0, size=(40, 32, 32)),
], ids=["edges", "random"])
def test_sigmoid_softplus_is_bitwise_the_oracle(x):
    """One exp, a max select and in-place ops give the bits of the np.where
    sigmoid and of log1p(exp(-|x|)), signed zeros and infinities included."""
    kept = x.copy()
    probs, softplus = sigmoid_softplus(x)
    assert probs.shape == softplus.shape == x.shape
    assert np.array_equal(probs.view(np.int64), sigmoid_where(x).view(np.int64))
    assert np.array_equal(softplus.view(np.int64), log1p_exp_neg_abs(x).view(np.int64))
    assert np.array_equal(x.view(np.int64), kept.view(np.int64))


def test_sigmoid_softplus_keeps_nan():
    probs, softplus = sigmoid_softplus(np.array([np.nan, -np.nan]))
    assert np.isnan(probs).all() and np.isnan(softplus).all()


def test_layernorm_hand_case():
    out = layernorm_lastdim(Tensor([2.0, 4.0, 6.0]))
    assert np.allclose(out.values, [-1.2247, 0.0, 1.2247], atol=1e-3)
    assert abs(out.values.mean()) < 1e-12
    assert abs(out.values.var() - 1.0) < 1e-4


def test_broadcast_incompatibility_raises():
    with pytest.raises(ValueError):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_masked_fill_allfalse_is_identity():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = masked_fill(x, np.zeros((2, 2), dtype=bool), -1e9)
    assert np.array_equal(out.values, x.values)


def test_masked_fill_alltrue_blocks_gradient():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    out = masked_fill(x, np.ones((2, 2), dtype=bool), -1e9)
    assert (out.values == -1e9).all()
    out.backward(np.ones((2, 2)))
    assert np.array_equal(x.grad, np.zeros((2, 2)))


def test_masked_fill_mixed_gradient():
    block = np.array([[True, False], [False, True]])
    x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    masked_fill(x, block, -7.0).backward(np.ones((2, 2)))
    assert np.array_equal(x.grad, np.where(block, 0.0, 1.0))
    rng = np.random.default_rng(5)
    err = check_gradient(lambda xs: sigmoid(masked_fill(xs[0], block, -7.0)),
                         [rng.uniform(-2, 2, size=(2, 2))], np.ones((2, 2)))
    assert err < 1e-6


def test_masked_fill_shape_mismatch():
    with pytest.raises(ValueError):
        masked_fill(Tensor(np.zeros((2, 2))), np.zeros((2, 3), dtype=bool), 0.0)


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    sum_all(mul(x, x)).backward()
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_detached_constant_gives_zero_grads():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = sum_scalars([sum_all(mul(Tensor(x.values), Tensor(x.values))), Tensor(0.0)])
    loss.backward()
    assert x.grad is None


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match=r"scalar loss or a seed, got shape \(2,\)"):
        mul(x, x).backward()


def test_backward_seed_of_the_wrong_shape_names_both_shapes():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with pytest.raises(ValueError) as exc:
        matmul(x, Tensor(np.ones((3, 4)))).backward(np.ones((4, 2)))
    assert "(4, 2)" in str(exc.value) and "(2, 4)" in str(exc.value)
    assert x.grad is None


def test_backward_accumulates_without_reset():
    x = Tensor([1.0, 2.0], requires_grad=True)
    sum_all(mul(x, x)).backward()
    first = x.grad.copy()
    sum_all(mul(x, x)).backward()
    assert np.array_equal(x.grad, 2 * first)


def test_a_later_gradient_leaves_a_shared_first_gradient_unchanged():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0, 4.0], requires_grad=True)
    sum_all(add(x, y)).backward()
    assert x.grad is y.grad
    x._accumulate(np.array([10.0, 20.0]))
    assert np.array_equal(x.grad, [11.0, 21.0])
    assert np.array_equal(y.grad, [1.0, 1.0])


def test_forward_bit_identical_across_evaluations():
    rng = np.random.default_rng(6)
    x = Tensor(rng.uniform(-2, 2, size=(4, 6)), requires_grad=True)
    w = Tensor(rng.uniform(-2, 2, size=(6, 3)), requires_grad=True)

    def run():
        return sum_all(sigmoid(softmax_lastdim(layernorm_lastdim(matmul(x, w))))).values.copy()

    assert np.array_equal(run(), run())


def test_bce_with_logits_matches_definition():
    rng = np.random.default_rng(7)
    x = rng.uniform(-4, 4, size=(5,))
    t = (rng.uniform(size=5) < 0.5).astype(float)
    out = bce_with_logits(Tensor(x), t).values
    p = 1.0 / (1.0 + np.exp(-x))
    expected = -(t * np.log(p) + (1 - t) * np.log(1 - p))
    assert np.allclose(out, expected, atol=1e-12)


def test_concat_rows_and_take_rows_roundtrip():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.arange(6.0, 15.0).reshape(3, 3), requires_grad=True)
    cat = concat_rows([a, b])
    assert cat.values.shape == (5, 3)
    picked = cat.take_rows([0, 3])
    sum_all(mul(picked, picked)).backward()
    assert np.array_equal(a.grad[0], 2 * a.values[0])
    assert np.array_equal(a.grad[1], np.zeros(3))
    assert np.array_equal(b.grad[1], 2 * b.values[1])


def test_logsumexp_matches_numpy():
    rng = np.random.default_rng(8)
    x = rng.uniform(-3, 3, size=(4, 5))
    out = logsumexp_lastdim(Tensor(x)).values
    expected = np.log(np.exp(x).sum(axis=-1))
    assert np.allclose(out, expected, atol=1e-12)


def oracle_gradient_rows(rng) -> dict:
    """name -> (f, inputs, weight): a finite-difference row for each
    oracle primitive, its output weighted by an array of its shape."""
    u = rng.uniform(-2.0, 2.0, size=(3, 4))
    w = rng.uniform(-2.0, 2.0, size=(3, 4))
    relu_in = rng.uniform(-2.0, 2.0, size=(3, 4))
    relu_in[np.abs(relu_in) < 0.1] = 0.5  # keep probes away from the kink
    block = rng.uniform(size=(3, 4)) < 0.5
    tgt = (rng.uniform(size=(3, 4)) < 0.5).astype(float)
    row = rng.uniform(-2.0, 2.0, size=(4,))
    positive = rng.uniform(1.0, 2.0, size=(3, 4))
    w3 = np.array([1.0, -2.0, 0.5])
    return {
        "relu": (lambda xs: relu(xs[0]), [relu_in], w),
        "sigmoid": (lambda xs: sigmoid(xs[0]), [u], w),
        "log": (lambda xs: log(xs[0]), [rng.uniform(0.5, 2.0, size=(3, 4))], w),
        "softmax": (lambda xs: softmax_lastdim(xs[0]), [u], w),
        "logsumexp": (lambda xs: logsumexp_lastdim(xs[0]), [u], w3),
        "layernorm": (lambda xs: layernorm_lastdim(xs[0]), [u], w),
        "masked_fill": (lambda xs: masked_fill(xs[0], block, -5.0), [u], w),
        "bce_with_logits": (lambda xs: bce_with_logits(xs[0], tgt), [u], w),
        "gather_cols": (lambda xs: gather_cols(xs[0], [1, 3, 0]), [u], w3),
        "transpose_reshape": (lambda xs: reshape(transpose(xs[0]), 2, 6), [u], w.reshape(2, 6)),
        "sum_lastdim": (lambda xs: sum_lastdim(xs[0]), [u], w3),
        "add_broadcast": (lambda xs: add(xs[0], xs[1]), [u, row], w),
        "sub": (lambda xs: sub(xs[0], xs[1]), [u, relu_in], w),
        "mul_broadcast": (lambda xs: mul(xs[0], xs[1]), [u, row], w),
        "div": (lambda xs: div(xs[0], xs[1]), [u, positive], w),
        "sum_all": (lambda xs: sum_all(xs[0]), [u], None),
        "mean_all": (lambda xs: mean_all(xs[0]), [u], None),
    }


@pytest.mark.parametrize("name", list(oracle_gradient_rows(np.random.default_rng(0))))
def test_oracle_primitive_gradient(name):
    f, inputs, weight = oracle_gradient_rows(np.random.default_rng(0))[name]
    assert check_gradient(f, inputs, weight) < 1e-4


# ----------------------------------------------------------------------
# fused ops against their compositions of primitives


def assert_same_as_composition(fused, composed, arrays, seed):
    """fused and composed map a list of Tensors to one Tensor. Their
    values must be bitwise equal and every input gradient equal to 1e-12
    of its largest entry."""
    weight = None
    grads = []
    for f in (fused, composed):
        xs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = f(xs)
        if weight is None:
            weight = np.random.default_rng(seed).uniform(-1, 1, size=out.values.shape)
            value = out.values
        else:
            assert np.array_equal(out.values, value)
        out.backward(weight)
        grads.append([x.grad for x in xs])
    for g_fused, g_composed in zip(*grads):
        scale = np.abs(g_composed).max()
        assert scale > 0
        assert np.abs(g_fused - g_composed).max() <= 1e-12 * scale


def one_part(block):
    """The parts argument of a fused_attention call whose rows read every
    row of src under one grid."""
    return [(slice(None), slice(None), block)]


def composed_attention(x, src, block, wq, wk, wv, wo, scale):
    logits = mul(matmul(matmul(x, wq), transpose(matmul(src, wk))), scale)
    if block is not None:
        logits = masked_fill(logits, block, NEG_BIG)
    return matmul(matmul(softmax_lastdim(logits), matmul(src, wv)), wo)


@pytest.mark.parametrize("blocking", ["none", "partial", "full-row"])
def test_fused_attention_matches_composition(blocking):
    # every grid here leaves each column open to some row or blocks a whole
    # row, so the op reads every column, as the composition does
    rng = np.random.default_rng(11)
    arrays = [rng.uniform(-1, 1, size=s) for s in ((4, 6), (7, 6), (6, 6), (6, 6), (6, 6),
                                                   (6, 6))]
    block = None
    if blocking != "none":
        block = rng.uniform(size=(4, 7)) < 0.4
        block[:, 0] = False
        assert not block.all(axis=0).any()
        if blocking == "full-row":
            block[2] = True
    scale = 1.0 / np.sqrt(6)
    assert_same_as_composition(
        lambda xs: fused_attention(xs[0], xs[1], one_part(block), *xs[2:], scale),
        lambda xs: composed_attention(xs[0], xs[1], block, *xs[2:], scale),
        arrays, seed=1)


def dense_oracle_attention(xs, block, scale):
    x, src, wq, wk, wv, wo = xs
    return dense_attention(x, matmul(src, wk), matmul(src, wv), block, wq, wo, scale)


@pytest.mark.parametrize("blocking", ["closed-columns", "fully-blocked-row", "fully-open-row",
                                      "none"])
def test_fused_attention_matches_the_dense_oracle(blocking):
    """Over a grid that closes columns 0-15 for every row, the op
    computes on the columns its rows read; a fully blocked row, a fully
    open row or no grid makes it read every column. Values agree within
    1e-14 relative, and every gradient, src's included, within 1e-13 of
    its largest entry."""
    rng = np.random.default_rng(19)
    arrays = [rng.uniform(-1, 1, size=s) for s in ((5, 8), (48, 8), (8, 8), (8, 8), (8, 8),
                                                   (8, 8))]
    block = rng.uniform(size=(5, 48)) < 0.6
    block[:, :16] = True
    block[:, 16] = False
    if blocking == "fully-blocked-row":
        block[2] = True
    elif blocking == "fully-open-row":
        block[3] = False
    elif blocking == "none":
        block = None
    weight = rng.uniform(-1, 1, size=(5, 8))
    scale = 1.0 / np.sqrt(8)
    runs = []
    for f in (lambda xs: fused_attention(xs[0], xs[1], one_part(block), *xs[2:], scale),
              lambda xs: dense_oracle_attention(xs, block, scale)):
        xs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = f(xs)
        out.backward(weight)
        runs.append((out.values, [x.grad for x in xs]))
    (value, grads), (expected, expected_grads) = runs
    np.testing.assert_allclose(value, expected, rtol=1e-14, atol=0)
    for g, g_expected in zip(grads, expected_grads):
        scale_g = np.abs(g_expected).max()
        assert scale_g > 0
        assert np.abs(g - g_expected).max() <= 1e-13 * scale_g


def test_fused_attention_reads_no_column_that_every_row_blocks():
    # NaN in a column that every row blocks would reach every row's output
    # through the dense op's values; the op never projects it
    rng = np.random.default_rng(20)
    x, src = Tensor(rng.uniform(-1, 1, size=(3, 4))), rng.uniform(-1, 1, size=(6, 4))
    w = [Tensor(rng.uniform(-1, 1, size=(4, 4))) for _ in range(4)]
    block = rng.uniform(size=(3, 6)) < 0.3
    block[:, 2] = True
    block[:, 0] = False
    src[2] = np.nan
    with np.errstate(invalid="ignore"):
        dense = dense_oracle_attention([x, Tensor(src), *w], block, 0.5)
    assert np.isnan(dense.values).all()
    out = fused_attention(x, Tensor(src), one_part(block), *w, 0.5)
    assert np.isfinite(out.values).all()


def test_fused_attention_fully_blocked_row_is_uniform_and_passes_no_logit_gradient():
    rng = np.random.default_rng(12)
    x = Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)
    src = Tensor(rng.uniform(-1, 1, size=(4, 3)))
    wk = Tensor(np.eye(3), requires_grad=True)
    eye = Tensor(np.eye(3))
    block = np.zeros((2, 4), dtype=bool)
    block[1] = True
    out = fused_attention(x, src, one_part(block), eye, wk, eye, eye, 1.0)
    np.testing.assert_allclose(out.values[1], src.values.mean(axis=0), rtol=0, atol=1e-15)
    out.backward(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
    assert x.grad is not None and not x.grad[1].any()
    assert not wk.grad.any()


def test_fused_attention_block_shape_mismatch():
    t = Tensor(np.zeros((2, 3)))
    eye = Tensor(np.eye(3))
    with pytest.raises(ValueError):
        fused_attention(t, t, one_part(np.zeros((2, 3), dtype=bool)), eye, eye, eye, eye, 1.0)


def test_a_cross_attention_over_an_array_records_and_differentiates_no_source(monkeypatch):
    """An array source, as full_forward passes each feature scale: the
    node's parents are (x, wq, wk, wv, wo), and its backward hands a
    gradient to them alone. The output and those gradients are bitwise
    those of the same call on an untracked Tensor source, to which the
    backward hands one more, dropped."""
    rng = np.random.default_rng(21)
    x_v, src = rng.uniform(-1, 1, size=(3, 4)), rng.uniform(-1, 1, size=(6, 4))
    w_v = [rng.uniform(-1, 1, size=(4, 4)) for _ in range(4)]
    block = rng.uniform(size=(3, 6)) < 0.3
    block[:, 2] = True   # a column that every row blocks, so the source is compacted
    block[:, 0] = False
    g = rng.uniform(-1, 1, size=(3, 4))
    handed = []
    real = Tensor._accumulate

    def recording(self, grad):
        handed.append(self)
        real(self, grad)

    monkeypatch.setattr(Tensor, "_accumulate", recording)
    sources, runs = (src, Tensor(src)), []
    for source in sources:
        inputs = [Tensor(v, requires_grad=True) for v in [x_v] + w_v]
        out = fused_attention(inputs[0], source, one_part(block), *inputs[1:], 0.5)
        handed.clear()
        out.backward(g)
        runs.append((out, inputs, {id(t) for t in handed} - {id(out)}))
    (out, inputs, handed_array), (ref, ref_inputs, handed_tensor) = runs
    assert out._parents == tuple(inputs)
    assert handed_array == {id(t) for t in inputs}
    assert ref._parents == (ref_inputs[0], sources[1], *ref_inputs[1:])
    assert handed_tensor == {id(t) for t in ref._parents} and sources[1].grad is None
    assert np.array_equal(out.values, ref.values)
    for t, r in zip(inputs, ref_inputs):
        assert np.array_equal(t.grad, r.grad)


def test_add_norm_affine_matches_composition():
    rng = np.random.default_rng(13)
    arrays = [rng.uniform(-2, 2, size=(5, 8)), rng.uniform(-2, 2, size=(5, 8)),
              rng.uniform(0.5, 1.5, size=(8,)), rng.uniform(-1, 1, size=(8,))]
    assert_same_as_composition(
        lambda xs: add_norm_affine(*xs),
        lambda xs: add(mul(layernorm_lastdim(add(xs[0], xs[1])), xs[2]), xs[3]),
        arrays, seed=2)


def test_mlp2_matches_composition():
    rng = np.random.default_rng(14)
    arrays = [rng.uniform(-2, 2, size=(5, 8)), rng.uniform(-1, 1, size=(8, 16)),
              rng.uniform(-1, 1, size=(16,)), rng.uniform(-1, 1, size=(16, 8)),
              rng.uniform(-1, 1, size=(8,))]
    assert_same_as_composition(
        lambda xs: mlp2(xs[0], [slice(None)], *xs[1:]),
        lambda xs: add(matmul(relu(add(matmul(xs[0], xs[1]), xs[2])), xs[3]), xs[4]),
        arrays, seed=3)


def test_fused_ops_record_one_node_and_none_without_grad():
    rng = np.random.default_rng(15)
    x = Tensor(rng.uniform(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(size=(4, 4)))
    b = Tensor(np.zeros(4))
    for out in (fused_attention(x, x, one_part(None), w, w, w, w, 0.5),
                add_norm_affine(x, x, b, b), mlp2(x, [slice(None)], w, b, w, b),
                linear(x, [slice(None)], w, b)):
        assert out._parents and all(not p._parents for p in out._parents)
    frozen = Tensor(x.values)
    out = mlp2(frozen, [slice(None)], w, b, w, b)
    assert out._parents == () and out._backward is None


# which Tensor records and keeps a gradient: _make and _accumulate decide


def test_accumulate_keeps_no_gradient_on_an_untracked_tensor():
    untracked, tracked = Tensor(np.ones(3)), Tensor(np.ones(3), requires_grad=True)
    for t in (untracked, tracked):
        t._accumulate(np.full(3, 2.0))
    assert untracked.grad is None
    assert np.array_equal(tracked.grad, [2.0, 2.0, 2.0])


def test_backward_on_an_untracked_tensor_does_nothing():
    x, gain, bias = Tensor(np.ones((2, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3))
    out = add_norm_affine(x, x, gain, bias)
    out.backward(np.ones((2, 3)))
    scalar = Tensor(2.0)
    scalar.backward()
    assert all(t.grad is None for t in (x, gain, bias, out, scalar))


def open_block(rng, shape):
    """A random attention grid that leaves column 0 open to every row."""
    block = rng.uniform(size=shape) < 0.4
    block[:, 0] = False
    return block


LOSS_SCENE = Scene(index=0, categories=[2, 0],
                   masks=np.stack([np.arange(16).reshape(4, 4) < 6,
                                   np.arange(16).reshape(4, 4) >= 10]))


def loss_node(xs, grid):
    """layer_losses' one node over two layers of 3 queries in
    consistency-aux mode: xs are the layers' class logits, then their
    mask embeddings, whose mask logits are arrays against the grid."""
    outputs = LayerOutputs(mask_logits=[(e.values @ grid.T).reshape(-1, 4, 4) for e in xs[2:]],
                           class_logits=xs[:2], n_match=3, mask_embeds=xs[2:], grid=grid)
    total, _ = layer_losses(outputs, LOSS_SCENE, None, "consistency-aux", LossWeights())
    return total


def recording_ops():
    """Op name -> (input arrays, the op of Tensors of them), for every op
    that records a node; the attention, mlp2 and linear over two query
    parts."""
    rng = np.random.default_rng(40)

    def u(*shape):
        return rng.uniform(-1, 1, size=shape)

    spans = [slice(0, 2), slice(2, 5)]
    cross = [(rows, slice(None), open_block(rng, (rows.stop - rows.start, 7)))
             for rows in spans]
    own = [(spans[0], slice(0, 2), None), (spans[1], slice(0, 5), open_block(rng, (3, 5)))]
    grid = u(16, 4)
    return {
        "take_rows": ([u(5, 3)], lambda xs: xs[0].take_rows([2, 0, 0, 4])),
        "concat_rows": ([u(2, 3), u(3, 3)], concat_rows),
        "cross_attention": ([u(5, 6), u(7, 6)] + [u(6, 6) for _ in range(4)],
                            lambda xs: fused_attention(xs[0], xs[1], cross, *xs[2:], 0.5)),
        "self_attention": ([u(5, 6)] + [u(6, 6) for _ in range(4)],
                           lambda xs: fused_attention(xs[0], xs[0], own, *xs[1:], 0.5)),
        "add_norm_affine": ([u(5, 8), u(5, 8), rng.uniform(0.5, 1.5, size=8), u(8)],
                            lambda xs: add_norm_affine(*xs)),
        "mlp2": ([u(5, 8), u(8, 16), u(16), u(16, 8), u(8)],
                 lambda xs: mlp2(xs[0], spans, *xs[1:])),
        "linear": ([u(5, 8), u(8, 4), u(4)], lambda xs: linear(xs[0], spans, *xs[1:])),
        "loss_over_layers": ([u(3, 3), u(3, 3), u(3, 4), u(3, 4)],
                             lambda xs: loss_node(xs, grid)),
    }


def gradients_of(op, arrays, tracked) -> list:
    """Each input's .grad after a backward of op over the inputs, those
    whose index is in `tracked` tracking gradients."""
    xs = [Tensor(a.copy(), requires_grad=i in tracked) for i, a in enumerate(arrays)]
    out = op(xs)
    out.backward(np.random.default_rng(41).uniform(-1, 1, size=out.values.shape))
    return [x.grad for x in xs]


@pytest.mark.parametrize("name", list(recording_ops()))
def test_an_op_keeps_gradients_only_on_its_tracked_inputs(name):
    """With one input held constant, that input gets no gradient and
    every other input's is bitwise that of the run where all track; with
    none tracked, the op records nothing."""
    arrays, op = recording_ops()[name]
    every = range(len(arrays))
    expected = gradients_of(op, arrays, every)
    assert all(g is not None for g in expected)
    for held in every:
        grads = gradients_of(op, arrays, [i for i in every if i != held])
        assert grads[held] is None
        for i in every:
            if i != held:
                assert grads[i].shape == expected[i].shape
                assert grads[i].tobytes() == expected[i].tobytes()
    out = op([Tensor(a) for a in arrays])
    assert not out.requires_grad and out._parents == () and out._backward is None


# one tensor in several input slots: every slot's gradient adds into one .grad


def test_add_norm_affine_of_a_tensor_with_itself_matches_composition():
    rng = np.random.default_rng(16)
    arrays = [rng.uniform(-2, 2, size=(5, 8)), rng.uniform(0.5, 1.5, size=(8,)),
              rng.uniform(-1, 1, size=(8,))]
    assert_same_as_composition(
        lambda xs: add_norm_affine(xs[0], xs[0], xs[1], xs[2]),
        lambda xs: add(mul(layernorm_lastdim(add(xs[0], xs[0])), xs[1]), xs[2]),
        arrays, seed=4)


def test_fused_attention_of_a_tensor_over_itself_matches_composition():
    rng = np.random.default_rng(17)
    arrays = [rng.uniform(-1, 1, size=(5, 6))] + [rng.uniform(-1, 1, size=(6, 6))
                                                  for _ in range(4)]
    block = rng.uniform(size=(5, 5)) < 0.4
    block[:, 0] = False
    assert not block.all(axis=0).any()
    assert_same_as_composition(
        lambda xs: fused_attention(xs[0], xs[0], one_part(block), *xs[1:], 0.5),
        lambda xs: composed_attention(xs[0], xs[0], block, *xs[1:], 0.5),
        arrays, seed=5)


def test_a_tensor_read_by_two_fused_ops_matches_composition():
    rng = np.random.default_rng(18)
    arrays = [rng.uniform(-2, 2, size=(5, 8)), rng.uniform(-1, 1, size=(8, 16)),
              rng.uniform(-1, 1, size=(16,)), rng.uniform(-1, 1, size=(16, 8)),
              rng.uniform(-1, 1, size=(8,)), rng.uniform(0.5, 1.5, size=(8,)),
              rng.uniform(-1, 1, size=(8,))]
    assert_same_as_composition(
        lambda xs: add_norm_affine(xs[0], mlp2(xs[0], [slice(None)], *xs[1:5]), xs[5], xs[6]),
        lambda xs: add(mul(layernorm_lastdim(
            add(xs[0], add(matmul(relu(add(matmul(xs[0], xs[1]), xs[2])), xs[3]), xs[4]))),
            xs[5]), xs[6]),
        arrays, seed=6)


def test_check_gradient_fails_a_nan_error():
    # log(-1) is NaN: the finite difference is NaN while the tape says -1
    with np.errstate(invalid="ignore"):
        err = check_gradient(lambda xs: log(xs[0]), [[-1.0, 2.0]], np.ones(2))
    assert not err < 1e-4
    assert err == np.inf


# ----------------------------------------------------------------------
# the query parts of one call against calls on each part alone


PARTS = [slice(0, 4), slice(4, 9)]


def two_part_inputs(rng):
    """Queries of two parts of 4 and 5 rows, 48 source rows, and weights."""
    return (rng.uniform(-1, 1, size=(9, 8)), rng.uniform(-1, 1, size=(48, 8)),
            [Tensor(rng.uniform(-1, 1, size=(8, 8))) for _ in range(4)])


def test_each_part_of_a_cross_attention_is_bitwise_a_call_on_it_alone():
    """The first part's grid closes columns 0-15 for every row, so its
    keys are compacted; the second part blocks its row 1 fully."""
    rng = np.random.default_rng(25)
    x, src, w = two_part_inputs(rng)
    blocks = [rng.uniform(size=(4, 48)) < 0.5, rng.uniform(size=(5, 48)) < 0.5]
    blocks[0][:, :16] = True
    blocks[0][:, 16] = False
    blocks[1][1] = True
    out = fused_attention(Tensor(x), Tensor(src),
                          [(rows, slice(None), b) for rows, b in zip(PARTS, blocks)], *w, 0.5)
    for rows, b in zip(PARTS, blocks):
        alone = fused_attention(Tensor(x[rows]), Tensor(src), one_part(b), *w, 0.5)
        assert np.array_equal(out.values[rows], alone.values)


def test_each_part_of_a_self_attention_is_bitwise_a_call_on_it_alone():
    """Part j reads the rows up to its end: the first part under no grid,
    the second under a grid that closes rows 1 and 3 of x for all its rows."""
    rng = np.random.default_rng(26)
    x, _, w = two_part_inputs(rng)
    blocks = [None, rng.uniform(size=(5, 9)) < 0.3]
    blocks[1][:, [1, 3]] = True
    out = fused_attention(Tensor(x), Tensor(x),
                          [(rows, slice(0, rows.stop), b) for rows, b in zip(PARTS, blocks)],
                          *w, 0.5)
    for rows, b in zip(PARTS, blocks):
        alone = fused_attention(Tensor(x[rows]), Tensor(x[:rows.stop]), one_part(b), *w, 0.5)
        assert np.array_equal(out.values[rows], alone.values)


def test_each_part_of_an_mlp2_is_bitwise_a_call_on_it_alone():
    rng = np.random.default_rng(27)
    x = rng.uniform(-2, 2, size=(9, 8))
    w = [Tensor(rng.uniform(-1, 1, size=s)) for s in ((8, 16), (16,), (16, 8), (8,))]
    out = mlp2(Tensor(x), PARTS, *w)
    for rows in PARTS:
        assert np.array_equal(out.values[rows], mlp2(Tensor(x[rows]), [slice(None)], *w).values)


def test_each_part_of_the_heads_is_bitwise_a_call_on_it_alone():
    rng = np.random.default_rng(28)
    x = rng.uniform(-1, 1, size=(9, 8))
    embed = rng.uniform(-1, 1, size=(4, 6, 8))
    params = init_params(seed=29, n_queries=1, n_layers=1, dim=8, num_categories=2)
    for name in ("mask_w1", "mask_b1", "mask_w2", "mask_b2", "cls_w", "cls_b"):
        t = getattr(params, name)
        t.values = rng.uniform(-1, 1, size=t.values.shape)
    embeds, masks, classes = heads(params, Tensor(x), PARTS, embed)
    for rows in PARTS:
        e, m, c = heads(params, Tensor(x[rows]), [slice(None)], embed)
        assert np.array_equal(embeds.values[rows], e.values)
        assert np.array_equal(masks[rows], m)
        assert np.array_equal(classes.values[rows], c.values)


@pytest.mark.parametrize("spans", [[slice(0, 4), slice(5, 9)], [slice(0, 4)],
                                   [slice(4, 9), slice(0, 4)], [slice(0, 9, 2)]],
                         ids=["gap", "short", "out-of-order", "strided"])
def test_spans_that_do_not_tile_the_rows_are_rejected(spans):
    x = Tensor(np.zeros((9, 2)))
    w = Tensor(np.eye(2))
    with pytest.raises(ValueError, match="do not tile"):
        mlp2(x, spans, w, Tensor(np.zeros(2)), w, Tensor(np.zeros(2)))
    with pytest.raises(ValueError, match="do not tile"):
        fused_attention(x, x, [(rows, slice(None), None) for rows in spans], w, w, w, w, 1.0)


def test_a_block_of_the_wrong_shape_for_its_part_is_rejected():
    x = Tensor(np.zeros((5, 2)))
    w = Tensor(np.eye(2))
    blocks = [np.zeros((2, 5), dtype=bool), np.zeros((2, 5), dtype=bool)]
    with pytest.raises(ValueError, match=r"\(2, 5\) != logits \(3, 5\)"):
        fused_attention(x, x, [(slice(0, 2), slice(None), blocks[0]),
                               (slice(2, 5), slice(None), blocks[1])], w, w, w, w, 1.0)
