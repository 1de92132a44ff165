import numpy as np
import pytest

from mpseg.gradcheck import check_gradient
from mpseg.tensor import (NEG_BIG, Tensor, add_norm_affine, bce_with_logits, concat_rows,
                          fused_attention, layernorm_lastdim, logsumexp_lastdim,
                          masked_fill, mlp2, softmax_lastdim)


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal((a @ b).values, b.values)


def test_matmul_hand_case():
    out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
    assert out.values.shape == (1, 1)
    assert out.values[0, 0] == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError) as exc:
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))
    assert "(2, 3)" in str(exc.value)


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(3)
    a = rng.uniform(-2, 2, size=(3, 4))
    b = rng.uniform(-2, 2, size=(4, 2))
    w = rng.uniform(-1, 1, size=(3, 2))
    err = check_gradient(lambda xs: ((xs[0] @ xs[1]) * w).sum(), [a, b])
    assert err < 1e-6


def test_check_gradient_perturbs_copies_of_its_inputs():
    w = np.random.default_rng(9).uniform(-2, 2, size=(3, 4))
    # w is both the input and a constant of f: d/dx sum(x * w) = w
    assert check_gradient(lambda xs: (xs[0] * w).sum(), [w]) < 1e-6


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
    err = check_gradient(lambda xs: (softmax_lastdim(xs[0]) * w).sum(), [x])
    assert err < 1e-6


def test_sigmoid_relu_values():
    assert Tensor([0.0]).sigmoid().values[0] == 0.5
    assert Tensor([-3.0]).relu().values[0] == 0.0
    assert Tensor([3.0]).relu().values[0] == 3.0


def test_layernorm_hand_case():
    out = layernorm_lastdim(Tensor([2.0, 4.0, 6.0]))
    assert np.allclose(out.values, [-1.2247, 0.0, 1.2247], atol=1e-3)
    assert abs(out.values.mean()) < 1e-12
    assert abs(out.values.var() - 1.0) < 1e-4


def test_broadcast_incompatibility_raises():
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 3))) + Tensor(np.zeros((4, 5)))


def test_masked_fill_allfalse_is_identity():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = masked_fill(x, np.zeros((2, 2), dtype=bool), -1e9)
    assert np.array_equal(out.values, x.values)


def test_masked_fill_alltrue_blocks_gradient():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    out = masked_fill(x, np.ones((2, 2), dtype=bool), -1e9)
    assert (out.values == -1e9).all()
    out.sum().backward()
    assert np.array_equal(x.grad, np.zeros((2, 2)))


def test_masked_fill_mixed_gradient():
    block = np.array([[True, False], [False, True]])
    x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    masked_fill(x, block, -7.0).sum().backward()
    assert np.array_equal(x.grad, np.where(block, 0.0, 1.0))
    rng = np.random.default_rng(5)
    err = check_gradient(lambda xs: (masked_fill(xs[0], block, -7.0).sigmoid()).sum(),
                         [rng.uniform(-2, 2, size=(2, 2))])
    assert err < 1e-6


def test_masked_fill_shape_mismatch():
    with pytest.raises(ValueError):
        masked_fill(Tensor(np.zeros((2, 2))), np.zeros((2, 3), dtype=bool), 0.0)


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * x).sum().backward()
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_detached_constant_gives_zero_grads():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x.detach() * x.detach()).sum() + Tensor(0.0)
    loss.backward()
    assert x.grad is None


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        (x * x).backward()


def test_backward_accumulates_without_reset():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * x).sum().backward()
    first = x.grad.copy()
    (x * x).sum().backward()
    assert np.array_equal(x.grad, 2 * first)


def test_a_later_gradient_leaves_a_shared_first_gradient_unchanged():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0, 4.0], requires_grad=True)
    (x + y).sum().backward()
    assert x.grad is y.grad
    x._accumulate(np.array([10.0, 20.0]))
    assert np.array_equal(x.grad, [11.0, 21.0])
    assert np.array_equal(y.grad, [1.0, 1.0])


def test_forward_bit_identical_across_evaluations():
    rng = np.random.default_rng(6)
    x = Tensor(rng.uniform(-2, 2, size=(4, 6)), requires_grad=True)
    w = Tensor(rng.uniform(-2, 2, size=(6, 3)), requires_grad=True)

    def run():
        return (softmax_lastdim(layernorm_lastdim(x @ w)).sigmoid()).sum().values.copy()

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
    (picked * picked).sum().backward()
    assert np.array_equal(a.grad[0], 2 * a.values[0])
    assert np.array_equal(a.grad[1], np.zeros(3))
    assert np.array_equal(b.grad[1], 2 * b.values[1])


def test_logsumexp_matches_numpy():
    rng = np.random.default_rng(8)
    x = rng.uniform(-3, 3, size=(4, 5))
    out = logsumexp_lastdim(Tensor(x)).values
    expected = np.log(np.exp(x).sum(axis=-1))
    assert np.allclose(out, expected, atol=1e-12)


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
        (out * weight).sum().backward()
        grads.append([x.grad for x in xs])
    for g_fused, g_composed in zip(*grads):
        scale = np.abs(g_composed).max()
        assert scale > 0
        assert np.abs(g_fused - g_composed).max() <= 1e-12 * scale


def composed_attention(x, keys, values, block, wq, wo, scale):
    logits = ((x @ wq) @ keys.T) * scale
    if block is not None:
        logits = masked_fill(logits, block, NEG_BIG)
    return softmax_lastdim(logits) @ values @ wo


@pytest.mark.parametrize("blocking", ["none", "partial", "full-row"])
def test_fused_attention_matches_composition(blocking):
    rng = np.random.default_rng(11)
    arrays = [rng.uniform(-1, 1, size=s) for s in ((4, 6), (7, 6), (7, 6), (6, 6), (6, 6))]
    block = None
    if blocking != "none":
        block = rng.uniform(size=(4, 7)) < 0.4
        block[:, 0] = False
        if blocking == "full-row":
            block[2] = True
    scale = 1.0 / np.sqrt(6)
    assert_same_as_composition(
        lambda xs: fused_attention(xs[0], xs[1], xs[2], block, xs[3], xs[4], scale),
        lambda xs: composed_attention(xs[0], xs[1], xs[2], block, xs[3], xs[4], scale),
        arrays, seed=1)


def test_fused_attention_fully_blocked_row_is_uniform_and_passes_no_logit_gradient():
    rng = np.random.default_rng(12)
    x = Tensor(rng.uniform(-1, 1, size=(2, 3)), requires_grad=True)
    keys = Tensor(rng.uniform(-1, 1, size=(4, 3)), requires_grad=True)
    values = Tensor(rng.uniform(-1, 1, size=(4, 3)))
    eye = Tensor(np.eye(3))
    block = np.zeros((2, 4), dtype=bool)
    block[1] = True
    out = fused_attention(x, keys, values, block, eye, eye, 1.0)
    np.testing.assert_allclose(out.values[1], values.values.mean(axis=0), rtol=0, atol=1e-15)
    (out * np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])).sum().backward()
    assert x.grad is not None and not x.grad[1].any()
    assert not keys.grad.any()


def test_fused_attention_block_shape_mismatch():
    t = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        fused_attention(t, t, t, np.zeros((2, 3), dtype=bool), Tensor(np.eye(3)),
                        Tensor(np.eye(3)), 1.0)


def test_add_norm_affine_matches_composition():
    rng = np.random.default_rng(13)
    arrays = [rng.uniform(-2, 2, size=(5, 8)), rng.uniform(-2, 2, size=(5, 8)),
              rng.uniform(0.5, 1.5, size=(8,)), rng.uniform(-1, 1, size=(8,))]
    assert_same_as_composition(
        lambda xs: add_norm_affine(*xs),
        lambda xs: layernorm_lastdim(xs[0] + xs[1]) * xs[2] + xs[3],
        arrays, seed=2)


def test_mlp2_matches_composition():
    rng = np.random.default_rng(14)
    arrays = [rng.uniform(-2, 2, size=(5, 8)), rng.uniform(-1, 1, size=(8, 16)),
              rng.uniform(-1, 1, size=(16,)), rng.uniform(-1, 1, size=(16, 8)),
              rng.uniform(-1, 1, size=(8,))]
    assert_same_as_composition(
        lambda xs: mlp2(*xs),
        lambda xs: (xs[0] @ xs[1] + xs[2]).relu() @ xs[3] + xs[4],
        arrays, seed=3)


def test_fused_ops_record_one_node_and_none_without_grad():
    rng = np.random.default_rng(15)
    x = Tensor(rng.uniform(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(size=(4, 4)))
    b = Tensor(np.zeros(4))
    for out in (fused_attention(x, x, x, None, w, w, 0.5), add_norm_affine(x, x, b, b),
                mlp2(x, w, b, w, b)):
        assert out._parents and all(not p._parents for p in out._parents)
    frozen = Tensor(x.values)
    out = mlp2(frozen, w, b, w, b)
    assert out._parents == () and out._backward is None


# one tensor in several input slots: every slot's gradient adds into one .grad


def test_add_norm_affine_of_a_tensor_with_itself_matches_composition():
    rng = np.random.default_rng(16)
    arrays = [rng.uniform(-2, 2, size=(5, 8)), rng.uniform(0.5, 1.5, size=(8,)),
              rng.uniform(-1, 1, size=(8,))]
    assert_same_as_composition(
        lambda xs: add_norm_affine(xs[0], xs[0], xs[1], xs[2]),
        lambda xs: layernorm_lastdim(xs[0] + xs[0]) * xs[1] + xs[2],
        arrays, seed=4)


def test_fused_attention_of_a_tensor_over_itself_matches_composition():
    rng = np.random.default_rng(17)
    arrays = [rng.uniform(-1, 1, size=(5, 6)), rng.uniform(-1, 1, size=(6, 6)),
              rng.uniform(-1, 1, size=(6, 6))]
    block = rng.uniform(size=(5, 5)) < 0.4
    block[:, 0] = False
    assert_same_as_composition(
        lambda xs: fused_attention(xs[0], xs[0], xs[0], block, xs[1], xs[2], 0.5),
        lambda xs: composed_attention(xs[0], xs[0], xs[0], block, xs[1], xs[2], 0.5),
        arrays, seed=5)


def test_a_tensor_read_by_two_fused_ops_matches_composition():
    rng = np.random.default_rng(18)
    arrays = [rng.uniform(-2, 2, size=(5, 8)), rng.uniform(-1, 1, size=(8, 16)),
              rng.uniform(-1, 1, size=(16,)), rng.uniform(-1, 1, size=(16, 8)),
              rng.uniform(-1, 1, size=(8,)), rng.uniform(0.5, 1.5, size=(8,)),
              rng.uniform(-1, 1, size=(8,))]
    assert_same_as_composition(
        lambda xs: add_norm_affine(xs[0], mlp2(*xs[:5]), xs[5], xs[6]),
        lambda xs: layernorm_lastdim(
            xs[0] + ((xs[0] @ xs[1] + xs[2]).relu() @ xs[3] + xs[4])) * xs[5] + xs[6],
        arrays, seed=6)


def test_check_gradient_fails_a_nan_error():
    # log(-1) is NaN: the finite difference is NaN while the tape says -1
    with np.errstate(invalid="ignore"):
        err = check_gradient(lambda xs: xs[0].log().sum(), [[-1.0, 2.0]])
    assert not err < 1e-4
    assert err == np.inf
