"""Central finite-difference checking of reverse-mode gradients.

check_gradient perturbs input coordinates by +/-eps and compares the
resulting slope against the tape's gradient. The error measure is
|analytic - numeric| / max(|analytic|, |numeric|, 1e-3): a true relative
error for gradients above 1e-3 and an absolute error (scaled by 1e3)
below, which keeps finite-difference noise on near-zero gradients from
producing spurious failures.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def check_gradient(f, inputs, eps: float = 1e-5, max_coords: int | None = None,
                   rng: np.random.Generator | None = None) -> float:
    """Return the worst finite-difference error for scalar f over `inputs`.

    f takes the list of Tensors and returns a scalar Tensor. When
    max_coords is set, at most that many coordinates are probed per
    input (uniformly sampled with `rng`); otherwise every coordinate is.
    """
    # C-contiguous copies so the flat perturbation view below aliases the values,
    # and only them: f may also read the caller's arrays as constants
    tensors = [Tensor(np.array(x.values if isinstance(x, Tensor) else x,
                               dtype=np.float64, order="C"), requires_grad=True)
               for x in inputs]
    loss = f(tensors)
    loss.backward()
    worst = 0.0
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.values)
        flat = t.values.reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        worst = max(worst, _probe(lambda: f(tensors), flat, analytic.reshape(-1),
                                  coords, eps))
    return worst


def _probe(loss, flat, analytic, coords, eps: float) -> float:
    """Worst error of analytic[c] against the central difference of the
    scalar loss() over flat[c] +/- eps, for c in coords; flat, a view of
    the values loss() reads, is restored after each probe."""
    worst = 0.0
    for c in coords:
        orig = flat[c]
        flat[c] = orig + eps
        hi = float(loss().values)
        flat[c] = orig - eps
        lo = float(loss().values)
        flat[c] = orig
        numeric = (hi - lo) / (2.0 * eps)
        err = abs(analytic[c] - numeric) / max(abs(analytic[c]), abs(numeric), 1e-3)
        worst = max(worst, err)
    return worst


def run_gradient_suite(seed: int = 0):
    """Check every differentiable op plus a small end-to-end decoder loss.

    Returns a list of (name, worst_error, passed) rows; the suite passes
    when every row passes at 1e-4.
    """
    from . import tensor as T

    rng = np.random.default_rng(seed)
    results = []

    def check(name, f, inputs, max_coords=None, tol=1e-4):
        err = check_gradient(f, inputs, max_coords=max_coords, rng=rng)
        results.append((name, err, err < tol))

    u = rng.uniform(-2.0, 2.0, size=(3, 4))
    v = rng.uniform(-2.0, 2.0, size=(4, 2))
    w = rng.uniform(-2.0, 2.0, size=(3, 4))
    check("matmul", lambda xs: (xs[0] @ xs[1]).sum(), [u, v])
    check("add_broadcast", lambda xs: (xs[0] + xs[1]).sum(), [u, rng.uniform(-2, 2, size=(4,))])
    check("mul_broadcast", lambda xs: (xs[0] * xs[1]).mean(), [u, rng.uniform(-2, 2, size=(4,))])
    check("sub", lambda xs: (xs[0] - xs[1]).sum(), [u, w])
    check("div", lambda xs: (xs[0] / xs[1]).sum(), [u, rng.uniform(1.0, 2.0, size=(3, 4))])
    relu_in = rng.uniform(-2.0, 2.0, size=(3, 4))
    relu_in[np.abs(relu_in) < 0.1] = 0.5  # keep probes away from the kink
    check("relu", lambda xs: xs[0].relu().sum(), [relu_in])
    check("sigmoid", lambda xs: xs[0].sigmoid().sum(), [u])
    check("exp", lambda xs: xs[0].exp().sum(), [u])
    check("log", lambda xs: xs[0].log().sum(), [rng.uniform(0.5, 2.0, size=(3, 4))])
    check("softmax", lambda xs: (T.softmax_lastdim(xs[0]) * w).sum(), [u])
    check("logsumexp", lambda xs: T.logsumexp_lastdim(xs[0]).sum(), [u])
    check("layernorm", lambda xs: (T.layernorm_lastdim(xs[0]) * w).sum(), [u])
    block = rng.uniform(size=(3, 4)) < 0.5
    check("masked_fill", lambda xs: T.masked_fill(xs[0], block, -5.0).sum(), [u])
    tgt = (rng.uniform(size=(3, 4)) < 0.5).astype(float)
    check("bce_with_logits", lambda xs: T.bce_with_logits(xs[0], tgt).mean(), [u])
    check("take_rows", lambda xs: xs[0].take_rows([2, 0, 0]).sum(), [u])
    check("gather_cols", lambda xs: xs[0].gather_cols([1, 3, 0]).sum(), [u])
    check("transpose_reshape", lambda xs: (xs[0].T.reshape(2, 6) * 1.5).sum(), [u])
    check("concat_rows", lambda xs: T.concat_rows(xs).mean(), [u, v.T])
    check("sum_lastdim", lambda xs: (xs[0].sum_lastdim() * np.array([1.0, -2.0, 0.5])).sum(), [u])

    # fused ops; the attention's row 1 is fully blocked, row 0 partly
    att_in = [rng.uniform(-1.0, 1.0, size=s) for s in
              ((3, 4), (5, 4), (5, 4), (4, 4), (4, 4))]
    att_block = np.zeros((3, 5), dtype=bool)
    att_block[0, [1, 3]] = True
    att_block[1] = True
    for name, blk in (("fused_attention", att_block), ("fused_attention_unblocked", None)):
        check(name, lambda xs, blk=blk: (T.fused_attention(xs[0], xs[1], xs[2], blk, xs[3],
                                                            xs[4], 0.5) * w).sum(), att_in)
    check("add_norm_affine", lambda xs: (T.add_norm_affine(*xs) * w).sum(),
          [u, rng.uniform(-2.0, 2.0, size=(3, 4)), rng.uniform(0.5, 1.5, size=(4,)),
           rng.uniform(-1, 1, size=(4,))])
    mlp_in = [u, rng.uniform(-1, 1, size=(4, 5)), rng.uniform(-1, 1, size=(5,)),
              rng.uniform(-1, 1, size=(5, 4)), rng.uniform(-1, 1, size=(4,))]
    check("mlp2", lambda xs: (T.mlp2(*xs) * w).sum(), mlp_in)
    ce_targets = np.array([3, 0, 3])
    ce_weights = np.where(ce_targets == 3, 0.1, 1.0)
    check("cross_entropy_rows",
          lambda xs: T.cross_entropy_rows(xs[0], [2, 0, 1], ce_targets, ce_weights, 2.0), [u])
    mask_in = rng.uniform(-2.0, 2.0, size=(4, 2, 3))
    mask_tgt = (rng.uniform(size=(3, 6)) < 0.5).astype(float)
    check("mask_loss_rows",
          lambda xs: T.mask_loss_rows(xs[0], T._sigmoid(xs[0].values), [3, 0, 2], mask_tgt,
                                      5.0, 5.0, 1.0), [mask_in])

    results.append(_end_to_end_check(seed, with_mp=False))
    results.append(_end_to_end_check(seed, with_mp=True))
    return results


def _end_to_end_check(seed: int, with_mp: bool, eps: float = 1e-5,
                      coords_per_param: int = 6):
    """Finite-difference check of a full 2-layer decoder loss on an 8x8 scene.

    Every parameter tensor is probed at a random subset of coordinates;
    the forward is the real pipeline (masked attention, heads, matching,
    classification + mask losses). With with_mp, the queries are the
    matching part plus a two-group MP part built by mp_forward_spec, so
    the MP rows of the loss are checked too.
    """
    from .decoder import full_forward, init_params, named_parameters, plain_spec
    from .losses import LossWeights, layer_losses
    from .mp import MPConfig
    from .synth import SynthConfig, basis_prototypes, generate_scene, synth_features
    from .trainer import layer_scale_table, mp_forward_spec

    protos, bg = basis_prototypes(2, 8)
    cfg = SynthConfig(height=8, width=8, num_categories=2, feat_dim=8,
                      instance_range=(2, 2), size_range=(2, 3),
                      prototypes=protos, background_proto=bg,
                      noise_sigma=0.1, seed=seed)
    scene = generate_scene(cfg, 0)
    pyramid = synth_features(scene, cfg)
    params = init_params(seed=seed + 1, n_queries=3, n_layers=2, dim=8,
                         num_categories=2, ffn_hidden=16)
    pairs = named_parameters(params)
    weights = LossWeights()

    mp_cfg = MPConfig(n_q=4)
    scale_table = layer_scale_table(8, 8, params.num_layers)

    def loss_tensor():
        if with_mp:  # rebuilt per call: the MP queries are rows of class_embed
            spec, mp_part = mp_forward_spec(pyramid, scene, params, mp_cfg, scale_table,
                                            [seed, 2, 0])
        else:
            spec, mp_part = plain_spec(pyramid, params), None
        outputs = full_forward(spec, params)
        total, _ = layer_losses(outputs, scene, mp_part=mp_part,
                                mode="per-layer-bipartite", weights=weights)
        return total

    for _, p in pairs:
        p.requires_grad = True
        p.grad = None
    loss_tensor().backward()
    grads = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.values))
             for name, p in pairs}
    for _, p in pairs:
        p.requires_grad = False

    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for name, p in pairs:
        flat = p.values.reshape(-1)
        coords = rng.choice(flat.size, size=min(coords_per_param, flat.size), replace=False)
        worst = max(worst, _probe(loss_tensor, flat, grads[name].reshape(-1), coords, eps))
    return "decoder_end_to_end" + ("_mp" if with_mp else ""), worst, worst < 1e-4
