"""Central finite-difference checking of reverse-mode gradients.

check_gradient perturbs every input coordinate by +/-EPS and compares
the resulting slope against the tape's gradient. The error measure is
|analytic - numeric| / max(|analytic|, |numeric|, 1e-3): a true relative
error for gradients above 1e-3 and an absolute error (scaled by 1e3)
below, which keeps finite-difference noise on near-zero gradients from
producing spurious failures. A non-finite error counts as infinite, so it
always fails. A check passes when its error is below TOL.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


EPS = 1e-5               # the central difference's step
TOL = 1e-4               # a check passes below this error
COORDS_PER_PARAM = 6     # coordinates probed per parameter by the end-to-end rows


def check_gradient(f, inputs, weight=None) -> float:
    """Return the worst finite-difference error over every coordinate of
    `inputs` of the scalar sum(weight * f(xs).values), or of a scalar
    f(xs) with no weight. f takes the list of Tensors and returns a
    Tensor; the tape's gradient is f's backward seeded with weight."""
    # C-contiguous copies so the flat perturbation view below aliases the values,
    # and only them: f may also read the caller's arrays as constants
    tensors = [Tensor(np.array(x.values if isinstance(x, Tensor) else x,
                               dtype=np.float64, order="C"), requires_grad=True)
               for x in inputs]
    f(tensors).backward(weight)

    def value():
        out = f(tensors).values
        return float(out if weight is None else (weight * out).sum())

    worst = 0.0
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.values)
        flat = t.values.reshape(-1)
        worst = max(worst, _probe(value, flat, analytic.reshape(-1), range(flat.size)))
    return worst


def _probe(value, flat, analytic, coords) -> float:
    """Worst error of analytic[c] against the central difference of the
    float value() over flat[c] +/- EPS, for c in coords; flat, a view of
    the values value() reads, is restored after each probe."""
    worst = 0.0
    for c in coords:
        orig = flat[c]
        flat[c] = orig + EPS
        hi = value()
        flat[c] = orig - EPS
        lo = value()
        flat[c] = orig
        numeric = (hi - lo) / (2.0 * EPS)
        err = abs(analytic[c] - numeric) / max(abs(analytic[c]), abs(numeric), 1e-3)
        if not np.isfinite(err):  # max() would drop a NaN
            return float("inf")
        worst = max(worst, err)
    return worst


def run_gradient_suite(seed: int = 0):
    """Check every op the model records, with a non-scalar output weighted
    by a random array of its shape, and a small end-to-end decoder loss.

    Returns a list of (name, worst_error, passed) rows; the suite passes
    when every row passes.
    """
    from . import tensor as T
    from .decoder import LayerOutputs
    from .losses import LossWeights, layer_stats, loss_over_layers

    rng = np.random.default_rng(seed)
    results = []

    def check(name, f, inputs, weight=None):
        err = check_gradient(f, inputs, weight)
        results.append((name, err, err < TOL))

    def weight(*shape):
        return rng.uniform(-2.0, 2.0, size=shape)

    u = rng.uniform(-2.0, 2.0, size=(3, 4))
    v = rng.uniform(-2.0, 2.0, size=(4, 2))
    w = weight(3, 4)
    check("take_rows", lambda xs: xs[0].take_rows([2, 0, 0]), [u], w)
    check("concat_rows", T.concat_rows, [u, v.T], weight(5, 4))

    # fused ops. Attention of 3 query rows over 5 source rows: in the first
    # grid row 1 is fully blocked, so every column is read; the compacted
    # grid closes columns 1 and 4 for every row and blocks no row fully.
    # check tracks every input, so src is tracked, as self-attention's is;
    # the last row holds it constant, as cross-attention's features are
    att_in = [rng.uniform(-1.0, 1.0, size=s) for s in ((3, 4), (5, 4), (4, 4), (4, 4), (4, 4),
                                                       (4, 4))]
    att_block = np.zeros((3, 5), dtype=bool)
    att_block[0, [1, 3]] = True
    att_block[1] = True
    compact_block = np.zeros((3, 5), dtype=bool)
    compact_block[:, [1, 4]] = True
    compact_block[0, 0] = compact_block[2, 3] = True
    every = slice(None)
    for name, blk in (("fused_attention", att_block), ("fused_attention_unblocked", None),
                      ("fused_attention_compacted", compact_block)):
        check(name, lambda xs, blk=blk: T.fused_attention(xs[0], xs[1], [(every, every, blk)],
                                                          *xs[2:], 0.5),
              att_in, w)
    check("fused_attention_compacted_constant_src",
          lambda xs: T.fused_attention(xs[0], Tensor(att_in[1]), [(every, every, compact_block)],
                                       *xs[1:], 0.5),
          att_in[:1] + att_in[2:], w)
    check("add_norm_affine", lambda xs: T.add_norm_affine(*xs),
          [u, rng.uniform(-2.0, 2.0, size=(3, 4)), rng.uniform(0.5, 1.5, size=(4,)),
           rng.uniform(-1, 1, size=(4,))], w)
    mlp_in = [u, rng.uniform(-1, 1, size=(4, 5)), rng.uniform(-1, 1, size=(5,)),
              rng.uniform(-1, 1, size=(5, 4)), rng.uniform(-1, 1, size=(4,))]
    check("mlp2", lambda xs: T.mlp2(xs[0], [every], *xs[1:]), mlp_in, w)
    # the loss of 3 layers over a matching part of 3 rows and an MP part of
    # 2, against 2 GT masks of 2x3 pixels, at a fixed matching: row 1 is
    # unmatched at layer 0, rows 0 and 2 at layers 1 and 2; a consistency
    # target over the matching rows at layers 1 and 2. The mask logits are
    # the (5, 4) embeddings times a constant grid, recomputed at each probe
    loss_layers = 3
    loss_in = ([rng.uniform(-1.0, 1.0, size=(5, 4)) for _ in range(loss_layers)]
               + [rng.uniform(-2.0, 2.0, size=(5, 4)) for _ in range(loss_layers)])
    loss_grid = rng.uniform(-1.0, 1.0, size=(6, 4))
    loss_gt = (rng.uniform(size=(2, 6)) < 0.5).astype(float)
    loss_index = np.array([[1, -1, 0, 0, 1], [-1, 0, -1, 0, 1], [-1, 1, -1, 1, 0]])
    loss_cons = [None] + [(rng.uniform(size=(3, 6)) < 0.5).astype(float)
                          for _ in range(loss_layers - 1)]

    def layers_loss(xs):
        embeds, classes = xs[:loss_layers], xs[loss_layers:]
        logits = [(e.values @ loss_grid.T).reshape(5, 2, 3) for e in embeds]
        outputs = LayerOutputs(logits, classes, 3, embeds, loss_grid)
        probs, means, stats = layer_stats(logits, loss_gt, [slice(0, 3), slice(3, 5)])
        return loss_over_layers(outputs, probs, means, stats, loss_gt, np.array([2, 0]),
                                loss_index, loss_cons, LossWeights())

    check("loss_over_layers", layers_loss, loss_in)
    # the class head over two query parts of 2 and 3 rows: 4-d queries, 3 classes
    two_parts = [slice(0, 2), slice(2, 5)]
    check("linear", lambda xs: T.linear(xs[0], two_parts, *xs[1:]),
          [rng.uniform(-1, 1, size=s) for s in ((5, 4), (4, 3), (3,))], weight(5, 3))
    # two query parts of 2 and 3 rows, as the decoder's matching and MP parts.
    # Cross-attention over 6 constant source rows: the first part's grid
    # closes columns 0 and 5 for both its rows, and the second's blocks its
    # row 1 fully. Self-attention over x itself, part j reading the rows up
    # to its end: the first part's row 0 is fully blocked, and the second's
    # grid closes columns 1 and 3 for all its rows.
    two_in = [rng.uniform(-1.0, 1.0, size=s) for s in ((5, 4), (4, 4), (4, 4), (4, 4), (4, 4))]
    cross_src = Tensor(rng.uniform(-1.0, 1.0, size=(6, 4)))
    cross = [np.zeros((2, 6), dtype=bool), np.zeros((3, 6), dtype=bool)]
    cross[0][:, [0, 5]] = True
    cross[0][1, 2] = True
    cross[1][1] = True
    cross[1][0, 4] = True
    self_ = [np.zeros((2, 2), dtype=bool), np.zeros((3, 5), dtype=bool)]
    self_[0][0] = True
    self_[1][:, [1, 3]] = True
    self_[1][2, 4] = True
    check("fused_attention_two_part_cross",
          lambda xs: T.fused_attention(xs[0], cross_src,
                                       [(rows, every, b) for rows, b in zip(two_parts, cross)],
                                       *xs[1:], 0.5),
          two_in, weight(5, 4))
    check("fused_attention_two_part_self",
          lambda xs: T.fused_attention(xs[0], xs[0], [(rows, slice(0, rows.stop), b)
                                                      for rows, b in zip(two_parts, self_)],
                                       *xs[1:], 0.5),
          two_in, weight(5, 4))
    check("mlp2_two_part", lambda xs: T.mlp2(xs[0], two_parts, *xs[1:]),
          [two_in[0]] + mlp_in[1:], weight(5, 4))

    results.append(_end_to_end_check(seed, with_mp=False))
    results.append(_end_to_end_check(seed, with_mp=True))
    return results


def _end_to_end_check(seed: int, with_mp: bool):
    """Finite-difference check of trainer.step_loss, the training step,
    at step 0 of a 2-layer decoder on an 8x8 scene: every parameter tensor
    is probed at COORDS_PER_PARAM random coordinates. With with_mp the run
    is mp-all+noises, whose two-group MP part puts the MP rows of the loss
    under check too; else it is the baseline.

    The gradient is taken on the parameters as init_params makes them; the
    probes evaluate detach_params of them, which shares their values and
    records no tape.
    """
    from .config import ModelSettings, RunConfig
    from .decoder import init_params, named_parameters
    from .mp import MPConfig
    from .synth import SynthConfig, generate_scene, synth_features
    from .trainer import detach_params, step_loss

    synth = SynthConfig(height=8, width=8, num_categories=2, feat_dim=8,
                        instance_range=(2, 2), size_range=(2, 3), noise_sigma=0.1, seed=seed)
    model = ModelSettings(n_queries=3, num_layers=2, dim=8, ffn_hidden=16)
    cfg = RunConfig(synth=synth, model=model, mp=MPConfig(n_q=4, enabled=with_mp),
                    variant="mp-all+noises" if with_mp else "baseline", seed=seed)
    scene = generate_scene(synth, 0)
    features = synth_features(scene, synth)
    params = init_params(seed=seed + 1, n_queries=3, n_layers=2, dim=8,
                         num_categories=2, ffn_hidden=16)

    step_loss(cfg, params, scene, features, 0)[0].backward()
    frozen = detach_params(params)

    def value():
        return float(step_loss(cfg, frozen, scene, features, 0)[0].values)

    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for _, p in named_parameters(params):
        flat = p.values.reshape(-1)
        coords = rng.choice(flat.size, size=min(COORDS_PER_PARAM, flat.size), replace=False)
        grad = p.grad if p.grad is not None else np.zeros_like(p.values)
        worst = max(worst, _probe(value, flat, grad.reshape(-1), coords))
    return "decoder_end_to_end" + ("_mp" if with_mp else ""), worst, worst < TOL
