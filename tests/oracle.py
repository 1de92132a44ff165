"""The tests' oracles, which the model itself never runs: primitive ops,
one small tape node each, that the tests compose as the oracle of
mpseg.tensor's fused ops, among them the matrix product, the elementwise
arithmetic and the reductions that Tensor itself does not define;
attention over every key column, the oracle of tensor.fused_attention
where it computes on fewer; an MP part's label flips and noised masks
drawn one row at a time, the oracle of mp.build_mp_part; nearest resizing
by any ratio, sampling at cell centres, the oracle of
masks.to_attention_blocks' strided sampling; the 2x2 pool as numpy's
mean of each block, the oracle of decoder.pool2x2; the run-length
decoder that writes one run at a time, the oracle of masks.rle_decode;
the np.mgrid disk, the oracle of synth._shape_mask's disks; the
Hungarian solve as numpy array ops, the oracle of
losses._solve_rows_leq_cols; a scan over every candidate
threshold, the oracle of metrics._threshold_exists; the np.where
sigmoid with log1p(exp(-|x|)) as two expressions, the oracle of
tensor.sigmoid_softplus; the matching cost from the pixels, the oracle
of losses.mask_stats with losses.cost_matrix; a decoder layer with nodes
of its own for each query part, the oracle of decoder.decoder_layer; and
the loss with nodes of its own for each layer, the oracle of
losses.loss_over_layers: a mask-logit node over each layer's mask
embeddings (mask_head), a fused_loss node per layer over its mask
logits, and sum_scalars over the layers (layer_losses), with a
class-loss and a mask-loss node per term, computed from the pixels, as
the oracle of fused_loss."""

import numpy as np

from mpseg.decoder import binarize_masks
from mpseg.losses import DICE_EPS, MODES, cost_matrix, gt_pixels, hungarian, mask_stats
from mpseg.masks import MP_KEY, point_noise_region, scale_noise, seeded_rng, shift_noise
from mpseg.mp import dynamic_groups
from mpseg.tensor import (NEG_BIG, Tensor, _make, add_norm_affine, concat_rows, fused_attention,
                          mlp2, part_products)


def sigmoid_where(x: np.ndarray) -> np.ndarray:
    """sigmoid(x) as 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere,
    for e = exp(-|x|)."""
    ex = np.exp(-np.abs(x))
    d = 1.0 + ex
    return np.where(x >= 0, 1.0 / d, ex / d)


def log1p_exp_neg_abs(x: np.ndarray) -> np.ndarray:
    """log1p(exp(-|x|)): softplus(x) less max(x, 0)."""
    return np.log1p(np.exp(-np.abs(x)))


def _mean_all(a):
    """ndarray.mean with the Python wrapper taken out: the same reduction
    and division, so bitwise the same value."""
    return np.add.reduce(a, axis=None) / a.size


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _binary(a, b, value, grad_a, grad_b) -> Tensor:
    """One node for an elementwise op of a and b, either of which may be a
    constant, with numpy broadcasting: value(a, b) and the gradients
    grad_a(g, a, b), grad_b(g, a, b) of the broadcast shape."""
    a, b = _as_tensor(a), _as_tensor(b)

    def bw(g):
        a._accumulate(_unbroadcast(grad_a(g, a.values, b.values), a.values.shape))
        b._accumulate(_unbroadcast(grad_b(g, a.values, b.values), b.values.shape))
    return _make(value(a.values, b.values), (a, b), bw)


def add(a, b) -> Tensor:
    return _binary(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary(a, b, np.divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / y ** 2)


def sum_all(x: Tensor) -> Tensor:
    return _make(x.values.sum(), (x,),
                 lambda g: x._accumulate(np.full_like(x.values, float(g))))


def mean_all(x: Tensor) -> Tensor:
    return _make(x.values.mean(), (x,),
                 lambda g: x._accumulate(np.full_like(x.values, float(g) / x.values.size)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b of 2-D tensors."""
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch: {av.shape} vs {bv.shape}")

    def bw(g):
        a._accumulate(g @ bv.T)
        b._accumulate(av.T @ g)
    return _make(av @ bv, (a, b), bw)


def transpose(x: Tensor) -> Tensor:
    return _make(x.values.T, (x,), lambda g: x._accumulate(g.T))


def reshape(x: Tensor, *shape) -> Tensor:
    old = x.values.shape
    return _make(x.values.reshape(*shape), (x,), lambda g: x._accumulate(g.reshape(old)))


def gather_cols(x: Tensor, idx) -> Tensor:
    """out[i] = x[i, idx[i]] for a 2-D tensor."""
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.arange(x.values.shape[0])

    def bw(g):
        acc = np.zeros_like(x.values)
        np.add.at(acc, (rows, idx), g)
        x._accumulate(acc)
    return _make(x.values[rows, idx], (x,), bw)


def relu(x: Tensor) -> Tensor:
    return _make(np.maximum(x.values, 0.0), (x,), lambda g: x._accumulate(g * (x.values > 0.0)))


def sigmoid(x: Tensor) -> Tensor:
    y = sigmoid_where(x.values)
    return _make(y, (x,), lambda g: x._accumulate(g * y * (1.0 - y)))


def log(x: Tensor) -> Tensor:
    return _make(np.log(x.values), (x,), lambda g: x._accumulate(g / x.values))


def sum_lastdim(x: Tensor) -> Tensor:
    return _make(x.values.sum(axis=-1), (x,), lambda g: x._accumulate(
        np.broadcast_to(np.expand_dims(g, -1), x.values.shape)))


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    v = x.values
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        x._accumulate(y * (g - dot))
    return _make(y, (x,), bw)


def logsumexp_lastdim(x: Tensor) -> Tensor:
    """log(sum(exp(x))) over the last axis; gradient is the softmax."""
    v = x.values
    m = v.max(axis=-1, keepdims=True)
    e = np.exp(v - m)
    s = e.sum(axis=-1, keepdims=True)
    return _make((np.log(s) + m).squeeze(-1), (x,),
                 lambda g: x._accumulate(np.expand_dims(g, -1) * (e / s)))


def layernorm_lastdim(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each last-axis slice to mean 0, variance 1 (no affine)."""
    v = x.values
    mu = v.mean(axis=-1, keepdims=True)
    var = v.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (v - mu) * inv

    def bw(g):
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * y).mean(axis=-1, keepdims=True)
        x._accumulate(inv * (g - gm - y * gy))
    return _make(y, (x,), bw)


def masked_fill(x: Tensor, block, fill: float) -> Tensor:
    """Replace entries where `block` is true with `fill`; gradient flows only elsewhere."""
    block = np.asarray(block, dtype=bool)
    if block.shape != x.values.shape:
        raise ValueError(f"masked_fill shape mismatch: values {x.values.shape} vs block {block.shape}")
    return _make(np.where(block, fill, x.values), (x,),
                 lambda g: x._accumulate(np.where(block, 0.0, g)))


def dense_attention(x: Tensor, keys: Tensor, values: Tensor, block, wq: Tensor, wo: Tensor,
                    scale: float) -> Tensor:
    """softmax(masked_fill((x@wq) @ keys.T * scale, block, NEG_BIG)) @ values @ wo
    over every key column, one node, with the keys and values given:
    tensor.fused_attention as it was before it projected its own keys
    and values, on only the columns its rows read."""
    q = x.values @ wq.values
    kv = keys.values
    logits = q @ kv.T
    logits *= scale
    if block is not None:
        block = np.asarray(block, dtype=bool)
        if block.shape != logits.shape:
            raise ValueError(f"attention block shape {block.shape} != logits {logits.shape}")
        np.putmask(logits, block, NEG_BIG)
    logits -= logits.max(axis=-1, keepdims=True)
    p = np.exp(logits, out=logits)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = p @ values.values

    def bw(g):
        wo._accumulate(ctx.T @ g)
        g_ctx = g @ wo.values.T
        values._accumulate(p.T @ g_ctx)
        g_logits = g_ctx @ values.values.T  # g_p, then p * (g_p - sum(g_p * p))
        g_logits -= (g_logits * p).sum(axis=-1, keepdims=True)
        g_logits *= p
        if block is not None:
            np.putmask(g_logits, block, 0.0)
        g_logits *= scale
        keys._accumulate((q.T @ g_logits).T)
        g_q = g_logits @ kv
        wq._accumulate(x.values.T @ g_q)
        x._accumulate(g_q @ wq.values.T)
    return _make(ctx @ wo.values, (x, keys, values, wq, wo), bw)


def bce_with_logits(x: Tensor, target) -> Tensor:
    """Elementwise sigmoid cross-entropy against a constant target in [0,1].

    Computed as max(x,0) - x*t + log1p(exp(-|x|)) for stability at large |x|.
    """
    t = np.asarray(target, dtype=np.float64)
    v = x.values
    loss = np.maximum(v, 0.0) - v * t + log1p_exp_neg_abs(v)
    return _make(loss, (x,), lambda g: x._accumulate(g * (sigmoid_where(v) - t)))


def resize_nearest(m: np.ndarray, h2: int, w2: int) -> np.ndarray:
    """Nearest-neighbor resize of an (h, w) mask, sampling source values at
    destination cell centers."""
    if h2 < 1 or w2 < 1:
        raise ValueError(f"target extents must be positive, got {h2}x{w2}")
    if (h2, w2) == m.shape:
        return m.copy()
    h, w = m.shape
    ri = np.minimum(np.floor((np.arange(h2) + 0.5) * h / h2), h - 1).astype(np.intp)
    ci = np.minimum(np.floor((np.arange(w2) + 0.5) * w / w2), w - 1).astype(np.intp)
    return m[np.ix_(ri, ci)]


def mean_pool2x2(grid: np.ndarray) -> np.ndarray:
    """The 2x2 mean pool of an (h, w, d) grid, h and w even, as numpy's
    mean over each block."""
    h, w, d = grid.shape
    return grid.reshape(h // 2, 2, w // 2, 2, d).mean(axis=(1, 3))


def rle_decode_runs(runs, height: int, width: int) -> np.ndarray:
    """The (height, width) mask of one mask's run lengths, written run by
    run. Raises ValueError as masks.rle_decode does for a one-mask stack."""
    total = height * width
    flat = np.zeros(total, dtype=bool)
    pos = 0
    val = False
    for run in runs:
        if run > 0:
            flat[pos:pos + run] = val
        elif run < 0:
            raise ValueError(f"negative run length {run}")
        pos += run
        val = not val
    if pos != total:
        raise ValueError(f"run lengths sum to {pos}, expected {total}")
    return flat.reshape(height, width)


def disk_mask(h: int, w: int, cy: int, cx: int, r: int) -> np.ndarray:
    """The (h, w) disk of radius r around (cy, cx), from np.mgrid."""
    rr, cc = np.mgrid[0:h, 0:w]
    return (rr - cy) ** 2 + (cc - cx) ** 2 <= r ** 2


def point_noise_rows(m: np.ndarray, lambda_p: float, n_rows: int, rng) -> np.ndarray:
    """n_rows point-noised copies of an (h, w) mask, drawn from rng as
    mp.build_mp_part draws one instance's rows.

    Nothing is drawn when the flip budget c_max = floor(lambda_p * area)
    is 0. Otherwise one integers call draws every row's flip count, uniform
    on the integers [0, c_max], and one random call every row's keys over
    the dilated bbox. Row r inverts (1->0 or 0->1) the counts[r] bbox
    pixels with the lowest keys: distinct positions, uniform over the box.
    """
    out = np.repeat(m[None], n_rows, axis=0)
    c_max, bbox = point_noise_region(m, lambda_p)
    if c_max:
        r0, r1, c0, c1 = bbox
        region_w = c1 - c0 + 1
        counts = rng.integers(0, c_max + 1, size=n_rows)
        keys = rng.random((n_rows, (r1 - r0 + 1) * region_w))
        for row, count, keys_row in zip(out, counts, keys):
            picks = np.argsort(keys_row)[:count]
            rr, cc = r0 + picks // region_w, c0 + picks % region_w
            row[rr, cc] = ~row[rr, cc]
    return out


def point_noise(m: np.ndarray, lambda_p: float, seed) -> np.ndarray:
    """One point-noised copy of an (h, w) mask from the seed's own stream."""
    return point_noise_rows(m, lambda_p, 1, seeded_rng(seed))[0]


def mp_part_draws(scene, num_categories: int, cfg, layers, seed):
    """(query categories, {layer: (M, H, W) noised masks}) of
    mp.build_mp_part, drawn one row at a time from one seeded_rng(seed,
    MP_KEY) stream in the order its docstring fixes: the label flips, then point
    noise instance by instance over (layer, group), or shift and scale
    noise row by row in (layer, group, instance) order."""
    n_g = dynamic_groups(cfg.n_q, scene.num_instances)
    gt_masks = scene.masks[:cfg.n_q]
    rows = [(g, j) for g in range(n_g) for j in range(len(gt_masks))]
    rng = seeded_rng(seed, MP_KEY)
    cats = [int(scene.categories[j]) for _, j in rows]
    if num_categories > 1:
        draws = rng.random(len(rows))
        flipped = [k for k in range(len(rows)) if draws[k] < cfg.lambda_label]
        for k, pick in zip(flipped, rng.integers(0, num_categories - 1, size=len(flipped))):
            cats[k] = [c for c in range(num_categories) if c != cats[k]][pick]
    layers = sorted(set(layers if cfg.mp_layers is None else cfg.mp_layers))
    noised = {(layer, g, j): gt_masks[j] for layer in layers for g, j in rows}
    if cfg.noise_kind == "point":
        for j, mask in enumerate(gt_masks):
            copies = [(layer, g) for layer in layers for g in range(n_g)]
            for (layer, g), row in zip(copies, point_noise_rows(mask, cfg.lambda_point,
                                                                len(copies), rng)):
                noised[layer, g, j] = row
    elif cfg.noise_kind == "shift":
        for layer, g, j in noised:
            noised[layer, g, j] = shift_noise(gt_masks[j], rng)
    elif cfg.noise_kind == "scale":
        for layer, g, j in noised:
            noised[layer, g, j] = scale_noise(gt_masks[j], cfg.scale_range, rng)
    return cats, {layer: np.stack([noised[layer, g, j] for g, j in rows]) for layer in layers}


def solve_rows_leq_cols(cost: np.ndarray) -> np.ndarray:
    """Potential-based Hungarian for n <= m as numpy array ops; returns col
    -> row (-1 = unmatched). The oracle of losses._solve_rows_leq_cols."""
    n, m = cost.shape
    INF = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=np.intp)   # p[j]: row assigned to column j (1-based, 0=none)
    way = np.zeros(m + 1, dtype=np.intp)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, INF)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            cur = cost[i0 - 1] - u[i0] - v[1:]
            better = ~used[1:] & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            free = ~used[1:]
            if free.any():
                idx = np.argmin(np.where(free, minv[1:], INF))
                delta = minv[idx + 1]
                j1 = idx + 1
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return p[1:] - 1


def scan_for_threshold(scores: np.ndarray, categories: np.ndarray) -> bool:
    """Any threshold with all C0 scores >= t and all C1 scores < t?"""
    c0 = scores[categories == 0]
    c1 = scores[categories == 1]
    for t in np.sort(np.unique(scores)):
        if (c0 >= t).all() and (c1 < t).all():
            return True
    return False


def dense_cost(ml: np.ndarray, cl: np.ndarray, scene, w) -> np.ndarray:
    """(queries x GT) matching cost of (n, h, w) mask logits and class
    logits, -class prob + BCE + dice, from the oracle's sigmoid and
    softplus of every pixel."""
    n = ml.shape[0]
    pred = ml.reshape(n, -1)
    npix = pred.shape[1]
    gt = scene.masks.reshape(scene.num_instances, -1).astype(np.float64)
    e = np.exp(cl - cl.max(axis=-1, keepdims=True))
    cls_term = -(e / e.sum(axis=-1, keepdims=True))[:, scene.categories]
    sp = np.maximum(pred, 0.0)
    sp += log1p_exp_neg_abs(pred)
    bce = sp.mean(axis=1)[:, None] - (pred @ gt.T) / npix
    p = sigmoid_where(pred)
    inter = p @ gt.T
    dice = 1.0 - (2.0 * inter + DICE_EPS) / (p.sum(axis=1)[:, None]
                                             + gt.sum(axis=1)[None, :] + DICE_EPS)
    return w.cls * cls_term + w.bce * bce + w.dice * dice


def cross_entropy_rows(logits: Tensor, rows, targets, row_weights, scale: float) -> Tensor:
    """scale * sum_i w_i * CE(logits[rows[i]], targets[i]) / sum_i w_i.

    `rows` must be unique: the gradient is written into them by assignment.
    """
    rows = np.asarray(rows, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    v = logits.values[rows]
    m = v.max(axis=-1, keepdims=True)
    e = np.exp(v - m)
    s = e.sum(axis=-1, keepdims=True)
    lse = (np.log(s) + m).squeeze(-1)
    picked = v[np.arange(rows.size), targets]
    wsum = float(row_weights.sum())

    def bw(g):
        coef = (float(g) * scale) / wsum * row_weights
        g_rows = coef[:, None] * (e / s)
        g_rows[np.arange(rows.size), targets] -= coef
        acc = np.zeros_like(logits.values)
        acc[rows] = g_rows
        logits._accumulate(acc)
    return _make((((lse - picked) * row_weights).sum() / wsum) * scale, (logits,), bw)


def mask_loss_rows(logits: Tensor, probs: np.ndarray, softplus: np.ndarray, rows, targets,
                   w_bce: float, w_dice: float, dice_eps: float) -> Tensor:
    """w_bce * mean sigmoid BCE + w_dice * mean smooth dice of the rows
    `rows` of (n, ...) mask logits against (len(rows), pixels) targets.

    `probs, softplus` is the pair (sigmoid, log1p(exp(-|x|))) of
    logits.values; the BCE of logit v is max(v, 0) - v * t + softplus.
    `rows` must be unique: the gradient is written into them by assignment.
    """
    rows = np.asarray(rows, dtype=np.intp)
    n = logits.values.shape[0]
    v = logits.values.reshape(n, -1)[rows]
    p = probs.reshape(n, -1)[rows]
    t = targets
    terms = np.maximum(v, 0.0)
    terms -= v * t
    terms += softplus.reshape(n, -1)[rows]
    bce = _mean_all(terms)
    num = 2.0 * (p * t).sum(axis=-1) + dice_eps
    den = p.sum(axis=-1) + (t.sum(axis=1) + dice_eps)
    dice = _mean_all(1.0 - num / den)

    def bw(g):
        g_bce = float(g) * w_bce / v.size
        g_num = -(float(g) * w_dice) / rows.size / den
        g_p = (2.0 * g_num)[:, None] * t - (g_num * num / den)[:, None]
        acc = np.zeros_like(logits.values)
        g_v = p - t  # then g_bce * (p - t) + (g_p * p) * (1 - p)
        g_v *= g_bce
        g_p *= p
        g_p *= 1.0 - p
        g_v += g_p
        acc.reshape(n, -1)[rows] = g_v
        logits._accumulate(acc)
    return _make(w_bce * bce + w_dice * dice, (logits,), bw)


def per_part_decoder_layer(parts, feats: np.ndarray, cross_blocks, self_blocks, lp,
                           dim: int) -> list:
    """decoder.decoder_layer with every op one node per query part: the
    parts, [matching] or [matching, MP], are Tensors of their own, and
    part j's self-attention reads a concat_rows of parts 0..j. Returns the
    updated parts."""
    scale = 1.0 / np.sqrt(dim)
    every = slice(None)
    parts = [add_norm_affine(x, fused_attention(x, feats, [(every, every, block)], lp.wq,
                                                lp.wk, lp.wv, lp.wo, scale),
                             lp.ln1_g, lp.ln1_b)
             for x, block in zip(parts, cross_blocks)]
    out = []
    for j, (x, block) in enumerate(zip(parts, self_blocks)):
        ctx = concat_rows(parts[:j + 1]) if j else x
        update = fused_attention(x, ctx, [(every, every, block)], lp.sq, lp.sk, lp.sv, lp.so,
                                 scale)
        x = add_norm_affine(x, update, lp.ln2_g, lp.ln2_b)
        ffn = mlp2(x, [every], lp.ffn_w1, lp.ffn_b1, lp.ffn_w2, lp.ffn_b2)
        out.append(add_norm_affine(x, ffn, lp.ln3_g, lp.ln3_b))
    return out


def sum_scalars(terms) -> Tensor:
    """The sum of scalar Tensors, added left to right starting from 0.0:
    one node, whose backward hands its g to every term."""
    terms = tuple(terms)
    total = 0.0
    for t in terms:
        total = total + t.values

    def bw(g):
        for t in terms:
            t._accumulate(g)
    return _make(total, terms, bw)


def mask_head(e: Tensor, spans, embed: np.ndarray) -> Tensor:
    """The (n, h, w) mask logits of (n, d) mask embeddings e against an
    (h, w, d) embed grid as one node, each part's product its own (so the
    values are bitwise decoder.heads'), whose backward multiplies the
    whole (n, h, w) logit gradient by the grid."""
    h, w, d = embed.shape
    grid = embed.reshape(h * w, d)
    return _make(part_products(e.values, spans, grid.T).reshape(-1, h, w), (e,),
                 lambda g: e._accumulate(g.reshape(g.shape[0], h * w) @ grid))


def _write_rows(acc, written, rows, g):
    """Put g into acc's rows `rows` (a slice or unique indices): assigned
    into a row that no earlier call wrote, added to one that one did."""
    new = ~written[rows]
    if new.all():
        acc[rows] = g
    else:
        rows = np.arange(written.size)[rows]
        acc[rows[new]] = g[new]
        acc[rows[~new]] += g[~new]
    written[rows] = True


def fused_loss(mask_logits: Tensor, class_logits: Tensor, probs: np.ndarray, class_terms,
               mask_terms, w_cls: float, w_bce: float, w_dice: float,
               dice_eps: float) -> Tensor:
    """The sum, from 0.0, of the class terms and then the mask terms of
    one decoder layer, one node:

    - a class term (rows, targets, row_weights) is
      w_cls * sum_i w_i * CE(class_logits[rows][i], targets[i]) / sum_i w_i;
    - a mask term (rows, targets, bce, inter, psum, area) is
      w_bce * mean(bce) + w_dice * mean(1 - (2 inter + eps) / (psum + (area + eps))),
      the mean sigmoid BCE and smooth dice of the rows `rows` of the
      (n, ...) mask logits against their (len(rows), pixels) targets,
      from each row's mean BCE, sum of p * t, sum of p and sum of t.
      probs, the (n, pixels) sigmoid of every row, and the targets serve
      the backward.

    The backward writes each term's rows into one class gradient and one
    (n, ...) mask gradient, added where terms share a row, and zeros the
    rows that no term reads.
    """
    total = 0.0
    saved = []
    for rows, targets, row_weights in class_terms:
        v = class_logits.values[rows]
        m = v.max(axis=-1, keepdims=True)
        e = np.exp(v - m)
        s = e.sum(axis=-1, keepdims=True)
        lse = (np.log(s) + m).squeeze(-1)
        picked = v[np.arange(targets.size), targets]
        wsum = float(row_weights.sum())
        total = total + (((lse - picked) * row_weights).sum() / wsum) * w_cls
        saved.append((e, s, wsum))
    fractions = []
    for rows, targets, bce, inter, psum, area in mask_terms:
        num = 2.0 * inter + dice_eps
        den = psum + (area + dice_eps)
        total = total + (w_bce * _mean_all(bce) + w_dice * _mean_all(1.0 - num / den))
        fractions.append((num, den))

    def bw(g):
        g = float(g)
        acc = np.empty_like(class_logits.values)
        written = np.zeros(acc.shape[0], dtype=bool)
        for (rows, targets, row_weights), (e, s, wsum) in zip(class_terms, saved):
            coef = (g * w_cls) / wsum * row_weights
            g_rows = coef[:, None] * (e / s)
            g_rows[np.arange(targets.size), targets] -= coef
            _write_rows(acc, written, rows, g_rows)
        acc[~written] = 0.0
        class_logits._accumulate(acc)
        n = probs.shape[0]
        acc = np.empty_like(mask_logits.values)
        flat = acc.reshape(n, -1)
        written = np.zeros(n, dtype=bool)
        for (rows, t, *_), (num, den) in zip(mask_terms, fractions):
            p = probs[rows]
            g_bce = g * w_bce / p.size
            g_num = -(g * w_dice) / den.size / den
            g_p = t * (2.0 * g_num)[:, None]
            g_p -= (g_num * num / den)[:, None]
            g_v = p - t  # then g_bce * (p - t) + (g_p * p) * (1 - p)
            g_v *= g_bce
            g_p *= p
            g_p *= 1.0 - p
            g_v += g_p
            _write_rows(flat, written, rows, g_v)
        flat[~written] = 0.0
        mask_logits._accumulate(acc)
    return _make(total, (mask_logits, class_logits), bw)


def layer_loss(mask_logits: Tensor, class_logits: Tensor, layer_stats: tuple, gt: np.ndarray,
               categories, indices, w, consistency=None) -> Tensor:
    """One layer's loss, one fused_loss node over its query parts.

    layer_stats is losses.mask_stats of the layer's mask logits over its
    parts, and indices holds each part's GT index per row (-1 = no
    object), the parts in row order. Each part gets a class term over all
    its rows, no-object where the index is -1, and a mask term over the
    rows with an index, whose statistics are the [row, index] entries. A
    consistency target, (rows of the first part, pixels), adds a mask term
    over the first part's rows, whose statistics come from row-wise dot
    products.
    """
    probs, means, st = layer_stats
    num_categories = class_logits.values.shape[1] - 1
    class_terms, mask_terms = [], []
    start = 0
    for index in indices:
        hit = index >= 0
        targets = np.where(hit, categories[index], num_categories)
        class_terms.append((slice(start, start + index.size), targets,
                            np.where(targets == num_categories, w.no_object, 1.0)))
        if hit.any():
            rows = start + np.flatnonzero(hit)
            cols = index[hit]
            at = slice(start, start + index.size) if hit.all() else rows
            mask_terms.append((at, gt[cols], st.bce[rows, cols], st.inter[rows, cols],
                               st.psum[rows], st.area[cols]))
        start += index.size
    if consistency is not None:
        k, npix = consistency.shape
        x = mask_logits.values.reshape(probs.shape)[:k]
        mask_terms.append((slice(0, k), consistency,
                           means[:k] - np.einsum("ij,ij->i", x, consistency) / npix,
                           np.einsum("ij,ij->i", probs[:k], consistency), st.psum[:k],
                           consistency.sum(axis=1)))
    return fused_loss(mask_logits, class_logits, probs, class_terms, mask_terms, w.cls, w.bce,
                      w.dice, DICE_EPS)


def layer_losses(outputs, scene, mp_part, mode: str, weights):
    """losses.layer_losses as one layer_loss node per layer and
    sum_scalars over them, each layer's mask logits a Tensor of its own:
    (total, (L+1, n_match) matching vectors)."""
    if mode not in MODES:
        raise ValueError(f"unknown loss mode {mode!r}")
    n_match = outputs.n_match
    gt = gt_pixels(scene)
    parts = [slice(0, n_match)] + ([slice(n_match, None)] if mp_part is not None else [])
    stats = [mask_stats(ml.values, gt, parts) for ml in outputs.mask_logits]

    def match(i):
        return hungarian(cost_matrix(stats[i][2].rows(parts[0]),
                                     outputs.class_logits[i].values[:n_match],
                                     scene.categories, weights))

    layers = range(len(outputs.mask_logits))
    vectors = ([match(-1)] * len(layers) if mode == "fixed-last-layer"
               else [match(i) for i in layers])
    terms = []
    for i, vec in enumerate(vectors):
        indices = [vec] + ([mp_part.instance_index] if mp_part is not None else [])
        consistency = None
        if mode == "consistency-aux" and i >= 1:
            prev = binarize_masks(outputs.mask_logits[i - 1].values[:n_match])
            consistency = prev.reshape(n_match, -1).astype(np.float64)
        terms.append(layer_loss(outputs.mask_logits[i], outputs.class_logits[i], stats[i], gt,
                                scene.categories, indices, weights, consistency))
    return sum_scalars(terms), np.stack(vectors)
