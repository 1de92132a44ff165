"""Dense float64 tensor with reverse-mode automatic differentiation.

The graph is a dynamic tape: every op returns a fresh Tensor holding its
inputs and a backward closure. Calling backward() on a scalar, or with
a seed gradient of the output's shape, walks the tape in reverse
topological order and accumulates gradients into every reachable Tensor
that has requires_grad set. Values are never mutated by forward ops; the
only sanctioned in-place write is an optimizer updating parameter .values
between training steps.

A value is a Tensor only if some forward can differentiate it. Its
requires_grad is set when it is made, by Tensor.__init__ or _make, and
never changed: a forward that records nothing runs on
trainer.detach_params' copy of the parameters. _make and _accumulate
alone decide which Tensor records and keeps a gradient: _make records an
op's parents and backward only when some parent tracks gradients, and
_accumulate drops a gradient handed to a Tensor that tracks none. So
each op computes its forward, defines bw(g), which hands every input its
gradient, and returns _make(values, parents, bw). Besides them only
fused_attention's source, the loss node's mask embeddings
(losses.loss_over_layers) and full_forward's grid read requires_grad,
where a dropped gradient would cost real work.

The ops here are only the ones the model's decoder records: take_rows,
concat_rows and the fused ops. Tensor has no matmul, elementwise
operator or reduction; the tests' compositions take theirs from
tests/oracle.py. A fused op records one node for a whole block of the
decoder, over all its query parts, with a hand-written backward, because
at this size the cost of a step is Python overhead per node, not
arithmetic:

- fused_attention: per query part, softmax(mask((x@wq) @ (s@wk).T * scale)) @ (s@wv) @ wo
  for the part's rows of x and its rows s of src, projecting only the
  rows of s that some row of the part may read;
- add_norm_affine: layernorm(x + update) * gain + bias;
- mlp2: relu(x@w1 + b1) @ w2 + b2 over the query parts, among them the
  mask head's embedding of each query;
- linear: x@w + b over the query parts, the class head.

Gains and biases are 1-D, so each one's gradient is a sum over rows
(tests/oracle.py's primitives broadcast, and reduce in general).

The loss is one more node, over every decoder layer (losses.py). No
pixel array enters the tape: the mask logits, each query's embedding
times the scene's embedding grid, are plain arrays, and the loss node is
differentiated at the (n, d) embeddings. Its backward forms, layer by
layer, the per-pixel gradient of only the rows that a mask term reads
and multiplies it by the grid, so no (rows x pixels) array is ever
stored as a gradient.

For the same reason importing mpseg holds numpy's OpenBLAS to one thread
(mpseg._blas): a second thread has no product large enough to share and
only spins on a core between calls.

The query parts are the decoder's matching and MP rows: slices that tile
the rows of one Tensor. In fused_attention, mlp2 and linear each part's
forward products are its own BLAS calls (part_products), so a part's
rows are bitwise those of a call on that part alone. What is row-wise
(bias adds, relu) runs once over all rows, and so does every backward
product. Those products regroup sums that a part-by-part backward
makes, so the gradients match a part-by-part composition within a
tolerance that a test checks (tests/oracle.py keeps the decoder layer
with nodes of its own per part).

Each fused forward runs the same numpy calls in the same order as its
composition of primitives on each part (tests/oracle.py, the tests'
oracle), so its value is bitwise equal to theirs; fused_attention does
so when a part's rows read every row of its s. When every row of a part
blocks some row of s, it computes on fewer, and its oracle is the dense
op over all of them (oracle.dense_attention), which it matches within a
tolerance that a test checks.

No array is written in place once it is stored as a gradient, so a
backward hands _accumulate any array as it is: one it just allocated, a
view, the incoming g, or one it also hands to another input.

Some functions save numpy temporaries by writing in place, but only
into arrays they just allocated and have not yet handed to _accumulate,
stored or returned: the per-part products that fill one array of all
rows, and the bias added into it; fused_attention's logits (scaled,
blocked, shifted, exponentiated and normalized in one buffer, which
becomes the stored softmax), its backward's logit gradient and the
src gradient its parts are added into; and sigmoid_softplus's exp(-|x|)
buffer, which turns into the sigmoid's denominator, and the sigmoid's
numerator, which it divides in place. The ufuncs and their order are
those of the out-of-place expressions, so every value is bitwise the
same.
"""

from __future__ import annotations

import numpy as np

NEG_BIG = -1e9  # attention-blocking sentinel; finite so fully-blocked rows stay NaN-free
LN_EPS = 1e-5   # added to the variance in add_norm_affine's layer normalization


class Tensor:
    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g):
        """Add g to .grad if this Tensor tracks gradients, and drop it if
        it does not. The first g is stored as it is, a later one makes a
        new sum, and no stored gradient is written into."""
        if self.requires_grad:
            self.grad = g if self.grad is None else self.grad + g

    def backward(self, grad=None):
        """Populate .grad on every requires_grad ancestor of this Tensor,
        seeded with `grad`, an array of its shape. With no seed, the
        Tensor must be a scalar and the seed is 1. On a Tensor that
        tracks no gradient it does nothing."""
        if grad is None:
            if self.values.ndim != 0 and self.values.size != 1:
                raise ValueError(f"backward() needs a scalar loss or a seed, got shape "
                                 f"{self.values.shape}")
            grad = np.ones_like(self.values)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.values.shape:
                raise ValueError(f"backward() seed shape {grad.shape} != output shape "
                                 f"{self.values.shape}")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # structural ops

    def take_rows(self, idx) -> "Tensor":
        idx = np.asarray(idx, dtype=np.intp)

        def bw(g):
            acc = np.zeros_like(self.values)
            np.add.at(acc, idx, g)
            self._accumulate(acc)
        return _make(self.values[idx], (self,), bw)


def _make(values, parents, backward) -> Tensor:
    """An op's result: a Tensor of `values` that tracks gradients and
    records the op's parents and backward when some parent tracks them,
    and a constant otherwise."""
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ndarray.mean with the Python wrapper taken out: the same reduction and
# division in the same order, so bitwise the same values


def _mean_lastdim(a):
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def sigmoid_softplus(x):
    """(sigmoid(x), log1p(exp(-|x|))) from one exp: the mask-logit
    activations every consumer of a layer reads.

    softplus(x) is max(x, 0) plus the second array. The sigmoid is
    1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, for e = exp(-|x|);
    since 0 <= e <= 1, max(e, x >= 0) is that numerator, so the values
    are bitwise those of the np.where form tests/oracle.py keeps, NaN
    included.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    sp = np.log1p(e)
    p = np.maximum(e, x >= 0)
    e += 1.0
    p /= e
    return p, sp


def concat_rows(tensors) -> Tensor:
    """Concatenate 2-D tensors along axis 0."""
    tensors = list(tensors)
    offsets = np.cumsum([0] + [t.values.shape[0] for t in tensors])

    def bw(g):
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            t._accumulate(g[a:b])
    return _make(np.concatenate([t.values for t in tensors], axis=0), tensors, bw)


# ----------------------------------------------------------------------
# fused ops: one tape node each, hand-written backward


def _tiling(spans, n) -> list:
    """The slices `spans` as slice(start, stop); raises unless they tile
    the rows [0, n) in order."""
    out, at = [], 0
    for rows in spans:
        start, stop, step = rows.indices(n)
        if start != at or step != 1 or stop < start:
            break
        out.append(slice(start, stop))
        at = stop
    if at != n or len(out) != len(spans):
        raise ValueError(f"row spans {list(spans)} do not tile {n} rows in order")
    return out


def part_products(a, spans, w):
    """a @ w as one BLAS product per part: each span's rows of a times w,
    written into the same rows of one array, so a part's rows are bitwise
    those of a product over that part alone."""
    out = np.empty((a.shape[0], w.shape[1]))
    for rows in spans:
        np.matmul(a[rows], w, out=out[rows])
    return out


def _stack(arrays):
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def fused_attention(x: Tensor, src: Tensor, parts, wq: Tensor, wk: Tensor, wv: Tensor,
                    wo: Tensor, scale: float) -> Tensor:
    """Masked attention of the query parts, one node. For each part
    (rows, keys, block), with s = src[keys], the output's rows `rows` are
    softmax(masked_fill((x[rows]@wq) @ (s@wk).T * scale, block, NEG_BIG)) @ (s@wv) @ wo.

    rows and keys are slices, and the parts' rows tile x's rows in order.
    `block` is a (len(rows), len(keys)) bool grid, or None to block
    nothing. A fully blocked row attends uniformly and passes no gradient
    to its logits.

    A part's keys and values are computed only on the rows of s that
    some row of the part reads, cols: a blocked logit's weight underflows
    to 0, so a row of s that every row blocks adds nothing. A fully
    blocked row reads every row of s. When every row is read, cols is a
    slice and s is not copied.

    Every forward product is the part's own, so a part's output rows are
    bitwise those of a call on that part alone. The backward's products
    run once over all parts' rows.

    src's gradient is formed only when src tracks one. A
    cross-attention's src is a constant feature scale in every step (a
    self-attention's is the tracked x), and forming its gradient would
    zero a (pixels, d) array for _accumulate to drop.
    """
    n = x.values.shape[0]
    q = np.empty((n, wq.values.shape[1]))
    ctx = np.empty((n, wv.values.shape[1]))
    out_v = np.empty((n, wo.values.shape[1]))
    saved = []  # per part: rows, keys, cols, block, s, k, v, p
    for rows, (_, keys, block) in zip(_tiling([r for r, _, _ in parts], n), parts):
        s = src.values[keys]
        cols = slice(None)
        if block is not None:
            block = np.asarray(block, dtype=bool)
            if block.shape != (rows.stop - rows.start, s.shape[0]):
                raise ValueError(f"attention block shape {block.shape} != logits "
                                 f"{(rows.stop - rows.start, s.shape[0])}")
            closed = block.all(axis=0)
            if closed.any() and not block.all(axis=1).any():
                cols = np.flatnonzero(~closed)
                block = block[:, cols]
                s = s[cols]
        k = s @ wk.values
        v = s @ wv.values
        logits = np.matmul(x.values[rows], wq.values, out=q[rows]) @ k.T
        logits *= scale
        if block is not None:
            np.putmask(logits, block, NEG_BIG)
        logits -= logits.max(axis=-1, keepdims=True)
        p = np.exp(logits, out=logits)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(np.matmul(p, v, out=ctx[rows]), wo.values, out=out_v[rows])
        saved.append((rows, keys, cols, block, s, k, v, p))

    def bw(g):
        wo._accumulate(ctx.T @ g)
        g_ctx = g @ wo.values.T
        g_q = np.empty_like(q)
        g_k, g_v = [], []
        for rows, _, _, block, _, k, v, p in saved:
            g_v.append(p.T @ g_ctx[rows])
            g_logits = g_ctx[rows] @ v.T  # g_p, then p * (g_p - sum(g_p * p))
            g_logits -= (g_logits * p).sum(axis=-1, keepdims=True)
            g_logits *= p
            if block is not None:
                np.putmask(g_logits, block, 0.0)
            g_logits *= scale
            g_k.append((q[rows].T @ g_logits).T)
            np.matmul(g_logits, k, out=g_q[rows])
        wq._accumulate(x.values.T @ g_q)
        x._accumulate(g_q @ wq.values.T)
        s_all, g_k, g_v = _stack([part[4] for part in saved]), _stack(g_k), _stack(g_v)
        wk._accumulate(s_all.T @ g_k)
        wv._accumulate(s_all.T @ g_v)
        if src.requires_grad:
            g_s = g_k @ wk.values.T + g_v @ wv.values.T
            acc = np.zeros_like(src.values)
            at = 0
            for _, keys, cols, _, s, *_ in saved:
                acc[keys][cols] += g_s[at:at + s.shape[0]]
                at += s.shape[0]
            src._accumulate(acc)
    return _make(out_v, (x, src, wq, wk, wv, wo), bw)


def add_norm_affine(x: Tensor, update: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """layernorm_lastdim(x + update) * gain + bias for (d,) gain and bias:
    a residual connection followed by layer normalization with its affine."""
    z = x.values + update.values
    zc = z - _mean_lastdim(z)
    inv = 1.0 / np.sqrt(_mean_lastdim(zc * zc) + LN_EPS)
    y = zc * inv

    def bw(g):
        bias._accumulate(g.sum(axis=0))
        gain._accumulate((g * y).sum(axis=0))
        g_y = g * gain.values
        g_z = inv * (g_y - _mean_lastdim(g_y) - y * _mean_lastdim(g_y * y))
        x._accumulate(g_z)
        update._accumulate(g_z)
    return _make(y * gain.values + bias.values, (x, update, gain, bias), bw)


def mlp2(x: Tensor, spans, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x@w1 + b1) @ w2 + b2, for 1-D biases, over the query parts
    whose rows the slices `spans` give (they tile x's rows in order), one
    node. Each part's products are its own; the bias adds and the relu
    run once over all rows."""
    spans = _tiling(spans, x.values.shape[0])
    h = part_products(x.values, spans, w1.values)
    h += b1.values
    r = np.maximum(h, 0.0)
    y = part_products(r, spans, w2.values)
    y += b2.values

    def bw(g):
        b2._accumulate(g.sum(axis=0))
        w2._accumulate(r.T @ g)
        g_h = (g @ w2.values.T) * (h > 0.0)
        b1._accumulate(g_h.sum(axis=0))
        w1._accumulate(x.values.T @ g_h)
        x._accumulate(g_h @ w1.values.T)
    return _make(y, (x, w1, b1, w2, b2), bw)


def linear(x: Tensor, spans, w: Tensor, b: Tensor) -> Tensor:
    """x@w + b, for a 1-D b, over the query parts whose rows the slices
    `spans` give (they tile x's rows in order), one node: the decoder's
    class head. Each part's product is its own; the bias add and every
    backward product run once over all rows."""
    y = part_products(x.values, _tiling(spans, x.values.shape[0]), w.values)
    y += b.values

    def bw(g):
        b._accumulate(g.sum(axis=0))
        x._accumulate(g @ w.values.T)
        w._accumulate(x.values.T @ g)
    return _make(y, (x, w, b), bw)
