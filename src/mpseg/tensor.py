"""Dense float64 tensor with reverse-mode automatic differentiation.

The graph is a dynamic tape: every op returns a fresh Tensor holding its
inputs and a backward closure. Calling backward() on a scalar walks the
tape in reverse topological order and accumulates gradients into every
reachable Tensor that has requires_grad set. Values are never mutated by
forward ops; the only sanctioned in-place write is an optimizer updating
parameter .values between training steps.

Two kinds of op live here. The primitives (matmul, softmax_lastdim,
bce_with_logits, ...) each record one small node. The fused ops record one
node for a whole block of the decoder or the loss, with a hand-written
backward, because at this size the cost of a step is Python overhead per
node, not arithmetic:

- fused_attention: softmax(mask((x@wq)@keys.T * scale)) @ values @ wo;
- add_norm_affine: layernorm(x + update) * gain + bias;
- mlp2: relu(x@w1 + b1) @ w2 + b2;
- fused_heads: the decoder's mask and class heads over all query parts,
  one mask-logit node and one class-logit node, each part computed as its
  own matrices;
- cross_entropy_rows: weighted cross-entropy of some rows of class logits;
- mask_loss_rows: weighted mean BCE plus mean dice of some rows of mask
  logits, reading the sigmoid the caller computed once for the layer.

Each fused forward runs the same numpy calls in the same order as its
composition of primitives, so its value is bitwise equal to theirs; the
tests use the primitives as the oracle for each fused op. The two loss
ops write their gradient into the rows they read, by assignment.

No array is written in place once it is stored as a gradient, so a
backward hands _accumulate any array as it is: one it just allocated, a
view, the incoming g, or one it also hands to another input.
"""

from __future__ import annotations

import numpy as np

NEG_BIG = -1e9  # attention-blocking sentinel; finite so fully-blocked rows stay NaN-free


class Tensor:
    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        return Tensor(self.values)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        """Add g to .grad: the first g is stored as it is, a later one
        makes a new sum, and no stored gradient is written into."""
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        """Populate .grad on every requires_grad ancestor of this scalar."""
        if self.values.ndim != 0 and self.values.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.values.shape}")
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
        self._accumulate(np.ones_like(self.values))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # elementwise arithmetic (numpy broadcasting for add/mul family)

    def __add__(self, other):
        other = _as_tensor(other)
        out = _make(self.values + other.values, (self, other))
        if out.requires_grad:
            def bw(g):
                for t in (self, other):
                    if t.requires_grad:
                        t._accumulate(_unbroadcast(g, t.values.shape))
            out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _make(-self.values, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other) + (-self)

    def __mul__(self, other):
        other = _as_tensor(other)
        out = _make(self.values * other.values, (self, other))
        if out.requires_grad:
            def bw(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g * other.values, self.values.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(g * self.values, other.values.shape))
            out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other)
        out = _make(self.values / other.values, (self, other))
        if out.requires_grad:
            def bw(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g / other.values, self.values.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(-g * self.values / other.values ** 2,
                                                   other.values.shape))
            out._backward = bw
        return out

    # ------------------------------------------------------------------
    # structural ops

    def matmul(self, other: "Tensor") -> "Tensor":
        other = _as_tensor(other)
        a, b = self.values, other.values
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul shape mismatch: {a.shape} vs {b.shape}")
        out = _make(a @ b, (self, other))
        if out.requires_grad:
            def bw(g):
                if self.requires_grad:
                    self._accumulate(g @ b.T)
                if other.requires_grad:
                    other._accumulate(a.T @ g)
            out._backward = bw
        return out

    __matmul__ = matmul

    def transpose(self) -> "Tensor":
        out = _make(self.values.T, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g.T)
        return out

    @property
    def T(self):
        return self.transpose()

    def reshape(self, *shape) -> "Tensor":
        old = self.values.shape
        out = _make(self.values.reshape(*shape), (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g.reshape(old))
        return out

    def take_rows(self, idx) -> "Tensor":
        idx = np.asarray(idx, dtype=np.intp)
        out = _make(self.values[idx], (self,))
        if out.requires_grad:
            def bw(g):
                acc = np.zeros_like(self.values)
                np.add.at(acc, idx, g)
                self._accumulate(acc)
            out._backward = bw
        return out

    def gather_cols(self, idx) -> "Tensor":
        """out[i] = self[i, idx[i]] for a 2-D tensor."""
        idx = np.asarray(idx, dtype=np.intp)
        rows = np.arange(self.values.shape[0])
        out = _make(self.values[rows, idx], (self,))
        if out.requires_grad:
            def bw(g):
                acc = np.zeros_like(self.values)
                np.add.at(acc, (rows, idx), g)
                self._accumulate(acc)
            out._backward = bw
        return out

    # ------------------------------------------------------------------
    # nonlinearities and reductions

    def relu(self) -> "Tensor":
        out = _make(np.maximum(self.values, 0.0), (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g * (self.values > 0.0))
        return out

    def sigmoid(self) -> "Tensor":
        y = _sigmoid(self.values)
        out = _make(y, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g * y * (1.0 - y))
        return out

    def exp(self) -> "Tensor":
        y = np.exp(self.values)
        out = _make(y, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g * y)
        return out

    def log(self) -> "Tensor":
        out = _make(np.log(self.values), (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g / self.values)
        return out

    def sum(self) -> "Tensor":
        out = _make(self.values.sum(), (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(np.full_like(self.values, float(g)))
        return out

    def mean(self) -> "Tensor":
        n = self.values.size
        out = _make(self.values.mean(), (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(np.full_like(self.values, float(g) / n))
        return out

    def sum_lastdim(self) -> "Tensor":
        out = _make(self.values.sum(axis=-1), (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(
                np.broadcast_to(np.expand_dims(g, -1), self.values.shape))
        return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(values, parents) -> Tensor:
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
    return out


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ndarray.mean and .var with the Python wrapper taken out: the same reductions
# and divisions in the same order, so bitwise the same values


def _mean_lastdim(a):
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def _mean_all(a):
    return np.add.reduce(a, axis=None) / a.size


def _sigmoid(x):
    ex = np.exp(-np.abs(x))
    d = 1.0 + ex
    return np.where(x >= 0, 1.0 / d, ex / d)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    v = x.values
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = _make(y, (x,))
    if out.requires_grad:
        def bw(g):
            dot = (g * y).sum(axis=-1, keepdims=True)
            x._accumulate(y * (g - dot))
        out._backward = bw
    return out


def logsumexp_lastdim(x: Tensor) -> Tensor:
    """log(sum(exp(x))) over the last axis; gradient is the softmax."""
    v = x.values
    m = v.max(axis=-1, keepdims=True)
    e = np.exp(v - m)
    s = e.sum(axis=-1, keepdims=True)
    out = _make((np.log(s) + m).squeeze(-1), (x,))
    if out.requires_grad:
        def bw(g):
            x._accumulate(np.expand_dims(g, -1) * (e / s))
        out._backward = bw
    return out


def layernorm_lastdim(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each last-axis slice to mean 0, variance 1 (no affine)."""
    v = x.values
    mu = v.mean(axis=-1, keepdims=True)
    var = v.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (v - mu) * inv
    out = _make(y, (x,))
    if out.requires_grad:
        def bw(g):
            gm = g.mean(axis=-1, keepdims=True)
            gy = (g * y).mean(axis=-1, keepdims=True)
            x._accumulate(inv * (g - gm - y * gy))
        out._backward = bw
    return out


def masked_fill(x: Tensor, block, fill: float) -> Tensor:
    """Replace entries where `block` is true with `fill`; gradient flows only elsewhere."""
    block = np.asarray(block, dtype=bool)
    if block.shape != x.values.shape:
        raise ValueError(f"masked_fill shape mismatch: values {x.values.shape} vs block {block.shape}")
    out = _make(np.where(block, fill, x.values), (x,))
    if out.requires_grad:
        out._backward = lambda g: x._accumulate(np.where(block, 0.0, g))
    return out


def bce_with_logits(x: Tensor, target) -> Tensor:
    """Elementwise sigmoid cross-entropy against a constant target in [0,1].

    Computed as max(x,0) - x*t + log1p(exp(-|x|)) for stability at large |x|.
    """
    t = np.asarray(target, dtype=np.float64)
    v = x.values
    loss = np.maximum(v, 0.0) - v * t + np.log1p(np.exp(-np.abs(v)))
    out = _make(loss, (x,))
    if out.requires_grad:
        out._backward = lambda g: x._accumulate(g * (_sigmoid(v) - t))
    return out


def concat_rows(tensors) -> Tensor:
    """Concatenate 2-D tensors along axis 0."""
    tensors = list(tensors)
    vals = np.concatenate([t.values for t in tensors], axis=0)
    out = _make(vals, tuple(tensors))
    if out.requires_grad:
        sizes = [t.values.shape[0] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def bw(g):
            for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    t._accumulate(g[a:b])
        out._backward = bw
    return out


# ----------------------------------------------------------------------
# fused ops: one tape node each, hand-written backward


def fused_attention(x: Tensor, keys: Tensor, values: Tensor, block, wq: Tensor,
                    wo: Tensor, scale: float) -> Tensor:
    """softmax(masked_fill((x@wq) @ keys.T * scale, block, NEG_BIG)) @ values @ wo.

    `block` is a (rows of x, rows of keys) bool grid, or None to block
    nothing. A fully blocked row attends uniformly and passes no gradient
    to its logits.
    """
    q = x.values @ wq.values
    kv = keys.values
    logits = (q @ kv.T) * scale
    if block is not None:
        block = np.asarray(block, dtype=bool)
        if block.shape != logits.shape:
            raise ValueError(f"attention block shape {block.shape} != logits {logits.shape}")
        logits = np.where(block, NEG_BIG, logits)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    ctx = p @ values.values
    out = _make(ctx @ wo.values, (x, keys, values, wq, wo))
    if out.requires_grad:
        def bw(g):
            if wo.requires_grad:
                wo._accumulate(ctx.T @ g)
            g_ctx = g @ wo.values.T
            if values.requires_grad:
                values._accumulate(p.T @ g_ctx)
            if not (x.requires_grad or keys.requires_grad or wq.requires_grad):
                return
            g_p = g_ctx @ values.values.T
            g_logits = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True))
            if block is not None:
                g_logits = np.where(block, 0.0, g_logits)
            g_logits = g_logits * scale
            if keys.requires_grad:
                keys._accumulate((q.T @ g_logits).T)
            g_q = g_logits @ kv
            if wq.requires_grad:
                wq._accumulate(x.values.T @ g_q)
            if x.requires_grad:
                x._accumulate(g_q @ wq.values.T)
        out._backward = bw
    return out


def add_norm_affine(x: Tensor, update: Tensor, gain: Tensor, bias: Tensor,
                    eps: float = 1e-5) -> Tensor:
    """layernorm_lastdim(x + update) * gain + bias: a residual connection
    followed by layer normalization with its affine."""
    z = x.values + update.values
    zc = z - _mean_lastdim(z)
    inv = 1.0 / np.sqrt(_mean_lastdim(zc * zc) + eps)
    y = zc * inv
    out = _make(y * gain.values + bias.values, (x, update, gain, bias))
    if out.requires_grad:
        def bw(g):
            if bias.requires_grad:
                bias._accumulate(_unbroadcast(g, bias.values.shape))
            if gain.requires_grad:
                gain._accumulate(_unbroadcast(g * y, gain.values.shape))
            if x.requires_grad or update.requires_grad:
                g_y = g * gain.values
                g_z = inv * (g_y - _mean_lastdim(g_y) - y * _mean_lastdim(g_y * y))
                if x.requires_grad:
                    x._accumulate(g_z)
                if update.requires_grad:
                    update._accumulate(g_z)
        out._backward = bw
    return out


def _mlp2_backward(g, x: Tensor, h, r, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor):
    """Accumulate mlp2's gradients for g, given h = x@w1 + b1 and r = relu(h)."""
    if b2.requires_grad:
        b2._accumulate(_unbroadcast(g, b2.values.shape))
    if w2.requires_grad:
        w2._accumulate(r.T @ g)
    if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
        return
    g_h = (g @ w2.values.T) * (h > 0.0)
    if b1.requires_grad:
        b1._accumulate(_unbroadcast(g_h, b1.values.shape))
    if w1.requires_grad:
        w1._accumulate(x.values.T @ g_h)
    if x.requires_grad:
        x._accumulate(g_h @ w1.values.T)


def mlp2(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x@w1 + b1) @ w2 + b2."""
    h = x.values @ w1.values + b1.values
    r = np.maximum(h, 0.0)
    out = _make(r @ w2.values + b2.values, (x, w1, b1, w2, b2))
    if out.requires_grad:
        out._backward = lambda g: _mlp2_backward(g, x, h, r, w1, b1, w2, b2)
    return out


def fused_heads(parts, embed: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                cls_w: Tensor, cls_b: Tensor) -> tuple:
    """(mask logits (n, h, w), class logits (n, K+1)) of the query parts,
    one node each, with the parts' rows in order, for an (h, w, d) embed:

    - mask[n, y, x] = mlp2(x_n, w1, b1, w2, b2) . embed[y, x];
    - class[n] = x_n @ cls_w + cls_b.

    Each part is computed as its own matrices, so a part's rows do not
    depend on the other parts, bit for bit.
    """
    h, w, d = embed.shape
    if w2.values.shape[1] != d:
        raise ValueError(f"mask head output dim {w2.values.shape[1]} != embedding dim {d}")
    flat = embed.reshape(h * w, d).T
    pre, relus, masks, classes = [], [], [], []
    for x in parts:
        pre.append(x.values @ w1.values + b1.values)
        relus.append(np.maximum(pre[-1], 0.0))
        masks.append((relus[-1] @ w2.values + b2.values) @ flat)
        classes.append(x.values @ cls_w.values + cls_b.values)
    joined = [np.concatenate(a) if len(a) > 1 else a[0] for a in (masks, classes)]
    mask_out = _make(joined[0].reshape(-1, h, w), (*parts, w1, b1, w2, b2))
    class_out = _make(joined[1], (*parts, cls_w, cls_b))
    offsets = np.cumsum([0] + [x.values.shape[0] for x in parts])
    spans = list(zip(parts, offsets[:-1], offsets[1:]))
    if mask_out.requires_grad:
        def mask_bw(g):
            g = g.reshape(g.shape[0], h * w)
            for (x, a, b), hp, r in zip(spans, pre, relus):
                _mlp2_backward(g[a:b] @ flat.T, x, hp, r, w1, b1, w2, b2)
        mask_out._backward = mask_bw
    if class_out.requires_grad:
        def class_bw(g):
            for x, a, b in spans:
                g_c = g[a:b]
                if cls_b.requires_grad:
                    cls_b._accumulate(_unbroadcast(g_c, cls_b.values.shape))
                if x.requires_grad:
                    x._accumulate(g_c @ cls_w.values.T)
                if cls_w.requires_grad:
                    cls_w._accumulate(x.values.T @ g_c)
        class_out._backward = class_bw
    return mask_out, class_out


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
    out = _make((((lse - picked) * row_weights).sum() / wsum) * scale, (logits,))
    if out.requires_grad:
        def bw(g):
            coef = (float(g) * scale) / wsum * row_weights
            g_rows = coef[:, None] * (e / s)
            g_rows[np.arange(rows.size), targets] -= coef
            acc = np.zeros_like(logits.values)
            acc[rows] = g_rows
            logits._accumulate(acc)
        out._backward = bw
    return out


def mask_loss_rows(logits: Tensor, probs: np.ndarray, rows, targets, w_bce: float,
                   w_dice: float, dice_eps: float) -> Tensor:
    """w_bce * mean sigmoid BCE + w_dice * mean smooth dice of the rows
    `rows` of (n, ...) mask logits against (len(rows), pixels) targets.

    `probs` is sigmoid(logits.values), computed once by the caller.
    `rows` must be unique: the gradient is written into them by assignment.
    """
    rows = np.asarray(rows, dtype=np.intp)
    n = logits.values.shape[0]
    v = logits.values.reshape(n, -1)[rows]
    p = probs.reshape(n, -1)[rows]
    t = targets
    bce = _mean_all(np.maximum(v, 0.0) - v * t + np.log1p(np.exp(-np.abs(v))))
    num = 2.0 * (p * t).sum(axis=-1) + dice_eps
    den = p.sum(axis=-1) + (t.sum(axis=1) + dice_eps)
    dice = _mean_all(1.0 - num / den)
    out = _make(w_bce * bce + w_dice * dice, (logits,))
    if out.requires_grad:
        def bw(g):
            g_bce = float(g) * w_bce / v.size
            g_num = -(float(g) * w_dice) / rows.size / den
            g_p = (2.0 * g_num)[:, None] * t - (g_num * num / den)[:, None]
            acc = np.zeros_like(logits.values)
            acc.reshape(n, -1)[rows] = g_bce * (p - t) + g_p * p * (1.0 - p)
            logits._accumulate(acc)
        out._backward = bw
    return out
