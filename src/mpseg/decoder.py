"""Masked-attention transformer decoder.

Each layer runs masked cross-attention over one pyramid scale (coarse to
fine, cycling), self-attention, and a feed-forward block, each with
residual + layer norm. Shared mask and classification heads produce
per-layer predictions (one tape node each per layer, over all query
parts), and each layer's masks, binarized by binarize_masks and resized
by masks.to_attention_blocks, become the next layer's cross-attention
blocking grids. Single attention head, no positional encodings.

full_forward is the only forward path. Its queries form one part (the
matching queries) or two: the matching queries, then the mask-piloted
(MP) part's queries, handed over as the MPPart that the loss reads too.
A plain forward is the one-part case, with no extra work or tape nodes.
The matching part's self-attention reads only its own rows; the MP
rows read the matching rows and their own group.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .fields import MAX_HIDDEN, MAX_LAYERS, MAX_SIZE
from .masks import FormatError, to_attention_blocks
from .tensor import Tensor, add_norm_affine, concat_rows, fused_attention, fused_heads, mlp2

CHECKPOINT_MAGIC = "mpseg-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class LayerParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    sq: Tensor
    sk: Tensor
    sv: Tensor
    so: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    ln3_g: Tensor
    ln3_b: Tensor


@dataclass
class DecoderParams:
    layers: list
    query_embed: Tensor   # (N, d) learnable matching queries
    class_embed: Tensor   # (K, d)
    mask_w1: Tensor
    mask_b1: Tensor
    mask_w2: Tensor
    mask_b2: Tensor
    cls_w: Tensor         # (d, K+1); index K is the no-object class
    cls_b: Tensor
    n_queries: int = 20
    num_layers: int = 9
    dim: int = 32
    num_categories: int = 4
    ffn_hidden: int = 64


@dataclass
class LayerOutputs:
    """Predictions for layers 0..L; index 0 is the pre-decoder prediction."""
    mask_logits: list     # each (n_q, H, W) Tensor
    class_logits: list    # each (n_q, K+1) Tensor
    n_match: int


@dataclass
class ForwardSpec:
    pyramid: object       # FeaturePyramid
    queries: Tensor       # (n_match, d) matching queries
    mp: object = None     # MPPart or None


def init_params(seed: int, n_queries: int = 20, n_layers: int = 9, dim: int = 32,
                num_categories: int = 4, ffn_hidden: int = 64) -> DecoderParams:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))

    def xavier(n_in, n_out):
        limit = np.sqrt(6.0 / (n_in + n_out))
        return Tensor(rng.uniform(-limit, limit, size=(n_in, n_out)), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape), requires_grad=True)

    layers = []
    for _ in range(n_layers):
        layers.append(LayerParams(
            wq=xavier(dim, dim), wk=xavier(dim, dim), wv=xavier(dim, dim),
            wo=xavier(dim, dim),
            sq=xavier(dim, dim), sk=xavier(dim, dim), sv=xavier(dim, dim),
            so=xavier(dim, dim),
            ffn_w1=xavier(dim, ffn_hidden), ffn_b1=zeros(ffn_hidden),
            ffn_w2=xavier(ffn_hidden, dim), ffn_b2=zeros(dim),
            ln1_g=ones(dim), ln1_b=zeros(dim),
            ln2_g=ones(dim), ln2_b=zeros(dim),
            ln3_g=ones(dim), ln3_b=zeros(dim)))
    return DecoderParams(
        layers=layers,
        query_embed=Tensor(rng.standard_normal((n_queries, dim)) / np.sqrt(dim),
                           requires_grad=True),
        class_embed=Tensor(rng.standard_normal((num_categories, dim)) / np.sqrt(dim),
                           requires_grad=True),
        mask_w1=xavier(dim, dim), mask_b1=zeros(dim),
        mask_w2=xavier(dim, dim), mask_b2=zeros(dim),
        cls_w=xavier(dim, num_categories + 1), cls_b=zeros(num_categories + 1),
        n_queries=n_queries, num_layers=n_layers, dim=dim,
        num_categories=num_categories, ffn_hidden=ffn_hidden)


def _tensor_fields(obj, prefix: str = ""):
    return [(prefix + f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)
            if isinstance(getattr(obj, f.name), Tensor)]


def named_parameters(params: DecoderParams):
    """Stable (name, Tensor) list in dataclass field order; the order
    defines the checkpoint layout."""
    pairs = _tensor_fields(params)
    for i, lp in enumerate(params.layers):
        pairs += _tensor_fields(lp, f"layer{i}.")
    return pairs


def heads(params: DecoderParams, parts, embed: np.ndarray) -> tuple:
    """(mask logits (n, H, W), class logits (n, K+1)) of the query parts,
    rows in part order, from the shared heads: mask logit [n, y, x] =
    MLP(query_n) . embed[y, x], class logits = query_n @ cls_w + cls_b.
    One tape node each."""
    return fused_heads(parts, embed, params.mask_w1, params.mask_b1, params.mask_w2,
                       params.mask_b2, params.cls_w, params.cls_b)


def binarize_masks(mask_logit_values: np.ndarray) -> np.ndarray:
    """The pixels a mask prediction turns on: sigmoid(logit) > 0.5, read
    off the logit's sign with no sigmoid computed."""
    return mask_logit_values > 0


def attention(x: Tensor, keys: Tensor, values: Tensor, block, wq: Tensor, wo: Tensor,
              dim: int) -> Tensor:
    """Pre-residual single-head attention of the rows of x over projected
    keys and values; softmax over the entries `block` leaves unblocked
    (None blocks nothing). One tape node."""
    return fused_attention(x, keys, values, block, wq, wo, 1.0 / np.sqrt(dim))


def decoder_layer(parts, feats: Tensor, cross_blocks, self_blocks, lp: LayerParams,
                  dim: int) -> list:
    """One decoder layer over the query parts, [matching] or [matching, MP]:
    masked cross-attention, self-attention and FFN, each with residual
    connection and layer normalization. Returns the updated parts.

    Part j's self-attention reads the pre-self-attention rows of parts
    0..j under self_blocks[j], so the matching part never reads the MP
    part. Computing each part as its own matrices keeps the matching
    part's float operations identical to a forward with no MP part at
    all, which makes the isolation guarantee bitwise, not just
    mathematical.
    """
    k = feats @ lp.wk
    v = feats @ lp.wv
    parts = [add_norm_affine(x, attention(x, k, v, block, lp.wq, lp.wo, dim),
                             lp.ln1_g, lp.ln1_b)
             for x, block in zip(parts, cross_blocks)]
    out = []
    for j, (x, block) in enumerate(zip(parts, self_blocks)):
        ctx = concat_rows(parts[:j + 1]) if j else x
        update = attention(x, ctx @ lp.sk, ctx @ lp.sv, block, lp.sq, lp.so, dim)
        x = add_norm_affine(x, update, lp.ln2_g, lp.ln2_b)
        ffn = mlp2(x, lp.ffn_w1, lp.ffn_b1, lp.ffn_w2, lp.ffn_b2)
        out.append(add_norm_affine(x, ffn, lp.ln3_g, lp.ln3_b))
    return out


def layer_scale(layer: int, num_scales: int) -> int:
    """Index of the pyramid scale (0 = coarsest) that decoder layer
    `layer` (1-based) attends to: coarse to fine, cycling."""
    return (layer - 1) % num_scales


def full_forward(spec: ForwardSpec, params: DecoderParams) -> LayerOutputs:
    """Run all layers; layer i attends to pyramid scale layer_scale(i).

    The queries form one part, the matching queries, or two when the
    spec carries an MP part. Matching-part cross-attention blocking grids
    always come from the previous layer's own predictions; the MP part
    takes its override table's grids where a layer has an entry and falls
    back to its own predictions elsewhere. The MP rows' self-attention
    grid blocks every row of another MP group and nothing else.
    """
    feats = [Tensor(grid.reshape(-1, grid.shape[-1])) for grid in spec.pyramid.scales]
    embed = spec.pyramid.embed
    mp = spec.mp
    n_match = spec.queries.values.shape[0]
    parts, self_blocks = [spec.queries], [None]
    if mp is not None:
        gid = mp.group_id
        parts.append(mp.queries)
        self_blocks.append(np.hstack([np.zeros((gid.size, n_match), dtype=bool),
                                      gid[:, None] != gid[None, :]]))
    masks, classes = heads(params, parts, embed)
    mask_logits, class_logits = [masks], [classes]
    for i in range(1, params.num_layers + 1):
        s = layer_scale(i, len(feats))
        h, w = spec.pyramid.scales[s].shape[:2]
        own = to_attention_blocks(binarize_masks(mask_logits[-1].values), h, w)
        cross_blocks = [own[:n_match]]
        if mp is not None:
            block = mp.overrides.get(i)
            if block is None:
                block = own[n_match:]
            elif block.shape != (mp.num_queries, h * w):
                raise ValueError(f"override for layer {i} has shape {block.shape}, "
                                 f"expected {(mp.num_queries, h * w)}")
            cross_blocks.append(block)
        parts = decoder_layer(parts, feats[s], cross_blocks, self_blocks,
                              params.layers[i - 1], params.dim)
        masks, classes = heads(params, parts, embed)
        mask_logits.append(masks)
        class_logits.append(classes)
    return LayerOutputs(mask_logits=mask_logits, class_logits=class_logits,
                        n_match=n_match)


def plain_spec(pyramid, params: DecoderParams) -> ForwardSpec:
    """Matching part only: the learnable queries, no MP part."""
    return ForwardSpec(pyramid, params.query_embed)


def _array_header(name: str, shape) -> bytes:
    return f"{name} {','.join(str(s) for s in shape)}\n".encode("ascii")


def save_checkpoint(path, params: DecoderParams, extra_meta: dict | None = None):
    meta = {"version": CHECKPOINT_VERSION,
            "n_queries": params.n_queries, "num_layers": params.num_layers,
            "dim": params.dim, "num_categories": params.num_categories,
            "ffn_hidden": params.ffn_hidden}
    if extra_meta:
        meta.update(extra_meta)
    pairs = named_parameters(params)
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION} "
                 f"{json.dumps(meta, sort_keys=True)}\n".encode("ascii"))
        fh.write(f"{len(pairs)}\n".encode("ascii"))
        for name, t in pairs:
            arr = np.ascontiguousarray(t.values, dtype="<f8")
            fh.write(_array_header(name, arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path):
    """Returns (DecoderParams, meta dict). Raises FormatError unless the
    file holds the header and every parameter array, in layout order,
    with nothing after the last one."""
    with open(path, "rb") as fh:
        try:
            return _read_checkpoint(fh)
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}: malformed checkpoint ({exc})") from exc


def _read_checkpoint(fh):
    magic, version, meta_json = fh.readline().decode("ascii").rstrip("\n").split(" ", 2)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file")
    if int(version) != CHECKPOINT_VERSION:
        raise ValueError(f"version {version} unsupported")
    meta = json.loads(meta_json)
    # the caps the config puts on these extents, checked before anything is allocated
    caps = {"n_queries": MAX_SIZE, "num_layers": MAX_LAYERS, "dim": MAX_SIZE,
            "num_categories": MAX_SIZE, "ffn_hidden": MAX_HIDDEN}
    for key, cap in caps.items():
        if not (isinstance(meta[key], int) and 1 <= meta[key] <= cap):
            raise ValueError(f"{key} {meta[key]!r} is not an integer in [1, {cap}]")
    count = int(fh.readline().decode("ascii"))
    params = init_params(seed=0, n_queries=meta["n_queries"],
                         n_layers=meta["num_layers"], dim=meta["dim"],
                         num_categories=meta["num_categories"],
                         ffn_hidden=meta["ffn_hidden"])
    pairs = named_parameters(params)
    if count != len(pairs):
        raise ValueError(f"has {count} arrays, expected {len(pairs)}")
    for name, t in pairs:
        header, expected = fh.readline(), _array_header(name, t.values.shape)
        if header != expected:
            raise ValueError(f"array header {header[:60]!r}, expected {expected!r}")
        raw = fh.read(t.values.nbytes)
        if len(raw) != t.values.nbytes:
            raise ValueError(f"{name}: {len(raw)} of {t.values.nbytes} bytes")
        t.values = np.frombuffer(raw, dtype="<f8").reshape(t.values.shape).astype(np.float64)
    if fh.read(1):
        raise ValueError("trailing bytes after the last array")
    return params, meta
