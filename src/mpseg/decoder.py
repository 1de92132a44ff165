"""Masked-attention transformer decoder.

Each layer runs masked cross-attention over one scale of the scene's
feature grid (coarse to fine, cycling), self-attention, and a
feed-forward block, each with residual + layer norm. The decoder is the
one place that knows the scales: the (H, W, d) grid at 1/4, 1/2 and full
size. full_forward pools the two coarse ones from the grid on each call,
each a 2x2 mean pool of the next finer one, caches neither, and hands
each scale to cross-attention as a plain (h*w, d) array. Shared mask and
classification heads produce per-layer predictions, and each layer's
masks, binarized by binarize_masks and sampled by stride 4, 2 or 1 at
the next scale (masks.to_attention_blocks), become the next layer's
cross-attention blocking grids. Single head, no positional encodings.

The mask head records each query's embedding (an mlp2 node); its mask
logits, that embedding times the scene's embedding grid, are plain
arrays that no tape node reads. The loss is differentiated at the
embeddings (losses.layer_losses), which is why a forward that tracks
gradients hands the grid on in its LayerOutputs, and one that does not
keeps no view of the scene's features.

full_forward is the only forward path, the one place a mask becomes a
blocking grid, and the one place data becomes query Tensors. Its queries
form one part, the matching queries (query_embed), or two: the matching
queries, then the mask-piloted (MP) part's. The MPPart, which the loss
reads too, is plain data: its queries are the class_embed rows of its
categories, and at the layers it pilots, its noised GT masks stand in for
its rows' predictions. The matching part's self-attention reads only its
own rows; the MP rows read the matching rows and their own group.

The parts are row slices of one query Tensor, and every op of a layer and
of the heads is one tape node over all of them, as is the loss over every
layer: an MP part adds two nodes to a training step (its queries'
take_rows and concat_rows), none per layer, and otherwise only rows to
the other nodes' arrays. A plain forward is the one-part case of the
same ops. Each part's forward products are its own BLAS calls, so the
matching rows are bitwise those of a plain forward; the backward's
products run once over all rows, so gradients match a part-by-part
backward within a tolerance.

One constructor lays out the parameters: init_params fills it with
draws from the run seed's stream, and load_checkpoint with a file's
arrays, drawing no random number.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .fields import MAX_HIDDEN, MAX_LAYERS, MAX_SIZE
from .masks import INIT_KEY, FormatError, seeded_rng, to_attention_blocks
from .tensor import (Tensor, add_norm_affine, concat_rows, fused_attention, linear, mlp2,
                     part_products)

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
    """Predictions for layers 0..L; index 0 is the pre-decoder prediction.

    Each layer's mask logits are its mask embeddings times the embedding
    grid, an array: gradients reach the mask head through the embeddings.
    grid is that (H*W, d) grid when the embeddings are tracked and None
    otherwise, so that a no-grad forward keeps no array alive past its
    own scene."""
    mask_logits: list     # each (n_q, H, W) float64 array
    class_logits: list    # each (n_q, K+1) Tensor
    n_match: int
    mask_embeds: list = field(default_factory=list)  # each (n_q, d) Tensor
    grid: np.ndarray | None = None


@dataclass
class ForwardSpec:
    features: np.ndarray  # the scene's (H, W, d) feature grid, also the embedding grid
    mp: object = None     # MPPart or None


def _assemble(array, n_queries: int, n_layers: int, dim: int, num_categories: int,
              ffn_hidden: int) -> DecoderParams:
    """The DecoderParams whose every Tensor holds array(init, shape), init
    being "xavier", "normal", "zeros" or "ones". array is called once per
    Tensor, every layer's first and then the heads', in init_params' draw
    order."""
    def param(init, *shape):
        return Tensor(array(init, shape), requires_grad=True)

    layers = []
    for _ in range(n_layers):
        layers.append(LayerParams(
            wq=param("xavier", dim, dim), wk=param("xavier", dim, dim),
            wv=param("xavier", dim, dim), wo=param("xavier", dim, dim),
            sq=param("xavier", dim, dim), sk=param("xavier", dim, dim),
            sv=param("xavier", dim, dim), so=param("xavier", dim, dim),
            ffn_w1=param("xavier", dim, ffn_hidden), ffn_b1=param("zeros", ffn_hidden),
            ffn_w2=param("xavier", ffn_hidden, dim), ffn_b2=param("zeros", dim),
            ln1_g=param("ones", dim), ln1_b=param("zeros", dim),
            ln2_g=param("ones", dim), ln2_b=param("zeros", dim),
            ln3_g=param("ones", dim), ln3_b=param("zeros", dim)))
    return DecoderParams(
        layers=layers,
        query_embed=param("normal", n_queries, dim),
        class_embed=param("normal", num_categories, dim),
        mask_w1=param("xavier", dim, dim), mask_b1=param("zeros", dim),
        mask_w2=param("xavier", dim, dim), mask_b2=param("zeros", dim),
        cls_w=param("xavier", dim, num_categories + 1), cls_b=param("zeros", num_categories + 1),
        n_queries=n_queries, num_layers=n_layers, dim=dim,
        num_categories=num_categories, ffn_hidden=ffn_hidden)


def init_params(seed: int, n_queries: int = 20, n_layers: int = 9, dim: int = 32,
                num_categories: int = 4, ffn_hidden: int = 64) -> DecoderParams:
    """Xavier-uniform weights, N(0, 1/dim) query and class embeddings,
    zero biases and unit layer-norm gains, drawn from the run seed's
    INIT_KEY stream."""
    rng = seeded_rng([seed], INIT_KEY)

    def draw(init, shape):
        if init == "xavier":
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            return rng.uniform(-limit, limit, size=shape)
        if init == "normal":
            return rng.standard_normal(shape) / np.sqrt(shape[1])
        return np.zeros(shape) if init == "zeros" else np.ones(shape)

    return _assemble(draw, n_queries, n_layers, dim, num_categories, ffn_hidden)


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


def heads(params: DecoderParams, x: Tensor, spans, embed: np.ndarray) -> tuple:
    """(mask embeddings (n, d), mask logits (n, H, W), class logits
    (n, K+1)) of the query rows x, whose parts' rows the slices `spans`
    give, from the shared heads, for an (H, W, d) embed grid:

    - embedding_n = MLP(query_n), one mlp2 node over all parts;
    - mask logit [n, y, x] = embedding_n . embed[y, x], an array;
    - class logits = query_n @ cls_w + cls_b, one linear node.

    Each part's forward products are its own, so its rows are bitwise
    those of a forward of that part alone; the backward's products run
    over all rows."""
    h, w, d = embed.shape
    if params.mask_w2.values.shape[1] != d:
        raise ValueError(f"mask head output dim {params.mask_w2.values.shape[1]} != "
                         f"embedding dim {d}")
    e = mlp2(x, spans, params.mask_w1, params.mask_b1, params.mask_w2, params.mask_b2)
    masks = part_products(e.values, spans, embed.reshape(h * w, d).T).reshape(-1, h, w)
    return e, masks, linear(x, spans, params.cls_w, params.cls_b)


def binarize_masks(mask_logit_values: np.ndarray) -> np.ndarray:
    """The pixels a mask prediction turns on: sigmoid(logit) > 0.5, read
    off the logit's sign with no sigmoid computed."""
    return mask_logit_values > 0


def decoder_layer(x: Tensor, spans, feats: np.ndarray, cross_blocks, self_blocks,
                  lp: LayerParams, dim: int) -> Tensor:
    """One decoder layer over the query rows x, whose parts, [matching] or
    [matching, MP], are the rows the slices `spans` give: masked
    cross-attention over feats, an (h*w, d) array, self-attention and
    FFN, each with residual connection and layer normalization, one tape
    node each over all parts. Returns the updated rows.

    Each attention projects its own keys and values per part. Part j's
    cross-attention projects only the pixels that some row of part j
    reads: the union of its rows' masks at that scale, or every pixel
    when a row's mask is empty.

    Part j's self-attention reads the rows [0, end of part j) of x under
    self_blocks[j], so the matching part never reads the MP part. Every
    forward product is the part's own, which keeps the matching part's
    float operations identical to a forward with no MP part at all: the
    isolation guarantee is bitwise, not just mathematical. What is
    row-wise (bias adds, relu, add-norm) and every backward product runs
    once over all rows.
    """
    scale = 1.0 / np.sqrt(dim)
    cross = [(rows, slice(None), block) for rows, block in zip(spans, cross_blocks)]
    own = [(rows, slice(0, rows.stop), block) for rows, block in zip(spans, self_blocks)]
    x = add_norm_affine(x, fused_attention(x, feats, cross, lp.wq, lp.wk, lp.wv, lp.wo, scale),
                        lp.ln1_g, lp.ln1_b)
    x = add_norm_affine(x, fused_attention(x, x, own, lp.sq, lp.sk, lp.sv, lp.so, scale),
                        lp.ln2_g, lp.ln2_b)
    return add_norm_affine(x, mlp2(x, spans, lp.ffn_w1, lp.ffn_b1, lp.ffn_w2, lp.ffn_b2),
                           lp.ln3_g, lp.ln3_b)


NUM_SCALES = 3  # the feature grid at 1/4, 1/2 and full size


def pool2x2(grid: np.ndarray) -> np.ndarray:
    """The 2x2 mean pool of an (h, w, d) grid, h and w even: its four
    strided views summed in row-major order into one array, then divided
    by 4. For d >= 2 this is bitwise grid.reshape(h // 2, 2, w // 2, 2,
    d).mean(axis=(1, 3)), which sums each block in the same order (at
    d == 1 it sums pairwise)."""
    pooled = grid[0::2, 0::2] + grid[0::2, 1::2]
    pooled += grid[1::2, 0::2]
    pooled += grid[1::2, 1::2]
    pooled /= 4.0
    return pooled


def feature_scales(grid: np.ndarray) -> list:
    """The scales the layers attend to, coarse to fine: an (H, W, d)
    feature grid pooled 2x2 NUM_SCALES - 1 times, ..., once, and the grid
    itself."""
    scales = [grid]
    for _ in range(NUM_SCALES - 1):
        scales.insert(0, pool2x2(scales[0]))
    return scales


def scale_extents(height: int, width: int) -> list:
    """The (h, w) extents of feature_scales of a (height, width) grid,
    coarse to fine."""
    return [(height // 2 ** k, width // 2 ** k) for k in range(NUM_SCALES - 1, -1, -1)]


def layer_scale(layer: int) -> int:
    """Index of the scale (0 = coarsest) that decoder layer `layer`
    (1-based) attends to: coarse to fine, cycling."""
    return (layer - 1) % NUM_SCALES


def full_forward(spec: ForwardSpec, params: DecoderParams) -> LayerOutputs:
    """Run all layers; layer i attends to scale layer_scale(i) of
    feature_scales of the spec's feature grid. The pooled scales are made
    on each call and kept by nothing but a tracked forward's tape, so they
    are freed with the outputs (at once when the forward is not tracked).

    The queries form one part, the matching queries params.query_embed,
    or two when the spec carries an MP part, whose queries are the
    params.class_embed rows of its query_categories. A row's
    cross-attention grid blocks outside its mask at that scale: its
    previous prediction, or at a layer in mp.overrides, the MP row's
    noised GT mask. The MP rows' self-attention grid blocks every row of
    another MP group and nothing else. The outputs hold the embedding
    grid only when the mask embeddings are tracked.
    """
    embed = spec.features
    scales = feature_scales(embed)
    feats = [grid.reshape(-1, grid.shape[-1]) for grid in scales]
    mp = spec.mp
    x = params.query_embed
    n_match = x.values.shape[0]
    spans, self_blocks = [slice(0, n_match)], [None]
    if mp is not None:
        gid = mp.group_id
        x = concat_rows([x, params.class_embed.take_rows(mp.query_categories)])
        spans.append(slice(n_match, x.values.shape[0]))
        self_blocks.append(np.hstack([np.zeros((gid.size, n_match), dtype=bool),
                                      gid[:, None] != gid[None, :]]))
    e, masks, classes = heads(params, x, spans, embed)
    mask_embeds, mask_logits, class_logits = [e], [masks], [classes]
    for i in range(1, params.num_layers + 1):
        s = layer_scale(i)
        h, w = scales[s].shape[:2]
        bits = binarize_masks(mask_logits[-1])
        if mp is not None and i in mp.overrides:
            bits = np.concatenate([bits[:n_match], mp.overrides[i]])
        blocks = to_attention_blocks(bits, h, w)
        cross_blocks = [blocks[:n_match], blocks[n_match:]][:len(spans)]
        x = decoder_layer(x, spans, feats[s], cross_blocks, self_blocks,
                          params.layers[i - 1], params.dim)
        e, masks, classes = heads(params, x, spans, embed)
        mask_embeds.append(e)
        mask_logits.append(masks)
        class_logits.append(classes)
    grid = embed.reshape(-1, embed.shape[-1]) if e.requires_grad else None
    return LayerOutputs(mask_logits=mask_logits, class_logits=class_logits, n_match=n_match,
                        mask_embeds=mask_embeds, grid=grid)


def plain_spec(features, params: DecoderParams) -> ForwardSpec:
    """Matching part only, no MP part: ForwardSpec(features). params is
    unused. It serves only bench/workloads.py, which calls
    plain_spec(features, params), and goes with the next change to the
    benchmark; everything else builds ForwardSpec(features)."""
    return ForwardSpec(features)


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
    """Returns (DecoderParams, meta dict). The parameters are laid out by
    init_params' constructor and filled from the file, so loading draws no
    random number. Raises FormatError unless the file holds the header and
    every parameter array, in layout order, with nothing after the last
    one."""
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
        if not (type(meta[key]) is int and 1 <= meta[key] <= cap):  # rejects JSON true/false
            raise ValueError(f"{key} {meta[key]!r} is not an integer in [1, {cap}]")
    count = int(fh.readline().decode("ascii"))
    params = _assemble(lambda _init, shape: np.empty(shape), meta["n_queries"],
                       meta["num_layers"], meta["dim"], meta["num_categories"],
                       meta["ffn_hidden"])
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
        t.values[...] = np.frombuffer(raw, dtype="<f8").reshape(t.values.shape)
    if fh.read(1):
        raise ValueError("trailing bytes after the last array")
    return params, meta
