"""Masks as numpy bool arrays: an (H, W) array is one mask, an (n, H, W)
array a stack of them. IoU, the shift and scale GT-mask noise, the flip
budget and region of point noise (mp.build_mp_part draws its flips for a
whole stack; tests/oracle.py's point_noise is the one-mask reference),
attention blocking grids, and run-length serialization.

All noise procedures are pure functions of (mask, parameters, rng): they
draw from the np.random.Generator they are given, and the same stream
always yields the same output. A seed is a list of ints, and its stream
is that of numpy's SeedSequence of the list (seeded_rng). numpy pads a
list with zero words to 4, so two lists that differ only in trailing
zeros give one stream: a scene's [seed, index] stream is the list
[seed, index, 0]'s. The streams whose lists could meet a scene's, the
initial weights' and the MP parts', take a keyed child of their list
(INIT_KEY, MP_KEY). An MP part draws every noised row from one such
stream, so a row's noise depends on the rows drawn before it, not on its
own seed.
"""

from __future__ import annotations

import numpy as np


class FormatError(ValueError):
    """A dataset or checkpoint file that does not parse. Defined here, next
    to the run-length codec, because both file loaders import this module."""


def iou(a: np.ndarray, b: np.ndarray):
    """|a∩b| / |a∪b| over the last two axes of (..., H, W) bool arrays,
    broadcast against each other: 1.0 where both are empty, 0.0 where
    exactly one is. A float for two single masks, else an array."""
    union = np.logical_or(a, b).sum(axis=(-2, -1))
    inter = np.logical_and(a, b).sum(axis=(-2, -1))
    return np.divide(inter, union, out=np.ones(union.shape), where=union > 0)[()]


def _nearest_indices(n_src: int, n_dst: int) -> np.ndarray:
    # sample at destination cell centers
    return np.minimum((np.arange(n_dst) + 0.5) * (n_src / n_dst), n_src - 1).astype(np.intp)


# spawn keys, one per purpose whose plain seed list could give a scene's
# stream: the initial weights ([run seed]) and the MP parts
INIT_KEY, MP_KEY = 1, 2


def seeded_rng(seed, key: int | None = None) -> np.random.Generator:
    """PCG64 generator of SeedSequence(seed), seed being an int or a list of
    ints, or with a key, of its child SeedSequence(seed, spawn_key=(key,)).

    numpy pads a seed list with zero words to the 4 words of its pool, so
    [0] and [0, 0] give one stream, and so do [0, 2, 0] and [0, 2]. It pads
    before it appends the spawn key, so no plain list of up to 4 words
    gives a keyed stream (a longer list is not padded, and can). A seed
    the program accepts is one word (fields.MAX_SEED)."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=() if key is None else (key,))))


def _bbox(m: np.ndarray):
    """(r0, r1, c0, c1) inclusive bounds of the true pixels of a nonempty mask."""
    rows = np.flatnonzero(m.any(axis=1))
    cols = np.flatnonzero(m.any(axis=0))
    return int(rows[0]), int(rows[-1]), int(cols[0]), int(cols[-1])


def _centroid(m: np.ndarray):
    """Center of mass of a nonempty mask in continuous coordinates (cell r
    spans [r, r+1))."""
    rr, cc = np.nonzero(m)
    return float(rr.mean()) + 0.5, float(cc.mean()) + 0.5


def _dilated_bbox(m: np.ndarray):
    """GT bbox grown by 10% of its extent per side (ceil), clipped to the image."""
    r0, r1, c0, c1 = _bbox(m)
    pad_r = int(np.ceil(0.1 * (r1 - r0 + 1)))
    pad_c = int(np.ceil(0.1 * (c1 - c0 + 1)))
    h, w = m.shape
    return (max(0, r0 - pad_r), min(h - 1, r1 + pad_r),
            max(0, c0 - pad_c), min(w - 1, c1 + pad_c))


def point_noise_region(m: np.ndarray, lambda_p: float):
    """(flip budget, dilated bbox) of point noise on mask m: the budget is
    floor(lambda_p * area); it is 0, with no bbox, when nothing can flip."""
    c_max = int(np.floor(lambda_p * int(m.sum())))
    return (c_max, _dilated_bbox(m)) if c_max else (0, None)


def shift_noise(m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Translate by a uniform integer offset, drawn from rng, keeping the
    centroid strictly inside the original GT bbox; pixels pushed off the
    image are dropped."""
    if not m.any():
        raise ValueError("shift_noise on empty mask")
    r0, r1, c0, c1 = _bbox(m)
    cy, cx = _centroid(m)
    # legal offsets: bbox covers [r0, r1+1) in continuous coords
    dy_lo = int(np.floor(r0 - cy)) + 1
    dy_hi = int(np.ceil(r1 + 1 - cy)) - 1
    dx_lo = int(np.floor(c0 - cx)) + 1
    dx_hi = int(np.ceil(c1 + 1 - cx)) - 1
    dy = int(rng.integers(dy_lo, dy_hi + 1))
    dx = int(rng.integers(dx_lo, dx_hi + 1))
    h, w = m.shape
    out = np.zeros_like(m)
    rr, cc = np.nonzero(m)
    rr = rr + dy
    cc = cc + dx
    keep = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
    out[rr[keep], cc[keep]] = True
    return out


def scale_noise(m: np.ndarray, ratio_range, rng: np.random.Generator) -> np.ndarray:
    """Rescale about the centroid by a ratio drawn from rng, uniform on
    ratio_range, nearest-neighbor resampled."""
    if not m.any():
        raise ValueError("scale_noise on empty mask")
    ratio = float(rng.uniform(*ratio_range))
    cy, cx = _centroid(m)
    h, w = m.shape
    r = np.arange(h) + 0.5
    c = np.arange(w) + 0.5
    src_r = np.floor(cy + (r - cy) / ratio).astype(np.intp)
    src_c = np.floor(cx + (c - cx) / ratio).astype(np.intp)
    ok_r = (src_r >= 0) & (src_r < h)
    ok_c = (src_c >= 0) & (src_c < w)
    out = np.zeros_like(m)
    out[np.ix_(ok_r, ok_c)] = m[np.ix_(src_r[ok_r], src_c[ok_c])]
    return out


def to_attention_blocks(bits: np.ndarray, h2: int, w2: int) -> np.ndarray:
    """Cross-attention blocking grids of a stack of (n, h, w) masks at the
    target scale, flattened to (n, h2*w2): each mask is nearest-resized,
    sampled at the target cell centers, and the grid is true outside it. A
    mask that is empty after resizing blocks nothing, so no attention row
    ends up fully blocked."""
    n, h, w = bits.shape
    if (h, w) != (h2, w2):
        bits = bits[:, _nearest_indices(h, h2)][:, :, _nearest_indices(w, w2)]
    block = ~bits.reshape(n, h2 * w2)
    block[~bits.any(axis=(1, 2))] = False
    return block


def rle_encode(m: np.ndarray) -> list[int]:
    """Row-major run lengths of a mask, alternating and starting with a zero-run."""
    flat = m.reshape(-1)
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    boundaries = np.concatenate([[0], changes, [flat.size]])
    runs = [0] if flat.size and flat[0] else []
    runs.extend(int(b - a) for a, b in zip(boundaries[:-1], boundaries[1:]))
    return runs


def rle_decode(runs: list, height: int, width: int) -> np.ndarray:
    """The (n, height, width) stack of n masks from their rle_encode run
    lengths, one list of ints per mask, decoded by one np.repeat. Raises
    ValueError at the first mask, in order, whose runs hold a negative
    length (naming the first) or do not sum to height * width."""
    total = height * width
    flat = []
    for r in runs:
        if min(r, default=0) < 0:
            raise ValueError(f"negative run length {next(x for x in r if x < 0)}")
        if sum(r) != total:
            raise ValueError(f"run lengths sum to {sum(r)}, expected {total}")
        # an even number of runs per mask, so that every mask starts with a zero-run
        flat += r + [0] * (len(r) % 2)
    return np.repeat(np.arange(len(flat)) % 2 == 1, flat).reshape(len(runs), height, width)
