"""Binary masks: IoU, nearest-neighbor resizing, the three GT-mask noise
procedures, attention blocking grids, and run-length serialization.

All noise procedures are pure functions of (mask, parameters, seed); the
same seed always yields the same output.
"""

from __future__ import annotations

import numpy as np


class FormatError(ValueError):
    """A dataset or checkpoint file that does not parse. Defined here, next
    to the run-length codec, because both file loaders import this module."""


class BinaryMask:
    """H x W boolean grid."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {bits.shape}")
        self.bits = bits

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def area(self) -> int:
        return int(self.bits.sum())

    def is_empty(self) -> bool:
        return not self.bits.any()

    def bbox(self):
        """(r0, r1, c0, c1) inclusive bounds of true pixels; None when empty."""
        rows = np.flatnonzero(self.bits.any(axis=1))
        cols = np.flatnonzero(self.bits.any(axis=0))
        if rows.size == 0:
            return None
        return int(rows[0]), int(rows[-1]), int(cols[0]), int(cols[-1])

    def centroid(self):
        """Center of mass in continuous coordinates (cell r spans [r, r+1))."""
        rr, cc = np.nonzero(self.bits)
        if rr.size == 0:
            raise ValueError("centroid of empty mask")
        return float(rr.mean()) + 0.5, float(cc.mean()) + 0.5

    def copy(self) -> "BinaryMask":
        return BinaryMask(self.bits.copy())

    def __eq__(self, other):
        return isinstance(other, BinaryMask) and np.array_equal(self.bits, other.bits)

    def __repr__(self):
        return f"BinaryMask({self.height}x{self.width}, area={self.area})"


def iou(a: BinaryMask, b: BinaryMask) -> float:
    """|a∩b| / |a∪b|; 1.0 when both empty, 0.0 when exactly one is."""
    if a.bits.shape != b.bits.shape:
        raise ValueError(f"iou extent mismatch: {a.bits.shape} vs {b.bits.shape}")
    union = np.logical_or(a.bits, b.bits).sum()
    if union == 0:
        return 1.0
    inter = np.logical_and(a.bits, b.bits).sum()
    return float(inter) / float(union)


def _nearest_indices(n_src: int, n_dst: int) -> np.ndarray:
    # sample at destination cell centers
    return np.minimum((np.arange(n_dst) + 0.5) * (n_src / n_dst), n_src - 1).astype(np.intp)


def resize_nearest(m: BinaryMask, h2: int, w2: int) -> BinaryMask:
    """Nearest-neighbor resize sampling source values at destination cell centers."""
    if h2 < 1 or w2 < 1:
        raise ValueError(f"target extents must be positive, got {h2}x{w2}")
    if (h2, w2) == (m.height, m.width):
        return m.copy()
    ri = _nearest_indices(m.height, h2)
    ci = _nearest_indices(m.width, w2)
    return BinaryMask(m.bits[np.ix_(ri, ci)])


def seeded_rng(seed) -> np.random.Generator:
    """PCG64 generator of SeedSequence(seed). A list of ints in [0, 2**32)
    goes in as a uint32 array: SeedSequence makes the same entropy words of
    both, and builds itself from the array about 5x faster."""
    if isinstance(seed, list) and all(type(s) is int and 0 <= s < 2**32 for s in seed):
        seed = np.array(seed, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _dilated_bbox(m: BinaryMask):
    """GT bbox grown by 10% of its extent per side (ceil), clipped to the image."""
    r0, r1, c0, c1 = m.bbox()
    pad_r = int(np.ceil(0.1 * (r1 - r0 + 1)))
    pad_c = int(np.ceil(0.1 * (c1 - c0 + 1)))
    return (max(0, r0 - pad_r), min(m.height - 1, r1 + pad_r),
            max(0, c0 - pad_c), min(m.width - 1, c1 + pad_c))


def point_noise_region(m: BinaryMask, lambda_p: float):
    """(flip budget, dilated bbox) of point noise on m: the budget is
    floor(lambda_p * area); it is 0, with no bbox, when nothing can flip."""
    if m.is_empty():
        return 0, None
    c_max = int(np.floor(lambda_p * m.area))
    return (c_max, _dilated_bbox(m)) if c_max else (0, None)


def point_flips(c_max: int, bbox, seed):
    """(rows, cols) of the pixels point noise flips: a count uniform on the
    integers [0, c_max] of distinct positions, uniform over the bbox."""
    rng = seeded_rng(seed)
    count = int(rng.integers(0, c_max + 1))
    r0, r1, c0, c1 = bbox
    region_w = c1 - c0 + 1
    picks = rng.choice((r1 - r0 + 1) * region_w, size=count, replace=False)
    return r0 + picks // region_w, c0 + picks % region_w


def point_noise(m: BinaryMask, lambda_p: float, seed) -> BinaryMask:
    """Flip a random number of pixels inside the dilated GT bbox.

    The flip count is uniform on the integers [0, floor(lambda_p * area)];
    flip positions are distinct and uniform over the noise region, and
    each chosen pixel is inverted (1->0 or 0->1).
    """
    c_max, bbox = point_noise_region(m, lambda_p)
    out = m.bits.copy()
    if c_max:
        rr, cc = point_flips(c_max, bbox, seed)
        out[rr, cc] = ~out[rr, cc]
    return BinaryMask(out)


def shift_noise(m: BinaryMask, seed) -> BinaryMask:
    """Translate by a uniform integer offset keeping the centroid strictly
    inside the original GT bbox; pixels pushed off the image are dropped."""
    if m.is_empty():
        raise ValueError("shift_noise on empty mask")
    rng = seeded_rng(seed)
    r0, r1, c0, c1 = m.bbox()
    cy, cx = m.centroid()
    # legal offsets: bbox covers [r0, r1+1) in continuous coords
    dy_lo = int(np.floor(r0 - cy)) + 1
    dy_hi = int(np.ceil(r1 + 1 - cy)) - 1
    dx_lo = int(np.floor(c0 - cx)) + 1
    dx_hi = int(np.ceil(c1 + 1 - cx)) - 1
    dy = int(rng.integers(dy_lo, dy_hi + 1))
    dx = int(rng.integers(dx_lo, dx_hi + 1))
    out = np.zeros_like(m.bits)
    rr, cc = np.nonzero(m.bits)
    rr = rr + dy
    cc = cc + dx
    keep = (rr >= 0) & (rr < m.height) & (cc >= 0) & (cc < m.width)
    out[rr[keep], cc[keep]] = True
    return BinaryMask(out)


def scale_noise(m: BinaryMask, ratio_range=(0.8, 1.2), seed=0) -> BinaryMask:
    """Rescale about the centroid by a uniform ratio, nearest-neighbor resampled."""
    if m.is_empty():
        raise ValueError("scale_noise on empty mask")
    lo, hi = ratio_range
    rng = seeded_rng(seed)
    ratio = float(rng.uniform(lo, hi))
    cy, cx = m.centroid()
    r = np.arange(m.height) + 0.5
    c = np.arange(m.width) + 0.5
    src_r = np.floor(cy + (r - cy) / ratio).astype(np.intp)
    src_c = np.floor(cx + (c - cx) / ratio).astype(np.intp)
    ok_r = (src_r >= 0) & (src_r < m.height)
    ok_c = (src_c >= 0) & (src_c < m.width)
    out = np.zeros_like(m.bits)
    sub = m.bits[np.ix_(src_r[ok_r], src_c[ok_c])]
    out[np.ix_(ok_r, ok_c)] = sub
    return BinaryMask(out)


def apply_noise(m: BinaryMask, kind: str, ratio_range, seed) -> BinaryMask:
    """m noised by the "shift" or "scale" kind."""
    if kind == "shift":
        return shift_noise(m, seed)
    if kind == "scale":
        return scale_noise(m, ratio_range, seed)
    raise ValueError(f"unknown noise kind {kind!r}")


def to_attention_blocks(bits: np.ndarray, h2: int, w2: int) -> np.ndarray:
    """Cross-attention blocking grids of a stack of (n, h, w) masks at the
    target scale, flattened to (n, h2*w2): each mask is nearest-resized as
    by resize_nearest and the grid is true outside it. A mask that is empty
    after resizing blocks nothing, so no attention row ends up fully blocked."""
    n, h, w = bits.shape
    if (h, w) != (h2, w2):
        bits = bits[:, _nearest_indices(h, h2)][:, :, _nearest_indices(w, w2)]
    block = ~bits.reshape(n, h2 * w2)
    block[~bits.any(axis=(1, 2))] = False
    return block


def rle_encode(m: BinaryMask) -> list[int]:
    """Row-major run lengths, alternating and starting with a zero-run."""
    flat = m.bits.reshape(-1)
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    boundaries = np.concatenate([[0], changes, [flat.size]])
    runs = [0] if flat.size and flat[0] else []
    runs.extend(int(b - a) for a, b in zip(boundaries[:-1], boundaries[1:]))
    return runs


def rle_decode(runs, height: int, width: int) -> BinaryMask:
    total = height * width
    flat = np.zeros(total, dtype=bool)
    pos = 0
    val = False
    for run in runs:
        if run:
            flat[pos:pos + run] = val
        pos += run
        val = not val
    if pos != total:
        raise ValueError(f"run lengths sum to {pos}, expected {total}")
    return BinaryMask(flat.reshape(height, width))
