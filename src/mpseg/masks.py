"""Masks as numpy bool arrays: an (H, W) array is one mask, an (n, H, W)
array a stack of them. IoU, the shift and scale GT-mask noise, the flip
budget and flips of point noise (its whole procedure is
tests/oracle.py's point_noise; mp.build_mp_part applies it to a stack),
attention blocking grids, and run-length serialization.

All noise procedures are pure functions of (mask, parameters, rng): they
draw from the np.random.Generator they are given, and the same stream
always yields the same output. A seed is a list of ints, and its stream
is that of numpy's SeedSequence of the list (seeded_rng). The MP part
draws many short streams per scene, so it takes them all from one
seeded_rngs call, which runs SeedSequence's hash over every list at once.
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


def seeded_rng(seed) -> np.random.Generator:
    """PCG64 generator of SeedSequence(seed). A list of ints in [0, 2**32)
    goes in as a uint32 array: SeedSequence makes the same entropy words of
    both, and builds itself from the array about 5x faster. The MP part's
    streams, its label flips and every noised row, come from seeded_rngs
    instead."""
    if isinstance(seed, list) and all(type(s) is int and 0 <= s < 2**32 for s in seed):
        seed = np.array(seed, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# numpy's SeedSequence hash (pool of 4 uint32 words, no spawn key): its
# constants, and the mask of one 32-bit word
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875  # hashmix while mixing entropy into the pool
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded  # hashmix while generating state from it
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715


def _entropy_words(seed) -> list:
    """SeedSequence's entropy words of a list of non-negative ints: each
    int's little-endian 32-bit words, with 0 as one word 0."""
    if seed and min(seed) >= 0 and max(seed) <= _MASK32:
        return list(seed)
    words = []
    for s in seed:
        if s < 0:
            raise ValueError(f"seed entries must be non-negative, got {s}")
        words.append(s & _MASK32)
        s >>= 32
        while s:
            words.append(s & _MASK32)
            s >>= 32
    return words


def _running_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count, 1) uint32: init, init*mult, init*mult**2, ... mod 2**32."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def seed_states(seeds) -> np.ndarray:
    """(len(seeds), 4) uint64: SeedSequence(seed).generate_state(4, np.uint64)
    of each list of non-negative ints, which is what PCG64 seeds itself
    from. SeedSequence's hash runs as uint32 array ops over all the lists
    at once: its running hash constant does not depend on the data, so
    the k-th hashmix call of every list uses the same constant, and a list
    with fewer words simply stops mixing earlier."""
    words = [_entropy_words(seed) for seed in seeds]
    width = max([4] + [len(w) for w in words])
    flat = []
    for w in words:
        flat += w
        flat += [0] * (width - len(w))
    # row i: word i of every list, 0 past a list's end
    entropy = np.array(flat, dtype=np.uint32).reshape(len(words), width).T
    lengths = np.array([len(w) for w in words])
    consts = _running_constants(_INIT_A, _MULT_A, 4 * width + 1)
    calls = 0

    def hashmix(x):  # rows of x take the next len(x) calls' constants
        nonlocal calls
        x = (x ^ consts[calls:calls + len(x)]) * consts[calls + 1:calls + len(x) + 1]
        calls += len(x)
        return x ^ (x >> 16)

    def mix(x, y):
        r = x * _MIX_L - y * _MIX_R
        return r ^ (r >> 16)

    pool = hashmix(entropy[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[[src] * 3]))
    for src in range(4, width):
        mixed = mix(pool, hashmix(entropy[[src] * 4]))
        pool = np.where(src < lengths, mixed, pool)
    gen = _running_constants(_INIT_B, _MULT_B, 9)
    state = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ gen[:8]) * gen[1:]
    state ^= state >> 16
    state = state.astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


class _HashedSeed(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose PCG64 state words seed_states already hashed."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a hashed seed holds PCG64's state words only")
        return self.state


def seeded_rngs(seeds) -> list:
    """One generator per list of non-negative ints in seeds, drawing the
    stream seeded_rng gives that list: one seed_states call hashes them
    all, and each PCG64 seeds itself from its row, with no SeedSequence.
    For the 180 streams of one scene's point noise that is ~0.9 ms,
    against ~2.9 ms for seeded_rng one list at a time (2-core x86 VM)."""
    return [np.random.Generator(np.random.PCG64(_HashedSeed(state)))
            for state in seed_states(seeds)]


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


_NO_PICKS = np.empty(0, dtype=np.intp)


def point_flips(c_max: int, bbox, rng: np.random.Generator):
    """(rows, cols) of the pixels point noise flips, drawn from rng: a count
    uniform on the integers [0, c_max] of distinct positions, uniform over
    the bbox. A count of 0 draws no positions; the stream is not read
    again, so the flips are those of always drawing them."""
    count = int(rng.integers(0, c_max + 1))
    if not count:
        return _NO_PICKS, _NO_PICKS
    r0, r1, c0, c1 = bbox
    region_w = c1 - c0 + 1
    picks = rng.choice((r1 - r0 + 1) * region_w, size=count, replace=False)
    return r0 + picks // region_w, c0 + picks % region_w


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


def rle_decode(runs, height: int, width: int) -> np.ndarray:
    """The (height, width) mask of rle_encode's run lengths."""
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
