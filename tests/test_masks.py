import os

import numpy as np
import pytest

from mpseg.masks import (INIT_KEY, MP_KEY, _bbox, _centroid, iou, rle_decode, rle_encode,
                         scale_noise, seeded_rng, shift_noise, to_attention_blocks)
from oracle import disk_mask, point_noise, resize_nearest, rle_decode_runs

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_iou_identity():
    m = disk_mask(8, 8, 4, 4, 2)
    assert iou(m, m) == 1.0


def test_iou_disjoint():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0] = True
    b[3] = True
    assert iou(a, b) == 0.0


def test_iou_hand_count():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0:2] = True
    b[1:3] = True
    assert abs(iou(a, b) - 4 / 12) < 1e-12


def test_iou_empty_conventions():
    e = np.zeros((3, 3), dtype=bool)
    f = np.ones((3, 3), dtype=bool)
    assert iou(e, e) == 1.0
    assert iou(e, f) == 0.0


def test_iou_extent_mismatch():
    with pytest.raises(ValueError):
        iou(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))


def test_iou_symmetric_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.uniform(size=(6, 6)) < 0.4
        b = rng.uniform(size=(6, 6)) < 0.4
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


def test_iou_broadcasts_over_stacks_as_per_pair_iou():
    rng = np.random.default_rng(5)
    a = rng.uniform(size=(3, 1, 6, 6)) < rng.uniform(0.0, 0.5, size=(3, 1, 1, 1))
    b = rng.uniform(size=(1, 4, 6, 6)) < rng.uniform(0.0, 0.5, size=(1, 4, 1, 1))
    a[0] = False                    # empty against nonempty, and against empty
    b[0, 1] = False
    stacked = iou(a, b)
    assert stacked.shape == (3, 4) and stacked.dtype == np.float64
    for i in range(3):
        for j in range(4):
            assert stacked[i, j] == iou(a[i, 0], b[0, j])
    assert stacked[0, 1] == 1.0 and stacked[0, 0] == 0.0


def test_resize_same_extents_identity():
    m = disk_mask(8, 8, 3, 4, 2)
    assert np.array_equal(resize_nearest(m, 8, 8), m)


def test_resize_downsample_left_half():
    bits = np.zeros((4, 4), dtype=bool)
    bits[:, 0:2] = True
    out = resize_nearest(bits, 2, 2)
    assert np.array_equal(out, [[True, False], [True, False]])


def test_resize_upsample_corner_pixel():
    bits = np.zeros((2, 2), dtype=bool)
    bits[0, 0] = True
    out = resize_nearest(bits, 4, 4)
    expected = np.zeros((4, 4), dtype=bool)
    expected[0:2, 0:2] = True
    assert np.array_equal(out, expected)


def test_resize_integer_factor_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.uniform(size=(8, 8)) < 0.5
        down = resize_nearest(m, 4, 4)
        up = resize_nearest(down, 8, 8)
        down2 = resize_nearest(up, 4, 4)
        assert np.array_equal(down, down2)


def test_point_noise_zero_ratio_is_identity():
    m = disk_mask(8, 8, 4, 4, 2)
    assert np.array_equal(point_noise(m, 0.0, seed=11), m)


def test_point_noise_empty_mask_unchanged():
    e = np.zeros((5, 5), dtype=bool)
    assert np.array_equal(point_noise(e, 0.5, seed=3), e)


def test_point_noise_flip_count_range():
    bits = np.zeros((16, 16), dtype=bool)
    bits[3:13, 3:8] = True  # area 50
    m = bits
    seen = set()
    for seed in range(2000):
        out = point_noise(m, 0.2, seed=seed)
        flips = int((out != m).sum())
        assert 0 <= flips <= 10
        seen.add(flips)
    assert seen == set(range(11))


def test_point_noise_deterministic_and_golden():
    m = disk_mask(8, 8, 4, 4, 3)
    out1 = point_noise(m, 0.2, seed=7)
    out2 = point_noise(m, 0.2, seed=7)
    assert np.array_equal(out1, out2)
    encoded = ",".join(str(r) for r in rle_encode(out1))
    path = os.path.join(GOLDEN, "point_noise_disk8_seed7.txt")
    with open(path) as fh:
        assert fh.read().strip() == encoded


def test_point_noise_hamming_bound():
    rng = np.random.default_rng(2)
    for seed in range(200):
        bits = rng.uniform(size=(12, 12)) < 0.4
        if not bits.any():
            continue
        m = bits
        out = point_noise(m, 0.3, seed=seed)
        assert (out != m).sum() <= int(0.3 * m.sum())


def test_shift_noise_degenerate_single_pixel():
    bits = np.zeros((5, 5), dtype=bool)
    bits[2, 3] = True
    m = bits
    for seed in range(20):
        assert np.array_equal(shift_noise(m, seeded_rng(seed)), m)


def test_shift_noise_empty_raises():
    with pytest.raises(ValueError):
        shift_noise(np.zeros((3, 3), dtype=bool), seeded_rng(0))


def test_shift_noise_zero_offset_identity():
    m = disk_mask(16, 16, 8, 8, 3)
    hits = 0
    for seed in range(200):
        if np.array_equal(shift_noise(m, seeded_rng(seed)), m):
            hits += 1
    assert hits > 0  # the zero offset is drawn and reproduces the input


def test_shift_noise_centroid_stays_in_bbox():
    m = disk_mask(32, 32, 16, 16, 4)  # interior: no pixels get clipped
    r0, r1, c0, c1 = _bbox(m)
    area = m.sum()
    for seed in range(10000):
        out = shift_noise(m, seeded_rng(seed))
        assert out.sum() == area
        cy, cx = _centroid(out)
        assert r0 < cy < r1 + 1
        assert c0 < cx < c1 + 1


def test_scale_noise_identity_ratio():
    m = disk_mask(10, 10, 5, 5, 3)
    assert np.array_equal(scale_noise(m, (1.0, 1.0), seeded_rng(4)), m)


def test_scale_noise_exact_double():
    bits = np.zeros((4, 4), dtype=bool)
    bits[1:3, 1:3] = True
    out = scale_noise(bits, (2.0, 2.0), seeded_rng(0))
    assert out.all()


def test_scale_noise_empty_raises():
    with pytest.raises(ValueError):
        scale_noise(np.zeros((3, 3), dtype=bool), (0.8, 1.2), seeded_rng(0))


def test_scale_noise_area_ratio_bounds():
    m = disk_mask(32, 32, 16, 16, 5)
    area = m.sum()
    for seed in range(10000):
        out = scale_noise(m, (0.8, 1.2), seeded_rng(seed))
        ratio = out.sum() / area
        assert 0.5 <= ratio <= 2.0


def test_to_attention_block_full_mask():
    bits = np.ones((1, 4, 4), dtype=bool)
    assert not to_attention_blocks(bits, 4, 4).any()


def test_to_attention_block_empty_fallback():
    bits = np.zeros((1, 4, 4), dtype=bool)
    assert not to_attention_blocks(bits, 4, 4).any()


def test_to_attention_block_half_mask_complement():
    bits = np.zeros((4, 4), dtype=bool)
    bits[:, :2] = True
    block = to_attention_blocks(bits[None], 4, 4)
    assert np.array_equal(block, ~bits.reshape(1, -1))


def per_mask_block(bits, h2, w2):
    """Oracle: resize one mask, block outside it, and block nothing when
    the resized mask is empty."""
    resized = resize_nearest(bits, h2, w2)
    if not resized.any():
        return np.zeros(h2 * w2, dtype=bool)
    return ~resized.reshape(-1)


@pytest.mark.parametrize("h2,w2", [(16, 16), (4, 4), (8, 8), (2, 8), (8, 3)],
                         ids=["up", "down", "same", "down-rows", "mixed"])
def test_to_attention_blocks_equals_the_per_mask_oracle(h2, w2):
    rng = np.random.default_rng(4)
    bits = rng.uniform(size=(6, 8, 8)) < rng.uniform(0.05, 0.6, size=(6, 1, 1))
    bits[0] = False                 # empty at every scale
    bits[1] = False
    bits[1, 0, 0] = True            # one pixel that downsampling drops
    blocks = to_attention_blocks(bits, h2, w2)
    assert blocks.shape == (6, h2 * w2) and blocks.dtype == bool
    for row, mask in zip(blocks, bits):
        assert np.array_equal(row, per_mask_block(mask, h2, w2))
    if (h2, w2) == (4, 4):
        assert not blocks[1].any()  # vanished, so unblocked


def test_rle_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = rng.uniform(size=(7, 9)) < 0.5
        runs = rle_encode(m)
        assert np.array_equal(rle_decode([runs], 7, 9)[0], m)
        # alternating runs starting with a zero-run
        assert sum(runs) == 63
        if m.reshape(-1)[0]:
            assert runs[0] == 0


def test_rle_bad_length():
    with pytest.raises(ValueError):
        rle_decode([[3, 3]], 2, 2)


@pytest.mark.parametrize("runs", [[70, -6], [10, 5, -5, 54]], ids=["past-the-end", "back-over"])
def test_rle_negative_run_raises(runs):
    """Both lists sum to 64; read as runs, the second would give a 54-pixel
    mask that no run describes."""
    with pytest.raises(ValueError, match="negative run length -"):
        rle_decode([runs], 8, 8)


def random_stack(rng, n, h, w):
    """n random (h, w) masks, among them a full one, an empty one, one
    with a set run on its last pixel, one with a leading set run, and
    ones with empty pixel rows."""
    m = rng.uniform(size=(n, h, w)) < rng.uniform(0.05, 0.95, size=(n, 1, 1))
    m[0] = True
    m[1] = False
    m[2, -1, -1] = True
    m[3, 0, 0] = True
    m[4:, rng.integers(0, h, size=2)] = False
    return m[rng.permutation(n)]


def test_rle_decode_of_a_stack_is_the_run_by_run_decode_of_each_mask():
    rng = np.random.default_rng(31)
    for h, w in [(1, 1), (2, 3), (8, 8), (7, 9), (32, 32)]:
        for n in (6, 12):
            stack = random_stack(rng, n, h, w)
            runs = [rle_encode(m) for m in stack]
            decoded = rle_decode(runs, h, w)
            assert decoded.shape == stack.shape and decoded.dtype == bool
            assert np.array_equal(decoded, np.stack([rle_decode_runs(r, h, w) for r in runs]))
            assert np.array_equal(decoded, stack)
    assert rle_decode([], 4, 4).shape == (0, 4, 4)


@pytest.mark.parametrize("bad", [[70, -6], [10, 5, -5, 54], [3, -1, -2, 64], [63], [0, 65],
                                 [64, 0, 2**70], [64, -(2**70)]])
@pytest.mark.parametrize("at", [0, 1, 3])
def test_rle_decode_raises_at_the_first_bad_mask_as_the_run_by_run_decode(bad, at):
    """A stack with a bad mask at `at` and a second one after it: the
    message is the run-by-run decode's of the first."""
    good = [[5, 20, 39], [0, 64], [64], [63, 1]]
    runs = good[:at] + [bad] + [[-1, 65]] + good[at:]
    with pytest.raises(ValueError) as oracle_error:
        rle_decode_runs(bad, 8, 8)
    with pytest.raises(ValueError) as error:
        rle_decode(runs, 8, 8)
    assert str(error.value) == str(oracle_error.value)


@pytest.mark.parametrize("seed", [[0], [7, 1, 3, 0, 2], [2**32 - 1, 5], [2**32, 1],
                                  [2**40, 0, 9]],
                         ids=["zero", "small", "largest-word", "two-words", "wide"])
def test_seeded_rng_draws_the_stream_of_the_seed_sequence_of_the_list(seed):
    expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    assert np.array_equal(seeded_rng(list(seed)).integers(0, 2**62, size=8),
                          expected.integers(0, 2**62, size=8))


def draws(rng):
    return rng.integers(0, 2**62, size=8).tolist()


def test_a_keyed_stream_is_the_spawn_key_child_and_no_padded_plain_list():
    """numpy pads a seed list with zero words to 4, so a plain list and
    the list with trailing zeros give one stream; it pads before it
    appends a spawn key, so a keyed stream is none of them."""
    child = np.random.SeedSequence([0, 2], spawn_key=(MP_KEY,))
    assert draws(seeded_rng([0, 2], MP_KEY)) == draws(np.random.Generator(
        np.random.PCG64(child)))
    plain = [draws(seeded_rng(seed)) for seed in ([0, 2], [0, 2, 0], [0, 2, 0, 0])]
    assert plain[0] == plain[1] == plain[2]
    keyed = [draws(seeded_rng(seed, key)) for seed in ([0, 2], [0, 2, 0])
             for key in (INIT_KEY, MP_KEY)]
    assert keyed[0] == keyed[2] != keyed[1] == keyed[3]
    assert plain[0] not in keyed
    # a list of 5 words or more is not padded, so it can meet a keyed stream
    assert draws(seeded_rng([0, 2, 0, 0, MP_KEY])) == keyed[1]
