import os

import numpy as np
import pytest

from mpseg.masks import (BinaryMask, iou, point_noise, resize_nearest, rle_decode,
                         rle_encode, scale_noise, shift_noise, to_attention_blocks)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def disk_mask(h, w, cy, cx, r):
    rr, cc = np.mgrid[0:h, 0:w]
    return BinaryMask((rr - cy) ** 2 + (cc - cx) ** 2 <= r ** 2)


def test_iou_identity():
    m = disk_mask(8, 8, 4, 4, 2)
    assert iou(m, m) == 1.0


def test_iou_disjoint():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0] = True
    b[3] = True
    assert iou(BinaryMask(a), BinaryMask(b)) == 0.0


def test_iou_hand_count():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    a[0:2] = True
    b[1:3] = True
    assert abs(iou(BinaryMask(a), BinaryMask(b)) - 4 / 12) < 1e-12


def test_iou_empty_conventions():
    e = BinaryMask(np.zeros((3, 3), dtype=bool))
    f = BinaryMask(np.ones((3, 3), dtype=bool))
    assert iou(e, e) == 1.0
    assert iou(e, f) == 0.0


def test_iou_extent_mismatch():
    with pytest.raises(ValueError):
        iou(BinaryMask(np.zeros((2, 2), dtype=bool)),
            BinaryMask(np.zeros((3, 3), dtype=bool)))


def test_iou_symmetric_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = BinaryMask(rng.uniform(size=(6, 6)) < 0.4)
        b = BinaryMask(rng.uniform(size=(6, 6)) < 0.4)
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


def test_resize_same_extents_identity():
    m = disk_mask(8, 8, 3, 4, 2)
    assert resize_nearest(m, 8, 8) == m


def test_resize_downsample_left_half():
    bits = np.zeros((4, 4), dtype=bool)
    bits[:, 0:2] = True
    out = resize_nearest(BinaryMask(bits), 2, 2)
    assert np.array_equal(out.bits, [[True, False], [True, False]])


def test_resize_upsample_corner_pixel():
    bits = np.zeros((2, 2), dtype=bool)
    bits[0, 0] = True
    out = resize_nearest(BinaryMask(bits), 4, 4)
    expected = np.zeros((4, 4), dtype=bool)
    expected[0:2, 0:2] = True
    assert np.array_equal(out.bits, expected)


def test_resize_integer_factor_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = BinaryMask(rng.uniform(size=(8, 8)) < 0.5)
        down = resize_nearest(m, 4, 4)
        up = resize_nearest(down, 8, 8)
        down2 = resize_nearest(up, 4, 4)
        assert down == down2


def test_point_noise_zero_ratio_is_identity():
    m = disk_mask(8, 8, 4, 4, 2)
    assert point_noise(m, 0.0, seed=11) == m


def test_point_noise_empty_mask_unchanged():
    e = BinaryMask(np.zeros((5, 5), dtype=bool))
    assert point_noise(e, 0.5, seed=3) == e


def test_point_noise_flip_count_range():
    bits = np.zeros((16, 16), dtype=bool)
    bits[3:13, 3:8] = True  # area 50
    m = BinaryMask(bits)
    seen = set()
    for seed in range(2000):
        out = point_noise(m, 0.2, seed=seed)
        flips = int((out.bits != m.bits).sum())
        assert 0 <= flips <= 10
        seen.add(flips)
    assert seen == set(range(11))


def test_point_noise_deterministic_and_golden():
    m = disk_mask(8, 8, 4, 4, 3)
    out1 = point_noise(m, 0.2, seed=7)
    out2 = point_noise(m, 0.2, seed=7)
    assert out1 == out2
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
        m = BinaryMask(bits)
        out = point_noise(m, 0.3, seed=seed)
        assert (out.bits != m.bits).sum() <= int(0.3 * m.area)


def test_shift_noise_degenerate_single_pixel():
    bits = np.zeros((5, 5), dtype=bool)
    bits[2, 3] = True
    m = BinaryMask(bits)
    for seed in range(20):
        assert shift_noise(m, seed=seed) == m


def test_shift_noise_empty_raises():
    with pytest.raises(ValueError):
        shift_noise(BinaryMask(np.zeros((3, 3), dtype=bool)), seed=0)


def test_shift_noise_zero_offset_identity():
    m = disk_mask(16, 16, 8, 8, 3)
    hits = 0
    for seed in range(200):
        if shift_noise(m, seed=seed) == m:
            hits += 1
    assert hits > 0  # the zero offset is drawn and reproduces the input


def test_shift_noise_centroid_stays_in_bbox():
    m = disk_mask(32, 32, 16, 16, 4)  # interior: no pixels get clipped
    r0, r1, c0, c1 = m.bbox()
    area = m.area
    for seed in range(10000):
        out = shift_noise(m, seed=seed)
        assert out.area == area
        cy, cx = out.centroid()
        assert r0 < cy < r1 + 1
        assert c0 < cx < c1 + 1


def test_scale_noise_identity_ratio():
    m = disk_mask(10, 10, 5, 5, 3)
    assert scale_noise(m, (1.0, 1.0), seed=4) == m


def test_scale_noise_exact_double():
    bits = np.zeros((4, 4), dtype=bool)
    bits[1:3, 1:3] = True
    out = scale_noise(BinaryMask(bits), (2.0, 2.0), seed=0)
    assert out.bits.all()


def test_scale_noise_empty_raises():
    with pytest.raises(ValueError):
        scale_noise(BinaryMask(np.zeros((3, 3), dtype=bool)), (0.8, 1.2), seed=0)


def test_scale_noise_area_ratio_bounds():
    m = disk_mask(32, 32, 16, 16, 5)
    area = m.area
    for seed in range(10000):
        out = scale_noise(m, (0.8, 1.2), seed=seed)
        ratio = out.area / area
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
    resized = resize_nearest(BinaryMask(bits), h2, w2)
    if resized.is_empty():
        return np.zeros(h2 * w2, dtype=bool)
    return ~resized.bits.reshape(-1)


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
        m = BinaryMask(rng.uniform(size=(7, 9)) < 0.5)
        runs = rle_encode(m)
        assert rle_decode(runs, 7, 9) == m
        # alternating runs starting with a zero-run
        assert sum(runs) == 63
        if m.bits.reshape(-1)[0]:
            assert runs[0] == 0


def test_rle_bad_length():
    with pytest.raises(ValueError):
        rle_decode([3, 3], 2, 2)
