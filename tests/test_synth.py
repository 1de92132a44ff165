import hashlib
import os

import numpy as np
import pytest

from mpseg.decoder import feature_scales
from mpseg.fields import ConfigError
from mpseg.masks import FormatError, rle_encode
from mpseg.synth import (SynthConfig, _shape_mask, generate_scene, load_dataset, save_dataset,
                         synth_features)
from oracle import disk_mask, rle_decode_runs


def small_cfg(**kw):
    base = dict(height=16, width=16, num_categories=3, feat_dim=8,
                instance_range=(1, 3), size_range=(2, 5), noise_sigma=0.1, seed=42)
    base.update(kw)
    return SynthConfig(**base)


def test_determinism_same_seed_index():
    cfg = small_cfg()
    a = generate_scene(cfg, 5)
    b = generate_scene(cfg, 5)
    assert a == b


def test_different_index_differs():
    cfg = small_cfg()
    assert generate_scene(cfg, 0) != generate_scene(cfg, 1)


def test_single_instance_range():
    cfg = small_cfg(instance_range=(1, 1))
    for i in range(20):
        assert generate_scene(cfg, i).num_instances == 1


def test_property_scan_categories_disjoint_nonempty():
    cfg = SynthConfig(seed=7)
    for i in range(1000):
        scene = generate_scene(cfg, i)
        occupied = np.zeros((cfg.height, cfg.width), dtype=bool)
        assert 1 <= scene.num_instances <= cfg.instance_range[1]
        for cat, mask in zip(scene.categories, scene.masks):
            assert 0 <= cat < 4
            assert mask.sum() > 0
            assert not (mask & occupied).any()
            occupied |= mask


def test_features_sigma_zero_exact_prototypes():
    cfg = small_cfg(noise_sigma=0.0)
    scene = generate_scene(cfg, 0)
    features = synth_features(scene, cfg)
    grid = scene.category_grid(background_id=cfg.num_categories)
    assert np.array_equal(features, np.eye(cfg.feat_dim)[grid])


def test_features_orthonormal_dots():
    cfg = small_cfg(noise_sigma=0.0)
    scene = generate_scene(cfg, 1)
    features = synth_features(scene, cfg)
    grid = scene.category_grid(background_id=cfg.num_categories)
    flat = features.reshape(-1, cfg.feat_dim)
    labels = grid.reshape(-1)
    dots = flat @ flat.T
    same = labels[:, None] == labels[None, :]
    assert np.all(dots[same] == 1.0)
    assert np.all(dots[~same] == 0.0)


def test_features_noisy_intra_beats_inter():
    cfg = small_cfg(noise_sigma=0.1)
    intra, inter = [], []
    for i in range(100):
        scene = generate_scene(cfg, i)
        features = synth_features(scene, cfg)
        labels = scene.category_grid(background_id=cfg.num_categories).reshape(-1)
        flat = features.reshape(-1, cfg.feat_dim)
        dots = flat @ flat.T
        same = labels[:, None] == labels[None, :]
        off = ~np.eye(len(labels), dtype=bool)
        intra.append(dots[same & off].mean())
        inter.append(dots[~same].mean())
    assert np.mean(intra) > np.mean(inter)


def test_pyramid_shapes_and_pooling():
    """The decoder's scales of a scene's features: the grid at 1/4, 1/2
    and full size, the middle one the grid's 2x2 mean pool."""
    cfg = SynthConfig(seed=1)
    scene = generate_scene(cfg, 0)
    base = synth_features(scene, cfg)
    pyr = feature_scales(base)
    assert [g.shape for g in pyr] == [(8, 8, 32), (16, 16, 32), (32, 32, 32)]
    assert pyr[2] is base
    pooled = base.reshape(16, 2, 16, 2, 32).mean(axis=(1, 3))
    assert np.array_equal(pyr[1], pooled)


@pytest.mark.parametrize("noise_sigma", [0.0, 0.25])
def test_features_are_one_c_contiguous_float64_grid(noise_sigma):
    cfg = small_cfg(noise_sigma=noise_sigma)
    features = synth_features(generate_scene(cfg, 2), cfg)
    assert type(features) is np.ndarray and features.dtype == np.float64
    assert features.shape == (cfg.height, cfg.width, cfg.feat_dim)
    assert features.flags.c_contiguous


def test_dataset_roundtrip(tmp_path):
    cfg = small_cfg()
    scenes = [generate_scene(cfg, i) for i in range(10)]
    path = tmp_path / "ds.txt"
    save_dataset(path, scenes, cfg)
    loaded, cfg2 = load_dataset(path)
    assert len(loaded) == 10
    for a, b in zip(scenes, loaded):
        assert a == b
    assert cfg2.to_json() == cfg.to_json()


def test_dataset_wrong_version(tmp_path):
    cfg = small_cfg()
    path = tmp_path / "ds.txt"
    save_dataset(path, [generate_scene(cfg, 0)], cfg)
    text = path.read_text()
    path.write_text(text.replace("mpseg-dataset 2", "mpseg-dataset 99", 1))
    with pytest.raises(FormatError, match="schema version 99"):
        load_dataset(path)


def test_dataset_every_prefix_loads_or_raises_format_error(tmp_path):
    """Every proper prefix fails as a format error, never with another
    exception: a cut at a line end leaves fewer scenes than the header
    names, any other cut leaves no newline at the end."""
    cfg = small_cfg()
    scenes = [generate_scene(cfg, i) for i in range(3)]
    path = tmp_path / "ds.txt"
    text = save_dataset(path, scenes, cfg)
    for n in range(len(text)):
        path.write_text(text[:n])
        with pytest.raises(FormatError):
            load_dataset(path)
    path.write_text(text)
    assert load_dataset(path)[0] == scenes


def test_dataset_bad_category_rejected(tmp_path):
    cfg = small_cfg()
    path = tmp_path / "ds.txt"
    text = save_dataset(path, [generate_scene(cfg, 0)], cfg)
    head, scene_line = text.rstrip("\n").split("\n")
    fields = scene_line.split(" ")
    fields[2] = "7:" + fields[2].split(":")[1]
    path.write_text(head + "\n" + " ".join(fields) + "\n")
    with pytest.raises(FormatError, match="category 7"):
        load_dataset(path)


def test_multi_instance_dataset_roundtrip_decodes_each_mask_as_the_run_by_run_decode(tmp_path):
    cfg = small_cfg(instance_range=(3, 6), size_range=(2, 4), shape_kinds=("disk", "rectangle"))
    scenes = [generate_scene(cfg, i) for i in range(12)]
    assert min(s.num_instances for s in scenes) >= 3
    path = tmp_path / "ds.txt"
    save_dataset(path, scenes, cfg)
    loaded, _ = load_dataset(path)
    assert loaded == scenes
    for scene in loaded:
        assert scene.masks.dtype == bool and scene.masks.shape == (scene.num_instances, 16, 16)
        for mask in scene.masks:
            assert np.array_equal(mask, rle_decode_runs(rle_encode(mask), 16, 16))


# (instance parts on one scene line, the message): where several faults
# apply, the one an instance-by-instance reading meets first wins
FIRST_FAULT = [
    (["0:70,-6", "9:64"], "negative run length -6"),
    (["0:30,4,30", "9:64"], "scene 0: category 9 out of range"),
    (["0:64", "0:70,-6"], "scene 0: instance 0 has an empty mask"),
    (["0:64,0,-1", "0:64"], "negative run length -1"),
    (["0:30,4,30", "0:64,0"], "scene 0: instance 1 has an empty mask"),
    (["0:30,4,29", "x:64"], "run lengths sum to 63, expected 64"),
    (["0:30,4,30", "x:64", "0:-1"], "invalid literal for int() with base 10: 'x'"),
    (["0:30,4,30", "0:1,x", "9:64"], "invalid literal for int() with base 10: 'x'"),
    (["0:30,4,30", "0,64", "0:-1"], "not enough values to unpack (expected 2, got 1)"),
    (["0:0,64,0", "1:30,4,30", "2:70,-6"], "negative run length -6"),
]


@pytest.mark.parametrize("parts,message", FIRST_FAULT)
def test_dataset_reports_the_first_fault_of_a_scene_line(tmp_path, parts, message):
    cfg = small_cfg(height=8, width=8)
    path = tmp_path / "ds.txt"
    text = save_dataset(path, [generate_scene(cfg, 0)], cfg)
    path.write_text(text.split("\n")[0] + "\nscene 0 " + " ".join(parts) + "\n")
    with pytest.raises(FormatError) as exc:
        load_dataset(path)
    assert str(exc.value) == f"{path}: malformed dataset ({message})"


class ScriptedRng:
    """Hands out the given integers in order and records the range each
    is drawn from."""

    def __init__(self, values):
        self.values = iter(values)
        self.ranges = []

    def integers(self, lo, hi):
        self.ranges.append((lo, hi))
        return next(self.values)


@pytest.mark.parametrize("size", [8, 32])
def test_disk_masks_are_the_mgrid_disks_for_every_radius_and_centre(size):
    """Radii 1..size, from size_range (2, 2 * size + 1); for each radius
    every centre generate_scene can draw."""
    size_range = (2, 2 * size + 1)
    count = 0
    for radius in range(1, size + 1):
        centres = range(radius, max(radius + 1, size - radius))
        for cy in centres:
            for cx in centres:
                rng = ScriptedRng([radius, cy, cx])
                mask = _shape_mask(rng, "disk", size, size, size_range)
                bounds = (centres.start, centres.stop)
                assert rng.ranges == [(1, size + 1), bounds, bounds]
                assert mask.shape == (size, size) and mask.dtype == bool
                assert np.array_equal(mask, disk_mask(size, size, cy, cx, radius))
                count += 1
    assert count == sum(max(1, size - 2 * r) ** 2 for r in range(1, size + 1))


def test_dataset_size_bound(tmp_path):
    cfg = SynthConfig(seed=0)
    scenes = [generate_scene(cfg, i) for i in range(200)]
    path = tmp_path / "ds.txt"
    save_dataset(path, scenes, cfg)
    assert os.path.getsize(path) < 2 * 1024 * 1024


# sha256 of the file below, pinned: a change to the Scene layout or to the
# run-length codec must write the same bytes
DATASET_SEED3_SHA256 = "355727acd570ab09204b1bc843e94d08cd649e305e5f2aad481f6424703d7d25"


def test_dataset_bytes_pure_function_of_config(tmp_path):
    cfg = SynthConfig(seed=3)
    digests = []
    for run in range(2):
        scenes = [generate_scene(cfg, i) for i in range(25)]
        path = tmp_path / f"ds{run}.txt"
        data = save_dataset(path, scenes, cfg)
        digests.append(hashlib.sha256(data.encode()).hexdigest())
    assert digests[0] == digests[1] == DATASET_SEED3_SHA256


def test_generation_error_names_index():
    cfg = small_cfg(height=8, width=8, instance_range=(30, 30), size_range=(4, 6))
    with pytest.raises(ConfigError) as exc:
        generate_scene(cfg, 17)
    assert "17" in str(exc.value)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(num_categories=0)
    with pytest.raises(ValueError):
        small_cfg(noise_sigma=-1.0)
    small_cfg(num_categories=7, feat_dim=8)
    with pytest.raises(ConfigError, match="feat_dim 8 is too small for 8 categories"):
        small_cfg(num_categories=8, feat_dim=8)
