"""Synthetic segmentation scenes with one-hot category features.

Each scene holds disjoint shape instances (rectangles / disks) as two
arrays: their category ids, (n,) intp, and their masks, one (n, H, W)
bool stack in the same order. Every reader (matching cost, losses, MP
part, metrics) takes the arrays as they are and writes into neither.
A scene's features are one (H, W, d) grid: the one-hot vector of the
pixel's category (index num_categories is background) plus Gaussian
noise. The decoder makes its coarser scales from that grid on each
forward (decoder.full_forward), so a training run keeps one grid a scene.
Datasets store only geometry (config, scene count and RLE masks);
features are regenerated deterministically from (config seed, scene index).
load_dataset decodes all of a scene's masks in one masks.rle_decode call,
and reports the fault that a reading of one instance at a time would meet
first.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .fields import MAX_SEED, MAX_SIZE, Checked, ConfigError, build, setting
from .masks import FormatError, rle_decode, rle_encode, seeded_rng

DATASET_MAGIC = "mpseg-dataset"
DATASET_VERSION = 2
SHAPE_KINDS = ("rectangle", "disk")


@dataclass
class SynthConfig(Checked):
    height: int = setting(32, int, f"[4, {MAX_SIZE}]")
    width: int = setting(32, int, f"[4, {MAX_SIZE}]")
    num_categories: int = setting(4, int, f"[1, {MAX_SIZE}]")
    feat_dim: int = setting(32, int, f"[1, {MAX_SIZE}]")
    shape_kinds: tuple = setting(SHAPE_KINDS, str, SHAPE_KINDS, many=True, length="[1, inf)")
    instance_range: tuple = setting((2, 6), int, f"[1, {MAX_SIZE}]", many=True,
                                    length="[2, 2]", order="<=")
    size_range: tuple = setting((4, 10), int, f"[1, {MAX_SIZE}]", many=True,
                                length="[2, 2]", order="<=")
    noise_sigma: float = setting(0.25, float, "[0, inf)")
    seed: int = setting(0, int, f"[0, {MAX_SEED}]")

    def __post_init__(self):
        super().__post_init__()
        if self.height % 4 or self.width % 4:
            # the decoder pools the feature grid 2x2 twice for its coarse scales;
            # a rule over two fields names both in full, and build adds no prefix to it
            raise ConfigError(f"synth.height and synth.width must be multiples of 4 for the "
                              f"3-scale pyramid, got {self.height}x{self.width}")
        if self.feat_dim < self.num_categories + 1:
            raise ConfigError(f"feat_dim {self.feat_dim} is too small for "
                              f"{self.num_categories} categories + background")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SynthConfig":
        return build(cls, json.loads(text), require_all=True)


@dataclass
class Scene:
    """Instance j has category categories[j] and mask masks[j]."""
    index: int
    categories: np.ndarray  # (n,) intp
    masks: np.ndarray       # (n, H, W) bool

    def __post_init__(self):
        self.categories = np.asarray(self.categories, dtype=np.intp)
        self.masks = np.asarray(self.masks, dtype=bool)

    @property
    def num_instances(self) -> int:
        return len(self.categories)

    def category_grid(self, background_id: int) -> np.ndarray:
        grid = np.full(self.masks.shape[1:], background_id, dtype=np.intp)
        for cat, mask in zip(self.categories, self.masks):
            grid[mask] = cat
        return grid

    def __eq__(self, other):
        return (isinstance(other, Scene) and self.index == other.index
                and np.array_equal(self.categories, other.categories)
                and np.array_equal(self.masks, other.masks))


def _shape_mask(rng, kind: str, h: int, w: int, size_range) -> np.ndarray:
    lo, hi = size_range
    if kind == "rectangle":
        sh = int(rng.integers(lo, hi + 1))
        sw = int(rng.integers(lo, hi + 1))
        r = int(rng.integers(0, max(1, h - sh + 1)))
        c = int(rng.integers(0, max(1, w - sw + 1)))
        bits = np.zeros((h, w), dtype=bool)
        bits[r:r + sh, c:c + sw] = True
        return bits
    if kind == "disk":
        radius = int(rng.integers(max(1, lo // 2), max(2, hi // 2) + 1))
        cy = int(rng.integers(radius, max(radius + 1, h - radius)))
        cx = int(rng.integers(radius, max(radius + 1, w - radius)))
        return (np.arange(h)[:, None] - cy) ** 2 + (np.arange(w) - cx) ** 2 <= radius ** 2
    raise ValueError(f"unknown shape kind {kind!r}")


def generate_scene(cfg: SynthConfig, index: int) -> Scene:
    """Deterministic in (cfg.seed, index); rejection-samples disjoint shapes."""
    rng = seeded_rng([cfg.seed, index])
    n = int(rng.integers(cfg.instance_range[0], cfg.instance_range[1] + 1))
    occupied = np.zeros((cfg.height, cfg.width), dtype=bool)
    cats, masks = [], []
    for _ in range(n):
        cat = int(rng.integers(0, cfg.num_categories))
        for attempt in range(1000):
            kind = cfg.shape_kinds[int(rng.integers(0, len(cfg.shape_kinds)))]
            bits = _shape_mask(rng, kind, cfg.height, cfg.width, cfg.size_range)
            if bits.any() and not (bits & occupied).any():
                break
        else:
            raise ConfigError(f"could not place instance after 1000 attempts "
                              f"(scene index {index})")
        occupied |= bits
        cats.append(cat)
        masks.append(bits)
    return Scene(index=index, categories=cats, masks=np.stack(masks))


def synth_features(scene: Scene, cfg: SynthConfig) -> np.ndarray:
    """The scene's (H, W, d) float64 feature grid, C-contiguous:
    one-hot(category at pixel) + N(0, sigma^2 I). It is the finest scale
    the decoder attends to and its embedding grid."""
    rng = seeded_rng([cfg.seed, scene.index, 1])
    grid = np.eye(cfg.feat_dim)[scene.category_grid(background_id=cfg.num_categories)]
    if cfg.noise_sigma > 0:
        grid = grid + cfg.noise_sigma * rng.standard_normal(grid.shape)
    return grid


def save_dataset(path, scenes, cfg: SynthConfig):
    lines = [f"{DATASET_MAGIC} {DATASET_VERSION} {len(scenes)} {cfg.to_json()}"]
    for scene in scenes:
        parts = []
        for cat, mask in zip(scene.categories, scene.masks):
            parts.append(f"{cat}:{','.join(str(r) for r in rle_encode(mask))}")
        lines.append(f"scene {scene.index} {' '.join(parts)}")
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(data)
    return data


def load_dataset(path):
    """Returns (scenes, SynthConfig). A file that does not parse as a
    dataset (an empty instance mask among them), holds another number of
    scenes than its header says, or gives a scene a negative or repeated
    index or one above MAX_SEED (the index is a seed word) raises
    FormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data and not data.endswith(b"\n"):
        raise FormatError(f"{path}: truncated dataset (no newline at the end)")
    try:
        return _parse_dataset(path, data.decode("ascii").splitlines())
    except FormatError:
        raise
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise FormatError(f"{path}: malformed dataset ({exc})") from exc


def _parse_dataset(path, lines):
    if not lines:
        raise FormatError(f"{path}: empty dataset file")
    magic, version, rest = lines[0].split(" ", 2)
    if magic != DATASET_MAGIC:
        raise FormatError(f"{path}: not a dataset file (header {magic!r})")
    if int(version) != DATASET_VERSION:
        raise FormatError(f"{path}: schema version {version} "
                          f"(supported: {DATASET_VERSION})")
    count, cfg_json = rest.split(" ", 1)
    count = int(count)
    cfg = SynthConfig.from_json(cfg_json)
    scenes, indices = [], set()
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = line.split(" ")
        if fields[0] != "scene":
            raise ValueError(f"bad scene line {line[:40]!r}")
        index = int(fields[1])
        # features are seeded by the index, a seed word, and training keys them by it
        if index < 0 or index in indices:
            raise FormatError(f"{path}: scene index {index} is "
                              f"{'negative' if index < 0 else 'repeated'}")
        if index > MAX_SEED:
            raise FormatError(f"{path}: scene index {index} is above {MAX_SEED}")
        indices.add(index)
        if len(fields) < 3:  # generate_scene places at least one instance
            raise ValueError(f"scene {index} has no instances")
        cats, runs = [], []
        try:
            for k, part in enumerate(fields[2:]):
                cat_s, runs_s = part.split(":")
                cat = int(cat_s)
                if not 0 <= cat < cfg.num_categories:
                    raise ValueError(f"scene {index}: category {cat} out of range")
                cats.append(cat)
                runs.append(list(map(int, runs_s.split(","))))
                # MP's mask noise needs a pixel (generate_scene places one in each instance)
                if not any(runs[-1][1::2]):
                    raise ValueError(f"scene {index}: instance {k} has an empty mask")
        except ValueError:
            # faults are reported in reading order, in which an instance's
            # run lengths come before its emptiness: check those read so far
            rle_decode(runs, cfg.height, cfg.width)
            raise
        scenes.append(Scene(index=index, categories=cats,
                            masks=rle_decode(runs, cfg.height, cfg.width)))
    if len(scenes) != count:
        raise FormatError(f"{path}: header says {count} scenes, the file holds "
                          f"{len(scenes)}")
    return scenes, cfg
