"""Synthetic segmentation scenes with a controllable category-prototype
feature model.

Each scene holds disjoint shape instances (rectangles / disks) with
category ids. Features are category prototypes plus Gaussian noise at
base resolution; coarser pyramid scales are 2x2 mean pools. Datasets
store only geometry (config + RLE masks); features are regenerated
deterministically from (config seed, scene index).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .fields import MAX_SIZE, Checked, ConfigError, build, setting
from .masks import BinaryMask, FormatError, rle_decode, rle_encode

DATASET_MAGIC = "mpseg-dataset"
DATASET_VERSION = 1
SHAPE_KINDS = ("rectangle", "disk")


class SchemaVersionError(FormatError):
    pass


class GenerationError(RuntimeError):
    pass


def basis_prototypes(num_categories: int, dim: int):
    """Orthonormal one-hot prototypes; index num_categories is background."""
    if dim < num_categories + 1:
        raise ValueError(f"feat_dim {dim} is too small for {num_categories} categories "
                         f"+ background")
    eye = np.eye(dim, dtype=np.float64)
    return eye[:num_categories].copy(), eye[num_categories].copy()


def random_unit_prototypes(num_categories: int, dim: int, seed: int):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    vecs = rng.standard_normal((num_categories + 1, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs[:num_categories].copy(), vecs[num_categories].copy()


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
    # both or neither; None = basis_prototypes
    prototypes: np.ndarray = setting(None, np.ndarray, nullable=True)
    background_proto: np.ndarray = setting(None, np.ndarray, nullable=True)
    noise_sigma: float = setting(0.25, float, "[0, inf)")
    seed: int = setting(0, int, "[0, inf)")

    def __post_init__(self):
        super().__post_init__()
        if self.height % 4 or self.width % 4:
            raise ConfigError(f"height and width must be multiples of 4 for the 3-scale "
                              f"pyramid, got {self.height}x{self.width}")
        if (self.prototypes is None) != (self.background_proto is None):
            raise ConfigError("prototypes and background_proto must be given together")
        if self.prototypes is None:
            self.prototypes, self.background_proto = basis_prototypes(
                self.num_categories, self.feat_dim)
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        self.background_proto = np.asarray(self.background_proto, dtype=np.float64)
        shapes = (self.prototypes.shape, self.background_proto.shape)
        want = ((self.num_categories, self.feat_dim), (self.feat_dim,))
        if shapes != want:
            raise ConfigError(f"prototypes and background_proto shapes {shapes} != {want}")
        for i in range(self.num_categories):
            for j in range(i + 1, self.num_categories):
                if np.array_equal(self.prototypes[i], self.prototypes[j]):
                    raise ConfigError(f"prototypes {i} and {j} are identical")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, default=np.ndarray.tolist)

    @classmethod
    def from_json(cls, text: str) -> "SynthConfig":
        return build(cls, json.loads(text), require_all=True)


@dataclass
class Scene:
    index: int
    height: int
    width: int
    instances: list = field(default_factory=list)  # [(category_id, BinaryMask)]

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    def category_grid(self, background_id: int) -> np.ndarray:
        grid = np.full((self.height, self.width), background_id, dtype=np.intp)
        for cat, mask in self.instances:
            grid[mask.bits] = cat
        return grid

    def __eq__(self, other):
        return (isinstance(other, Scene) and self.index == other.index
                and self.height == other.height and self.width == other.width
                and len(self.instances) == len(other.instances)
                and all(c1 == c2 and m1 == m2 for (c1, m1), (c2, m2)
                        in zip(self.instances, other.instances)))


@dataclass
class FeaturePyramid:
    scales: list          # coarse -> fine, each (H_s, W_s, d) float64
    embed: np.ndarray     # (H, W, d) per-pixel embedding grid (base scale)


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
        rr, cc = np.mgrid[0:h, 0:w]
        return (rr - cy) ** 2 + (cc - cx) ** 2 <= radius ** 2
    raise ValueError(f"unknown shape kind {kind!r}")


def generate_scene(cfg: SynthConfig, index: int) -> Scene:
    """Deterministic in (cfg.seed, index); rejection-samples disjoint shapes."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, index])))
    n = int(rng.integers(cfg.instance_range[0], cfg.instance_range[1] + 1))
    occupied = np.zeros((cfg.height, cfg.width), dtype=bool)
    instances = []
    for _ in range(n):
        cat = int(rng.integers(0, cfg.num_categories))
        for attempt in range(1000):
            kind = cfg.shape_kinds[int(rng.integers(0, len(cfg.shape_kinds)))]
            bits = _shape_mask(rng, kind, cfg.height, cfg.width, cfg.size_range)
            if bits.any() and not (bits & occupied).any():
                break
        else:
            raise GenerationError(f"could not place instance after 1000 attempts "
                                  f"(scene index {index})")
        occupied |= bits
        instances.append((cat, BinaryMask(bits)))
    return Scene(index=index, height=cfg.height, width=cfg.width, instances=instances)


def _pool2x2(grid: np.ndarray) -> np.ndarray:
    h, w, d = grid.shape
    return grid.reshape(h // 2, 2, w // 2, 2, d).mean(axis=(1, 3))


def pyramid_extents(height: int, width: int) -> list:
    """(h, w) of each scale synth_features builds, coarse to fine."""
    return [(height // 4, width // 4), (height // 2, width // 2), (height, width)]


def synth_features(scene: Scene, cfg: SynthConfig) -> FeaturePyramid:
    """Base features = prototype(category at pixel) + N(0, sigma^2 I);
    coarser scales by successive 2x2 mean pooling; embedding grid = base."""
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([cfg.seed, scene.index, 1])))
    protos = np.vstack([cfg.prototypes, cfg.background_proto[None, :]])
    grid = scene.category_grid(background_id=cfg.num_categories)
    base = protos[grid]
    if cfg.noise_sigma > 0:
        base = base + cfg.noise_sigma * rng.standard_normal(base.shape)
    half = _pool2x2(base)
    quarter = _pool2x2(half)
    return FeaturePyramid(scales=[quarter, half, base], embed=base)


def save_dataset(path, scenes, cfg: SynthConfig):
    lines = [f"{DATASET_MAGIC} {DATASET_VERSION} {cfg.to_json()}"]
    for scene in scenes:
        parts = []
        for cat, mask in scene.instances:
            parts.append(f"{cat}:{','.join(str(r) for r in rle_encode(mask))}")
        lines.append(f"scene {scene.index} {' '.join(parts)}")
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(data)
    return data


def load_dataset(path):
    """Returns (scenes, SynthConfig). A file that does not parse as a
    dataset raises FormatError (SchemaVersionError for a foreign header)."""
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
        raise SchemaVersionError(f"{path}: empty dataset file")
    magic, version, cfg_json = lines[0].split(" ", 2)
    if magic != DATASET_MAGIC:
        raise SchemaVersionError(f"{path}: not a dataset file (header {magic!r})")
    if int(version) != DATASET_VERSION:
        raise SchemaVersionError(f"{path}: schema version {version} "
                                 f"(supported: {DATASET_VERSION})")
    cfg = SynthConfig.from_json(cfg_json)
    scenes = []
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = line.split(" ")
        if fields[0] != "scene":
            raise ValueError(f"bad scene line {line[:40]!r}")
        index = int(fields[1])
        if len(fields) < 3:  # generate_scene places at least one instance
            raise ValueError(f"scene {index} has no instances")
        instances = []
        for part in fields[2:]:
            cat_s, runs_s = part.split(":")
            cat = int(cat_s)
            if not 0 <= cat < cfg.num_categories:
                raise ValueError(f"scene {index}: category {cat} out of range")
            runs = [int(x) for x in runs_s.split(",")]
            instances.append((cat, rle_decode(runs, cfg.height, cfg.width)))
        scenes.append(Scene(index=index, height=cfg.height, width=cfg.width,
                            instances=instances))
    return scenes, cfg
