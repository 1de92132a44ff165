"""Run configuration: JSON file in, validated dataclasses out.

Every command echoes its fully-resolved configuration into the output
directory so runs can be reproduced from artifacts alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .losses import MODES, LossWeights
from .mp import MPConfig
from .synth import SynthConfig


class ConfigError(ValueError):
    pass


VARIANTS = ("baseline", "mp-first-layer", "mp-first-3", "mp-all-layers",
            "mp-all+noises", "naive-fixed-matching", "naive-aux-loss")


@dataclass
class TrainSettings:
    steps: int = 1000
    lr: float = 1e-4
    decay_points: tuple = (800, 950)
    decay_factor: float = 0.1
    weight_decay: float = 0.05
    holdout_frac: float = 0.2
    log_every: int = 10


@dataclass
class ModelSettings:
    n_queries: int = 20
    num_layers: int = 9
    dim: int = 32
    ffn_hidden: int = 64


@dataclass
class RunConfig:
    synth: SynthConfig
    dataset_path: str = None
    num_scenes: int = 200
    model: ModelSettings = field(default_factory=ModelSettings)
    loss: LossWeights = field(default_factory=LossWeights)
    loss_mode: str = "per-layer-bipartite"
    mp: MPConfig = field(default_factory=MPConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    variant: str = "baseline"
    seed: int = 0
    out_dir: str = "run-out"

    def to_json(self) -> str:
        d = {
            "synth": json.loads(self.synth.to_json()),
            "dataset_path": self.dataset_path,
            "num_scenes": self.num_scenes,
            "model": self.model.__dict__,
            "loss": self.loss.__dict__,
            "loss_mode": self.loss_mode,
            "mp": {**self.mp.__dict__,
                   "mp_layers": list(self.mp.mp_layers) if self.mp.mp_layers else None,
                   "scale_range": list(self.mp.scale_range)},
            "train": {**self.train.__dict__,
                      "decay_points": list(self.train.decay_points)},
            "variant": self.variant,
            "seed": self.seed,
            "out_dir": self.out_dir,
        }
        return json.dumps(d, sort_keys=True, indent=1)


def _build(cls, d: dict, what: str):
    try:
        return cls(**d)
    except TypeError as exc:
        raise ConfigError(f"bad {what} section: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad {what} section: {exc}") from exc


def parse_synth(raw: dict) -> SynthConfig:
    """The "synth" section of a config file."""
    synth_d = dict(raw.get("synth", {}))
    for key in ("shape_kinds", "instance_range", "size_range"):
        if key in synth_d:
            synth_d[key] = tuple(synth_d[key])
    return _build(SynthConfig, synth_d, "synth")


def parse_run_config(raw: dict) -> RunConfig:
    synth = parse_synth(raw)
    model = _build(ModelSettings, dict(raw.get("model", {})), "model")
    loss_d = dict(raw.get("loss", {}))
    loss_mode = loss_d.pop("mode", raw.get("loss_mode", "per-layer-bipartite"))
    loss = _build(LossWeights, loss_d, "loss")

    mp_d = dict(raw.get("mp", {}))
    if mp_d.get("mp_layers") is not None:
        mp_d["mp_layers"] = tuple(mp_d["mp_layers"])
    if "scale_range" in mp_d:
        mp_d["scale_range"] = tuple(mp_d["scale_range"])
    mp = _build(MPConfig, mp_d, "mp")

    train_d = dict(raw.get("train", {}))
    if "decay_points" in train_d:
        train_d["decay_points"] = tuple(train_d["decay_points"])
    train = _build(TrainSettings, train_d, "train")

    cfg = RunConfig(synth=synth, dataset_path=raw.get("dataset_path"),
                    num_scenes=int(raw.get("num_scenes", 200)),
                    model=model, loss=loss, loss_mode=loss_mode, mp=mp, train=train,
                    variant=raw.get("variant", "baseline"),
                    seed=int(raw.get("seed", 0)),
                    out_dir=raw.get("out_dir", "run-out"))
    validate_run_config(cfg, raw)
    return cfg


def validate_run_config(cfg: RunConfig, raw: dict | None = None):
    if cfg.variant not in VARIANTS:
        raise ConfigError(f"unknown variant {cfg.variant!r} (choose from {VARIANTS})")
    if cfg.loss_mode not in MODES:
        raise ConfigError(f"unknown loss_mode {cfg.loss_mode!r}")
    if cfg.train.steps < 1:
        raise ConfigError("train.steps must be >= 1")
    dp = cfg.train.decay_points
    if any(b <= a for a, b in zip(dp, dp[1:])):
        raise ConfigError(f"decay_points must be strictly increasing, got {dp}")
    if cfg.model.dim != cfg.synth.feat_dim:
        raise ConfigError(f"model.dim ({cfg.model.dim}) must equal "
                          f"synth.feat_dim ({cfg.synth.feat_dim})")
    if cfg.mp.mp_layers is not None:
        bad = [l for l in cfg.mp.mp_layers if not 1 <= l <= cfg.model.num_layers]
        if bad:
            raise ConfigError(f"mp_layers entries out of range [1,{cfg.model.num_layers}]: {bad}")
    if not 0.0 <= cfg.train.holdout_frac < 1.0:
        raise ConfigError("train.holdout_frac must be in [0, 1)")
    raw_mp = (raw or {}).get("mp", {})
    if cfg.variant.startswith("mp-") and raw_mp.get("enabled") is False:
        raise ConfigError(f"variant {cfg.variant!r} requires the MP part, but "
                          f"mp.enabled is false in the config")


def apply_variant(cfg: RunConfig) -> RunConfig:
    """Resolve the variant into concrete MP/loss settings (in place)."""
    v = cfg.variant
    if v == "baseline":
        cfg.mp.enabled = False
        cfg.loss_mode = "per-layer-bipartite"
    elif v == "naive-fixed-matching":
        cfg.mp.enabled = False
        cfg.loss_mode = "fixed-last-layer"
    elif v == "naive-aux-loss":
        cfg.mp.enabled = False
        cfg.loss_mode = "consistency-aux"
    else:
        cfg.mp.enabled = True
        cfg.loss_mode = "per-layer-bipartite"
        if v == "mp-first-layer":
            cfg.mp.mp_layers = (1,)
            cfg.mp.noise_kind = "none"
            cfg.mp.lambda_label = 0.0
        elif v == "mp-first-3":
            cfg.mp.mp_layers = tuple(range(1, min(3, cfg.model.num_layers) + 1))
            cfg.mp.noise_kind = "none"
            cfg.mp.lambda_label = 0.0
        elif v == "mp-all-layers":
            cfg.mp.mp_layers = None
            cfg.mp.noise_kind = "none"
            cfg.mp.lambda_label = 0.0
        elif v == "mp-all+noises":
            cfg.mp.mp_layers = None
            cfg.mp.noise_kind = "point"
    return cfg


def load_config_json(path) -> dict:
    """The top-level JSON object of a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON object expected")
    return raw
