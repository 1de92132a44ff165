"""Run configuration: JSON file in, checked dataclasses out.

Every field of a config dataclass (the ones here, SynthConfig, MPConfig
and LossWeights) declares its domain next to it with fields.setting, and
construction checks it (fields.Checked), so a config built in Python is
held to the same domains as one read from a file. A rule relating two
fields is an explicit line in the __post_init__ of the class holding
both. Every JSON object comes in through one door, fields.build: config
sections, gen-data and refine-study configs and dataset headers.

A variant is a preset: VARIANTS maps it to whether the MP part is on, the
loss mode, and the MP keys it changes. parse_run_config puts the file's
explicit mp keys on top of the preset, so an explicit key wins. The
variant owns loss_mode and mp.enabled: RunConfig's __post_init__ holds
both to the variant's values, so a config built in Python obeys the same
rule as a file, which may repeat them (config-resolved.json does).
RunConfig() is the baseline, with MP off.

Every command echoes its fully-resolved configuration into the output
directory so runs can be reproduced from artifacts alone.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .fields import (MAX_HIDDEN, MAX_LAYERS, MAX_SEED, MAX_SIZE, Checked, ConfigError, build,
                     setting)
from .losses import MODES, LossWeights
from .mp import MPConfig
from .synth import SynthConfig

_NO_NOISE = {"noise_kind": "none", "lambda_label": 0.0}

# variant -> (MP on, loss mode, MP preset)
VARIANTS = {
    "baseline": (False, "per-layer-bipartite", {}),
    "mp-first-layer": (True, "per-layer-bipartite", {"mp_layers": (1,), **_NO_NOISE}),
    "mp-first-3": (True, "per-layer-bipartite", {"mp_layers": (1, 2, 3), **_NO_NOISE}),
    "mp-all-layers": (True, "per-layer-bipartite", _NO_NOISE),
    "mp-all+noises": (True, "per-layer-bipartite", {}),
    "naive-fixed-matching": (False, "fixed-last-layer", {}),
    "naive-aux-loss": (False, "consistency-aux", {}),
}


@dataclass
class TrainSettings(Checked):
    steps: int = setting(1000, int, "[1, inf)")
    lr: float = setting(1e-4, float, "(0, inf)")
    decay_points: tuple = setting((800, 950), int, "[0, inf)", many=True, order="<")
    decay_factor: float = setting(0.1, float, "(0, inf)")
    weight_decay: float = setting(0.05, float, "[0, inf)")
    holdout_frac: float = setting(0.2, float, "[0, 1)")
    log_every: int = setting(10, int, "[1, inf)")


@dataclass
class ModelSettings(Checked):
    n_queries: int = setting(20, int, f"[1, {MAX_SIZE}]")
    num_layers: int = setting(9, int, f"[1, {MAX_LAYERS}]")
    dim: int = setting(32, int, f"[1, {MAX_SIZE}]")
    ffn_hidden: int = setting(64, int, f"[1, {MAX_HIDDEN}]")


@dataclass
class RunConfig(Checked):
    synth: SynthConfig = setting(kind=SynthConfig, factory=SynthConfig)
    dataset_path: str = setting(None, str, nullable=True)
    num_scenes: int = setting(200, int, "[1, inf)")
    model: ModelSettings = setting(kind=ModelSettings, factory=ModelSettings)
    loss: LossWeights = setting(kind=LossWeights, factory=LossWeights)
    loss_mode: str = setting("per-layer-bipartite", str, MODES)
    mp: MPConfig = setting(kind=MPConfig, factory=lambda: MPConfig(enabled=False))
    train: TrainSettings = setting(kind=TrainSettings, factory=TrainSettings)
    variant: str = setting("baseline", str, tuple(VARIANTS))
    seed: int = setting(0, int, f"[0, {MAX_SEED}]")
    out_dir: str = setting("run-out", str)

    def __post_init__(self):
        super().__post_init__()
        # a dataset's own feat_dim is checked when training loads it
        if not self.dataset_path and self.model.dim != self.synth.feat_dim:
            raise ConfigError(f"model.dim ({self.model.dim}) must equal "
                              f"synth.feat_dim ({self.synth.feat_dim})")
        if any(l > self.model.num_layers for l in self.mp.mp_layers or ()):
            raise ConfigError(f"mp.mp_layers {list(self.mp.mp_layers)} must lie in "
                              f"[1, model.num_layers = {self.model.num_layers}]")
        mp_on, loss_mode, _ = VARIANTS[self.variant]
        if self.loss_mode != loss_mode or self.mp.enabled is not mp_on:
            raise ConfigError(
                f"variant {self.variant!r} sets loss_mode {loss_mode!r} and mp.enabled "
                f"{json.dumps(mp_on)}; the config gives {self.loss_mode!r} and "
                f"{json.dumps(self.mp.enabled)}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=1)


@dataclass
class GenDataConfig(Checked):
    synth: SynthConfig = setting(kind=SynthConfig, factory=SynthConfig)
    count: int = setting(200, int, "[1, inf)")
    out: str = setting(None, str, nullable=True)


@dataclass
class RefineStudyConfig(Checked):
    dim: int = setting(8, int, f"[1, {MAX_SIZE}]")
    sigmas: tuple = setting((0.0, 0.1, 0.25, 0.5), float, "[0, inf)", many=True)
    instances_per_sigma: int = setting(250, int, "[1, inf)")
    seed: int = setting(0, int, f"[0, {MAX_SEED}]")
    out: str = setting(None, str, nullable=True)


def parse_run_config(raw: dict) -> RunConfig:
    variant = raw.get("variant", RunConfig.variant)
    # an unknown variant is rejected by RunConfig's domain
    mp_on, loss_mode, preset = VARIANTS.get(str(variant), VARIANTS[RunConfig.variant])
    mp = raw.get("mp", {})
    if isinstance(mp, dict):
        mp = {**preset, "enabled": mp_on, **mp}
    return build(RunConfig, {"loss_mode": loss_mode, **raw, "mp": mp})


def apply_variant(cfg: RunConfig) -> RunConfig:
    """Returns cfg unchanged: parse_run_config already resolves the
    variant. It serves only bench/workloads.py and bench/make_checkpoint.py,
    which still call it, and goes with the next change to the benchmark."""
    return cfg


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text}")
    return value


def load_config_json(path) -> dict:
    """The top-level JSON object of a config file; NaN, Infinity and
    numbers too large for a float are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON object expected")
    return raw
