"""Run configuration: JSON file in, validated dataclasses out.

A variant is a preset. VARIANTS maps each variant to whether the MP part
is on, the loss mode, and an MP preset that holds only the MP keys the
variant changes. parse_run_config builds the "mp" section from the preset
with the file's explicit keys on top, so an explicit key always wins and
the RunConfig it returns is final.

The variant owns two keys, loss_mode and mp.enabled. A config file may
repeat them with the values the variant gives them (config-resolved.json
does, so it can be fed back in); any other value is a ConfigError. So is
a key that no section or RunConfig field names.

Every command echoes its fully-resolved configuration into the output
directory so runs can be reproduced from artifacts alone.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .losses import LossWeights
from .mp import MPConfig
from .synth import SynthConfig


class ConfigError(ValueError):
    pass


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
        d = {**dataclasses.asdict(self), "synth": json.loads(self.synth.to_json())}
        return json.dumps(d, sort_keys=True, indent=1)


def check_keys(raw: dict, allowed):
    """Reject top-level keys of a config file outside `allowed`."""
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown top-level keys {unknown} (allowed: {sorted(allowed)})")


# (Python type of a field's default, test of a JSON value, what it must be)
_JSON_KINDS = (
    (bool, lambda v: isinstance(v, bool), "true or false", "booleans"),
    (int, lambda v: type(v) is int, "an integer", "integers"),
    (float, lambda v: type(v) in (int, float), "a number", "numbers"),
    (str, lambda v: isinstance(v, str), "a string", "strings"),
)
# a default that stands for the JSON values a field defaulting to None takes
# besides null, by the field's annotation; other such fields are unchecked
_NONE_DEFAULT_KINDS = {"tuple": (0,), "str": ""}


def _json_kind(default):
    """(test, description) of the JSON values a field with this default
    takes, or None when the field is not checked here."""
    for py_type, test, one, many in _JSON_KINDS:
        if isinstance(default, py_type):
            return test, one
        if isinstance(default, tuple) and default and isinstance(default[0], py_type):
            return (lambda v: isinstance(v, list) and all(map(test, v))), f"a list of {many}"
    return None


def _check_json_types(cls, d: dict, prefix: str = ""):
    """Reject a value in `d` whose JSON type differs from that of the
    default of the cls field it sets. A field defaulting to None also
    takes null."""
    for f in dataclasses.fields(cls):
        if f.name not in d or f.default is dataclasses.MISSING:
            continue
        value, default = d[f.name], f.default
        if default is None:
            if value is None:
                continue
            default = _NONE_DEFAULT_KINDS.get(f.type)
        kind = _json_kind(default)
        if kind is not None and not kind[0](value):
            null = " or null" if f.default is None else ""
            raise ConfigError(f"{prefix}{f.name} must be {kind[1]}{null}, got {value!r}")


def _section(cls, raw: dict, what: str, preset=None):
    """cls built from `preset` with the raw[what] keys on top; every value
    must have its field's JSON type, and every JSON list becomes a tuple."""
    d = raw.get(what, {})
    if not isinstance(d, dict):
        raise ConfigError(f"the {what} section must be a JSON object")
    _check_json_types(cls, d, f"{what}.")
    d = {**(preset or {}), **d}
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad {what} section: {exc}") from exc


def parse_synth(raw: dict) -> SynthConfig:
    """The "synth" section of a config file."""
    return _section(SynthConfig, raw, "synth")


def parse_run_config(raw: dict) -> RunConfig:
    check_keys(raw, [f.name for f in dataclasses.fields(RunConfig)])
    _check_json_types(RunConfig, raw)
    variant = raw.get("variant", RunConfig.variant)
    if not isinstance(variant, str) or variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r} (choose from {tuple(VARIANTS)})")
    mp_on, loss_mode, preset = VARIANTS[variant]
    mp = _section(MPConfig, raw, "mp", {**preset, "enabled": mp_on})
    given_mode = raw.get("loss_mode", loss_mode)
    if given_mode != loss_mode or mp.enabled is not mp_on:
        raise ConfigError(
            f"variant {variant!r} sets loss_mode {loss_mode!r} and mp.enabled "
            f"{json.dumps(mp_on)}; the config gives {given_mode!r} and "
            f"{json.dumps(mp.enabled)}")
    cfg = RunConfig(**{**raw, "loss_mode": loss_mode, "mp": mp,
                       "synth": parse_synth(raw),
                       "model": _section(ModelSettings, raw, "model"),
                       "loss": _section(LossWeights, raw, "loss"),
                       "train": _section(TrainSettings, raw, "train")})
    validate_run_config(cfg)
    return cfg


def check_int(name: str, value, low: int):
    """Reject a value that is not an integer >= low; nothing is coerced."""
    if type(value) is not int or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def validate_run_config(cfg: RunConfig):
    check_int("seed", cfg.seed, 0)
    for name, value in (("num_scenes", cfg.num_scenes), ("train.steps", cfg.train.steps),
                        ("train.log_every", cfg.train.log_every),
                        ("model.n_queries", cfg.model.n_queries),
                        ("model.num_layers", cfg.model.num_layers),
                        ("model.ffn_hidden", cfg.model.ffn_hidden)):
        check_int(name, value, 1)
    dp = cfg.train.decay_points
    if any(b <= a for a, b in zip(dp, dp[1:])):
        raise ConfigError(f"decay_points must be strictly increasing, got {dp}")
    if cfg.model.dim != cfg.synth.feat_dim:
        raise ConfigError(f"model.dim ({cfg.model.dim}) must equal "
                          f"synth.feat_dim ({cfg.synth.feat_dim})")
    if cfg.mp.mp_layers is not None:
        bad = [l for l in cfg.mp.mp_layers
               if type(l) is not int or not 1 <= l <= cfg.model.num_layers]
        if bad:
            raise ConfigError(f"mp_layers entries must be integers in "
                              f"[1,{cfg.model.num_layers}]: {bad}")
    if not 0.0 <= cfg.train.holdout_frac < 1.0:
        raise ConfigError("train.holdout_frac must be in [0, 1)")
    for name, value in (("train.lr", cfg.train.lr),
                        ("train.decay_factor", cfg.train.decay_factor)):
        if not value > 0:
            raise ConfigError(f"{name} must be > 0, got {value!r}")
    non_negative = {"train.weight_decay": cfg.train.weight_decay,
                    **{f"loss.{k}": v for k, v in dataclasses.asdict(cfg.loss).items()}}
    for name, value in non_negative.items():
        if not value >= 0:
            raise ConfigError(f"{name} must be >= 0, got {value!r}")


def apply_variant(cfg: RunConfig) -> RunConfig:
    """Returns cfg unchanged: parse_run_config already resolves the
    variant. Kept only for callers written against the old two-step API."""
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
