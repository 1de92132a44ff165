import json
import re

import pytest

from mpseg.config import (VARIANTS, ConfigError, GenDataConfig, RefineStudyConfig, RunConfig,
                          build, parse_run_config)
from mpseg.metrics import config_hash
from mpseg.mp import MPConfig
from mpseg.synth import SynthConfig

# What each variant resolved to when variants were applied as overrides
# after parsing: (mp.enabled, loss_mode, mp_layers, noise_kind, lambda_label).
RESOLVED = {
    "baseline": (False, "per-layer-bipartite", None, "point", 0.2),
    "mp-first-layer": (True, "per-layer-bipartite", (1,), "none", 0.0),
    "mp-first-3": (True, "per-layer-bipartite", (1, 2, 3), "none", 0.0),
    "mp-all-layers": (True, "per-layer-bipartite", None, "none", 0.0),
    "mp-all+noises": (True, "per-layer-bipartite", None, "point", 0.2),
    "naive-fixed-matching": (False, "fixed-last-layer", None, "point", 0.2),
    "naive-aux-loss": (False, "consistency-aux", None, "point", 0.2),
}
MP_VARIANTS = [v for v in RESOLVED if RESOLVED[v][0]]


def resolved(cfg):
    return (cfg.mp.enabled, cfg.loss_mode, cfg.mp.mp_layers, cfg.mp.noise_kind,
            cfg.mp.lambda_label)


def test_variant_table_holds_the_pinned_variants():
    assert sorted(VARIANTS) == sorted(RESOLVED)


@pytest.mark.parametrize("variant", sorted(RESOLVED))
def test_variant_resolves_as_pinned(variant):
    assert resolved(parse_run_config({"variant": variant})) == RESOLVED[variant]


def test_default_config_json_is_stable():
    # config_hash of the default config, as written into every report
    assert config_hash(parse_run_config({}).to_json()) == "d14052aaf4bd1e06"


@pytest.mark.parametrize("mp", [{"noise_kind": "shift"}, {"noise_kind": "scale"},
                                {"mp_layers": [2, 4]}, {"lambda_label": 0.5}],
                         ids=["shift", "scale", "mp_layers", "lambda_label"])
@pytest.mark.parametrize("variant", MP_VARIANTS)
def test_explicit_mp_keys_win_over_the_preset(variant, mp):
    expected = dict(zip(("mp_layers", "noise_kind", "lambda_label"),
                        RESOLVED[variant][2:]))
    expected.update({k: tuple(v) if isinstance(v, list) else v for k, v in mp.items()})
    cfg = parse_run_config({"variant": variant, "mp": mp})
    assert {k: getattr(cfg.mp, k) for k in expected} == expected
    assert cfg.mp.enabled is True


def test_variant_owned_keys_that_agree_are_accepted():
    cfg = parse_run_config({"variant": "naive-aux-loss", "loss_mode": "consistency-aux",
                            "mp": {"enabled": False}})
    assert resolved(cfg) == RESOLVED["naive-aux-loss"]


@pytest.mark.parametrize("raw", [
    {"loss_mode": "consistency-aux"},
    {"variant": "naive-aux-loss", "loss_mode": "per-layer-bipartite"},
    {"variant": "mp-all+noises", "mp": {"enabled": False}},
    {"mp": {"enabled": True}},
], ids=["loss_mode", "loss_mode-naive", "enabled-off", "enabled-on"])
def test_variant_owned_key_that_disagrees_names_the_variant(raw):
    variant = raw.get("variant", "baseline")
    with pytest.raises(ConfigError, match=re.escape(f"variant {variant!r}")):
        parse_run_config(raw)


@pytest.mark.parametrize("raw", [
    {"loss": {"mode": "fixed-last-layer"}},
    {"bogus": 1},
    {"variant": "mp-first-3", "model": {"num_layers": 2}},
    {"variant": "mp-everything"},
    {"variant": ["baseline"]},
    {"mp": [1]},
    {"mp": {"mp_layers": ["a"]}},
    {"num_scenes": 0},
    {"num_scenes": 2.5},
    {"train": {"log_every": 0}},
    {"train": {"steps": 0}},
    {"seed": "abc"},
    {"seed": -1},
    {"model": {"n_queries": 0}},
    {"model": {"num_layers": 0}},
    {"model": {"ffn_hidden": 0}},
    {"synth": {"noise_sigma": float("nan")}},
    # prototypes and background_proto are no longer keys: unknown, whatever the value
    {"synth": {"prototypes": [[1.0, 0.0]] * 4}},
    {"synth": {"background_proto": "x"}},
    {"train": {"decay_points": [-1, 5]}},
], ids=["loss.mode", "unknown-key", "mp-first-3-on-2-layers", "unknown-variant",
        "variant-list", "mp-not-object", "mp_layers-str",
        "num_scenes-0", "num_scenes-float", "log_every-0", "steps-0",
        "seed-str", "seed-negative", "n_queries-0", "num_layers-0", "ffn_hidden-0",
        "noise_sigma-nan", "prototypes-alone", "background_proto-alone",
        "decay_points-negative"])
def test_rejected(raw):
    with pytest.raises(ConfigError):
        parse_run_config(raw)


def test_model_dim_must_equal_synth_feat_dim_only_without_a_dataset():
    with pytest.raises(ConfigError, match=r"model.dim \(16\) must equal synth.feat_dim \(32\)"):
        parse_run_config({"model": {"dim": 16}})
    # the dataset's own synth config sets the feature dim; training checks it
    assert parse_run_config({"dataset_path": "data.txt", "model": {"dim": 16}}).model.dim == 16


WRONG_TYPES = {
    "holdout_frac-str": ({"train": {"holdout_frac": "x"}}, "train.holdout_frac must be a number"),
    "decay_points-str": ({"train": {"decay_points": [1, "a"]}},
                         "train.decay_points must be a list of integers"),
    "mp_layers-int": ({"mp": {"mp_layers": 3}}, "mp.mp_layers must be a list of integers or null"),
    "lr-str": ({"train": {"lr": "x"}}, "train.lr must be a number"),
    "enabled-int": ({"mp": {"enabled": 1}}, "mp.enabled must be true or false"),
    "steps-bool": ({"train": {"steps": True}}, "train.steps must be an integer"),
    "shape_kinds-int": ({"synth": {"shape_kinds": [1]}}, "synth.shape_kinds must be a list of strings"),
    "dataset_path-int": ({"dataset_path": 3}, "dataset_path must be a string or null"),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_value_of_the_wrong_json_type_is_rejected(case):
    raw, message = WRONG_TYPES[case]
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_run_config(raw)


@pytest.mark.parametrize("raw", [{"train": {"lr": 1}}, {"mp": {"scale_range": [1, 1.5]}},
                                 {"mp": {"mp_layers": None}}, {"mp": {"mp_layers": [2]}},
                                 {"dataset_path": None}],
                         ids=["int-for-float", "ints-for-floats", "null", "list", "path-null"])
def test_values_of_the_right_json_type_are_accepted(raw):
    parse_run_config(raw)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_to_json_round_trips(variant):
    cfg = parse_run_config({"variant": variant, "seed": 4})
    assert parse_run_config(json.loads(cfg.to_json())).to_json() == cfg.to_json()


@pytest.mark.parametrize("make", [lambda: SynthConfig(noise_sigma=float("nan")),
                                  lambda: MPConfig(n_q=257),
                                  lambda: MPConfig(mp_layers=(0,))],
                         ids=["noise_sigma-nan", "n_q-above-cap", "mp_layers-0"])
def test_a_config_built_in_python_is_checked_as_one_from_a_file(make):
    with pytest.raises(ConfigError):
        make()


def test_the_default_run_config_is_the_baseline_with_mp_off():
    cfg = RunConfig()
    assert (cfg.variant, cfg.mp.enabled) == ("baseline", False)
    assert cfg.to_json() == parse_run_config({}).to_json()


@pytest.mark.parametrize("variant", [v for v in sorted(VARIANTS) if v != "baseline"])
def test_a_python_config_without_its_variants_preset_is_rejected(variant):
    mp_on, loss_mode, _ = VARIANTS[variant]
    message = (f"variant {variant!r} sets loss_mode {loss_mode!r} and mp.enabled "
               f"{json.dumps(mp_on)}; the config gives 'per-layer-bipartite' and false")
    with pytest.raises(ConfigError) as info:
        RunConfig(variant=variant)
    assert str(info.value) == message
    # a file config that contradicts its variant the same way prints the same line
    with pytest.raises(ConfigError) as info:
        parse_run_config({"variant": variant, "loss_mode": "per-layer-bipartite",
                          "mp": {"enabled": False}})
    assert str(info.value) == message
    RunConfig(variant=variant, loss_mode=loss_mode, mp=MPConfig(enabled=mp_on))


@pytest.mark.parametrize("make", [
    lambda seed: parse_run_config({"seed": seed}),
    lambda seed: parse_run_config({"synth": {"seed": seed}}),
    lambda seed: build(GenDataConfig, {"synth": {"seed": seed}}),
    lambda seed: build(RefineStudyConfig, {"seed": seed})],
    ids=["seed", "synth.seed", "gen-data-synth.seed", "refine-study-seed"])
def test_every_config_seed_is_one_32_bit_word(make):
    make(2**32 - 1)
    with pytest.raises(ConfigError, match=re.escape("seed must be an integer in "
                                                    "[0, 4294967295], got 4294967296")):
        make(2**32)
