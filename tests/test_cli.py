import json
from pathlib import Path

import numpy as np
import pytest

from mpseg import cli, gradcheck, mp, trainer
from mpseg.decoder import init_params, save_checkpoint
from mpseg.synth import SynthConfig, generate_scene, save_dataset
from mpseg.tensor import Tensor


@pytest.fixture
def artifacts(tmp_path):
    params = init_params(seed=0, n_queries=2, n_layers=1, dim=8, num_categories=2,
                         ffn_hidden=4)
    ckpt = tmp_path / "checkpoint.bin"
    save_checkpoint(ckpt, params)
    cfg = SynthConfig(height=8, width=8, num_categories=2, feat_dim=8,
                      instance_range=(1, 2), size_range=(2, 3))
    data = tmp_path / "data.txt"
    save_dataset(data, [generate_scene(cfg, i) for i in range(2)], cfg)
    return ckpt, data


def run_eval(ckpt, data):
    return cli.main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data)])


def test_eval_ok(artifacts, capsys):
    assert run_eval(*artifacts) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("which", [0, 1], ids=["checkpoint", "dataset"])
def test_eval_truncated_file_exits_io_with_one_line(artifacts, capsys, which):
    path = artifacts[which]
    path.write_bytes(path.read_bytes()[:300])
    assert run_eval(*artifacts) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("format error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["[1]", "{", "\xff"], ids=["array", "cut", "not-utf8"])
def test_gen_data_config_that_is_no_json_object_exits_config(tmp_path, capsys, text):
    config = tmp_path / "gen.json"
    config.write_bytes(text.encode("latin-1"))
    out = tmp_path / "data.txt"
    assert cli.main(["gen-data", "--config", str(config), "--out", str(out)]) \
        == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


SMALL_RUN = {"synth": {"height": 8, "width": 8, "feat_dim": 8, "instance_range": [1, 2],
                       "size_range": [2, 3]},
             "model": {"n_queries": 3, "num_layers": 2, "dim": 8, "ffn_hidden": 4},
             "num_scenes": 3, "train": {"steps": 2}}


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def run_train(config, out, *extra):
    return cli.main(["train", "--config", config, "--out", str(out), *extra])


def assert_one_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


def test_train_variant_flag_applies_its_preset_under_explicit_keys(tmp_path):
    config = write_config(tmp_path, {**SMALL_RUN, "variant": "mp-all+noises",
                                     "mp": {"noise_kind": "shift"}})
    assert run_train(config, tmp_path / "run", "--variant", "mp-first-layer") == cli.EXIT_OK
    resolved = json.loads((tmp_path / "run" / "config-resolved.json").read_text())
    assert resolved["variant"] == "mp-first-layer"
    assert resolved["mp"]["noise_kind"] == "shift"
    assert (resolved["mp"]["mp_layers"], resolved["mp"]["lambda_label"]) == ([1], 0.0)


@pytest.mark.parametrize("kind", ["shift", "scale"])
def test_train_noises_masks_with_the_configured_kind(tmp_path, monkeypatch, kind):
    kinds = set()
    real = mp.apply_noise

    def recording(mask, noise_kind, *args):
        kinds.add(noise_kind)
        return real(mask, noise_kind, *args)

    monkeypatch.setattr(mp, "apply_noise", recording)
    config = write_config(tmp_path, {**SMALL_RUN, "variant": "mp-all+noises",
                                     "mp": {"noise_kind": kind}})
    assert run_train(config, tmp_path / "run") == cli.EXIT_OK
    assert kinds == {kind}
    resolved = json.loads((tmp_path / "run" / "config-resolved.json").read_text())
    assert resolved["mp"]["noise_kind"] == kind


OUT_OF_RANGE_SYNTH = [{"synth": {"seed": -1}}, {"synth": {"shape_kinds": []}},
                      {"synth": {"shape_kinds": ["triangle"]}},
                      {"synth": {"size_range": [9, 3]}}, {"synth": {"height": -4}},
                      {"synth": {"width": 0}}, {"synth": {"noise_sigma": float("nan")}},
                      {"synth": {"prototypes": [[1.0] + [0.0] * 31] * 4}},
                      {"synth": {"background_proto": [0.0] * 32}}]
OUT_OF_RANGE_SYNTH_IDS = ["synth.seed-negative", "shape_kinds-empty", "shape_kinds-unknown",
                          "size_range-reversed", "height-negative", "width-0",
                          "noise_sigma-nan", "prototypes-alone", "background_proto-alone"]


@pytest.mark.parametrize("raw", [
    {"loss": {"mode": "consistency-aux"}},
    {"loss_mode": "consistency-aux"},
    {"bogus": 1},
    {"num_scenes": 0},
    {"train": {"log_every": 0}},
    {"seed": "abc"},
    {"model": {"n_queries": 0}},
    *OUT_OF_RANGE_SYNTH,
    {"mp": {"scale_range": [2]}},
    {"mp": {"scale_range": [1.5, 0.5]}},
    {"train": {"lr": -1}},
    {"train": {"lr": 0}},
    {"train": {"decay_factor": -1}},
    {"train": {"weight_decay": -0.5}},
    {"loss": {"bce": -5}},
    {"loss": {"no_object": -0.1}},
    {"train": {"lr": float("nan")}},
    {"train": {"lr": float("inf")}},
    {"mp": {"scale_range": [0.8, float("-inf")]}},
], ids=["loss.mode", "loss_mode", "unknown-key", "num_scenes-0", "log_every-0",
        "seed-str", "n_queries-0", *OUT_OF_RANGE_SYNTH_IDS, "scale_range-short",
        "scale_range-reversed", "lr-negative", "lr-0", "decay_factor-negative",
        "weight_decay-negative", "loss.bce-negative", "loss.no_object-negative", "lr-nan",
        "lr-infinity", "scale_range-minus-infinity"])
def test_train_rejected_config_exits_config_with_one_line(tmp_path, capsys, raw):
    assert run_train(write_config(tmp_path, raw), tmp_path / "run") == cli.EXIT_CONFIG
    assert_one_line(capsys, "config error: ")


@pytest.mark.parametrize("raw,flags", [({"seed": 1}, []), ({"count": 0}, []),
                                       ({"count": "5"}, []), ({}, ["--seed", "-1"]),
                                       *((raw, []) for raw in OUT_OF_RANGE_SYNTH)],
                         ids=["unknown-key", "count-0", "count-str", "seed-flag-negative",
                              *OUT_OF_RANGE_SYNTH_IDS])
def test_gen_data_rejected_config_exits_config(tmp_path, capsys, raw, flags):
    config = write_config(tmp_path, raw)
    out = tmp_path / "data.txt"
    assert cli.main(["gen-data", "--config", config, "--out", str(out), *flags]) \
        == cli.EXIT_CONFIG
    assert_one_line(capsys, "config error: ")
    assert not out.exists()


@pytest.mark.parametrize("verb", ["gen-data", "train"])
def test_unplaceable_instances_exit_config_with_one_line(tmp_path, capsys, verb):
    config = write_config(tmp_path, {"synth": {"height": 8, "width": 8,
                                               "instance_range": [30, 30],
                                               "size_range": [4, 6]}})
    assert cli.main([verb, "--config", config, "--out", str(tmp_path / "out")]) \
        == cli.EXIT_CONFIG
    assert_one_line(capsys, "config error: could not place instance")


def test_train_non_finite_loss_exits_numeric(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(trainer, "layer_losses",
                        lambda *args: (Tensor(np.array(np.nan)), None))
    assert run_train(write_config(tmp_path, SMALL_RUN), tmp_path / "run") \
        == cli.EXIT_NUMERIC
    assert_one_line(capsys, "numeric failure: non-finite loss at step 0")


def test_train_number_too_large_for_a_float_exits_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"train": {"lr": 1e999}}')
    assert run_train(str(config), tmp_path / "run") == cli.EXIT_CONFIG
    assert_one_line(capsys, "config error: ")


def test_train_non_finite_parameters_exit_numeric(tmp_path, capsys, monkeypatch):
    real_step = trainer.AdamW.step

    def step_on_a_nan_gradient(opt, lr=None):
        param = opt.pairs[-1][1]
        param.grad = np.full(param.values.shape, np.nan)
        return real_step(opt, lr)

    monkeypatch.setattr(trainer.AdamW, "step", step_on_a_nan_gradient)
    assert run_train(write_config(tmp_path, SMALL_RUN), tmp_path / "run") \
        == cli.EXIT_NUMERIC
    assert_one_line(capsys, "numeric failure: non-finite parameters at step 0")


@pytest.mark.parametrize("section,key", [("train", "lr"), ("train", "weight_decay"),
                                         ("synth", "noise_sigma")])
def test_train_non_finite_matching_cost_exits_numeric(tmp_path, capsys, section, key):
    raw = {**SMALL_RUN, section: {**SMALL_RUN.get(section, {}), key: 1e308}}
    assert run_train(write_config(tmp_path, raw), tmp_path / "run") == cli.EXIT_NUMERIC
    assert_one_line(capsys, "numeric failure: ")


def test_eval_on_a_dataset_header_with_a_nan_exits_io(artifacts, capsys):
    data = artifacts[1]
    data.write_text(data.read_text().replace('"noise_sigma": 0.25', '"noise_sigma": NaN'))
    assert run_eval(*artifacts) == cli.EXIT_IO
    assert_one_line(capsys, "format error: ")


@pytest.mark.parametrize("verb", ["train", "eval", "analyze"])
def test_scene_without_instances_exits_io_with_one_line(artifacts, tmp_path, capsys, verb):
    ckpt, data = artifacts
    lines = data.read_text().splitlines()
    lines[-1] = " ".join(lines[-1].split(" ")[:2])  # "scene <index>" and nothing else
    data.write_text("\n".join(lines) + "\n")
    if verb == "train":
        config = write_config(tmp_path, {**SMALL_RUN, "dataset_path": str(data)})
        argv = ["--config", config, "--out", str(tmp_path / "run")]
    else:
        argv = ["--checkpoint", str(ckpt), "--dataset", str(data)]
    assert cli.main([verb, *argv]) == cli.EXIT_IO
    assert_one_line(capsys, "format error: ")


def test_train_on_a_dataset_without_scenes_exits_compat(tmp_path, capsys):
    data = tmp_path / "empty.txt"
    save_dataset(data, [], SynthConfig())
    config = write_config(tmp_path, {"dataset_path": str(data)})
    assert run_train(config, tmp_path / "run") == cli.EXIT_COMPAT
    assert_one_line(capsys, "compatibility error: ")


def test_train_on_a_dataset_of_another_feature_dim_exits_compat(tmp_path, capsys):
    cfg = SynthConfig(height=16, width=16, feat_dim=16)
    data = tmp_path / "data.txt"
    save_dataset(data, [generate_scene(cfg, i) for i in range(2)], cfg)
    config = write_config(tmp_path, {"dataset_path": str(data)})
    assert run_train(config, tmp_path / "run") == cli.EXIT_COMPAT
    assert_one_line(capsys, "compatibility error: model dim 32 != dataset feature dim 16")


@pytest.mark.parametrize("verb", list(cli.HANDLERS))
def test_negative_seed_exits_config_with_one_line_on_every_verb(artifacts, tmp_path, capsys,
                                                                verb):
    ckpt, data = (str(path) for path in artifacts)
    inputs = {"eval": ["--checkpoint", ckpt, "--dataset", data],
              "analyze": ["--checkpoint", ckpt, "--dataset", data],
              "grad-check": []}.get(verb, ["--config", write_config(tmp_path, {})])
    out = tmp_path / "out"
    assert cli.main([verb, *inputs, "--seed", "-1", "--out", str(out)]) == cli.EXIT_CONFIG
    assert_one_line(capsys, "config error: --seed must be a non-negative integer, got -1")
    assert not out.exists()


@pytest.mark.parametrize("raw", [{"train": {"holdout_frac": "x"}},
                                 {"train": {"decay_points": [1, "a"]}},
                                 {"mp": {"mp_layers": 3}}, {"train": {"lr": "x"}}],
                         ids=["holdout_frac", "decay_points", "mp_layers", "lr"])
def test_train_value_of_the_wrong_type_exits_config_with_one_line(tmp_path, capsys, raw):
    assert run_train(write_config(tmp_path, raw), tmp_path / "run") == cli.EXIT_CONFIG
    assert_one_line(capsys, "config error: ")


def run_refine_study(tmp_path, raw):
    out = tmp_path / "study.csv"
    return cli.main(["refine-study", "--config", write_config(tmp_path, raw),
                     "--out", str(out)]), out


def test_refine_study_ok(tmp_path, capsys):
    code, out = run_refine_study(tmp_path, {"dim": 4, "sigmas": [0.0, 0.2],
                                            "instances_per_sigma": 3, "seed": 1})
    assert code == cli.EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 2 * 3
    assert capsys.readouterr().out.startswith("6 instances: ")


@pytest.mark.parametrize("raw", [{"seed": -1}, {"dim": "x"}, {"instances_per_sigma": 2.0},
                                 {"sigmas": 0.1}, {"sigmas": [0.1, float("inf")]}],
                         ids=["seed-negative", "dim-str", "per_sigma-float", "sigmas-number",
                              "sigmas-infinity"])
def test_refine_study_rejected_config_exits_config_with_one_line(tmp_path, capsys, raw):
    code, out = run_refine_study(tmp_path, raw)
    assert code == cli.EXIT_CONFIG
    assert_one_line(capsys, "config error: ")
    assert not out.exists()


BENCH_CHECKPOINT = Path(__file__).resolve().parent.parent / "bench" / "data" / "checkpoint.bin"


def test_analyze_on_the_bench_checkpoint(tmp_path, capsys):
    cfg = SynthConfig()
    data = tmp_path / "data.txt"
    save_dataset(data, [generate_scene(cfg, i) for i in range(2)], cfg)
    assert cli.main(["analyze", "--checkpoint", str(BENCH_CHECKPOINT), "--dataset", str(data),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["layer", "miou_l(%)", "util(%)",
                                                   "mp_util_hard(%)", "mp_util_bipartite(%)"]
    assert len(lines[0].split()) == 1 + 9
    csv_lines = (tmp_path / "out" / "analysis.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 9


def test_grad_check_exits_check_when_a_row_fails(monkeypatch, capsys):
    monkeypatch.setattr(gradcheck, "run_gradient_suite",
                        lambda seed: [("matmul", 1e-9, True), ("broken", 0.5, False)])
    assert cli.main(["grad-check"]) == cli.EXIT_CHECK
    out = capsys.readouterr().out
    assert "FAIL broken max_rel_err=5.000e-01" in out
    assert out.endswith("gradient suite: FAIL\n")
