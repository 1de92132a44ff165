import json
from pathlib import Path

import numpy as np
import pytest

from mpseg import cli, decoder, gradcheck, metrics, mp, trainer
from mpseg.decoder import init_params, load_checkpoint, save_checkpoint
from mpseg.fields import MAX_SEED
from mpseg.losses import LossWeights
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
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
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
    for noise_kind in ("shift", "scale"):
        def recording(*args, noise_kind=noise_kind, real=getattr(mp, f"{noise_kind}_noise")):
            kinds.add(noise_kind)
            return real(*args)

        monkeypatch.setattr(mp, f"{noise_kind}_noise", recording)
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
                      # keys SynthConfig no longer has, as an older config-resolved.json holds them
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


def test_eval_on_a_dataset_cut_at_a_line_end_exits_io_with_one_line(artifacts, capsys):
    data = artifacts[1]
    lines = data.read_text().splitlines()
    data.write_text("\n".join(lines[:-1]) + "\n")
    assert run_eval(*artifacts) == cli.EXIT_IO
    assert_one_line(capsys, f"format error: {data}: header says 2 scenes, the file holds 1")


def test_eval_on_a_version_1_dataset_exits_io_with_one_line(artifacts, capsys):
    data = artifacts[1]
    lines = data.read_text().splitlines()
    _magic, _version, _count, cfg_json = lines[0].split(" ", 3)
    lines[0] = f"mpseg-dataset 1 {cfg_json}"  # the version 1 header held no scene count
    data.write_text("\n".join(lines) + "\n")
    assert run_eval(*artifacts) == cli.EXIT_IO
    assert_one_line(capsys, f"format error: {data}: schema version 1 (supported: 2)")


def test_eval_on_a_dataset_header_with_a_nan_exits_io(artifacts, capsys):
    data = artifacts[1]
    data.write_text(data.read_text().replace('"noise_sigma": 0.25', '"noise_sigma": NaN'))
    assert run_eval(*artifacts) == cli.EXIT_IO
    assert_one_line(capsys, "format error: ")


def run_on_last_scene_line(artifacts, tmp_path, verb, fields, raw=SMALL_RUN):
    """Run verb on the artifacts' dataset with its last scene line's fields
    replaced by fields(old fields)."""
    ckpt, data = artifacts
    lines = data.read_text().splitlines()
    lines[-1] = " ".join(fields(lines[-1].split(" ")))
    data.write_text("\n".join(lines) + "\n")
    if verb == "train":
        config = write_config(tmp_path, {**raw, "dataset_path": str(data)})
        argv = ["--config", config, "--out", str(tmp_path / "run")]
    else:
        argv = ["--checkpoint", str(ckpt), "--dataset", str(data)]
    return cli.main([verb, *argv])


@pytest.mark.parametrize("verb", ["train", "eval", "analyze"])
def test_scene_without_instances_exits_io_with_one_line(artifacts, tmp_path, capsys, verb):
    # "scene <index>" and nothing else
    assert run_on_last_scene_line(artifacts, tmp_path, verb, lambda f: f[:2]) == cli.EXIT_IO
    assert_one_line(capsys, "format error: ")


@pytest.mark.parametrize("verb", ["train", "eval", "analyze"])
@pytest.mark.parametrize("runs,message", [("64", "scene 1: instance 0 has an empty mask"),
                                          ("70,-6", "negative run length -6")],
                         ids=["empty", "negative-run"])
def test_instance_mask_empty_or_with_a_negative_run_exits_io_with_one_line(
        artifacts, tmp_path, capsys, verb, runs, message):
    """MP's shift and scale noise need a pixel to move, so the loader
    rejects such a mask before the verb runs."""
    raw = {**SMALL_RUN, "variant": "mp-all+noises", "mp": {"noise_kind": "shift"}}
    code = run_on_last_scene_line(artifacts, tmp_path, verb, lambda f: f[:2] + [f"1:{runs}"],
                                  raw)
    assert code == cli.EXIT_IO
    assert_one_line(capsys, f"format error: {artifacts[1]}: malformed dataset ({message})")


@pytest.mark.parametrize("verb", ["train", "eval", "analyze"])
@pytest.mark.parametrize("index,what", [("-1", "negative"), ("0", "repeated"),
                                        ("4294967296", "above 4294967295")])
def test_scene_index_negative_or_repeated_exits_io_with_one_line(artifacts, tmp_path, capsys,
                                                                  verb, index, what):
    """Features are seeded by the scene index, a seed word, and training
    keys them by it."""
    assert artifacts[1].read_text().splitlines()[1].startswith("scene 0 ")
    code = run_on_last_scene_line(artifacts, tmp_path, verb,
                                  lambda f: ["scene", index] + f[2:])
    assert code == cli.EXIT_IO
    assert_one_line(capsys, f"format error: {artifacts[1]}: scene index {index} is {what}")


@pytest.mark.parametrize("verb", ["train", "eval", "analyze"])
def test_scene_index_of_the_largest_seed_word_runs(artifacts, tmp_path, verb):
    code = run_on_last_scene_line(artifacts, tmp_path, verb,
                                  lambda f: ["scene", str(MAX_SEED)] + f[2:])
    assert code == cli.EXIT_OK


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


def test_train_on_a_dataset_reads_its_dim_not_the_unused_synth_section(tmp_path):
    cfg = SynthConfig(height=16, width=16, feat_dim=16)
    data = tmp_path / "data.txt"
    save_dataset(data, [generate_scene(cfg, i) for i in range(2)], cfg)
    config = write_config(tmp_path, {"dataset_path": str(data),
                                     "model": {**SMALL_RUN["model"], "dim": 16},
                                     "train": {"steps": 2}})
    assert run_train(config, tmp_path / "run") == cli.EXIT_OK


@pytest.mark.parametrize("verb", [verb for verb in cli.HANDLERS if verb != "eval"])
def test_negative_seed_exits_config_with_one_line_on_every_verb(artifacts, tmp_path, capsys,
                                                                verb):
    ckpt, data = (str(path) for path in artifacts)
    inputs = {"analyze": ["--checkpoint", ckpt, "--dataset", data],
              "grad-check": []}.get(verb, ["--config", write_config(tmp_path, {})])
    out = tmp_path / "out"
    out_flag = [] if verb == "grad-check" else ["--out", str(out)]  # grad-check writes no file
    assert cli.main([verb, *inputs, "--seed", "-1", *out_flag]) == cli.EXIT_CONFIG
    assert_one_line(capsys, "config error: --seed must be an integer in [0, 4294967295], "
                            "got -1")
    assert not out.exists()


@pytest.mark.parametrize("verb", [verb for verb in cli.HANDLERS if verb != "eval"])
def test_seed_flag_is_one_32_bit_word_on_every_verb(artifacts, tmp_path, capsys, verb):
    """--seed 2**32 exits config with one line and writes nothing; 2**32 - 1 runs."""
    ckpt, data = (str(path) for path in artifacts)
    configs = {"gen-data": {"synth": SMALL_RUN["synth"], "count": 1}, "train": SMALL_RUN,
               "refine-study": {"dim": 4, "sigmas": [0.2], "instances_per_sigma": 3}}
    inputs = {"analyze": ["--checkpoint", ckpt, "--dataset", data],
              "grad-check": []}.get(verb, ["--config", write_config(tmp_path, configs.get(verb))])
    out = tmp_path / "out"
    out_flag = [] if verb == "grad-check" else ["--out", str(out)]
    assert cli.main([verb, *inputs, "--seed", str(2**32), *out_flag]) == cli.EXIT_CONFIG
    assert_one_line(capsys, "config error: --seed must be an integer in [0, 4294967295], "
                            "got 4294967296\n")
    assert not out.exists()
    assert cli.main([verb, *inputs, "--seed", str(2**32 - 1), *out_flag]) == cli.EXIT_OK


def test_eval_takes_no_seed(artifacts, capsys):
    """evaluate draws no random numbers, so a seed would change nothing."""
    with pytest.raises(SystemExit):
        cli.main(["eval", "--checkpoint", str(artifacts[0]), "--dataset", str(artifacts[1]),
                  "--seed", "0"])
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [{"train": {"holdout_frac": "x"}},
                                 {"train": {"decay_points": [1, "a"]}},
                                 {"mp": {"mp_layers": 3}}, {"train": {"lr": "x"}}],
                         ids=["holdout_frac", "decay_points", "mp_layers", "lr"])
def test_train_value_of_the_wrong_type_exits_config_with_one_line(tmp_path, capsys, raw):
    assert run_train(write_config(tmp_path, raw), tmp_path / "run") == cli.EXIT_CONFIG
    assert_one_line(capsys, "config error: ")


def run_refine_study(tmp_path, raw, *extra):
    out = tmp_path / "study.csv"
    return cli.main(["refine-study", "--config", write_config(tmp_path, raw),
                     "--out", str(out), *extra]), out


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
                                                   "mp_util_bipartite(%)"]
    assert len(lines[0].split()) == 1 + 9
    csv_lines = (tmp_path / "out" / "analysis.csv").read_text().splitlines()
    assert csv_lines[0] == "layer,miou_l,util,mp_util_bipartite"
    assert len(csv_lines) == 1 + 9


def test_analyze_rows_are_evaluates_rows():
    """The pass with mp_seed adds the mp_util_bipartite row and leaves
    evaluate's rows and the predictions as they are."""
    params, _meta = load_checkpoint(BENCH_CHECKPOINT)
    cfg = SynthConfig(seed=5)
    scenes = [generate_scene(cfg, i) for i in range(3)]
    rows, preds = trainer.evaluate_scenes(params, scenes, cfg, LossWeights(), mp_seed=0)
    assert list(rows) == ["miou_l", "util", "mp_util_bipartite"]
    assert rows["miou_l"].shape == (params.num_layers,)
    assert rows["util"].shape == rows["mp_util_bipartite"].shape == (params.num_layers + 1,)
    report = trainer.evaluate(params, scenes, cfg, LossWeights())
    assert np.array_equal(rows["miou_l"], report.miou_l)
    assert np.array_equal(rows["util"], report.util)
    plain_rows, plain_preds = trainer.evaluate_scenes(params, scenes, cfg, LossWeights())
    assert list(plain_rows) == ["miou_l", "util"]
    assert len(preds) == len(plain_preds) == len(scenes)
    for with_mp, without in zip(preds, plain_preds):
        assert len(with_mp) == len(without) == 3
        assert all(np.array_equal(a, b) for a, b in zip(with_mp, without))


def test_analyze_runs_one_forward_per_scene(artifacts, monkeypatch, capsys):
    """analyze's pass carries an MP part in each scene's one forward and
    eval's carries none."""
    ckpt, data = artifacts
    _, scenes, _ = cli._load_compatible(ckpt, data)
    calls = []

    def counting(spec, params):
        calls.append(spec.mp is not None)
        return decoder.full_forward(spec, params)

    monkeypatch.setattr(trainer, "full_forward", counting)
    for verb, with_mp in (("analyze", True), ("eval", False)):
        calls.clear()
        assert cli.main([verb, "--checkpoint", str(ckpt), "--dataset", str(data)]) == cli.EXIT_OK
        assert calls == [with_mp] * len(scenes), verb
    assert capsys.readouterr().err == ""


def test_every_verb_writes_its_layer_csv_through_layer_table(tmp_path, monkeypatch):
    """train's layers.csv is layer_table of its report's rows, and analyze's
    first three columns are eval's layers.csv, on one checkpoint and dataset."""
    reports = []

    def recording(cfg, log=None):
        result = trainer.run_training(cfg, log=log)
        reports.append(result[1])
        return result

    monkeypatch.setattr(cli, "run_training", recording)
    data = tmp_path / "data.txt"
    gen = write_config(tmp_path, {"synth": SMALL_RUN["synth"], "count": 3})
    assert cli.main(["gen-data", "--config", gen, "--out", str(data)]) == cli.EXIT_OK
    raw = {**SMALL_RUN, "dataset_path": str(data), "variant": "mp-all+noises"}
    assert run_train(write_config(tmp_path, raw), tmp_path / "run") == cli.EXIT_OK
    (report,) = reports
    assert (tmp_path / "run" / "layers.csv").read_text() == metrics.layer_table(
        {"miou_l": report.miou_l, "util": report.util[1:]})[1]

    ckpt = tmp_path / "run" / "checkpoint.bin"
    for verb in ("eval", "analyze"):
        assert cli.main([verb, "--checkpoint", str(ckpt), "--dataset", str(data),
                         "--out", str(tmp_path / verb)]) == cli.EXIT_OK
    analysis = (tmp_path / "analyze" / "analysis.csv").read_bytes().splitlines()
    assert analysis[0] == b"layer,miou_l,util,mp_util_bipartite"
    assert b"".join(b",".join(line.split(b",")[:3]) + b"\n" for line in analysis) \
        == (tmp_path / "eval" / "layers.csv").read_bytes()


def test_layer_table_gives_each_row_a_line_and_a_column():
    text, csv_text = metrics.layer_table({"a": np.array([0.5, 0.25]),
                                          "bb_long": np.array([1.0, 0.125])})
    assert text == ("     layer      1     2\n"
                    "      a(%)   50.0  25.0\n"
                    "bb_long(%)  100.0  12.5\n")
    assert csv_text == "layer,a,bb_long\n1,50.000000,100.000000\n2,25.000000,12.500000\n"


def test_grad_check_exits_check_when_a_row_fails(monkeypatch, capsys):
    monkeypatch.setattr(gradcheck, "run_gradient_suite",
                        lambda seed: [("matmul", 1e-9, True), ("broken", 0.5, False)])
    assert cli.main(["grad-check"]) == cli.EXIT_CHECK
    out = capsys.readouterr().out
    assert "FAIL broken max_rel_err=5.000e-01" in out
    assert out.endswith("gradient suite: FAIL\n")


def checkpoint_of(tmp_path, dim=8, num_categories=2):
    path = tmp_path / f"checkpoint-{dim}-{num_categories}.bin"
    save_checkpoint(path, init_params(seed=0, n_queries=2, n_layers=1, dim=dim,
                                      num_categories=num_categories, ffn_hidden=4))
    return path


@pytest.mark.parametrize("verb", ["eval", "analyze"])
@pytest.mark.parametrize("dim,num_categories,message", [
    (16, 2, "checkpoint dim 16 != dataset feature dim 8"),
    (8, 3, "checkpoint has 3 categories, dataset has 2")], ids=["dim", "categories"])
def test_checkpoint_that_does_not_fit_the_dataset_exits_compat_with_one_line(
        artifacts, tmp_path, capsys, verb, dim, num_categories, message):
    ckpt = checkpoint_of(tmp_path, dim, num_categories)
    assert cli.main([verb, "--checkpoint", str(ckpt), "--dataset", str(artifacts[1])]) \
        == cli.EXIT_COMPAT
    assert_one_line(capsys, f"compatibility error: {message}\n")


@pytest.mark.parametrize("verb,raw", [("gen-data", {"count": 1}),
                                      ("refine-study", {"instances_per_sigma": 1})])
def test_no_output_path_exits_config_with_one_line(tmp_path, capsys, verb, raw):
    assert cli.main([verb, "--config", write_config(tmp_path, raw)]) == cli.EXIT_CONFIG
    assert_one_line(capsys, "config error: no output path (set 'out' in the config or "
                            "pass --out)\n")


def test_checkpoint_of_another_version_exits_io_with_one_line(artifacts, capsys):
    ckpt = artifacts[0]
    ckpt.write_bytes(ckpt.read_bytes().replace(b"mpseg-checkpoint 1 ", b"mpseg-checkpoint 2 ",
                                               1))
    assert run_eval(*artifacts) == cli.EXIT_IO
    assert_one_line(capsys, f"format error: {ckpt}: malformed checkpoint (version 2 "
                            f"unsupported)\n")


def test_dataset_with_another_magic_word_exits_io_with_one_line(artifacts, capsys):
    data = artifacts[1]
    data.write_text(data.read_text().replace("mpseg-dataset ", "other-dataset ", 1))
    assert run_eval(*artifacts) == cli.EXIT_IO
    assert_one_line(capsys, f"format error: {data}: not a dataset file (header "
                            f"'other-dataset')\n")


def test_dataset_line_that_is_no_scene_exits_io_with_one_line(artifacts, tmp_path, capsys):
    code = run_on_last_scene_line(artifacts, tmp_path, "eval", lambda f: ["shape"] + f[1:])
    assert code == cli.EXIT_IO
    assert_one_line(capsys, f"format error: {artifacts[1]}: malformed dataset (bad scene "
                            f"line 'shape 1 ")


def test_gen_data_height_that_is_no_multiple_of_4_exits_config_with_one_line(tmp_path,
                                                                             capsys):
    config = write_config(tmp_path, {"synth": {"height": 10}, "count": 1})
    out = tmp_path / "data.txt"
    assert cli.main(["gen-data", "--config", config, "--out", str(out)]) == cli.EXIT_CONFIG
    assert_one_line(capsys, "config error: synth.height and synth.width must be multiples of 4 "
                            "for the 3-scale pyramid, got 10x32\n")
    assert not out.exists()


def test_seed_flag_reaches_every_verbs_seed(tmp_path, capsys):
    """--seed sets gen-data's synth.seed, train's seed (as
    config-resolved.json records it) and refine-study's seed."""
    data = tmp_path / "data.txt"
    gen = write_config(tmp_path, {"synth": SMALL_RUN["synth"], "count": 1})
    assert cli.main(["gen-data", "--config", gen, "--out", str(data), "--seed", "5"]) \
        == cli.EXIT_OK
    header = data.read_text().splitlines()[0].split(" ", 3)[3]
    assert SynthConfig.from_json(header).seed == 5

    run = tmp_path / "run"
    assert run_train(write_config(tmp_path, SMALL_RUN), run, "--seed", "7") == cli.EXIT_OK
    assert json.loads((run / "config-resolved.json").read_text())["seed"] == 7

    def study(raw, *flags):
        code, out = run_refine_study(tmp_path, {"dim": 4, "sigmas": [0.2],
                                                "instances_per_sigma": 3, **raw}, *flags)
        assert code == cli.EXIT_OK
        return out.read_text()

    assert study({"seed": 3}) == study({}, "--seed", "3") != study({})


def test_dataset_with_a_blank_line_loads(artifacts, capsys):
    assert run_eval(*artifacts) == cli.EXIT_OK
    plain = capsys.readouterr().out
    data = artifacts[1]
    lines = data.read_text().splitlines()
    data.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
    assert run_eval(*artifacts) == cli.EXIT_OK
    assert capsys.readouterr().out == plain
