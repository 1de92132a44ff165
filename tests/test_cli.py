import pytest

from mpseg import cli
from mpseg.decoder import init_params, save_checkpoint
from mpseg.synth import SynthConfig, generate_scene, save_dataset


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
