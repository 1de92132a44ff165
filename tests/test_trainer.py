import sys

import numpy as np
import pytest

from mpseg import tensor, trainer
from mpseg.config import parse_run_config
from mpseg.decoder import full_forward, init_params
from mpseg.gradcheck import run_gradient_suite
from mpseg.losses import LossWeights, layer_losses
from mpseg.mp import MPConfig
from mpseg.synth import SynthConfig, generate_scene, synth_features
from mpseg.tensor import Tensor


def small_config(**train):
    return parse_run_config({
        "synth": {"height": 8, "width": 8, "feat_dim": 8, "instance_range": [1, 2],
                  "size_range": [2, 3]},
        "model": {"n_queries": 3, "num_layers": 2, "dim": 8, "ffn_hidden": 4},
        "num_scenes": 5, "train": {"lr": 1e-3, **train}})


def test_adamw_first_step_by_hand():
    q = Tensor(np.array([1.0, -3.0]))
    w = Tensor(np.array([1.0, -3.0]))
    idle = Tensor(np.array([2.0]))
    q.grad = np.array([0.5, -2.0])
    w.grad = np.array([0.5, -2.0])
    opt = trainer.AdamW([("query_embed", q), ("w", w), ("idle", idle)], lr=0.1,
                        weight_decay=0.05)
    opt.step()
    # t = 1: the bias-corrected moments are g and g*g, so the Adam update is
    # g / (|g| + eps) = sign(g) up to eps; decay adds 0.05 * p except on
    # query_embed; a parameter without a gradient only decays.
    np.testing.assert_allclose(q.values, [1.0 - 0.1, -3.0 + 0.1], rtol=0, atol=1e-8)
    np.testing.assert_allclose(w.values, [1.0 - 0.1 * 1.05, -3.0 + 0.1 * 1.15],
                               rtol=0, atol=1e-8)
    np.testing.assert_allclose(idle.values, [2.0 - 0.1 * 0.05 * 2.0], rtol=0, atol=1e-12)


def test_learning_rate_drops_at_each_decay_point():
    lines = []
    trainer.run_training(small_config(steps=6, decay_points=[2, 4], decay_factor=0.1,
                                      log_every=1), log=lines.append)
    lrs = [float(line.split(" lr ")[1]) for line in lines]
    np.testing.assert_allclose(lrs, [1e-3, 1e-3, 1e-4, 1e-4, 1e-5, 1e-5], rtol=1e-12)


def test_epoch_losses_include_a_final_partial_epoch(monkeypatch):
    step_losses = []
    real = trainer.layer_losses

    def recording(*args):
        loss, assignments = real(*args)
        step_losses.append(float(loss.values))
        return loss, assignments

    monkeypatch.setattr(trainer, "layer_losses", recording)
    # 5 scenes, holdout 0.2: 4 training scenes, so 10 steps are 4 + 4 + 2
    _, report, _ = trainer.run_training(small_config(steps=10))
    assert report.losses == [float(np.mean(step_losses[a:b]))
                             for a, b in ((0, 4), (4, 8), (8, 10))]


def test_non_finite_loss_raises_numeric_error(monkeypatch):
    real = trainer.layer_losses
    calls = []

    def nan_at_step_2(*args):
        calls.append(None)
        if len(calls) == 3:
            return Tensor(np.array(np.nan)), None
        return real(*args)

    monkeypatch.setattr(trainer, "layer_losses", nan_at_step_2)
    with pytest.raises(trainer.NumericError) as info:
        trainer.run_training(small_config(steps=5))
    assert info.value.step == 2


def test_gradient_suite_passes():
    rows = run_gradient_suite()
    assert rows and [name for name, _err, passed in rows if not passed] == []


def count_sigmoid_calls(monkeypatch) -> list:
    """Counts every call of tensor._sigmoid, under whatever name an mpseg
    module imported it."""
    calls = []
    real = tensor._sigmoid

    def counting(x):
        calls.append(None)
        return real(x)

    for name, module in list(sys.modules.items()):
        if name.startswith("mpseg") and getattr(module, "_sigmoid", None) is real:
            monkeypatch.setattr(module, "_sigmoid", counting)
    return calls


def default_scene_and_params():
    cfg = SynthConfig(seed=3)
    scene = generate_scene(cfg, 0)
    return cfg, scene, init_params(seed=4, num_categories=cfg.num_categories)


def test_an_evaluated_scene_computes_one_sigmoid_per_layer(monkeypatch):
    cfg, scene, params = default_scene_and_params()
    calls = count_sigmoid_calls(monkeypatch)
    trainer.evaluate(params, [scene], cfg, LossWeights())
    assert len(calls) == params.num_layers + 1


def test_an_mp_step_computes_one_sigmoid_per_layer(monkeypatch):
    cfg, scene, params = default_scene_and_params()
    table = trainer.layer_scale_table(cfg.height, cfg.width, params.num_layers)
    spec, mp_part = trainer.mp_forward_spec(synth_features(scene, cfg), scene, params,
                                            MPConfig(), table, [0, 2, 0])
    assert mp_part is not None
    calls = count_sigmoid_calls(monkeypatch)
    outputs = full_forward(spec, params)
    layer_losses(outputs, scene, mp_part, "per-layer-bipartite", LossWeights())
    assert len(calls) == params.num_layers + 1
