import sys

import numpy as np
import pytest

from mpseg import tensor, trainer
from mpseg.config import parse_run_config
from mpseg.decoder import full_forward, init_params, named_parameters, plain_spec
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


def reference_adamw_step(state, pairs, lr, b1=0.9, b2=0.999, eps=1e-8, weight_decay=0.05,
                         exempt=("query_embed",)):
    """AdamW as per-array arithmetic: the oracle of the flat-buffer AdamW.
    state holds t and the moments per name; values are rebound each step."""
    state["t"] += 1
    c1 = 1.0 - b1 ** state["t"]
    c2 = 1.0 - b2 ** state["t"]
    for name, p in pairs:
        g = p.grad if p.grad is not None else np.zeros_like(p.values)
        m = state.setdefault("m" + name, np.zeros_like(p.values))
        v = state.setdefault("v" + name, np.zeros_like(p.values))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / c1) / (np.sqrt(v / c2) + eps)
        if weight_decay and name not in exempt:
            update = update + weight_decay * p.values
        p.values = p.values - lr * update


def adamw_pairs(seed):
    """A decay-exempt parameter between decayed ones, and one that never
    receives a gradient."""
    rng = np.random.default_rng(seed)
    return [("w", Tensor(rng.standard_normal((3, 4)))),
            ("query_embed", Tensor(rng.standard_normal((2, 4)))),
            ("b", Tensor(rng.standard_normal(4))),
            ("idle", Tensor(rng.standard_normal((2, 2))))]


def set_random_grads(pairs, rng):
    for name, p in pairs:
        p.grad = None if name == "idle" else rng.standard_normal(p.values.shape)


def test_flat_adamw_is_bitwise_the_per_array_update():
    flat_pairs, ref_pairs = adamw_pairs(0), adamw_pairs(0)
    opt = trainer.AdamW(flat_pairs, lr=1e-2, weight_decay=0.05, exempt=("query_embed",))
    state = {"t": 0}
    rng = np.random.default_rng(1)
    for step in range(60):
        lr = 1e-2 if step < 30 else 1e-3
        set_random_grads(flat_pairs, rng)
        for (_, a), (_, b) in zip(flat_pairs, ref_pairs):
            b.grad = a.grad
        opt.step(lr)
        reference_adamw_step(state, ref_pairs, lr)
        for (_, a), (_, b) in zip(flat_pairs, ref_pairs):
            assert a.values.tobytes() == b.values.tobytes()


def test_flat_adamw_allocates_at_the_first_step():
    pairs = adamw_pairs(2)
    before = [p.values for _, p in pairs]
    opt = trainer.AdamW(pairs)
    assert opt.flat is None
    assert all(p.values is v for (_, p), v in zip(pairs, before))
    opt.step()
    assert opt.flat is not None
    assert all(np.shares_memory(p.values, opt.flat) for _, p in pairs)


def test_flat_adamw_readopts_rebound_values():
    flat_pairs, ref_pairs = adamw_pairs(3), adamw_pairs(3)
    opt = trainer.AdamW(flat_pairs, exempt=("query_embed",))
    state = {"t": 0}
    rng = np.random.default_rng(4)
    for step in range(4):
        if step == 2:
            new = rng.standard_normal((2, 4))
            flat_pairs[1][1].values = new.copy()
            ref_pairs[1][1].values = new.copy()
        set_random_grads(flat_pairs, rng)
        for (_, a), (_, b) in zip(flat_pairs, ref_pairs):
            b.grad = a.grad
        opt.step(1e-2)
        reference_adamw_step(state, ref_pairs, 1e-2)
        for (_, a), (_, b) in zip(flat_pairs, ref_pairs):
            assert a.values.tobytes() == b.values.tobytes()
    assert np.shares_memory(flat_pairs[1][1].values, opt.flat)


def test_flat_adamw_rejects_values_rebound_to_another_shape():
    pairs = adamw_pairs(5)
    opt = trainer.AdamW(pairs)
    opt.step()
    pairs[0][1].values = np.zeros((4, 3))
    with pytest.raises(ValueError, match="rebound"):
        opt.step()


def test_non_finite_parameters_raise_numeric_error_before_matching(monkeypatch):
    real_step = trainer.AdamW.step
    steps = []

    def nan_grad_at_step_1(opt, lr=None):
        if len(steps) == 1:
            opt.pairs[0][1].grad = np.full(opt.pairs[0][1].values.shape, np.nan)
        steps.append(None)
        return real_step(opt, lr)

    monkeypatch.setattr(trainer.AdamW, "step", nan_grad_at_step_1)
    with pytest.raises(trainer.NumericError, match="non-finite parameters at step 1") as info:
        trainer.run_training(small_config(steps=5))
    assert info.value.step == 1 and len(steps) == 2


def tape_nodes(loss) -> int:
    """Recorded operations reachable from the loss (leaves not counted)."""
    seen, stack, recorded = {id(loss)}, [loss], 0
    while stack:
        parents = stack.pop()._parents
        recorded += bool(parents)
        for parent in parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return recorded


def default_step_losses():
    """(MP loss, plain loss) of one training step at the default model size."""
    cfg, scene, params = default_scene_and_params()
    pyramid = synth_features(scene, cfg)
    table = trainer.layer_scale_table(cfg.height, cfg.width, params.num_layers)
    spec, mp_part = trainer.mp_forward_spec(pyramid, scene, params, MPConfig(), table,
                                            [0, 2, 0])
    assert mp_part is not None
    mp_loss, _ = layer_losses(full_forward(spec, params), scene, mp_part,
                              "per-layer-bipartite", LossWeights())
    plain_loss, _ = layer_losses(full_forward(plain_spec(pyramid, params), params), scene,
                                 None, "per-layer-bipartite", LossWeights())
    return mp_loss, plain_loss


def test_tape_nodes_per_step_at_the_default_model_size():
    mp_loss, plain_loss = default_step_losses()
    assert (tape_nodes(mp_loss), tape_nodes(plain_loss)) == (272, 150)


def params_after_an_mp_and_a_plain_step() -> list:
    """Parameter bytes after one MP and then one plain training step at
    the default model size: forward, layer_losses, backward, AdamW."""
    cfg, scene, params = default_scene_and_params()
    pyramid = synth_features(scene, cfg)
    table = trainer.layer_scale_table(cfg.height, cfg.width, params.num_layers)
    pairs = named_parameters(params)
    opt = trainer.AdamW(pairs)
    mp_spec, mp_part = trainer.mp_forward_spec(pyramid, scene, params, MPConfig(), table,
                                               [0, 2, 0])
    assert mp_part is not None
    for spec, part in ((mp_spec, mp_part), (plain_spec(pyramid, params), None)):
        loss, _ = layer_losses(full_forward(spec, params), scene, part,
                               "per-layer-bipartite", LossWeights())
        opt.zero_grad()
        loss.backward()
        opt.step()
    return [p.values.tobytes() for _, p in pairs]


def test_training_steps_never_write_into_a_stored_gradient(monkeypatch):
    expected = params_after_an_mp_and_a_plain_step()
    real = Tensor._accumulate

    def read_only(self, *args, **kwargs):
        real(self, *args, **kwargs)
        if isinstance(self.grad, np.ndarray):  # a numpy scalar is immutable anyway
            self.grad.flags.writeable = False

    monkeypatch.setattr(Tensor, "_accumulate", read_only)
    assert params_after_an_mp_and_a_plain_step() == expected
