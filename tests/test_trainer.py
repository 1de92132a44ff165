import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

from mpseg import _blas, gradcheck, tensor, trainer
from mpseg.config import VARIANTS, RunConfig, TrainSettings, parse_run_config
from mpseg.decoder import ForwardSpec, full_forward, init_params, named_parameters
from mpseg.gradcheck import run_gradient_suite
from mpseg.losses import LossWeights, layer_losses
from mpseg.synth import SynthConfig, generate_scene, synth_features
from mpseg.tensor import Tensor


def small_config(variant="baseline", mp=None, num_layers=2, **train):
    return parse_run_config({
        "variant": variant, "mp": mp or {},
        "synth": {"height": 8, "width": 8, "feat_dim": 8, "instance_range": [1, 2],
                  "size_range": [2, 3]},
        "model": {"n_queries": 3, "num_layers": num_layers, "dim": 8, "ffn_hidden": 4},
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


@pytest.mark.parametrize("count,frac,held", [(1, 0.2, 0), (1, 0.5, 0), (2, 0.8, 2), (10, 0.0, 0),
                                              (5, 0.5, 2), (7, 0.5, 4), (10, 0.2, 2)])
def test_split_scenes_holds_out_the_rounded_count_or_uses_every_scene_twice(count, frac, held):
    """The last round(count * frac) scenes are held out, rounding half to
    even; a count of 0 or of every scene trains and evaluates on all."""
    scenes = list(range(count))
    train, hold = trainer.split_scenes(scenes, frac)
    if held in (0, count):
        assert train == scenes and hold == scenes
    else:
        assert train == scenes[:-held] and hold == scenes[-held:]


@pytest.mark.parametrize("count,frac,logged", [(2, 0.8, True), (5, 0.2, False)])
def test_a_run_that_holds_out_no_scene_says_so(count, frac, logged):
    """2 scenes at 0.8 hold out round(1.6) = 2, every scene, so the
    report scores the training scenes; 5 at 0.2 hold out 1."""
    lines = []
    cfg = dataclasses.replace(small_config(steps=1, holdout_frac=frac), num_scenes=count)
    trainer.run_training(cfg, log=lines.append)
    note = f"no scene held out: the report scores the {count} training scenes"
    assert [line for line in lines if line.startswith("no scene")] == ([note] if logged else [])


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
        loss, vectors = real(*args)
        step_losses.append(float(loss.values))
        return loss, vectors

    monkeypatch.setattr(trainer, "layer_losses", recording)
    # 5 scenes, holdout 0.2: 4 training scenes, so 10 steps are 4 + 4 + 2
    _, report, _ = trainer.run_training(small_config(steps=10))
    assert report.losses == [float(np.mean(step_losses[a:b]))
                             for a, b in ((0, 4), (4, 8), (8, 10))]


def run_bytes(variant: str) -> tuple:
    params, report, _ = trainer.run_training(small_config(variant, steps=3))
    return [v.values.tobytes() for _, v in named_parameters(params)], report.to_text()


def test_training_outputs_do_not_depend_on_the_openblas_thread_count():
    for variant in ("baseline", "mp-all+noises"):
        try:
            _blas.set_threads(2)
            two = run_bytes(variant)
        finally:
            _blas.set_threads(1)
        assert run_bytes(variant) == two


def test_a_default_run_config_trains_with_no_mp_part(monkeypatch):
    mp_parts = []
    real = trainer.layer_losses

    def recording(outputs, scene, mp_part, *rest):
        mp_parts.append(mp_part)
        return real(outputs, scene, mp_part, *rest)

    monkeypatch.setattr(trainer, "layer_losses", recording)
    trainer.run_training(RunConfig(num_scenes=2, train=TrainSettings(steps=2)))
    assert mp_parts == [None, None]


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


def test_grad_check_rows_cover_every_op_a_training_step_records(monkeypatch):
    kinds = set()
    real = Tensor.backward

    def recording(self, grad=None):
        # an op's kind is the function that defines its backward, e.g. Tensor.take_rows
        kinds.update(node._backward.__qualname__.split(".<locals>")[0]
                     for node in recorded_nodes(self))
        real(self, grad)

    monkeypatch.setattr(Tensor, "backward", recording)
    # the end-to-end rows probe a whole loss at a few coordinates; each op
    # kind needs a row of its own
    monkeypatch.setattr(gradcheck, "_end_to_end_check", lambda seed, with_mp: ("", 0.0, True))
    run_gradient_suite(0)
    suite_kinds, kinds = kinds, set()
    runs = [(v, None) for v in VARIANTS] + [("mp-all+noises", {"noise_kind": k})
                                            for k in ("shift", "scale")]
    for variant, mp in runs:  # on three layers, as mp-first-3 needs
        trainer.run_training(small_config(variant, mp, num_layers=3, steps=1))
    assert kinds and kinds <= suite_kinds, kinds - suite_kinds


def count_sigmoid_calls(monkeypatch) -> list:
    """Counts every call of tensor.sigmoid_softplus, the one sigmoid pass,
    under whatever name an mpseg module imported it."""
    calls = []
    real = tensor.sigmoid_softplus

    def counting(x):
        calls.append(None)
        return real(x)

    for name, module in list(sys.modules.items()):
        if name.startswith("mpseg") and getattr(module, "sigmoid_softplus", None) is real:
            monkeypatch.setattr(module, "sigmoid_softplus", counting)
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


def test_evaluation_runs_no_mp_code(monkeypatch):
    """MP adds no computation at inference: evaluate hands full_forward
    only specs with no MP part, every forward it runs has the n_queries
    matching rows alone, and no SeedSequence is built for build_mp_part.
    The same recorders see an MP part in an evaluate_scenes pass with an
    mp_seed."""
    cfg, scene, params = default_scene_and_params()
    scenes = [scene, generate_scene(cfg, 1)]
    forward, seq = trainer.full_forward, np.random.SeedSequence
    specs, rows, askers = [], [], []

    def recording_forward(spec, p):
        out = forward(spec, p)
        specs.append(spec)
        rows.append({out.n_match} | {len(m) for m in out.mask_logits}
                    | {len(c.values) for c in out.class_logits})
        return out

    def recording_seq(*args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_code.co_name == "seeded_rng":
            frame = frame.f_back
        askers.append(frame.f_code.co_name)
        return seq(*args, **kwargs)

    monkeypatch.setattr(trainer, "full_forward", recording_forward)
    monkeypatch.setattr(np.random, "SeedSequence", recording_seq)
    trainer.evaluate(params, scenes, cfg, LossWeights())
    assert len(specs) == len(scenes) and all(spec.mp is None for spec in specs)
    assert rows == [{params.n_queries}] * len(scenes)
    assert "synth_features" in askers and "build_mp_part" not in askers
    trainer.evaluate_scenes(params, scenes, cfg, LossWeights(), mp_seed=0)
    assert len(specs) == 2 * len(scenes) and all(s.mp is not None for s in specs[len(scenes):])
    assert askers.count("build_mp_part") == len(scenes)


def test_evaluating_no_scenes_raises_value_error():
    cfg, _, params = default_scene_and_params()
    for evaluate in (trainer.evaluate, trainer.evaluate_scenes):
        with pytest.raises(ValueError, match="empty evaluation scene set"):
            evaluate(params, [], cfg, LossWeights())


def step_config(variant: str, num_layers: int = 9) -> RunConfig:
    """The default run config of variant at synth.seed 3, the scene of
    default_scene_and_params: mp-all+noises's MP part is the default
    MPConfig's, and step 0 seeds it [0, 2, 0]."""
    return parse_run_config({"variant": variant, "synth": {"seed": 3},
                             "model": {"num_layers": num_layers}})


def default_step(variant: str, params, num_layers: int = 9) -> tuple:
    """step_loss of step 0 of variant on the default scene at params;
    checks that only mp-all+noises has an MP part."""
    cfg, scene, _ = default_scene_and_params()
    step = trainer.step_loss(step_config(variant, num_layers), params, scene,
                             synth_features(scene, cfg), 0)
    assert (step[2] is not None) == (variant == "mp-all+noises")
    return step


def step_sigmoid_calls(monkeypatch, variant: str) -> tuple:
    """(sigmoid passes of one default training step, the layer count L)."""
    _, _, params = default_scene_and_params()
    calls = count_sigmoid_calls(monkeypatch)
    default_step(variant, params)
    return len(calls), params.num_layers


def test_a_plain_step_computes_one_sigmoid_per_layer(monkeypatch):
    calls, num_layers = step_sigmoid_calls(monkeypatch, "baseline")
    assert calls == num_layers + 1


def test_an_mp_step_computes_one_sigmoid_per_layer(monkeypatch):
    calls, num_layers = step_sigmoid_calls(monkeypatch, "mp-all+noises")
    assert calls == num_layers + 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_loss_is_the_loss_of_the_steps_mp_stream_over_layers_1_to_l(monkeypatch, variant):
    """step_loss asks build_mp_part for layers 1..L from the stream
    [cfg.seed, 2, step], and its loss and vectors are bitwise layer_losses
    of full_forward of that part's spec."""
    cfg = dataclasses.replace(small_config(variant, num_layers=3), seed=7)
    params = init_params(seed=1, n_queries=3, n_layers=3, dim=8, ffn_hidden=4,
                         num_categories=cfg.synth.num_categories)
    scene = generate_scene(cfg.synth, 2)
    features = synth_features(scene, cfg.synth)
    asked = []
    real = trainer.build_mp_part

    def recording(scene, num_categories, mp_cfg, layers, seed):
        asked.append((list(layers), seed))
        return real(scene, num_categories, mp_cfg, layers, seed)

    monkeypatch.setattr(trainer, "build_mp_part", recording)
    loss, vectors, mp_part = trainer.step_loss(cfg, params, scene, features, 5)
    assert asked == [([1, 2, 3], [7, 2, 5])]
    assert (mp_part is not None) == VARIANTS[variant][0]
    ref_part = real(scene, params.num_categories, cfg.mp, range(1, 4), [7, 2, 5])
    ref_loss, ref_vectors = layer_losses(full_forward(ForwardSpec(features, ref_part), params),
                                         scene, ref_part, cfg.loss_mode, cfg.loss)
    assert loss.values.tobytes() == ref_loss.values.tobytes()
    assert vectors.tobytes() == ref_vectors.tobytes()


def reference_adamw_step(state, pairs, lr, b1=0.9, b2=0.999, eps=1e-8, weight_decay=0.05,
                         exempt=("query_embed", "class_embed")):
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
    """Both decay-exempt parameters between decayed ones, and one that
    never receives a gradient."""
    rng = np.random.default_rng(seed)
    return [("w", Tensor(rng.standard_normal((3, 4)))),
            ("query_embed", Tensor(rng.standard_normal((2, 4)))),
            ("b", Tensor(rng.standard_normal(4))),
            ("class_embed", Tensor(rng.standard_normal((5, 4)))),
            ("idle", Tensor(rng.standard_normal((2, 2))))]


def set_random_grads(pairs, rng):
    for name, p in pairs:
        p.grad = None if name == "idle" else rng.standard_normal(p.values.shape)


def test_flat_adamw_is_bitwise_the_per_array_update():
    flat_pairs, ref_pairs = adamw_pairs(0), adamw_pairs(0)
    opt = trainer.AdamW(flat_pairs, lr=1e-2, weight_decay=0.05)
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


def test_flat_adamw_lays_out_its_buffer_at_construction():
    pairs = adamw_pairs(2)
    before = [p.values.copy() for _, p in pairs]
    opt = trainer.AdamW(pairs)
    assert all(np.shares_memory(p.values, opt.flat) for _, p in pairs)
    assert all((p.values.shape, p.values.tobytes()) == (v.shape, v.tobytes())
               for (_, p), v in zip(pairs, before))


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


def recorded_nodes(loss) -> list:
    """Recorded operations reachable from the loss (leaves not included)."""
    seen, stack, recorded = {id(loss)}, [loss], []
    while stack:
        node = stack.pop()
        if node._parents:
            recorded.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return recorded


def step_losses(num_layers=9):
    """(MP loss, plain loss) of one training step at the default model
    size, or with num_layers decoder layers."""
    cfg, _, _ = default_scene_and_params()
    params = init_params(seed=4, n_layers=num_layers, num_categories=cfg.num_categories)
    return tuple(default_step(variant, params, num_layers)[0]
                 for variant in ("mp-all+noises", "baseline"))


def node_kinds(loss) -> Counter:
    """How many nodes of each kind the loss's tape holds, a kind being the
    function that defines the node's backward, e.g. Tensor.take_rows."""
    return Counter(node._backward.__qualname__.split(".<locals>")[0]
                   for node in recorded_nodes(loss))


def test_tape_nodes_per_step_at_the_default_model_size():
    mp_loss, plain_loss = step_losses()
    # the decoder's 76 and 74 nodes, then one loss node over every layer.
    # The decoder records 2 head nodes (the mask embeddings' mlp2 and the
    # class logits' linear) for layer 0 and for each of the 9 layers, and
    # per layer a cross-attention, a self-attention, an mlp2 and their 3
    # add_norm_affine nodes, each over all query parts: 20 + 54 = 74.
    # With MP the queries add a take_rows and a concat_rows node once:
    # 74 + 2 = 76
    assert (len(recorded_nodes(mp_loss)), len(recorded_nodes(plain_loss))) == (77, 75)


def test_the_mp_part_adds_no_per_layer_node():
    mp_loss, plain_loss = step_losses(num_layers=3)
    extra = node_kinds(mp_loss)
    extra.subtract(node_kinds(plain_loss))
    assert +extra == Counter({"Tensor.take_rows": 1, "concat_rows": 1})
    assert -extra == Counter()


def params_after_an_mp_and_a_plain_step() -> list:
    """Parameter bytes after one MP and then one plain training step at
    the default model size: step_loss, backward, AdamW."""
    _, _, params = default_scene_and_params()
    pairs = named_parameters(params)
    opt = trainer.AdamW(pairs)
    for variant in ("mp-all+noises", "baseline"):
        loss = default_step(variant, params)[0]
        opt.zero_grad()
        loss.backward()
        opt.step()
    return [p.values.tobytes() for _, p in pairs]


def test_no_gradient_a_training_step_stores_has_a_pixel_axis(monkeypatch):
    """Every array that _accumulate stores during a default MP step and a
    plain step is free of the scene's 32x32 pixels, a (rows, 32, 32) or
    (rows, 1024) array: the loss is differentiated at the mask
    embeddings. (The (32, 32) arrays are weights of the model's width.)"""
    shapes = []
    real = Tensor._accumulate

    def recording(self, g):
        shapes.append(np.shape(g))
        real(self, g)

    monkeypatch.setattr(Tensor, "_accumulate", recording)
    params_after_an_mp_and_a_plain_step()
    assert len(shapes) > 2 * 75
    assert not [s for s in shapes if 32 * 32 in s or len(s) > 2]


def test_a_training_step_forms_no_gradient_that_nothing_keeps(monkeypatch):
    """Every gradient that a default MP step and a plain step hand
    _accumulate is for a Tensor that tracks gradients, so _accumulate
    drops none: a cross-attention's constant feature source gets no
    gradient formed for it."""
    tracked = []
    real = Tensor._accumulate

    def recording(self, g):
        tracked.append(self.requires_grad)
        real(self, g)

    monkeypatch.setattr(Tensor, "_accumulate", recording)
    params_after_an_mp_and_a_plain_step()
    assert len(tracked) > 2 * 75
    assert all(tracked)


def test_training_steps_never_write_into_a_stored_gradient(monkeypatch):
    expected = params_after_an_mp_and_a_plain_step()
    real = Tensor._accumulate

    def read_only(self, *args, **kwargs):
        real(self, *args, **kwargs)
        if isinstance(self.grad, np.ndarray):  # a numpy scalar is immutable anyway
            self.grad.flags.writeable = False

    monkeypatch.setattr(Tensor, "_accumulate", read_only)
    assert params_after_an_mp_and_a_plain_step() == expected


def test_training_and_evaluation_never_write_into_the_scene_arrays(monkeypatch):
    """layer_losses, cost_matrix and build_mp_part read scene.masks and
    scene.categories as they are; build_mp_part noises its rows in place,
    so they must only ever be a copy, also when the MP part has a single
    group."""
    synth_cfg = SynthConfig(seed=5)
    scenes = [generate_scene(synth_cfg, i) for i in range(3)]
    before = [(s.categories.copy(), s.masks.copy()) for s in scenes]
    monkeypatch.setattr(trainer, "load_or_generate_scenes", lambda cfg: (scenes, synth_cfg))
    runs = [("mp-all+noises", {"noise_kind": k}) for k in ("point", "shift", "scale")]
    runs += [("mp-all+noises", {"n_q": 2}), ("mp-all-layers", {})]
    for variant, mp in runs:
        params, _, _ = trainer.run_training(parse_run_config({
            "variant": variant, "mp": mp, "train": {"steps": 1},
            "model": {"n_queries": 4, "num_layers": 2, "ffn_hidden": 8}}))
    trainer.evaluate(params, scenes, synth_cfg, LossWeights())
    for scene, (categories, masks) in zip(scenes, before):
        assert np.array_equal(scene.categories, categories)
        assert np.array_equal(scene.masks, masks)


def test_no_two_random_streams_of_a_run_and_its_analysis_coincide(monkeypatch):
    """Records every SeedSequence that a small MP run_training and one
    analyze pass build, keyed by the function that asks for it (its
    purpose), its seed list and its spawn key: no two keys share a
    stream. numpy pads a seed list with zero words to 4, so [0] and
    [0, 0] are one stream, and so are [0, 2, 0] and [0, 2]."""
    real = np.random.SeedSequence
    states = {}

    def recording(entropy=None, *, spawn_key=(), **kwargs):
        seq = real(entropy, spawn_key=spawn_key, **kwargs)
        frame = sys._getframe(1)
        while frame.f_code.co_name == "seeded_rng":
            frame = frame.f_back
        states[frame.f_code.co_name, repr(entropy), tuple(spawn_key)] = \
            tuple(seq.generate_state(4))
        return seq

    monkeypatch.setattr(np.random, "SeedSequence", recording)
    cfg = dataclasses.replace(small_config("mp-all+noises", steps=3), num_scenes=10)
    params, _, synth_cfg = trainer.run_training(cfg)
    scenes, _ = trainer.load_or_generate_scenes(cfg)
    trainer.evaluate_scenes(params, scenes, synth_cfg, LossWeights(), mp_seed=cfg.seed)
    purposes = {key[0] for key in states}
    assert purposes == {"init_params", "generate_scene", "synth_features", "build_mp_part"}
    assert len(states) == 1 + 10 + 10 + 3 + 10
    assert len(set(states.values())) == len(states)
