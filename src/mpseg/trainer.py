"""Training loop: one scene per step, Adam with decoupled weight decay,
multistep learning-rate drops, deterministic per-step noise seeding.

Training step: step_loss, which run_training loops over and grad-check checks.

Evaluation pass: evaluate_scenes, the one loop that scores scenes. It
serves evaluate (the report of training and `mpseg eval`) and `mpseg analyze`.
"""

from __future__ import annotations

import copy
from collections import defaultdict

import numpy as np

from .config import RunConfig
from .decoder import (DecoderParams, ForwardSpec, full_forward, init_params,
                      layer_scale, named_parameters, scale_extents)
from .losses import NonFiniteError, layer_losses
from .metrics import (MetricsReport, compute_matching_vectors, config_hash,
                      extract_predictions, ap_lite, miou_layerwise, util_layerwise,
                      util_mp_bipartite)
from .mp import MPConfig, build_mp_part
from .synth import generate_scene, load_dataset, synth_features
from .tensor import Tensor


class NumericError(NonFiniteError):
    def __init__(self, step: int, what: str = "loss"):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step


class CompatibilityError(RuntimeError):
    pass


BETA1, BETA2 = 0.9, 0.999   # Adam's decay rates of the first and second moments
ADAM_EPS = 1e-8             # added to the root of the second moment
DECAY_EXEMPT = ("query_embed", "class_embed")  # Mask2Former's recipe: no decay on embeddings


class AdamW:
    """Adam with decoupled weight decay; the DECAY_EXEMPT embeddings are
    not decayed.

    Construction copies every parameter into one flat buffer, decayed
    parameters first, and rebinds its .values to a view of that buffer;
    the moments and work arrays are allocated with it. Each step is a
    fixed sequence of whole-buffer ufunc calls doing, elementwise, what
    per-array Adam does, so the values are bitwise equal to it.
    """

    def __init__(self, pairs, lr=1e-4, weight_decay=0.05):
        self.pairs = pairs
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        order = sorted(pairs, key=lambda pair: pair[0] in DECAY_EXEMPT)
        self._n_decay = sum(p.values.size for name, p in order if name not in DECAY_EXEMPT)
        self.flat = np.empty(sum(p.values.size for _, p in order))
        self.m, self.v, self._g, self._u = (np.zeros_like(self.flat) for _ in range(4))
        self._grads = []        # (parameter, its view of the gradient buffer)
        start = 0
        for _, p in order:
            end = start + p.values.size
            view = self.flat[start:end].reshape(p.values.shape)
            view[...] = p.values
            p.values = view
            self._grads.append((p, self._g[start:end].reshape(view.shape)))
            start = end

    def zero_grad(self):
        for _, p in self.pairs:
            p.grad = None

    def _gather(self):
        """Copy every gradient into the flat gradient buffer (zero where none)."""
        for p, grad in self._grads:
            if p.grad is None:
                grad.fill(0.0)
            else:
                grad[...] = p.grad

    def step(self, lr=None):
        lr = self.lr if lr is None else lr
        self._gather()
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        g, m, v, u = self._g, self.m, self.v, self._u
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=u)
        m += u
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=u)
        u *= g
        v += u
        w = g                                   # the gradients are spent: reuse their buffer
        np.divide(v, c2, out=w)
        np.sqrt(w, out=w)
        w += ADAM_EPS
        np.divide(m, c1, out=u)
        u /= w                                  # the Adam update
        if self.weight_decay:
            n = self._n_decay
            np.multiply(self.flat[:n], self.weight_decay, out=w[:n])
            u[:n] += w[:n]
        u *= lr
        self.flat -= u

    def values_finite(self) -> bool:
        """Whether every parameter value is finite."""
        return bool(np.isfinite(self.flat).all())


def layer_scale_table(height: int, width: int, num_layers: int) -> dict:
    """Layer index (1-based) -> the (h, w) extents of the feature scale
    that full_forward attends to at that layer, by the decoder's rule
    (decoder.scale_extents and decoder.layer_scale).

    It serves only bench/workloads.py, which passes its keys as the MP
    layers, and goes with the next change to the benchmark; everything
    else passes range(1, num_layers + 1)."""
    extents = scale_extents(height, width)
    return {i: extents[layer_scale(i)] for i in range(1, num_layers + 1)}


def detach_params(params: DecoderParams) -> DecoderParams:
    """A copy of params whose tensors share the values but track no
    gradient; the source is left as it is."""
    # deepcopy rebuilds the dataclasses and takes each parameter from the memo
    memo = {id(t): Tensor(t.values) for _, t in named_parameters(params)}
    return copy.deepcopy(params, memo)


def load_scenes(path):
    """(scenes, synth config) of a dataset file that holds at least one scene."""
    scenes, synth_cfg = load_dataset(path)
    if not scenes:
        raise CompatibilityError(f"{path}: dataset holds no scenes")
    return scenes, synth_cfg


def load_or_generate_scenes(cfg: RunConfig):
    if cfg.dataset_path:
        scenes, synth_cfg = load_scenes(cfg.dataset_path)
        if synth_cfg.feat_dim != cfg.model.dim:
            raise CompatibilityError(f"model dim {cfg.model.dim} != dataset feature dim "
                                     f"{synth_cfg.feat_dim}")
    else:
        synth_cfg = cfg.synth
        scenes = [generate_scene(synth_cfg, i) for i in range(cfg.num_scenes)]
    return scenes, synth_cfg


def split_scenes(scenes, holdout_frac: float):
    """(training scenes, held-out scenes): the last round(len(scenes) *
    holdout_frac) are held out, rounding half to even (5 scenes at 0.5
    hold out 2, 7 hold out 4). When that count is 0 or every scene, both
    lists are all the scenes: the run trains and evaluates on them all."""
    n_hold = int(round(len(scenes) * holdout_frac))
    if n_hold == 0 or n_hold == len(scenes):
        return scenes, scenes
    return scenes[:-n_hold], scenes[-n_hold:]


def mp_forward_spec(features, scene, params: DecoderParams, mp_cfg, layers,
                    seed) -> tuple:
    """(ForwardSpec, MPPart or None): the spec of every forward that may
    carry MP, over the scene's (H, W, d) feature grid. With no MP part
    (mp_cfg.enabled false, or a scene with no instance) the spec is
    ForwardSpec(features). layers and seed go to build_mp_part: layers is
    the layer indices, or any iterable of them, a dict keyed by them
    among them."""
    mp_part = build_mp_part(scene, params.num_categories, mp_cfg, layers, seed)
    return ForwardSpec(features, mp_part), mp_part


def step_loss(cfg: RunConfig, params: DecoderParams, scene, features, step: int) -> tuple:
    """Step `step`'s forward and loss on scene, whose feature grid is
    `features`: (loss Tensor, (L+1, n_match) matching vectors, MP part or
    None). cfg.mp's part pilots layers 1..L from the stream [cfg.seed, 2,
    step]. bench/workloads.py's train_step is a frozen copy, held bitwise
    to run_training by its check."""
    spec, mp_part = mp_forward_spec(features, scene, params, cfg.mp,
                                    range(1, cfg.model.num_layers + 1), [cfg.seed, 2, step])
    loss, vectors = layer_losses(full_forward(spec, params), scene, mp_part, cfg.loss_mode,
                                 cfg.loss)
    return loss, vectors, mp_part


def run_training(cfg: RunConfig, log=None):
    """Train per config; returns (params, report, synth_cfg). report.losses
    holds each epoch's mean step loss; the last epoch may be partial."""
    scenes, synth_cfg = load_or_generate_scenes(cfg)
    train_scenes, eval_scenes = split_scenes(scenes, cfg.train.holdout_frac)
    if train_scenes is eval_scenes and log is not None:
        log(f"no scene held out: the report scores the {len(scenes)} training scenes")
    features = {s.index: synth_features(s, synth_cfg) for s in train_scenes}

    params = init_params(seed=cfg.seed, n_queries=cfg.model.n_queries,
                         n_layers=cfg.model.num_layers, dim=cfg.model.dim,
                         num_categories=synth_cfg.num_categories,
                         ffn_hidden=cfg.model.ffn_hidden)
    opt = AdamW(named_parameters(params), lr=cfg.train.lr, weight_decay=cfg.train.weight_decay)

    n_train = len(train_scenes)
    step_losses = []
    lr = cfg.train.lr
    for step in range(cfg.train.steps):
        if step in cfg.train.decay_points:
            lr *= cfg.train.decay_factor
        scene = train_scenes[step % n_train]
        loss, _, _ = step_loss(cfg, params, scene, features[scene.index], step)
        loss_val = float(loss.values)
        if not np.isfinite(loss_val):
            raise NumericError(step)
        opt.zero_grad()
        loss.backward()
        opt.step(lr)
        if not opt.values_finite():
            raise NumericError(step, "parameters")
        step_losses.append(loss_val)
        if log is not None and (step % cfg.train.log_every == 0
                                or step == cfg.train.steps - 1):
            log(f"step {step} loss {loss_val:.4f} lr {lr:.2e}")

    report = evaluate(params, eval_scenes, synth_cfg, cfg.loss)
    report.losses = [float(np.mean(step_losses[i:i + n_train]))
                     for i in range(0, len(step_losses), n_train)]
    report.config_hash = config_hash(cfg.to_json())
    report.seed = cfg.seed
    return params, report, synth_cfg


def evaluate_scenes(params: DecoderParams, scenes, synth_cfg, weights,
                    mp_seed=None) -> tuple:
    """The evaluation pass, one forward per scene at detached params:
    ({row name: per-layer mean over scenes}, per-scene predictions). Rows:
    the matching part's miou_l (layers 1..L) and util (0..L) and, with
    mp_seed, mp_util_bipartite (0..L) of an MP part seeded [mp_seed, 3,
    scene index], which the matching part never reads."""
    if not scenes:
        raise ValueError("empty evaluation scene set")
    frozen = detach_params(params)
    # without mp_seed, MP is off and build_mp_part draws no random number
    mp_cfg = MPConfig(n_q=params.n_queries, enabled=mp_seed is not None)
    layers = range(1, params.num_layers + 1)
    rows, preds = defaultdict(list), []
    for scene in scenes:
        spec, _ = mp_forward_spec(synth_features(scene, synth_cfg), scene, frozen, mp_cfg,
                                  layers, [mp_seed, 3, scene.index])
        outputs = full_forward(spec, frozen)
        rows["miou_l"].append(miou_layerwise(outputs))
        vectors = compute_matching_vectors(outputs, scene, weights)
        rows["util"].append(util_layerwise(vectors, scene.num_instances))
        if spec.mp is not None:
            rows["mp_util_bipartite"].append(util_mp_bipartite(outputs, scene, weights))
        preds.append(extract_predictions(outputs))
    return {name: np.mean(row, axis=0) for name, row in rows.items()}, preds


def evaluate(params: DecoderParams, scenes, synth_cfg, weights) -> MetricsReport:
    """MP-free evaluation over scenes: the pass's rows and AP-lite."""
    rows, preds = evaluate_scenes(params, scenes, synth_cfg, weights)
    return MetricsReport(miou_l=rows["miou_l"], util=rows["util"], ap=ap_lite(preds, scenes))
