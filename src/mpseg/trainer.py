"""Training loop: one scene per step, Adam with decoupled weight decay,
multistep learning-rate drops, deterministic per-step noise seeding.
"""

from __future__ import annotations

import copy

import numpy as np

from .config import RunConfig
from .decoder import (DecoderParams, ForwardSpec, full_forward, init_params,
                      layer_scale, named_parameters, plain_spec)
from .losses import NonFiniteError, layer_losses
from .metrics import (MetricsReport, compute_matching_vectors, config_hash,
                      extract_predictions, ap_lite, miou_layerwise, util_layerwise)
from .mp import build_mp_part
from .synth import generate_scene, load_dataset, pyramid_extents, synth_features
from .tensor import Tensor


class NumericError(NonFiniteError):
    def __init__(self, step: int, what: str = "loss"):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step


class CompatibilityError(RuntimeError):
    pass


class AdamW:
    """Adam with decoupled weight decay; embeddings are decay-exempt.

    At the first step() every parameter is copied into one flat buffer,
    decayed parameters first, and its .values becomes a view of that
    buffer; the moments and work arrays are allocated then too, not at
    construction. Each step is a fixed sequence of whole-buffer ufunc
    calls doing, elementwise, what per-array Adam does, so the values are
    bitwise equal to it. A parameter whose .values was rebound since is
    re-adopted: its new values are copied into the buffer.
    """

    def __init__(self, pairs, lr=1e-4, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.05, exempt=("query_embed", "class_embed")):
        self.pairs = pairs
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.exempt = set(exempt)
        self.t = 0
        self.flat = None        # every parameter's values, allocated at the first step

    def zero_grad(self):
        for _, p in self.pairs:
            p.grad = None

    def _allocate(self):
        order = sorted(self.pairs, key=lambda pair: pair[0] in self.exempt)
        self._n_decay = sum(p.values.size for name, p in order if name not in self.exempt)
        sizes = [p.values.size for _, p in order]
        self.flat = np.empty(sum(sizes))
        self.m, self.v, self._g, self._u = (np.zeros_like(self.flat) for _ in range(4))
        ends = np.cumsum(sizes)
        spans = {id(p): (end - size, end) for (_, p), size, end in zip(order, sizes, ends)}
        self._views, self._grads = [], []
        for _, p in self.pairs:  # views in pairs order, as _gather walks them
            a, b = spans[id(p)]
            view = self.flat[a:b].reshape(p.values.shape)
            view[...] = p.values
            p.values = view
            self._views.append(view)
            self._grads.append(self._g[a:b].reshape(p.values.shape))

    def _gather(self):
        """Copy every gradient into the flat gradient buffer (zero where
        none) and re-adopt rebound values."""
        for (name, p), view, grad in zip(self.pairs, self._views, self._grads):
            if p.values is not view:
                if p.values.shape != view.shape:
                    raise ValueError(f"parameter {name} was rebound to shape "
                                     f"{p.values.shape}, expected {view.shape}")
                view[...] = p.values
                p.values = view
            if p.grad is None:
                grad.fill(0.0)
            else:
                grad[...] = p.grad

    def step(self, lr=None):
        lr = self.lr if lr is None else lr
        if self.flat is None:
            self._allocate()
        self._gather()
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        g, m, v, u = self._g, self.m, self.v, self._u
        m *= self.b1
        np.multiply(g, 1.0 - self.b1, out=u)
        m += u
        v *= self.b2
        np.multiply(g, 1.0 - self.b2, out=u)
        u *= g
        v += u
        w = g                                   # the gradients are spent: reuse their buffer
        np.divide(v, c2, out=w)
        np.sqrt(w, out=w)
        w += self.eps
        np.divide(m, c1, out=u)
        u /= w                                  # the Adam update
        if self.weight_decay:
            n = self._n_decay
            np.multiply(self.flat[:n], self.weight_decay, out=w[:n])
            u[:n] += w[:n]
        u *= lr
        self.flat -= u

    def values_finite(self) -> bool:
        """Whether every parameter value is finite (True before the first step)."""
        return self.flat is None or bool(np.isfinite(self.flat).all())


def layer_scale_table(height: int, width: int, num_layers: int) -> dict:
    """Layer index (1-based) -> the (h, w) extents of the pyramid scale
    that full_forward attends to at that layer."""
    extents = pyramid_extents(height, width)
    return {i: extents[layer_scale(i, len(extents))] for i in range(1, num_layers + 1)}


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
    n_hold = int(round(len(scenes) * holdout_frac))
    if n_hold == 0 or n_hold == len(scenes):
        return scenes, scenes
    return scenes[:-n_hold], scenes[-n_hold:]


def mp_forward_spec(pyramid, scene, params: DecoderParams, mp_cfg, scale_table,
                    seed) -> tuple:
    """(ForwardSpec, MPPart-or-None) with the MP part attached when possible."""
    mp_part = build_mp_part(scene, params.class_embed, mp_cfg, scale_table, seed)
    return ForwardSpec(pyramid, params.query_embed, mp_part), mp_part


def run_training(cfg: RunConfig, log=None):
    """Train per config; returns (params, report, synth_cfg)."""
    scenes, synth_cfg = load_or_generate_scenes(cfg)
    train_scenes, eval_scenes = split_scenes(scenes, cfg.train.holdout_frac)
    pyramids = {s.index: synth_features(s, synth_cfg) for s in train_scenes}

    params = init_params(seed=cfg.seed, n_queries=cfg.model.n_queries,
                         n_layers=cfg.model.num_layers, dim=cfg.model.dim,
                         num_categories=synth_cfg.num_categories,
                         ffn_hidden=cfg.model.ffn_hidden)
    pairs = named_parameters(params)
    opt = AdamW(pairs, lr=cfg.train.lr, weight_decay=cfg.train.weight_decay)
    scale_table = layer_scale_table(synth_cfg.height, synth_cfg.width,
                                    cfg.model.num_layers)

    n_train = len(train_scenes)
    epoch_losses = []
    epoch_acc = []
    lr = cfg.train.lr
    for step in range(cfg.train.steps):
        if step in cfg.train.decay_points:
            lr *= cfg.train.decay_factor
        scene = train_scenes[step % n_train]
        pyramid = pyramids[scene.index]
        if cfg.mp.enabled:
            spec, mp_part = mp_forward_spec(pyramid, scene, params, cfg.mp,
                                            scale_table, seed=[cfg.seed, 2, step])
        else:
            spec, mp_part = plain_spec(pyramid, params), None
        outputs = full_forward(spec, params)
        loss, _ = layer_losses(outputs, scene, mp_part, cfg.loss_mode, cfg.loss)
        loss_val = float(loss.values)
        if not np.isfinite(loss_val):
            raise NumericError(step)
        opt.zero_grad()
        loss.backward()
        opt.step(lr)
        if not opt.values_finite():
            raise NumericError(step, "parameters")
        epoch_acc.append(loss_val)
        if len(epoch_acc) == n_train or step == cfg.train.steps - 1:
            epoch_losses.append(float(np.mean(epoch_acc)))
            epoch_acc = []
        if log is not None and (step % cfg.train.log_every == 0
                                or step == cfg.train.steps - 1):
            log(f"step {step} loss {loss_val:.4f} lr {lr:.2e}")

    report = evaluate(params, eval_scenes, synth_cfg, cfg.loss)
    report.losses = epoch_losses
    report.config_hash = config_hash(cfg.to_json())
    report.seed = cfg.seed
    return params, report, synth_cfg


def evaluate(params: DecoderParams, scenes, synth_cfg, weights) -> MetricsReport:
    """MP-free evaluation over scenes; per-scene metrics averaged in order."""
    if not scenes:
        raise ValueError("empty evaluation scene set")
    frozen = detach_params(params)
    mious, utils, preds = [], [], []
    for scene in scenes:
        pyramid = synth_features(scene, synth_cfg)
        outputs = full_forward(plain_spec(pyramid, frozen), frozen)
        mious.append(miou_layerwise(outputs))
        vectors = compute_matching_vectors(outputs, scene, weights)
        utils.append(util_layerwise(vectors, scene.num_instances))
        preds.append(extract_predictions(outputs))
    return MetricsReport(miou_l=np.mean(mious, axis=0), util=np.mean(utils, axis=0),
                         ap=ap_lite(preds, scenes))
