"""The benchmark's workloads: set-up, timed windows and output checks.

Every call into mpseg goes through a public function, made from here, in
the order ``trainer.run_training`` (training) or ``trainer.evaluate``
(evaluation) makes it. One loop serves the untraced and the traced run;
the untraced run passes a NullTracer whose hooks do nothing.

Closed loop, one scene per step, default configuration. Inputs come from
the seed: it seeds the synthetic scenes (``synth.seed``) and the run
(``seed``: MP noise). Both kinds of workload start from the trained
checkpoint kept in ``bench/data``: the eval workload evaluates it, and the
train workloads resume training from it. From a warm start the quality
metrics after ``quality_step`` steps vary across seeds by a few percent;
from a fresh init they vary by over 20%, too much for a bound to catch
a behaviour change. The output check against run_training itself starts
from init_params.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from mpseg import config, decoder, losses, metrics, synth, trainer

import environment
import speed
from make_checkpoint import CHECKPOINT
from spans import NullTracer, Tracer, median_or_zero

TRAIN_VARIANTS = {"train-plain": "baseline", "train-mp": "mp-all+noises"}
EVAL = "eval-holdout"
OUT_DIR = environment.ROOT / ".bench_out"

# Configuration of the output check against trainer.run_training.
CHECK_RUN = {"num_scenes": 5, "train": {"steps": 3}}


@dataclass(frozen=True)
class Size:
    num_scenes: int = 200     # the default config's scene count
    warmup: int = 5           # training steps run before timing starts
    min_timed: int = 100      # timed steps or scenes at least: five blocks of 20
    min_traced: int = 20      # steps or scenes in each copy of a traced run
    quality_step: int = 100   # quality fingerprint taken after this many steps
    setup_repeats: int = 9    # training set-ups timed per run; the median counts
    eval_setup_repeats: int = 25  # eval set-up takes ~20 ms, so it is repeated more
    block: int = 20           # training steps per block (an eval block is a pass)


FULL = Size()


@dataclass
class Outcome:
    """What one run measured and checked."""
    metrics: dict = field(default_factory=dict)   # name -> value
    samples: dict = field(default_factory=dict)   # name -> sample count
    info: dict = field(default_factory=dict)      # printed, not a metric
    series: dict = field(default_factory=dict)    # per-block values, details only
    checks: list = field(default_factory=list)    # (name, ok, detail)
    attempted: int = 0      # steps, scenes and output checks
    failed: int = 0         # those that raised, gave a non-finite loss or mismatched
    tracer: Tracer = None

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        self.failed += not ok


def run_config(variant: str, seed: int, overrides=None) -> config.RunConfig:
    raw = {"variant": variant, "seed": seed, "synth": {"seed": seed}}
    for key, value in (overrides or {}).items():
        raw[key] = {**raw.get(key, {}), **value} if isinstance(value, dict) else value
    cfg = config.parse_run_config(raw)
    return config.apply_variant(cfg)


def param_hash(params) -> str:
    h = hashlib.sha256()
    for name, t in decoder.named_parameters(params):
        h.update(name.encode("ascii"))
        h.update(np.ascontiguousarray(t.values).tobytes())
    return h.hexdigest()


def reports_equal(a: metrics.MetricsReport, b: metrics.MetricsReport) -> bool:
    return (np.array_equal(a.miou_l, b.miou_l) and np.array_equal(a.util, b.util)
            and a.ap == b.ap)


def tape_nodes(loss) -> int:
    """Recorded operations reachable from the loss: the nodes with
    parents that backward() will visit (leaves are not counted)."""
    seen = {id(loss)}
    stack = [loss]
    recorded = 0
    while stack:
        parents = stack.pop()._parents
        recorded += bool(parents)
        for parent in parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return recorded


# ----------------------------------------------------------------------
# training


@dataclass
class TrainState:
    cfg: config.RunConfig
    synth_cfg: object
    train_scenes: list
    eval_scenes: list
    pyramids: dict
    params: decoder.DecoderParams
    opt: trainer.AdamW
    scale_table: dict


def train_setup(cfg, tracer, warm_start=None) -> TrainState:
    """What run_training does before its first step. With warm_start (a
    checkpoint path), training resumes from those weights instead of
    init_params, with fresh optimizer state."""
    scenes, synth_cfg = trainer.load_or_generate_scenes(cfg)
    train_scenes, eval_scenes = trainer.split_scenes(scenes, cfg.train.holdout_frac)
    pyramids = {}
    for s in train_scenes:
        with tracer.span("synth.features", trace_id=f"features-{s.index}"):
            pyramids[s.index] = synth.synth_features(s, synth_cfg)
    if warm_start is None:
        params = decoder.init_params(seed=cfg.seed, n_queries=cfg.model.n_queries,
                                     n_layers=cfg.model.num_layers, dim=cfg.model.dim,
                                     num_categories=synth_cfg.num_categories,
                                     ffn_hidden=cfg.model.ffn_hidden)
    else:
        params, _meta = decoder.load_checkpoint(warm_start)
    opt = trainer.AdamW(decoder.named_parameters(params), lr=cfg.train.lr,
                        weight_decay=cfg.train.weight_decay)
    scale_table = trainer.layer_scale_table(synth_cfg.height, synth_cfg.width,
                                            cfg.model.num_layers)
    return TrainState(cfg, synth_cfg, train_scenes, eval_scenes, pyramids, params,
                      opt, scale_table)


def train_step(st: TrainState, step: int, lr: float, tracer) -> float:
    """One step of run_training's loop; returns the loss value."""
    cfg = st.cfg
    scene = st.train_scenes[step % len(st.train_scenes)]
    pyramid = st.pyramids[scene.index]
    if cfg.mp.enabled:
        with tracer.span("mp.build"):
            spec, mp_part = trainer.mp_forward_spec(pyramid, scene, st.params, cfg.mp,
                                                    st.scale_table,
                                                    seed=[cfg.seed, 2, step])
        if mp_part is not None:
            tracer.count("mp.queries", mp_part.num_queries)
            tracer.count("mp.noised_masks",
                         sum(b.shape[0] for b in mp_part.overrides.values()))
    else:
        spec, mp_part = decoder.plain_spec(pyramid, st.params), None
    with tracer.span("decoder.forward"):
        outputs = decoder.full_forward(spec, st.params)
    with tracer.span("losses.layer_losses"):
        loss, _ = losses.layer_losses(outputs, scene, mp_part, cfg.loss_mode, cfg.loss)
    loss_val = float(loss.values)
    if not np.isfinite(loss_val):
        raise trainer.NumericError(step)
    with tracer.span("trainer.adamw"):
        st.opt.zero_grad()
    if isinstance(tracer, Tracer):
        with tracer.span("trace.tape_walk"):
            tracer.count("tensor.tape_nodes", tape_nodes(loss))
    with tracer.span("tensor.backward"):
        loss.backward()
    with tracer.span("trainer.adamw"):
        st.opt.step(lr)
    return loss_val


class TrainLoop:
    """run_training's loop, one step per call to step(): learning-rate
    drops and epoch-loss bookkeeping included."""

    def __init__(self, st: TrainState, tracer):
        self.st = st
        self.tracer = tracer
        self.lr = st.cfg.train.lr
        self.steps = 0
        self.starts = []        # perf_counter at the start of each step
        self.wall = []          # seconds per step
        self.cpu = []
        self.losses = []
        self.epoch_losses = []
        self._epoch_acc = []

    def done(self) -> bool:
        return self.steps >= self.st.cfg.train.steps

    def step(self):
        cfg = self.st.cfg
        step = self.steps
        t0, c0 = perf_counter(), process_time()
        self.starts.append(t0)
        with self.tracer.span("step", trace_id=step):
            if step in cfg.train.decay_points:
                self.lr *= cfg.train.decay_factor
            loss_val = train_step(self.st, step, self.lr, self.tracer)
        self.cpu.append(process_time() - c0)
        self.wall.append(perf_counter() - t0)
        self.losses.append(loss_val)
        self._epoch_acc.append(loss_val)
        if (len(self._epoch_acc) == len(self.st.train_scenes)
                or step == cfg.train.steps - 1):
            self.epoch_losses.append(float(np.mean(self._epoch_acc)))
            self._epoch_acc = []
        self.steps += 1


def params_from_values(values) -> decoder.DecoderParams:
    """A decoder shaped like the kept checkpoint holding `values`."""
    params, _meta = decoder.load_checkpoint(CHECKPOINT)
    for (_name, p), v in zip(decoder.named_parameters(params), values):
        p.values = v
    return params


# ----------------------------------------------------------------------
# evaluation


@dataclass
class EvalPass:
    report: metrics.MetricsReport
    wall: list          # seconds per scene
    cpu: list
    pass_s: float       # the whole pass: detach, scenes, means and AP-lite
    losses: list        # per-scene holdout loss, when asked for
    probes: list        # speed probe seconds, one after each scene, when asked for


def eval_pass(params, scenes, synth_cfg, weights, tracer, pass_id,
              with_loss=False, probe=False) -> EvalPass:
    """trainer.evaluate's calls, scene by scene (single-threaded path).
    With probe, the speed probe runs after each scene; pass_s leaves its
    time out."""
    wall, cpu, rows, loss_vals, probes = [], [], [], [], []
    t_pass = perf_counter()
    with tracer.span("pass", trace_id=f"pass-{pass_id}"):
        with tracer.span("trainer.detach_params"):
            frozen = trainer.detach_params(params)
        for scene in scenes:
            t0, c0 = perf_counter(), process_time()
            with tracer.span("step", trace_id=f"{pass_id}/{scene.index}"):
                with tracer.span("synth.features"):
                    pyramid = synth.synth_features(scene, synth_cfg)
                with tracer.span("decoder.forward"):
                    outputs = decoder.full_forward(decoder.plain_spec(pyramid, frozen),
                                                   frozen)
                with tracer.span("metrics.miou"):
                    miou = metrics.miou_layerwise(outputs)
                with tracer.span("metrics.matching_vectors"):
                    vectors = metrics.compute_matching_vectors(outputs, scene, weights)
                with tracer.span("metrics.util"):
                    util = metrics.util_layerwise(vectors, scene.num_instances)
                with tracer.span("metrics.extract_predictions"):
                    preds = metrics.extract_predictions(outputs)
            cpu.append(process_time() - c0)
            wall.append(perf_counter() - t0)
            if probe:
                probes.append(speed.probe())
            rows.append((miou, util, preds))
            if with_loss:
                loss, _ = losses.layer_losses(outputs, scene, None,
                                              "per-layer-bipartite", weights)
                loss_vals.append(float(loss.values))
        miou = np.mean([r[0] for r in rows], axis=0)
        util = np.mean([r[1] for r in rows], axis=0)
        with tracer.span("metrics.ap_lite"):
            ap = metrics.ap_lite([r[2] for r in rows], scenes)
    report = metrics.MetricsReport(miou_l=miou, util=util, ap=ap)
    return EvalPass(report, wall, cpu, perf_counter() - t_pass - sum(probes), loss_vals,
                    probes)


def eval_dataset(seed: int, num_scenes: int):
    """Write the seed's scene set as `mpseg gen-data` would; returns its path."""
    cfg = synth.SynthConfig(seed=seed)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"eval-scenes-seed{seed}-n{num_scenes}.txt"
    synth.save_dataset(path, [synth.generate_scene(cfg, i) for i in range(num_scenes)],
                       cfg)
    return path


def eval_setup(dataset_path):
    """What `mpseg eval` pays before evaluating: load the checkpoint and
    the dataset; then the held-out split of the default config."""
    params, _meta = decoder.load_checkpoint(CHECKPOINT)
    scenes, synth_cfg = synth.load_dataset(dataset_path)
    _, holdout = trainer.split_scenes(scenes, config.TrainSettings().holdout_frac)
    return params, holdout, synth_cfg


# ----------------------------------------------------------------------
# output checks


def check_against_run_training(out: Outcome, variant: str, seed: int):
    """At a small size, the benchmark's loop must reproduce run_training
    and evaluate bitwise, traced and untraced alike."""
    cfg = run_config(variant, seed, CHECK_RUN)
    ref_params, ref_report, _ = trainer.run_training(cfg)

    runs = {}
    for label, tracer in (("untraced", NullTracer()), ("traced", Tracer())):
        with tracer:
            st = train_setup(cfg, tracer)
            loop = TrainLoop(st, tracer)
            while not loop.done():
                loop.step()
            ev = eval_pass(st.params, st.eval_scenes, st.synth_cfg, cfg.loss, tracer, 0)
        runs[label] = (loop, param_hash(st.params), ev.report)

    loop, h, _ = runs["untraced"]
    out.check("loop matches run_training: parameters", h == param_hash(ref_params))
    out.check("loop matches run_training: epoch losses",
              loop.epoch_losses == ref_report.losses,
              f"{loop.epoch_losses} vs {ref_report.losses}")
    for label, (_loop, _h, report) in runs.items():
        out.check(f"{label} eval matches trainer.evaluate",
                  reports_equal(report, ref_report))
    loop_t, h_t, _ = runs["traced"]
    out.check("traced loop matches untraced: final loss and parameters",
              loop_t.losses[-1] == loop.losses[-1] and h_t == h)


# ----------------------------------------------------------------------
# workloads


class SetupTimer:
    """Times each call of make(), from a collected heap. The run calls it
    once before the window and again between blocks or passes of the
    window, never inside one, so the set-ups sample the machine's speed
    over the same stretch of time as the steps; it drifts by +-20% over
    seconds. setup_s is the interquartile mean, brought to the reference
    speed by the probes of the whole window."""

    def __init__(self, make):
        self.make = make
        self.times = []

    def __call__(self):
        gc.collect()
        t0 = perf_counter()
        result = self.make()
        self.times.append(perf_counter() - t0)
        return result

    def record(self, out: Outcome, probes):
        raw = interquartile_mean(self.times)
        out.metrics["setup_s"] = raw * speed.factor(probes)
        out.samples["setup_s"] = len(self.times)
        out.info["raw.setup_s"] = raw


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values.

    The machine's speed varies in two ways: bursts that slow a few blocks
    several-fold, and phases of +-20% lasting seconds. A median ignores
    bursts but jumps from one phase's value to the other's when the window
    holds about as much of each; a mean moves smoothly with the mix but
    takes the bursts in. This statistic trims the bursts and averages the
    phases.
    """
    v = sorted(values)
    k = len(v) // 4
    middle = v[k:len(v) - k]
    return sum(middle) / len(middle)


def _step_metrics(out: Outcome, blocks):
    """blocks: (wall seconds per step, CPU seconds per step, block seconds,
    speed probe seconds) for consecutive blocks of the window. Block
    seconds run from the first step's start to the last one's end, less
    the probes between, so GC pauses and work between its steps count.
    Each timing is taken per block (median, 90th percentile, rate) and
    brought to the reference speed by the block's probes, then reduced
    over the blocks by interquartile_mean."""
    per_block = {
        "step_ms_p50": [1e3 * statistics.median(w) for w, _c, _d, _p in blocks],
        "step_ms_p90": [1e3 * float(np.percentile(w, 90)) for w, _c, _d, _p in blocks],
        "step_cpu_ms": [1e3 * statistics.median(c) for _w, c, _d, _p in blocks],
        "steps_per_s": [len(w) / d for w, _c, d, _p in blocks],
    }
    factors = [speed.factor(p) for _w, _c, _d, p in blocks]
    steps = sum(len(w) for w, _c, _d, _p in blocks)
    for name, values in per_block.items():
        scaled = [v / f if name == "steps_per_s" else v * f
                  for v, f in zip(values, factors)]
        out.metrics[name], out.samples[name] = interquartile_mean(scaled), steps
        out.info[f"raw.{name}"] = interquartile_mean(values)
    out.info["speed_probe_ms"] = 1e3 * statistics.median(
        s for _w, _c, _d, p in blocks for s in p)
    out.series["raw.step_ms_p50"] = per_block["step_ms_p50"]
    out.series["speed_probe_ms"] = [1e3 * statistics.median(p) for _w, _c, _d, p in blocks]
    # ru_maxrss is in KiB on Linux
    out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.samples["peak_rss_mb"] = 1


def _paired_overhead(traced_wall, untraced_wall) -> float:
    """Median over paired samples of traced / untraced time, minus one.
    Pairs ran back to back, so drift in machine speed cancels."""
    return statistics.median(t / u for t, u in zip(traced_wall, untraced_wall)) - 1.0


def run_train(workload, seed, seconds, traced, size=FULL) -> Outcome:
    out = Outcome()
    variant = TRAIN_VARIANTS[workload]
    check_against_run_training(out, variant, seed)
    cfg = run_config(variant, seed, {"num_scenes": size.num_scenes})
    setup = SetupTimer(lambda: train_setup(cfg, NullTracer(), CHECKPOINT))
    st = setup()
    loop = TrainLoop(st, NullTracer())
    if traced:
        return _trace_train(out, cfg, loop, seconds, size)

    min_steps = max(size.warmup + size.min_timed, size.quality_step)
    snapshot = None
    probes = []     # probes[k] ran right after step k
    gc.collect()
    t_start = perf_counter()
    deadline = t_start + seconds
    try:
        while not loop.done() and (loop.steps < min_steps or perf_counter() < deadline):
            loop.step()
            probes.append(speed.probe())
            if loop.steps == size.quality_step:
                snapshot = [p.values.copy() for _, p in st.opt.pairs]
            at_block_end = (loop.steps - size.warmup) % size.block == 0
            due = t_start + seconds * len(setup.times) / size.setup_repeats
            if at_block_end and len(setup.times) < size.setup_repeats \
                    and perf_counter() >= due:
                setup()
    except trainer.NumericError as exc:
        out.attempted += loop.steps
        out.check("training steps gave finite losses", False, str(exc))
        return out
    setup.record(out, probes[size.warmup:])
    blocks = []
    for i in range(size.warmup, loop.steps - size.block + 1, size.block):
        j = i + size.block
        blocks.append((loop.wall[i:j], loop.cpu[i:j],
                       loop.starts[j - 1] + loop.wall[j - 1] - loop.starts[i]
                       - sum(probes[i:j - 1]), probes[i:j]))
    out.attempted += loop.steps
    _step_metrics(out, blocks)
    out.info["train_final_loss"] = loop.losses[-1]
    out.info["quality_step"] = size.quality_step

    qual = eval_pass(params_from_values(snapshot), st.eval_scenes, st.synth_cfg,
                     cfg.loss, NullTracer(), "quality", with_loss=True)
    _quality_metrics(out, qual)
    return out


def _trace_train(out: Outcome, cfg, loop: TrainLoop, seconds, size) -> Outcome:
    """Untraced and traced copies of one run, stepped in turn."""
    tracer = Tracer([(losses, "hungarian", "losses.hungarian_calls")])
    with tracer:
        traced = TrainLoop(train_setup(cfg, tracer, CHECKPOINT), tracer)
    min_steps = size.warmup + size.min_traced
    gc.collect()
    deadline = perf_counter() + seconds
    while not loop.done() and (loop.steps < min_steps or perf_counter() < deadline):
        loop.step()
        with tracer:
            traced.step()
    out.attempted += loop.steps + traced.steps
    out.check("traced run matches untraced: final loss and parameters",
              traced.losses[-1] == loop.losses[-1]
              and param_hash(traced.st.params) == param_hash(loop.st.params),
              f"{traced.losses[-1]!r} vs {loop.losses[-1]!r}")
    steps = list(range(size.warmup, loop.steps))
    setup_traces = [f"features-{s.index}" for s in traced.st.train_scenes]
    _layer_metrics(out, tracer, steps, setup_traces,
                   _paired_overhead(traced.wall[size.warmup:], loop.wall[size.warmup:]))
    out.tracer = tracer
    return out


def run_eval(seed, seconds, traced, size=FULL) -> Outcome:
    out = Outcome()
    weights = losses.LossWeights()
    dataset = eval_dataset(seed, size.num_scenes)
    setup = SetupTimer(lambda: eval_setup(dataset))
    params, holdout, synth_cfg = setup()

    # The untimed first pass warms caches, gives the quality metrics and
    # is checked against trainer.evaluate itself.
    reference = trainer.evaluate(params, holdout, synth_cfg, weights)
    first = eval_pass(params, holdout, synth_cfg, weights, NullTracer(), "warmup",
                      with_loss=not traced)
    out.check("eval loop matches trainer.evaluate", reports_equal(first.report, reference))

    tracer = Tracer([(metrics, "hungarian", "losses.hungarian_calls")])
    passes, traced_passes = [], []
    min_scenes = size.min_traced if traced else size.min_timed
    gc.collect()
    deadline = perf_counter() + seconds
    while len(holdout) * len(passes) < min_scenes or perf_counter() < deadline:
        k = len(passes)
        passes.append(eval_pass(params, holdout, synth_cfg, weights, NullTracer(), k,
                                probe=not traced))
        if traced:
            with tracer:
                traced_passes.append(eval_pass(params, holdout, synth_cfg, weights,
                                               tracer, k))
        elif len(setup.times) < size.eval_setup_repeats:
            setup()
    out.attempted += len(holdout) * (1 + len(passes) + len(traced_passes))
    out.check("every pass matches trainer.evaluate",
              all(reports_equal(p.report, reference) for p in passes + traced_passes))
    wall = [w for p in passes for w in p.wall]

    if not traced:
        setup.record(out, [s for p in passes for s in p.probes])
        _step_metrics(out, [(p.wall, p.cpu, p.pass_s, p.probes) for p in passes])
        _quality_metrics(out, first)
        return out

    steps = [f"{k}/{s.index}" for k in range(len(passes)) for s in holdout]
    pass_ids = [f"pass-{k}" for k in range(len(passes))]
    _layer_metrics(out, tracer, steps, pass_ids,
                   _paired_overhead([w for p in traced_passes for w in p.wall], wall))
    out.tracer = tracer
    return out


def _quality_metrics(out: Outcome, qual: EvalPass):
    out.metrics["final_loss"] = float(np.mean(qual.losses))
    out.metrics["holdout_util_mean"] = float(np.mean(qual.report.util))
    out.metrics["holdout_miou_l_mean"] = float(np.mean(qual.report.miou_l))
    for name in ("final_loss", "holdout_util_mean", "holdout_miou_l_mean"):
        out.samples[name] = len(qual.wall)
    out.info["holdout_ap_lite"] = qual.report.ap["mean"]


SPAN_METRICS = {
    "mp.build_ms": "mp.build",
    "decoder.forward_ms": "decoder.forward",
    "losses.layer_losses_ms": "losses.layer_losses",
    "tensor.backward_ms": "tensor.backward",
    "trainer.adamw_ms": "trainer.adamw",
    "synth.features_ms": "synth.features",
    "metrics.miou_ms": "metrics.miou",
    "metrics.matching_vectors_ms": "metrics.matching_vectors",
    "metrics.extract_predictions_ms": "metrics.extract_predictions",
    "metrics.ap_lite_ms": "metrics.ap_lite",
}
COUNT_METRICS = ("mp.queries", "mp.noised_masks", "losses.hungarian_calls",
                 "tensor.tape_nodes")


def _layer_metrics(out: Outcome, tracer: Tracer, steps, other_traces,
                   overhead: float):
    """Per-layer medians over the timed steps (and set-up or pass traces)."""
    step_set = set(steps)
    ordered = list(steps) + list(other_traces)
    for metric, span in SPAN_METRICS.items():
        vals = tracer.per_trace_ms(span, ordered)
        out.metrics[metric], out.samples[metric] = median_or_zero(vals), len(vals)
    for metric in COUNT_METRICS:
        vals = tracer.per_trace_count(metric, steps)
        out.metrics[metric], out.samples[metric] = median_or_zero(vals), len(vals)
    pauses = [1e3 * (end - start) for name, trace, _p, start, end in tracer.spans
              if name == "python.gc" and trace in step_set]
    out.metrics["python.gc_pause_ms"] = median_or_zero(pauses)
    out.samples["python.gc_pause_ms"] = len(pauses)
    out.metrics["python.gc_collections"] = len(pauses) / len(steps)
    out.samples["python.gc_collections"] = len(steps)
    selfs = [s for (name, trace, _p, _s, _e), s in zip(tracer.spans, tracer.self_ms())
             if name == "step" and trace in step_set]
    out.metrics["step.self_ms"] = median_or_zero(selfs)
    out.samples["step.self_ms"] = len(selfs)
    out.metrics["trace.overhead_frac"] = overhead
    out.samples["trace.overhead_frac"] = len(steps)


def run_workload(workload, seed, seconds, traced, size=FULL) -> Outcome:
    if workload == EVAL:
        return run_eval(seed, seconds, traced, size)
    return run_train(workload, seed, seconds, traced, size)
