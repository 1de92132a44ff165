"""An equality trace of mpseg's outputs: the check that a refactor keeps
every output as it was, and the map of where a change moves them; and a
step comparison, the check that a change keeps them within a tolerance.

    python3 scripts/trace.py [--tiny] [--out FILE]
    python3 scripts/trace.py [--tiny] --against DIR
    python3 scripts/trace.py [--tiny] --steps --against DIR

The trace is one JSON object:
- train: for each variant, and for mp-all+noises with shift and with
  scale noise, a short run_training's parameter sha256, its logged step
  losses, its epoch losses and its report.txt;
- eval, analyze: `mpseg eval` and `mpseg analyze` stdout on the kept
  benchmark checkpoint (bench/data/checkpoint.bin, which the trace only
  reads) and a `gen-data` set;
- csv: the per-layer CSV each of those verbs writes with --out, eval's
  layers.csv and analyze's analysis.csv, whose 6 decimals compare the
  rows that stdout prints to one decimal of a percent;
- grad_check: `mpseg grad-check` stdout at seeds 0-3.

The full size trains 8 steps of the default configuration per run and
scores 40 scenes (~10 s on 2 cores). --tiny trains 4 steps on 8x8 scenes
with a two-layer decoder, for two variants, scores 4 scenes and runs no
grad-check, whose rows are finite-difference errors near 1e-9 that carry
no number to compare (under 1 s).

--out writes the JSON (to stdout when absent). --against DIR runs this
same script on DIR's src/ and on this tree's, each in its own subprocess
with that src/ first on sys.path, and prints the first difference of
each entry that differs, then exits 1; with no difference it prints so
and exits 0. A subprocess traces only the mpseg package under its src/:
when DIR has no src/mpseg, or the mpseg it imports lies elsewhere (a
PYTHONPATH that names this tree's src/, say), it stops with one line on
stderr, and the run exits non-zero.

--steps compares training steps instead, and needs trees that have
trainer.step_loss (commit cf75da2 on). For each of STEP_VARIANTS, each
tree runs STEPS steps of the default configuration (at --tiny,
STEP_TINY) from a fresh init: step s is step_loss on training scene s,
then its loss's backward, all at the init parameters, so that both trees
compute every step from the same parameters. Each tree's subprocess
writes its matching vectors, losses, logits and every gradient to an
.npz (--steps --out FILE). One line per variant then gives whether the
matching vectors are equal, the largest relative loss difference, the
largest logit difference, and the largest gradient difference over its
array's largest entry, naming the array; the exit code is 0 when every
line is within BOUNDS, else 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CHECKPOINT = ROOT / "bench" / "data" / "checkpoint.bin"
VARIANTS = ("baseline", "mp-first-layer", "mp-first-3", "mp-all-layers", "mp-all+noises",
            "naive-fixed-matching", "naive-aux-loss")
# (steps, run config keys, gen-data config, grad-check seeds) per size
FULL = (8, {}, {"count": 40}, range(4))
TINY = (4, {"num_scenes": 10,
            "synth": {"height": 8, "width": 8, "feat_dim": 8, "instance_range": [1, 2],
                      "size_range": [2, 3]},
            "model": {"n_queries": 3, "num_layers": 2, "dim": 8, "ffn_hidden": 4}},
        # the checkpoint's dim is 32, so its scenes keep the default feat_dim
        {"count": 4, "synth": {"height": 8, "width": 8, "instance_range": [1, 2],
                               "size_range": [2, 3]}},
        range(0))
STEP_VARIANTS = ("baseline", "mp-all+noises", "mp-first-3", "naive-fixed-matching",
                 "naive-aux-loss")
STEPS = 4
# the step comparison's tiny size: a third layer, as mp-first-3 needs
STEP_TINY = {**TINY[1], "model": {**TINY[1]["model"], "num_layers": 3}}
# The step comparison's bounds: the decade above the largest difference
# that the two earlier changes to this code's rounding (per-row loss
# statistics; attention on the key columns read) gave: losses 3.5e-16
# relative, logits 1.4e-14 (6.4e-15 in this comparison) and gradients
# 6.4e-13 of their array's largest entry (a late layer's self-attention
# weights, whose entries are small).
BOUNDS = {"loss": 1e-15, "logits": 1e-13, "grad": 1e-12}


def runs(tiny: bool) -> dict:
    """Run name -> the run config keys of its variant and noise."""
    names = ("baseline", "mp-all+noises") if tiny else VARIANTS
    out = {v: {"variant": v} for v in names}
    out["mp-all+noises/shift"] = {"variant": "mp-all+noises", "mp": {"noise_kind": "shift"}}
    # at the default scale range most draws leave a small mask as it is
    out["mp-all+noises/scale"] = {"variant": "mp-all+noises",
                                  "mp": {"noise_kind": "scale", "scale_range": [0.5, 2.0]}}
    return out


def train_entry(raw: dict) -> dict:
    from mpseg.config import parse_run_config
    from mpseg.decoder import named_parameters
    from mpseg.trainer import run_training

    log = []
    params, report, _ = run_training(parse_run_config(raw), log=log.append)
    digest = hashlib.sha256()
    for _, p in named_parameters(params):
        digest.update(p.values.tobytes())
    return {"params_sha256": digest.hexdigest(), "log": log,
            "epoch_losses": report.losses, "report": report.to_text()}


def cli_stdout(*argv) -> str:
    from mpseg import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return out.getvalue() + f"exit {code}\n"


def trace(tiny: bool = False) -> dict:
    steps, size, gen_data, grad_seeds = TINY if tiny else FULL
    result = {"train": {}}
    for name, raw in runs(tiny).items():
        train = {"steps": steps, "log_every": 1}
        result["train"][name] = train_entry({**size, **raw, "train": train})
    with tempfile.TemporaryDirectory() as tmp:
        config, dataset = os.path.join(tmp, "gen.json"), os.path.join(tmp, "data.txt")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(gen_data, fh)
        cli_stdout("gen-data", "--config", config, "--out", dataset)
        result["csv"] = {}
        for verb, csv in (("eval", "layers.csv"), ("analyze", "analysis.csv")):
            out = os.path.join(tmp, verb)
            result[verb] = cli_stdout(verb, "--checkpoint", str(CHECKPOINT),
                                      "--dataset", dataset, "--out", out)
            with open(os.path.join(out, csv), encoding="ascii") as fh:
                result["csv"][csv] = fh.read()
    result["grad_check"] = {str(s): cli_stdout("grad-check", "--seed", str(s))
                            for s in grad_seeds}
    return result


def step_arrays(tiny: bool = False) -> dict:
    """"variant/step/what" -> array, for each of STEP_VARIANTS and STEPS
    steps from a fresh init at the init parameters: trainer.step_loss's
    matching vectors and loss, the mask and class logits of the forward
    it ran in one flat array, and each parameter's gradient after the
    loss's backward ("grad/<name>", zeros where it has none)."""
    from unittest import mock

    from mpseg import trainer
    from mpseg.config import parse_run_config
    from mpseg.decoder import init_params, named_parameters
    from mpseg.synth import generate_scene, synth_features

    def recorded(*args):
        forwards.append(forward(*args))
        return forwards[-1]

    size = STEP_TINY if tiny else {}
    out = {}
    for variant in STEP_VARIANTS:
        cfg = parse_run_config({**size, "variant": variant})
        params = init_params(seed=cfg.seed, n_queries=cfg.model.n_queries,
                             n_layers=cfg.model.num_layers, dim=cfg.model.dim,
                             num_categories=cfg.synth.num_categories,
                             ffn_hidden=cfg.model.ffn_hidden)
        pairs = named_parameters(params)
        for step in range(STEPS):
            scene = generate_scene(cfg.synth, step)
            forward, forwards = trainer.full_forward, []
            with mock.patch.object(trainer, "full_forward", recorded):
                loss, vectors = trainer.step_loss(cfg, params, scene,
                                                  synth_features(scene, cfg.synth), step)[:2]
            (outputs,) = forwards
            for _, p in pairs:
                p.grad = None
            loss.backward()
            key = f"{variant}/{step}/"
            out[key + "vectors"] = vectors
            out[key + "loss"] = loss.values
            out[key + "logits"] = np.concatenate([m.ravel() for m in outputs.mask_logits] +
                                                 [c.values.ravel() for c in outputs.class_logits])
            for name, p in pairs:
                out[key + "grad/" + name] = np.zeros_like(p.values) if p.grad is None else p.grad
    return out


def step_differences(a: dict, b: dict) -> list:
    """(variant, vectors equal, largest relative loss difference, largest
    logit difference, (largest gradient difference over its array's
    largest entry, "name at step s"), within BOUNDS) per variant of two
    step_arrays, b against a."""
    def worst(x, y):
        if x.shape != y.shape:
            return float("inf")
        scale = np.abs(x).max(initial=0.0)
        diff = np.abs(x - y).max(initial=0.0)
        if diff == 0.0:
            return 0.0
        return diff / scale if scale > 0.0 else float("inf")

    rows = []
    for variant in STEP_VARIANTS:
        equal, loss, logits, grad = True, 0.0, 0.0, (0.0, "-")
        for step in range(STEPS):
            key = f"{variant}/{step}/"
            x, y = a[key + "vectors"], b[key + "vectors"]
            equal = equal and x.shape == y.shape and bool((x == y).all())
            loss = max(loss, worst(a[key + "loss"], b[key + "loss"]))
            x, y = a[key + "logits"], b[key + "logits"]
            logits = max(logits, float(np.abs(x - y).max()) if x.shape == y.shape
                         else float("inf"))
            for name in sorted(k for k in a if k.startswith(key + "grad/")):
                err = worst(a[name], b[name]) if name in b else float("inf")
                if not err <= grad[0]:  # a NaN too
                    grad = (err, f"{name[len(key) + 5:]} at step {step}")
        ok = (equal and loss <= BOUNDS["loss"] and logits <= BOUNDS["logits"]
              and grad[0] <= BOUNDS["grad"])
        rows.append((variant, equal, loss, logits, grad, ok))
    return rows


def compare_steps(there: dict, here: dict) -> int:
    rows = step_differences(there, here)
    print(f"bounds: matching vectors equal, loss {BOUNDS['loss']:.0e} relative, "
          f"logits {BOUNDS['logits']:.0e}, gradient {BOUNDS['grad']:.0e} of its array's "
          f"largest entry")
    for variant, equal, loss, logits, (grad, name), ok in rows:
        print(f"{variant}: vectors {'equal' if equal else 'DIFFER'}, loss {loss:.1e}, "
              f"logits {logits:.1e}, gradient {grad:.1e} ({name}): "
              f"{'within bounds' if ok else 'OUT OF BOUNDS'}")
    return 0 if all(row[-1] for row in rows) else 1


def differences(a, b, path="") -> list:
    """(path, first difference) of each leaf of two traces that differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = [(f"{path}/{k}", "only in one trace") for k in sorted(set(a) ^ set(b))]
        for k in sorted(set(a) & set(b)):
            out += differences(a[k], b[k], f"{path}/{k}")
        return out
    if a == b:
        return []
    if isinstance(a, str) and isinstance(b, str):
        for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
            if x != y:
                return [(path, f"line {i + 1}: {x!r} != {y!r}")]
        return [(path, "one text is longer")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
        return differences(a[i], b[i], f"{path}[{i}]")
    return [(path, f"{a!r} != {b!r}")]


def in_subprocess(src: Path, tiny: bool, steps: bool) -> dict:
    """This script's trace of src's mpseg, or with steps its step_arrays,
    run in a subprocess; a failed subprocess ends this run with its code."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "steps.npz" if steps else "trace.json")
        cmd = [sys.executable, str(Path(__file__).resolve()), "--src", str(src), "--out", out]
        code = subprocess.run(cmd + ["--tiny"] * tiny + ["--steps"] * steps).returncode
        if code:
            sys.exit(code)
        if steps:
            with np.load(out) as arrays:
                return dict(arrays)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def import_mpseg(src: str) -> None:
    """Import the mpseg package under src, or exit with one line."""
    sys.path.insert(0, src)
    if (Path(src) / "mpseg" / "__init__.py").is_file():
        import mpseg
        if Path(src).resolve() in Path(mpseg.__file__).resolve().parents:
            return
    sys.exit(f"trace.py: {src} holds no mpseg package that this process imports")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tiny", action="store_true", help="the few-second size")
    p.add_argument("--out", help="write the JSON here, not to stdout")
    p.add_argument("--against", help="a tree to compare with, traced from its src/")
    p.add_argument("--steps", action="store_true",
                   help="compare (with --against) or write (with --out) training steps")
    p.add_argument("--src", default=str(ROOT / "src"), help="the mpseg sources to trace")
    args = p.parse_args(argv)
    if args.steps and not (args.against or args.out):
        p.error("--steps needs --against DIR or --out FILE")
    if args.against:
        there = in_subprocess(Path(args.against) / "src", args.tiny, args.steps)
        here = in_subprocess(ROOT / "src", args.tiny, args.steps)
        if args.steps:
            return compare_steps(there, here)
        diffs = differences(there, here)
        for path, what in diffs:
            print(f"{path}: {what}")
        print(f"{len(diffs)} entries differ" if diffs else "no difference")
        return 1 if diffs else 0
    import_mpseg(args.src)
    if args.steps:
        np.savez(args.out, **step_arrays(args.tiny))
        return 0
    text = json.dumps(trace(args.tiny), indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
