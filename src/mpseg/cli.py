"""Command-line entry points.

Verbs and the files they write:
- gen-data: the dataset file (--out or the config's "out");
- train: config-resolved.json, checkpoint.bin, report.txt and layers.csv
  in the run's out_dir;
- eval: report.txt and layers.csv in --out, when given;
- analyze: analysis.csv in --out, when given;
- grad-check: nothing;
- refine-study: the study CSV (--out or the config's "out").
Every per-layer CSV (layers.csv, analysis.csv) comes from
metrics.layer_table. eval's report and analyze's rows are read off one
evaluation pass, trainer.evaluate_scenes: analyze's adds an MP part to
each scene's forward, seeded by --seed, and its mp_util_bipartite row.
Exit codes: 0 ok, 1 check failure, 2 config error, 3 I/O error or a
malformed checkpoint or dataset, 4 numeric failure (a non-finite loss,
parameter or matching cost), 5 compatibility mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

from .config import (ConfigError, GenDataConfig, RefineStudyConfig, VARIANTS, build,
                     load_config_json, parse_run_config)
from .decoder import load_checkpoint, save_checkpoint
from .fields import MAX_SEED
from .losses import LossWeights, NonFiniteError
from .metrics import config_hash, layer_table, sample_refinement_instance
from .masks import FormatError, seeded_rng
from .synth import generate_scene, save_dataset
from .trainer import (CompatibilityError, evaluate, evaluate_scenes, load_scenes,
                      run_training)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_COMPAT = 5


def cmd_gen_data(args) -> int:
    raw = load_config_json(args.config)
    synth = raw.get("synth", {})
    if args.seed is not None and isinstance(synth, dict):
        raw["synth"] = {**synth, "seed": args.seed}
    cfg = build(GenDataConfig, raw)
    out = args.out or cfg.out
    if not out:
        raise ConfigError("no output path (set 'out' in the config or pass --out)")
    scenes = [generate_scene(cfg.synth, i) for i in range(cfg.count)]
    data = save_dataset(out, scenes, cfg.synth)
    digest = hashlib.sha256(data.encode("ascii")).hexdigest()
    print(f"wrote {cfg.count} scenes to {out}")
    print(f"sha256 {digest}")
    return EXIT_OK


def _resolved_run_config(args):
    raw = load_config_json(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out:
        raw["out_dir"] = args.out
    if args.variant:
        raw["variant"] = args.variant
    cfg = parse_run_config(raw)
    if cfg.dataset_path and not os.path.exists(cfg.dataset_path):
        raise FileNotFoundError(f"dataset not found: {cfg.dataset_path}")
    return cfg


def _write(path, text: str):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def cmd_train(args) -> int:
    cfg = _resolved_run_config(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write(os.path.join(cfg.out_dir, "config-resolved.json"), cfg.to_json() + "\n")
    params, report, synth_cfg = run_training(cfg, log=print)
    save_checkpoint(os.path.join(cfg.out_dir, "checkpoint.bin"), params,
                    extra_meta={"feat_dim": synth_cfg.feat_dim,
                                "variant": cfg.variant, "seed": cfg.seed})
    _write(os.path.join(cfg.out_dir, "report.txt"), report.to_text())
    _write(os.path.join(cfg.out_dir, "layers.csv"), report.to_csv())
    print(f"done; artifacts in {cfg.out_dir}")
    return EXIT_OK


def _load_compatible(checkpoint_path, dataset_path):
    params, _meta = load_checkpoint(checkpoint_path)
    scenes, synth_cfg = load_scenes(dataset_path)
    if synth_cfg.feat_dim != params.dim:
        raise CompatibilityError(
            f"checkpoint dim {params.dim} != dataset feature dim {synth_cfg.feat_dim}")
    if synth_cfg.num_categories != params.num_categories:
        raise CompatibilityError(
            f"checkpoint has {params.num_categories} categories, dataset has "
            f"{synth_cfg.num_categories}")
    return params, scenes, synth_cfg


def cmd_eval(args) -> int:
    params, scenes, synth_cfg = _load_compatible(args.checkpoint, args.dataset)
    report = evaluate(params, scenes, synth_cfg, LossWeights())
    report.config_hash = config_hash(synth_cfg.to_json())
    text = report.to_text()
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write(os.path.join(args.out, "report.txt"), text)
        _write(os.path.join(args.out, "layers.csv"), report.to_csv())
    return EXIT_OK


def cmd_analyze(args) -> int:
    params, scenes, synth_cfg = _load_compatible(args.checkpoint, args.dataset)
    seed = args.seed if args.seed is not None else 0
    rows, _ = evaluate_scenes(params, scenes, synth_cfg, LossWeights(), mp_seed=seed)
    # miou_l holds layers 1..L and the util rows 0..L; the table starts at layer 1
    text, csv_text = layer_table({name: row[-params.num_layers:] for name, row in rows.items()})
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write(os.path.join(args.out, "analysis.csv"), csv_text)
    return EXIT_OK


def cmd_grad_check(args) -> int:
    from .gradcheck import run_gradient_suite
    results = run_gradient_suite(seed=args.seed if args.seed is not None else 0)
    ok = True
    for name, err, passed in results:
        print(f"{'PASS' if passed else 'FAIL'} {name} max_rel_err={err:.3e}")
        ok = ok and passed
    print("gradient suite:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CHECK


def cmd_refine_study(args) -> int:
    raw = load_config_json(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = build(RefineStudyConfig, raw)
    out = args.out or cfg.out
    if not out:
        raise ConfigError("no output path (set 'out' in the config or pass --out)")
    rng = seeded_rng([cfg.seed])
    lines = ["sigma,intra_min,intra_max,inter_min,inter_max,sum_alpha,sum_beta,"
             "ratio_bound,condition_holds,threshold_lo,threshold_hi,"
             "threshold_exists,separation"]
    n_guaranteed = 0
    n_exists = 0
    for sigma in cfg.sigmas:
        for _ in range(cfg.instances_per_sigma):
            b = sample_refinement_instance(rng, cfg.dim, float(sigma))
            lo, hi = b.threshold_interval if b.threshold_interval else (np.nan, np.nan)
            lines.append(
                f"{sigma},{b.intra_min:.6f},{b.intra_max:.6f},{b.inter_min:.6f},"
                f"{b.inter_max:.6f},{b.sum_alpha:.6f},{b.sum_beta:.6f},"
                f"{b.ratio_bound:.6f},{int(b.condition_holds)},{lo:.6f},{hi:.6f},"
                f"{int(b.threshold_exists)},{b.separation}")
            n_guaranteed += b.condition_holds
            n_exists += b.threshold_exists
    _write(out, "\n".join(lines) + "\n")
    total = len(cfg.sigmas) * cfg.instances_per_sigma
    print(f"{total} instances: condition held on {n_guaranteed}, "
          f"threshold found on {n_exists}; csv at {out}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="mpseg",
                                description="Mask-piloted segmentation testbed")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=False, ckpt=False, seed=True):
        if config:
            sp.add_argument("--config", required=True, help="JSON config path")
        if ckpt:
            sp.add_argument("--checkpoint", required=True)
            sp.add_argument("--dataset", required=True)
        if seed:  # eval, the verb without it, draws no random numbers
            sp.add_argument("--seed", type=int, default=None, help="override config seed")
        if config or ckpt:  # grad-check, the verb with neither, writes no file
            sp.add_argument("--out", default=None, help="override output path")

    common(sub.add_parser("gen-data", help="write a synthetic dataset"), config=True)
    tr = sub.add_parser("train", help="train a decoder")
    common(tr, config=True)
    tr.add_argument("--variant", choices=VARIANTS, default=None)
    common(sub.add_parser("eval", help="evaluate a checkpoint"), ckpt=True, seed=False)
    common(sub.add_parser("analyze", help="layer-wise diagnostics table"), ckpt=True)
    common(sub.add_parser("grad-check", help="finite-difference gradient suite"))
    common(sub.add_parser("refine-study", help="threshold-separation study"),
           config=True)
    return p


HANDLERS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "analyze": cmd_analyze,
    "grad-check": cmd_grad_check,
    "refine-study": cmd_refine_study,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = getattr(args, "seed", None)
        if seed is not None and not 0 <= seed <= MAX_SEED:
            raise ConfigError(f"--seed must be an integer in [0, {MAX_SEED}], got {seed}")
        # a non-finite value ends the verb with its own one-line message
        with np.errstate(all="ignore"):
            return HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NonFiniteError as exc:  # NumericError among them
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CompatibilityError as exc:
        print(f"compatibility error: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
