"""Command-line entry points.

Verbs: gen-data, train, eval, analyze, grad-check, refine-study.
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
from .decoder import full_forward, load_checkpoint, plain_spec, save_checkpoint
from .losses import LossWeights, NonFiniteError
from .metrics import (compute_matching_vectors, config_hash,
                      sample_refinement_instance, save_layer_csv, save_report,
                      miou_layerwise, util_layerwise, util_mp_bipartite,
                      util_mp_hard)
from .masks import FormatError
from .mp import MPConfig
from .synth import GenerationError, generate_scene, save_dataset, synth_features
from .trainer import (CompatibilityError, detach_params, evaluate,
                      layer_scale_table, load_scenes, mp_forward_spec, run_training)

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


def cmd_train(args) -> int:
    cfg = _resolved_run_config(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "config-resolved.json"), "w",
              encoding="utf-8") as fh:
        fh.write(cfg.to_json() + "\n")
    params, report, synth_cfg = run_training(cfg, log=print)
    save_checkpoint(os.path.join(cfg.out_dir, "checkpoint.bin"), params,
                    extra_meta={"feat_dim": synth_cfg.feat_dim,
                                "variant": cfg.variant, "seed": cfg.seed})
    save_report(os.path.join(cfg.out_dir, "report.txt"), report)
    save_layer_csv(os.path.join(cfg.out_dir, "layers.csv"), report)
    print(f"done; artifacts in {cfg.out_dir}")
    return EXIT_OK


def _load_compatible(checkpoint_path, dataset_path):
    params, meta = load_checkpoint(checkpoint_path)
    scenes, synth_cfg = load_scenes(dataset_path)
    if synth_cfg.feat_dim != params.dim:
        raise CompatibilityError(
            f"checkpoint dim {params.dim} != dataset feature dim {synth_cfg.feat_dim}")
    if synth_cfg.num_categories != params.num_categories:
        raise CompatibilityError(
            f"checkpoint has {params.num_categories} categories, dataset has "
            f"{synth_cfg.num_categories}")
    return params, meta, scenes, synth_cfg


def cmd_eval(args) -> int:
    params, _meta, scenes, synth_cfg = _load_compatible(args.checkpoint, args.dataset)
    report = evaluate(params, scenes, synth_cfg, LossWeights())
    report.config_hash = config_hash(synth_cfg.to_json())
    report.seed = args.seed if args.seed is not None else 0
    text = report.to_text()
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_report(os.path.join(args.out, "report.txt"), report)
        save_layer_csv(os.path.join(args.out, "layers.csv"), report)
    return EXIT_OK


def cmd_analyze(args) -> int:
    params, _meta, scenes, synth_cfg = _load_compatible(args.checkpoint, args.dataset)
    seed = args.seed if args.seed is not None else 0
    rows = analyze_dataset(params, scenes, synth_cfg, seed=seed)
    text, csv_text = format_analysis(rows, params.num_layers)
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "analysis.csv"), "w", encoding="ascii") as fh:
            fh.write(csv_text)
    return EXIT_OK


def analyze_dataset(params, scenes, synth_cfg, seed: int = 0):
    """Per-layer diagnostics: matching part (MP disabled) plus MP-part
    utilization under hard assignment and under bipartite matching."""
    weights = LossWeights()
    frozen = detach_params(params)
    mp_cfg = MPConfig(n_q=params.n_queries)
    scale_table = layer_scale_table(synth_cfg.height, synth_cfg.width,
                                    params.num_layers)
    miou_rows, util_rows, mp_hard_rows, mp_bi_rows = [], [], [], []
    for scene in scenes:
        pyramid = synth_features(scene, synth_cfg)
        plain_out = full_forward(plain_spec(pyramid, frozen), frozen)
        miou_rows.append(miou_layerwise(plain_out))
        vectors = compute_matching_vectors(plain_out, scene, weights)
        util_rows.append(util_layerwise(vectors, scene.num_instances))
        spec, mp_part = mp_forward_spec(pyramid, scene, frozen, mp_cfg, scale_table,
                                        [seed, 3, scene.index])
        if mp_part is not None:
            mp_hard_rows.append(util_mp_hard(mp_part))
            mp_bi_rows.append(util_mp_bipartite(full_forward(spec, frozen), scene,
                                                weights))
    return {
        "miou_l": np.mean(miou_rows, axis=0),
        "util": np.mean(util_rows, axis=0),
        "mp_util_hard": float(np.mean(mp_hard_rows)) if mp_hard_rows else float("nan"),
        "mp_util_bipartite": (np.mean(mp_bi_rows, axis=0) if mp_bi_rows
                              else np.full(1, np.nan)),
    }


def format_analysis(rows: dict, num_layers: int):
    header = ["layer"] + [str(i) for i in range(1, num_layers + 1)]
    miou = ["miou_l(%)"] + [f"{100 * v:.1f}" for v in rows["miou_l"]]
    util = ["util(%)"] + [f"{100 * v:.1f}" for v in rows["util"][1:]]
    hard = ["mp_util_hard(%)"] + [f"{100 * rows['mp_util_hard']:.1f}"] * num_layers
    bi = ["mp_util_bipartite(%)"] + [f"{100 * v:.1f}"
                                     for v in rows["mp_util_bipartite"][1:]]
    widths = [max(len(r[i]) for r in (header, miou, util, hard, bi))
              for i in range(len(header))]
    lines = []
    for r in (header, miou, util, hard, bi):
        lines.append("  ".join(s.rjust(w) for s, w in zip(r, widths)))
    text = "\n".join(lines) + "\n"

    csv_lines = ["layer,miou_l,util,mp_util_hard,mp_util_bipartite"]
    for i in range(1, num_layers + 1):
        bi_v = rows["mp_util_bipartite"][i] if i < len(rows["mp_util_bipartite"]) \
            else float("nan")
        csv_lines.append(f"{i},{100 * rows['miou_l'][i - 1]:.6f},"
                         f"{100 * rows['util'][i]:.6f},"
                         f"{100 * rows['mp_util_hard']:.6f},{100 * bi_v:.6f}")
    return text, "\n".join(csv_lines) + "\n"


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
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed])))
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
    with open(out, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    total = len(cfg.sigmas) * cfg.instances_per_sigma
    print(f"{total} instances: condition held on {n_guaranteed}, "
          f"threshold found on {n_exists}; csv at {out}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="mpseg",
                                description="Mask-piloted segmentation testbed")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=False, ckpt=False):
        if config:
            sp.add_argument("--config", required=True, help="JSON config path")
        if ckpt:
            sp.add_argument("--checkpoint", required=True)
            sp.add_argument("--dataset", required=True)
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out", default=None, help="override output path")

    common(sub.add_parser("gen-data", help="write a synthetic dataset"), config=True)
    tr = sub.add_parser("train", help="train a decoder")
    common(tr, config=True)
    tr.add_argument("--variant", choices=VARIANTS, default=None)
    common(sub.add_parser("eval", help="evaluate a checkpoint"), ckpt=True)
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
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        # a non-finite value ends the verb with its own one-line message
        with np.errstate(all="ignore"):
            return HANDLERS[args.command](args)
    except (ConfigError, GenerationError) as exc:
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
