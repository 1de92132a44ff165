"""An equality trace of mpseg's outputs: the check that a refactor keeps
every output as it was, and the map of where a change moves them.

    python3 scripts/trace.py [--tiny] [--out FILE]
    python3 scripts/trace.py [--tiny] --against DIR

The trace is one JSON object:
- train: for each variant, and for mp-all+noises with shift and with
  scale noise, a short run_training's parameter sha256, its logged step
  losses, its epoch losses and its report.txt;
- eval, analyze: `mpseg eval` and `mpseg analyze` stdout on the kept
  benchmark checkpoint (bench/data/checkpoint.bin, which the trace only
  reads) and a `gen-data` set;
- grad_check: `mpseg grad-check` stdout at seeds 0-3.

The full size trains 8 steps of the default configuration per run and
scores 40 scenes (~10 s on 2 cores). --tiny trains 4 steps on 8x8 scenes
with a two-layer decoder, for two variants, scores 4 scenes and runs no
grad-check, whose rows are finite-difference errors near 1e-9 that carry
no number to compare (under 1 s).

--out writes the JSON (to stdout when absent). --against DIR traces this
tree's src/ and DIR's src/, each in its own subprocess, and prints the
first difference of each entry that differs, then exits 1; with no
difference it prints so and exits 0.
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
        for verb in ("eval", "analyze"):
            result[verb] = cli_stdout(verb, "--checkpoint", str(CHECKPOINT),
                                      "--dataset", dataset)
    result["grad_check"] = {str(s): cli_stdout("grad-check", "--seed", str(s))
                            for s in grad_seeds}
    return result


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


def traced_in_subprocess(src: Path, tiny: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--src", str(src)]
    done = subprocess.run(cmd + (["--tiny"] if tiny else []), check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tiny", action="store_true", help="the few-second size")
    p.add_argument("--out", help="write the JSON here, not to stdout")
    p.add_argument("--against", help="a tree to compare with, traced from its src/")
    p.add_argument("--src", default=str(ROOT / "src"), help="the mpseg sources to trace")
    args = p.parse_args(argv)
    if args.against:
        here = traced_in_subprocess(ROOT / "src", args.tiny)
        there = traced_in_subprocess(Path(args.against) / "src", args.tiny)
        diffs = differences(there, here)
        for path, what in diffs:
            print(f"{path}: {what}")
        print(f"{len(diffs)} entries differ" if diffs else "no difference")
        return 1 if diffs else 0
    sys.path.insert(0, args.src)
    text = json.dumps(trace(args.tiny), indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
