"""Benchmark entry point.

    python3 bench/run.py --workload train-mp|eval-holdout|train-plain \
        --seed N --seconds S --trace 0|1

Run from the repository root. Drives the mpseg library in this process.
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs an untraced and a traced window of equal length and
reports the per-layer metrics, including the tracing overhead. Human-
readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Details
(environment, sample counts, checks, spans) go to .bench_out/. Exits 1
when an output check fails, 2 when the mpseg sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import environment
import registry


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(registry.WORKLOADS) + list(registry.BY_HAND))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def result_line(outcome, traced: bool) -> dict:
    table = registry.PER_LAYER if traced else registry.END_TO_END
    return {
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": spec[0]}
                    for name, spec in table.items() if name in outcome.metrics},
    }


def report_lines(args, env, outcome, traced: bool):
    table = registry.PER_LAYER if traced else registry.END_TO_END
    yield f"workload {args.workload} seed {args.seed} trace {args.trace}"
    yield "env " + json.dumps(env, sort_keys=True)
    for name, spec in table.items():
        if name in outcome.metrics:
            yield (f"  {name:<32} {outcome.metrics[name]:>14.6g} {spec[0]:<7}"
                   f" n={outcome.samples.get(name, 0)}")
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    yield f"  {'failed_frac':<32} {failed_frac:>14.6g} frac"
    for key, value in outcome.info.items():
        yield f"  {key:<32} {value:>14.6g}"
    for name, ok, detail in outcome.checks:
        yield f"check {'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if not ok
                                                            and detail else "")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        environment.import_mpseg()
    except environment.MissingSource as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads

    env = environment.environment_record()
    traced = bool(args.trace)
    try:
        outcome = workloads.run_workload(args.workload, args.seed, args.seconds, traced)
    except Exception:  # noqa: BLE001 - any failure of the program fails the run
        traceback.print_exc()
        outcome = workloads.Outcome()
        outcome.check("workload ran to the end", False)

    for line in report_lines(args, env, outcome, traced):
        print(line)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(workloads.OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": outcome.metrics, "samples": outcome.samples,
                   "info": outcome.info, "series": outcome.series,
                   "checks": outcome.checks,
                   "attempted": outcome.attempted, "failed": outcome.failed},
                  fh, indent=1, sort_keys=True)
    if outcome.tracer is not None:
        outcome.tracer.write_jsonl(workloads.OUT_DIR / f"{stem}.spans.jsonl")
    print(json.dumps(result_line(outcome, traced)))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
