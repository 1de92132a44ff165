#!/usr/bin/env bash
# CLI smoke run, gen-data to analyze, in Python development mode:
#
#     scripts/smoke.sh OUT_DIR
#
# Generates a 5-scene dataset of 8x8 scenes in OUT_DIR, trains 4 steps of
# mp-all+noises with each MP noise kind and 4 steps of every variant preset
# on a three-layer decoder, evaluates and analyzes one run; then generates,
# trains 4 steps of mp-all+noises on and evaluates 4x4 scenes, whose
# coarsest scale is 1x1. Fails unless every report was written. Exits
# non-zero on the first command that fails.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 OUT_DIR" >&2
  exit 2
fi
out="$1"
src="$(cd "$(dirname "$0")/.." && pwd)/src"
mkdir -p "$out"
mpseg() { PYTHONPATH="$src" python -X dev -m mpseg.cli "$@"; }

synth='{"height": 8, "width": 8, "feat_dim": 8, "instance_range": [1, 2], "size_range": [2, 3]}'
# three layers, as mp-first-3 pilots layers 1-3
model='{"n_queries": 3, "num_layers": 3, "dim": 8, "ffn_hidden": 4}'
printf '{"synth": %s, "count": 5}\n' "$synth" > "$out/gen.json"
mpseg gen-data --config "$out/gen.json" --out "$out/data.txt"
# every MP noise kind, so each branch of build_mp_part's noise loop runs;
# scale at [0.5, 2.0]: at the default (0.8, 1.2) no draw changes a mask this small
runs=""
for kind in point shift scale; do
  mp="\"noise_kind\": \"$kind\""
  if [ "$kind" = scale ]; then mp="$mp, \"scale_range\": [0.5, 2.0]"; fi
  printf '{"synth": %s, "model": %s, "dataset_path": "%s/data.txt", "variant": "mp-all+noises", "mp": {%s}, "train": {"steps": 4}}\n' \
    "$synth" "$model" "$out" "$mp" > "$out/train-$kind.json"
  mpseg train --config "$out/train-$kind.json" --out "$out/run-$kind"
  runs="$runs run-$kind"
done
# every variant preset, each loss mode and MP layer set among them
for variant in $(PYTHONPATH="$src" python -c 'from mpseg.config import VARIANTS; print(*VARIANTS)'); do
  printf '{"synth": %s, "model": %s, "dataset_path": "%s/data.txt", "variant": "%s", "train": {"steps": 4}}\n' \
    "$synth" "$model" "$out" "$variant" > "$out/train-$variant.json"
  mpseg train --config "$out/train-$variant.json" --out "$out/run-$variant"
  runs="$runs run-$variant"
done
mpseg eval --checkpoint "$out/run-point/checkpoint.bin" --dataset "$out/data.txt" --out "$out/eval"
mpseg analyze --checkpoint "$out/run-point/checkpoint.bin" --dataset "$out/data.txt" --out "$out/analyze"
# 4x4, the smallest scene: the decoder's two 2x2 pools leave a 1x1 scale
tiny='{"height": 4, "width": 4, "feat_dim": 8, "instance_range": [1, 2], "size_range": [1, 2]}'
printf '{"synth": %s, "count": 3}\n' "$tiny" > "$out/gen-4x4.json"
mpseg gen-data --config "$out/gen-4x4.json" --out "$out/data-4x4.txt"
printf '{"synth": %s, "model": %s, "dataset_path": "%s/data-4x4.txt", "variant": "mp-all+noises", "train": {"steps": 4}}\n' \
  "$tiny" "$model" "$out" > "$out/train-4x4.json"
mpseg train --config "$out/train-4x4.json" --out "$out/run-4x4"
runs="$runs run-4x4"
mpseg eval --checkpoint "$out/run-4x4/checkpoint.bin" --dataset "$out/data-4x4.txt" --out "$out/eval-4x4"
for f in eval/report.txt eval/layers.csv analyze/analysis.csv eval-4x4/report.txt eval-4x4/layers.csv; do
  test -s "$out/$f" || { echo "missing $out/$f"; exit 1; }
done
for run in $runs; do
  for f in report.txt layers.csv; do
    test -s "$out/$run/$f" || { echo "missing $out/$run/$f"; exit 1; }
  done
done
echo "smoke run passed: $out"
