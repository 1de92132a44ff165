"""Smoke test of the benchmark's own code at a tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import environment
import registry

environment.import_mpseg()

import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Size(num_scenes=10, warmup=1, min_timed=3, min_traced=2,
                      quality_step=3, setup_repeats=1, eval_setup_repeats=1, block=1)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_registry():
    with open(environment.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == registry.benchmark_json()


def test_registry_within_contract_limits():
    spec = registry.benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert registry.END_TO_END["setup_s"][:2] == ("s", "lower")
    assert max(b for _u, _d, b in registry.END_TO_END.values()) \
        == registry.END_TO_END["setup_s"][2]
    for _unit, _better, moves in registry.PER_LAYER.values():
        for e2e, on in moves.items():
            assert e2e in registry.END_TO_END
            assert set(on) <= set(registry.WORKLOADS) | set(registry.BY_HAND)


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)
    return tmp_path


@pytest.mark.parametrize("workload", list(registry.WORKLOADS) + list(registry.BY_HAND))
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_present_with_unit(workload, traced, out_dir):
    outcome = workloads.run_workload(workload, seed=3, seconds=0, traced=traced,
                                     size=TINY)
    assert outcome.correct, outcome.checks
    line = run.result_line(outcome, traced)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    table = registry.PER_LAYER if traced else registry.END_TO_END
    assert set(line["metrics"]) == set(table)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == table[name][0]
        assert math.isfinite(entry["value"])
    json.dumps(line)
    if traced:
        zero = set(registry.ZERO_ON[workload])
        for name, entry in line["metrics"].items():
            if name in zero:
                assert entry["value"] == 0, name
            elif not name.startswith(("trace.", "python.gc")):
                assert entry["value"] > 0, name
    else:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())
        for name in ("setup_s", "step_ms_p50", "step_ms_p90", "steps_per_s",
                     "step_cpu_ms"):
            assert outcome.info[f"raw.{name}"] > 0, name


def test_fails_without_sources(tmp_path):
    """Without src/, the command exits non-zero and prints no result."""
    shutil.copy(environment.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(environment.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train-plain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
