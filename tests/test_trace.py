"""scripts/trace.py at its tiny size against tests/golden/trace.json.

The numbers are compared, not the parameter hashes: other numpy and
OpenBLAS builds may differ in the last bit. A change that moves the
numbers on purpose re-pins the file:

    python3 scripts/trace.py --tiny --out tests/golden/trace.json
"""

import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REL_TOL = 1e-6
ABS_TOL = 1e-6      # the last decimal report.txt prints
DECIMAL = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def load_script():
    spec = importlib.util.spec_from_file_location("trace_script", ROOT / "scripts" / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def mismatches(golden, fresh, path=""):
    """Paths where fresh differs from golden: text exactly, save its
    decimal numbers, which are compared at REL_TOL."""
    if isinstance(golden, dict):
        assert set(golden) == set(fresh), path
        return [m for k in golden if not k.endswith("sha256")
                for m in mismatches(golden[k], fresh[k], f"{path}/{k}")]
    if isinstance(golden, list):
        assert len(golden) == len(fresh), path
        return [m for i, (g, f) in enumerate(zip(golden, fresh))
                for m in mismatches(g, f, f"{path}[{i}]")]
    if isinstance(golden, float):
        return [] if close(golden, fresh) else [f"{path}: {golden!r} != {fresh!r}"]
    numbers = [DECIMAL.findall(text) for text in (golden, fresh)]
    same_text = DECIMAL.split(golden) == DECIMAL.split(fresh)
    if same_text and all(close(float(g), float(f)) for g, f in zip(*numbers)):
        return []
    return [f"{path}: {golden!r} != {fresh!r}"]


def test_tiny_trace_is_the_golden_trace():
    with open(ROOT / "tests" / "golden" / "trace.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    fresh = json.loads(json.dumps(load_script().trace(tiny=True)))
    assert sorted(golden["train"]) == ["baseline", "mp-all+noises", "mp-all+noises/scale",
                                       "mp-all+noises/shift"]
    assert mismatches(golden, fresh) == []


def test_a_moved_number_is_a_mismatch():
    """The comparison sees a change in the sixth digit of a report line
    or an epoch loss, and in the text around the numbers."""
    golden = {"report": "miou_l[1] = 38.095238\n", "loss": [27.99279175]}
    assert mismatches(golden, {"report": "miou_l[1] = 38.095238\n",
                               "loss": [27.99279176]}) == []
    assert len(mismatches(golden, {"report": "miou_l[1] = 38.095538\n",
                                   "loss": [27.99299175]})) == 2
    assert mismatches(golden, {"report": "miou_l[2] = 38.095238\n",
                               "loss": [27.99279175]}) != []


def test_the_step_comparison_of_a_tree_with_itself_finds_no_difference(capsys):
    assert load_script().main(["--tiny", "--steps", "--against", str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("bounds: ")
    variants = load_script().STEP_VARIANTS
    assert lines[1:] == [f"{v}: vectors equal, loss 0.0e+00, logits 0.0e+00, gradient 0.0e+00 "
                         f"(-): within bounds" for v in variants]


def test_the_step_comparison_flags_each_kind_of_difference():
    """A gradient, a logit or a loss past its bound, or a matching vector
    that moved, puts its variant out of bounds, and only that variant."""
    script = load_script()
    base = {f"{v}/{s}/{what}": np.array(value) for v in script.STEP_VARIANTS
            for s in range(script.STEPS)
            for what, value in (("vectors", [[0, -1]]), ("loss", 2.0), ("logits", [1.0, -3.0]),
                                ("grad/w", [0.5, -2.0]), ("grad/b", [0.0, 0.0]))}
    assert all(row[-1] for row in script.step_differences(base, base))
    moved = {"vectors": [[-1, 0]], "loss": 2.0 * (1 + 1e-14), "logits": [1.0, -3.0 + 1e-12],
             "grad/w": [0.5, -2.0 + 1e-11], "grad/b": [0.0, 1e-300]}
    for variant, (what, value) in zip(script.STEP_VARIANTS, moved.items()):
        rows = script.step_differences(base, {**base, f"{variant}/3/{what}": np.array(value)})
        assert [row[0] for row in rows if not row[-1]] == [variant], what


def test_the_step_arrays_are_step_loss_at_the_init_parameters():
    """scripts/trace.py's step harness keeps its own copy of the training
    step, so that it runs on older trees; at the tiny size its loss,
    matching vectors and every gradient are trainer.step_loss's, bitwise."""
    from mpseg.config import parse_run_config
    from mpseg.decoder import init_params, named_parameters
    from mpseg.synth import generate_scene, synth_features
    from mpseg.trainer import step_loss

    def same(a, b):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    script = load_script()
    arrays = script.step_arrays(tiny=True)
    for variant in script.STEP_VARIANTS:
        cfg = parse_run_config({**script.STEP_TINY, "variant": variant})
        params = init_params(seed=cfg.seed, n_queries=cfg.model.n_queries,
                             n_layers=cfg.model.num_layers, dim=cfg.model.dim,
                             num_categories=cfg.synth.num_categories,
                             ffn_hidden=cfg.model.ffn_hidden)
        pairs = named_parameters(params)
        for step in range(script.STEPS):
            scene = generate_scene(cfg.synth, step)
            loss, vectors, _ = step_loss(cfg, params, scene, synth_features(scene, cfg.synth),
                                         step)
            for _, p in pairs:
                p.grad = None
            loss.backward()
            key = f"{variant}/{step}/"
            assert same(arrays[key + "loss"], loss.values), key
            assert same(arrays[key + "vectors"], vectors), key
            for name, p in pairs:
                grad = np.zeros_like(p.values) if p.grad is None else p.grad
                assert same(arrays[key + "grad/" + name], grad), key + name
