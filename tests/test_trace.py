"""scripts/trace.py at its tiny size against tests/golden/trace.json.

The numbers are compared, not the parameter hashes: other numpy and
OpenBLAS builds may differ in the last bit. A change that moves the
numbers on purpose re-pins the file:

    python3 scripts/trace.py --tiny --out tests/golden/trace.json
"""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_the_step_arrays_are_step_loss_and_the_forward_it_ran():
    """step_arrays calls trainer.step_loss once per variant and step, and
    each step's logits are, bitwise, those of the forward that call ran;
    the full_forward it wraps is back in place when it returns."""
    from unittest import mock

    from mpseg import trainer

    def recorded(*args):
        forwards.append(forward(*args))
        return forwards[-1]

    script = load_script()
    forward, forwards = trainer.full_forward, []
    with mock.patch.object(trainer, "full_forward", recorded), \
            mock.patch.object(trainer, "step_loss", wraps=trainer.step_loss) as step_loss:
        arrays = script.step_arrays(tiny=True)
        assert trainer.full_forward is recorded
    assert step_loss.call_count == len(forwards) == len(script.STEP_VARIANTS) * script.STEPS
    assert [c.args[4] for c in step_loss.call_args_list] == (list(range(script.STEPS))
                                                            * len(script.STEP_VARIANTS))
    keys = [f"{v}/{s}/logits" for v in script.STEP_VARIANTS for s in range(script.STEPS)]
    for key, outputs in zip(keys, forwards):
        logits = np.concatenate([m.ravel() for m in outputs.mask_logits] +
                                [c.values.ravel() for c in outputs.class_logits])
        assert arrays[key].dtype == logits.dtype and arrays[key].tobytes() == logits.tobytes()


@pytest.mark.parametrize("pythonpath", [True, False], ids=["pythonpath", "no-pythonpath"])
@pytest.mark.parametrize("steps", [False, True], ids=["trace", "steps"])
def test_a_tree_with_no_mpseg_stops_the_comparison_with_one_line(tmp_path, steps, pythonpath):
    """--against a tree that has no src/mpseg prints one line and exits
    non-zero, also when PYTHONPATH names this tree's src/, whose mpseg it
    must not trace in its stead."""
    cmd = [sys.executable, str(ROOT / "scripts" / "trace.py"), "--tiny", "--against",
           str(tmp_path)] + ["--steps"] * steps
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if pythonpath:
        env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert done.returncode != 0
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and str(tmp_path / "src") in done.stderr


def test_a_src_whose_mpseg_is_not_the_imported_one_is_refused(tmp_path, monkeypatch):
    """In a process that has already imported this tree's mpseg, --src
    naming another mpseg package exits with one line instead of tracing
    the imported one."""
    import mpseg  # noqa: F401

    (tmp_path / "mpseg").mkdir()
    (tmp_path / "mpseg" / "__init__.py").write_text("")
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit, match="holds no mpseg package"):
        load_script().main(["--src", str(tmp_path), "--tiny", "--steps",
                            "--out", str(tmp_path / "steps.npz")])
