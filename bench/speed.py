"""Machine-speed probe, and timings expressed at a reference speed.

The benchmark runs on small shared VMs whose speed drifts by 20% and
more over minutes, which no averaging inside one run removes. So the
timed loop runs a fixed probe after every step or scene, outside the
step's own timing, and each timing is reported as it would read at the
reference speed: raw time times REFERENCE_S over the probe's median time
in the same block of steps. The raw timings are printed and kept in the
run's details as well.

The probe mixes the kinds of work a step does: a Python loop over a
dict, and numpy elementwise work on constant arrays of 160 KiB and
640 KiB (one scene's mask logits, and four times that). On the 2-vCPU
VM the benchmark was tuned on, the speed of each kind of work changed by
a different share at different times, so no one kind tracked the steps
throughout: across blocks of steps, the 640 KiB part alone correlated
0.94 with the block's median step time (in logs) in one set of runs and
0.70 in another. Over ten seeds of each workload with this probe, the
spread of the median step time (interquartile range over median) was
19-22% raw and 2-3% at the reference speed. The probe
calls no mpseg code, so a change to the program does not change it, and
no BLAS, whose thread count the program may set.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# About the probe's median time on the 2-vCPU VM the benchmark was tuned
# on, run back to back. Between steps it runs faster (~2.5 ms after a
# training step) or slower (~3.9 ms after an eval scene), so values at the
# reference speed read higher than raw times on training and lower on eval.
REFERENCE_S = 3.0e-3

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((20, 1024))
_MID = _rng.standard_normal((20, 4096))


def _elementwise(x, rounds):
    for _ in range(rounds):
        y = np.exp(-x)
        y = y / (1.0 + y)
        y.sum(axis=1)


def _interpreter():
    table = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + 3 * i
    sorted(table.items())


def probe() -> float:
    """Seconds the fixed probe work took just now."""
    t0 = perf_counter()
    _interpreter()
    _elementwise(_SMALL, 8)
    _elementwise(_MID, 2)
    return perf_counter() - t0


def factor(probes) -> float:
    """Multiplier that brings a time measured alongside these probe
    times to the reference speed (above 1 when the machine was fast)."""
    return REFERENCE_S / statistics.median(probes)
