"""Host speed, timed on fixed kernels that do not touch fcab.

This host is a share of a machine whose speed drifts by 10-30% over
seconds to minutes, as other tenants come and go; every call slows
together with it.  ``run.py`` times one kernel just before and just after
each fcab call and scales the call's wall time by ``REFERENCE_S / kernel
time``: the time the call would have taken at the reference speed.  The
kernels are fixed benchmark code, so a change to fcab moves the call's
wall time and never the scale.

Two kernels, one per kind of work a workload spends its time on:

- ``python``: an interpreted loop of the shape of ``ucbf_run``'s main loop
  (scan a short list for its maximum, draw from a ``random.Random``, swap
  and pop a list, append);
- ``numpy``: a stable argsort, gather and cumulative sum of 2**19 floats,
  4 MB per array, as the oracles' sort and partition do past L2.
"""

from __future__ import annotations

import random
import time

import numpy as np

# Kernel time, in seconds, that scales a wall time by exactly 1: about the
# kernels' median on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4).
REFERENCE_S = {"python": 0.1, "numpy": 0.1}

_PY_STEPS = 60_000
_PY_BINS = 64
_NP_SIZE = 1 << 19
_NP_DATA = np.random.default_rng(7).random(_NP_SIZE)


def _python() -> None:
    rng = random.Random(12345)
    values = [rng.random() for _ in range(_PY_BINS)]
    lists = [list(range(40)) for _ in range(_PY_BINS)]
    out = []
    for _ in range(_PY_STEPS):
        best, best_v = -1, -1.0
        for b in range(0, _PY_BINS, 4):
            v = values[b]
            if v > best_v:
                best_v, best = v, b
        lst = lists[best]
        j = rng.randrange(len(lst))
        lst[j], lst[-1] = lst[-1], lst[j]
        x = lst.pop()
        lst.insert(0, x)
        values[best] = best_v * 0.999 + 0.001 * (x / 40.0)
        out.append(x)


def _numpy() -> None:
    order = np.argsort(_NP_DATA, kind="stable")
    _NP_DATA[order].cumsum()


KERNELS = {"python": _python, "numpy": _numpy}


def kernel_s(kind: str) -> float:
    """Seconds one run of the ``kind`` kernel takes now."""
    fn = KERNELS[kind]
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
