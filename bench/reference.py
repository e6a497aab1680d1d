"""Reference kernel: how fast the machine runs exact rational arithmetic now.

On a shared host the speed of a CPU changes with its neighbours' load, by up
to 1.7 times over minutes.  The benchmark times this fixed kernel every
``INTERVAL_S`` seconds between requests and scales each request's time by
``NOMINAL_S`` over the kernel's time around it (run.py), so the figures read
as at one fixed speed and compare across runs.

The kernel is stdlib Fraction arithmetic with a few dicts, like the work
dhpoly does.  It never touches dhpoly: it runs on a private copy of the
``fractions`` module, so nothing dhpoly does to that module reaches it, and
with the garbage collector off, so the objects dhpoly keeps alive do not
change its time.
"""

from __future__ import annotations

import gc
import importlib.util
import random
import time

#: The kernel's time on the reference machine (2-vCPU Xeon KVM guest,
#: CPython 3.11) in a quiet stretch; it sets the scale of every scaled time.
NOMINAL_S = 0.005

#: Seconds between two timings of the kernel during a run.
INTERVAL_S = 0.25


def _private_fractions():
    spec = importlib.util.find_spec("fractions")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_Fraction = _private_fractions().Fraction
_rng = random.Random(7)
_VALUES = [_Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(40)]


def kernel():
    sums = {}
    for i, a in enumerate(_VALUES):
        s = _Fraction(0)
        for b in _VALUES[:20]:
            s += a * b - b / 3
        sums[(i % 7, i)] = s
    return sum(sums.values())


def measure():
    """Seconds one run of the kernel takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
