"""A fixed calibration kernel: how fast the host runs the benchmark's kind of
work right now.

The benchmark runs on shared hosts whose speed drifts between runs by more
than the bounds it gates (other tenants, frequency scaling, a sibling
hardware thread).  The closed loop times this kernel between operations,
and run.py rescales each operation's time by the kernel's time measured
around it: an operation that took 1.3 times as long because the whole host
ran 1.3 times slower reads the same.  The kernel calls nothing from the
package, so no change to the package can move it.

Its mix mirrors the workloads: batched products on 257-matrix stacks (the
wide RK4 sweep), one 2x2 matrix at a time through numpy (per-point probes
and one-line sweeps), elementwise arithmetic over a 20,736-point grid (BF
field evaluation), and pure-Python string and dict work (config parsing and
expression evaluation).
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one `kernel()` call, warmed up, on the host the benchmark
# was written on (2 vCPUs of an Intel Xeon at 2.1 GHz, numpy on one
# thread).  Rescaled times are in seconds of that host.
REFERENCE_S = 0.016

_rng = np.random.default_rng(12345)
_STACK = 0.3 * (_rng.standard_normal((257, 2, 2)) + 1j * _rng.standard_normal((257, 2, 2)))
_ONE = 0.3 * (_rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2)))
_GRID = _rng.uniform(0.0, 1.0, (4, 20736))
_EYE = np.eye(2)


def kernel() -> float:
    """A fixed amount of work; returns a checksum so nothing is skipped."""
    acc = 0.0
    a = _STACK.copy()
    for _ in range(48):
        a = a @ _STACK + 0.5 * a
        a = a - np.swapaxes(a.conj(), -1, -2)
        a = np.linalg.solve(_EYE + 0.1 * a, a)
    acc += float(np.abs(a).sum())
    m = _ONE.copy()
    for _ in range(480):
        m = m @ _ONE + _EYE
        m = m / np.linalg.norm(m)
        acc += float(np.trace(m).real)
    x = _GRID
    for k in range(18):
        acc += float((0.3 * x[0] * x[1] + np.cos(x[2]) * x[3] ** 2 - k * x[1]).sum())
    table = {}
    for k in range(3600):
        key = f"x{k % 7}^{k % 3}"
        table[key] = table.get(key, 0.0) + float(key[1]) * 0.5
    return acc + sum(table.values())


def timed() -> float:
    """Wall time of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
