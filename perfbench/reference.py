"""A fixed reference kernel, timed beside every operation to track host speed.

On a shared 2-CPU virtual machine the same fixed work takes up to twice as
long from one minute to the next, and CPU time drifts with wall time: the
slowdown comes from neighbours on shared hardware, not from descheduling.
No run length averages that away. The benchmark therefore times this kernel
right before and right after each operation and reports op times as
multiples of it (unit `ref`). The kernel calls nothing in unimod, so a
faster program shows as fewer `ref` per op while a slower host does not.

Its parts follow the program's mix of work: complex matrix-vector products
and element-wise phase arithmetic at the pipeline's shape (32 x 1000), the
sort, cumsum and argmax of a DaS sweep, and a loop in the interpreter. It
takes about 10 ms on a 2-CPU x86-64 machine.
"""

from __future__ import annotations

import math
import time

import numpy as np

_G = np.random.default_rng(20240506)
_A = (_G.standard_normal((32, 1000)) + 1j * _G.standard_normal((32, 1000))) / math.sqrt(2)
_X = _G.standard_normal(20_000)


def kernel() -> int:
    v = np.ones(_A.shape[1], dtype=complex)
    for _ in range(50):
        w = _A @ v
        v = np.exp(1j * np.angle(_A.conj().T @ (w / np.abs(w))))
    best = 0
    for _ in range(5):
        best += int(np.argmax(np.cumsum(np.sort(_X))))
    for k in range(30_000):
        best += k * k % 7
    return best


def timed() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def in_ref(latencies: list[float], refs: list[float]) -> list[float]:
    """Each latency over the mean of the kernel times just before and after it.

    `refs` has one more entry than `latencies`: refs[i] was timed right before
    operation i and refs[i + 1] right after it.
    """
    assert len(refs) == len(latencies) + 1
    return [t / (0.5 * (refs[i] + refs[i + 1])) for i, t in enumerate(latencies)]
