"""How fast the host runs right now, from a fixed reference kernel.

On a shared host the same code runs at different speeds from one minute to
the next, as other tenants' work comes and goes on the same cores: a pure
Python loop can take twice as long in a slow phase as in a fast one. A run
of the benchmark times this kernel after every search, and converts the
search's wall-clock time into *reference seconds*, the time it would have
taken with the host at its reference speed.

The kernel does the kinds of host work the searches do: interpreted loops
over small tuples and dicts with integer arithmetic, and small numpy
matrix products and ufuncs. It is the benchmark's own code and does not
touch ``coredse``, so a change to the program moves the program's time and
not the kernel's.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the reference host (the 2-core Xeon that README.md
# describes) in its fast phase. Only the scale of the figures depends on it.
REFERENCE_S = 0.040

_INTERPRETER_STEPS = 25_000
_NUMPY_STEPS = 560


def _interpreter(steps: int) -> int:
    acc, table = 0, {}
    for i in range(steps):
        key = (i & 63, i % 7)
        value = table.get(key, 0) + (i * 2654435761 >> 7) % 97
        table[key] = value
        acc += -(-value // 3) + len(key)
    return acc


def _small_numpy(steps: int, x: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> float:
    acc = 0.0
    for _ in range(steps):
        h = np.tanh(x @ w1)
        o = h @ w2
        o -= o.max(axis=1, keepdims=True)
        np.exp(o, out=o)
        o /= o.sum(axis=1, keepdims=True)
        acc += float(o[0, 0])
    return acc


class HostSpeed:
    """Times the reference kernel; ``factor()`` is its time over REFERENCE_S."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((16, 64))
        self._w1 = rng.standard_normal((64, 256)) / 8.0
        self._w2 = rng.standard_normal((256, 64)) / 16.0

    def factor(self) -> float:
        """How many times slower than its reference speed the host runs now."""
        start = time.perf_counter()
        _interpreter(_INTERPRETER_STEPS)
        _small_numpy(_NUMPY_STEPS, self._x, self._w1, self._w2)
        return (time.perf_counter() - start) / REFERENCE_S
