"""Machine-speed calibration for timings taken on a shared, noisy host.

On a host shared with other tenants the same op can run 20% slower for
seconds or minutes at a time, which hides real changes. The harness
therefore runs a fixed kernel (numpy and plain Python, no privmech) between
ops, at least every TICK_EVERY_S, and scales each op's wall time by
REFERENCE_S / (mean duration of the two ticks around it). Scaled times
read as times on a machine where one tick takes REFERENCE_S; the raw wall
times are kept in the report beside them.
"""
from __future__ import annotations

import time

import numpy as np

TICK_EVERY_S = 0.05
# one tick on the machine the baseline was recorded on (see README.md)
REFERENCE_S = 0.001

_ROWS = np.linspace(0.1, 1.0, 36).reshape(6, 6)
_GRID = np.linspace(0.0, 1.0, 2048)


def _kernel():
    acc = 0.0
    for _ in range(35):
        rows = _ROWS / _ROWS.sum(axis=1, keepdims=True)
        acc += float(np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2).max())
        for x in rows.ravel().tolist():
            acc = max(acc, x)
    return acc + float(np.searchsorted(_GRID, _GRID[::-1]).sum())


def tick() -> float:
    """Seconds per run of the calibration kernel: the fastest of three runs,
    so a cold cache (after a child process, say) or a preemption does not
    count as a slow machine.

    The kernel's mix resembles the workloads: small numpy ops called from
    Python, a pure-Python loop, and one vectorised pass over a few thousand
    floats.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Scaler:
    """Scales raw op times by the ticks taken around them."""

    def __init__(self):
        self.last = tick()
        self.last_at = time.perf_counter()
        self._pending = []  # [raw seconds, index into `scaled`] awaiting the next tick

    def add(self, raw: float, scaled: list):
        """Record one op time; its scaled value lands in `scaled` at the next tick."""
        self._pending.append((raw, len(scaled)))
        scaled.append(None)
        if time.perf_counter() - self.last_at >= TICK_EVERY_S:
            self.flush(scaled)

    def flush(self, scaled: list):
        now = tick()
        factor = REFERENCE_S / (0.5 * (self.last + now))
        for raw, index in self._pending:
            scaled[index] = raw * factor
        self._pending.clear()
        self.last, self.last_at = now, time.perf_counter()
