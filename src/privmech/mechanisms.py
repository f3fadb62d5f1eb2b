"""Constructors for the named privacy mechanisms and a seeded random-channel
generator for property sweeps.

The named mechanisms build their `Channel` directly: their parameters, the
input from outside, are checked here, and their matrices are stochastic by
construction (a property test feeds each one back through `validate_channel`).
"""
from __future__ import annotations

import numpy as np

from .core import Channel, validate_channel
from .errors import (
    AlphaOutOfRange,
    InvalidConcentration,
    InvalidK,
    InvalidSize,
    NegativeAlpha,
)


def _check_k(k):
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise InvalidK(f"k must be an integer >= 2, got {k!r}")


def _check_k_alpha(k, alpha_bits, allow_zero=False):
    """Domain check shared by the mechanisms and the risk study; returns
    r = 2**alpha_bits. k must be an integer >= 2 (InvalidK); alpha_bits
    must be finite and below 1024, where r overflows, and make r > 1
    (AlphaOutOfRange), or with `allow_zero` be nonnegative (NegativeAlpha).
    `_check_k` is the k half alone.
    """
    _check_k(k)
    if not np.isfinite(alpha_bits) or alpha_bits >= 1024:
        raise AlphaOutOfRange(f"alpha_bits must be finite and below 1024, got {alpha_bits!r}")
    r = 2.0 ** float(alpha_bits)
    if allow_zero:
        if alpha_bits < 0:
            raise NegativeAlpha(f"alpha_bits must be >= 0, got {alpha_bits!r}")
    elif not r > 1.0:  # a tiny alpha_bits has r = 1, and r - 1 = 0
        raise AlphaOutOfRange(f"alpha_bits must make 2**alpha_bits > 1, got {alpha_bits!r}")
    return r


def randomized_response(k: int, alpha_bits: float) -> Channel:
    """k x k randomized response: keep the symbol with boosted probability.

    Diagonal entries are 2**a / (2**a + k - 1), off-diagonal entries
    1 / (2**a + k - 1). At a = 0 this degenerates to the constant uniform
    channel; its LDP level is exactly `alpha_bits`.
    """
    r = _check_k_alpha(k, alpha_bits, allow_zero=True)
    denom = r + k - 1.0
    rows = np.full((k, k), 1.0 / denom)
    # the diagonal in place, through a view of the fresh contiguous array
    rows.reshape(-1)[:: k + 1] += (r - 1.0) / denom
    return Channel(rows)


def z_channel(alpha_bits: float) -> Channel:
    """Binary asymmetric mechanism [[2**a - 1, 2 - 2**a], [0, 1]].

    Defined for 0 <= a <= 1 only; outside that range an entry would leave
    [0, 1], so the input is rejected rather than clamped. Its maximal
    leakage is exactly `alpha_bits` and its Dobrushin coefficient 2**a - 1.
    """
    if not 0.0 <= alpha_bits <= 1.0:  # also rejects nan and inf
        raise AlphaOutOfRange(f"alpha_bits must lie in [0, 1], got {alpha_bits!r}")
    r = 2.0 ** float(alpha_bits)
    rows = np.array([[r - 1.0, 2.0 - r], [0.0, 1.0]])
    return Channel(rows)


def staircase_rate(k: int, alpha_bits: float) -> float:
    """Pass-through probability (2**a - 1) / (k - 1) of the leakage staircase.

    Requires 0 < a and 2**a <= k (beyond that the leakage budget no longer
    constrains anything). Values of 2**a within one part in 1e9 of k are
    snapped to the boundary so that a = log2(k) is accepted exactly.
    """
    r = _check_k_alpha(k, alpha_bits)
    if r > k:
        if r <= k * (1.0 + 1e-9):
            r = float(k)
        else:
            raise AlphaOutOfRange(
                f"2**alpha_bits = {r!r} exceeds k = {k}; the leakage budget is vacuous"
            )
    return min((r - 1.0) / (k - 1.0), 1.0)


def maxl_staircase(k: int, alpha_bits: float) -> Channel:
    """k x (k+1) mechanism passing symbol x through with probability lam,
    otherwise emitting the dummy symbol (last output column).

    lam = (2**a - 1)/(k - 1); the column-max sum is k*lam + (1 - lam) =
    2**a, so the maximal leakage is exactly `alpha_bits`.
    """
    lam = staircase_rate(k, alpha_bits)
    rows = np.zeros((k, k + 1))
    idx = np.arange(k)
    rows[idx, idx] = lam
    rows[:, k] = 1.0 - lam
    return Channel(rows)


def random_channel(
    in_size: int, out_size: int, concentration: float = 1.0, seed: int = 0
) -> Channel:
    """Channel with rows drawn i.i.d. from a symmetric Dirichlet.

    Deterministic given `seed`. Concentration 1 is uniform on the simplex;
    0.1 probes near-deterministic rows, 10 near-uniform rows.
    """
    for name, size in (("in_size", in_size), ("out_size", out_size)):
        if not isinstance(size, (int, np.integer)) or size < 1:
            raise InvalidSize(f"{name} must be an integer >= 1, got {size!r}")
    if not np.isfinite(concentration) or concentration <= 0:
        raise InvalidConcentration(
            f"concentration must be a positive finite real, got {concentration!r}"
        )
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.full(out_size, float(concentration)), size=in_size)
    return validate_channel(rows)
