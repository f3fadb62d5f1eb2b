"""Distances and divergences between distributions on a common alphabet.

All KL-type quantities are reported in bits (base-2 logs). Infinity is a
legal return value, not an error: callers that need finite ratios filter
infinite pairs themselves.

Every divergence is evaluated in (base, difference) form, D(base + diff ||
base), by the one kernel per kind that `_pair_divergence` selects, never
from two separately rounded vectors: the public functions pass (q, p - q),
and `estimate_eta_f` forms each pair and its image from two rows of the
channel. Each divergence is thus computed at full relative precision;
otherwise a ratio taken near the search's admission floor follows rounding
noise and can report a "lower bound" above the true supremum. A kernel
takes arrays of shape (..., m) and reduces over the last axis, so the
search evaluates a block of pairs in one call and the public functions
pass one row.

The kernels run under the caller's `np.errstate`, the one `_quiet()`
returns: there a ratio that overflows (a base near 1e-310) and 0/0 (a symbol
both sides leave empty) are values, not warnings. `f_divergence`,
`estimate_eta_f` and the Le Cam condition each enter it once per call, not
once per kernel call.
"""
from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .core import Distribution, _readonly
from .errors import DimensionMismatch

_LN2 = math.log(2.0)
# The kernels' scalar operands, as read-only 0-d arrays, cheaper per numpy
# call than Python floats (see `coefficients._pair_peaks`, which shares _ZERO
# and _ONE). g's Taylor coefficients (-1)^n / (n (n - 1)), from n = 9 down
# to n = 2, and the |t| up to which `_bracket_g` reads them
_ZERO, _ONE, _MINUS_ONE, _INF = _readonly(0.0), _readonly(1.0), _readonly(-1.0), _readonly(np.inf)
_NEXT_ABOVE_MINUS_ONE = _readonly(math.nextafter(-1.0, 0.0))
_SERIES = tuple(_readonly((-1.0) ** n / (n * (n - 1))) for n in range(9, 1, -1))
_SERIES_CUT = _readonly(1e-2)


class FKind(Enum):
    """The three f-divergences, which bracket any other f's contraction
    coefficient: eta_chi2 <= eta_f <= eta_TV."""

    TOTAL_VARIATION = "total_variation"
    KL = "kl"
    CHI_SQUARED = "chi_squared"


TOTAL_VARIATION = FKind.TOTAL_VARIATION
KL = FKind.KL
CHI_SQUARED = FKind.CHI_SQUARED


def _check_sizes(p: Distribution, q: Distribution):
    if p.alphabet_size != q.alphabet_size:
        raise DimensionMismatch(
            f"alphabet sizes differ: {p.alphabet_size} vs {q.alphabet_size}"
        )


def total_variation(p: Distribution, q: Distribution) -> float:
    """(1/2) sum_z |p(z) - q(z)|; symmetric, in [0, 1]."""
    return f_divergence(p, q, TOTAL_VARIATION)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """Extended KL divergence in bits: sum_z q(z) g((p(z) - q(z))/q(z)) / ln 2
    with g(t) = (1+t) ln(1+t) - t >= 0, which equals
    sum_z p(z) log2(p(z)/q(z)) - (sum p - sum q)/ln 2 (0 log(0/q) = 0).

    Never negative, even for inputs whose sums differ within tolerance.
    Returns +inf when p puts mass where q does not.
    """
    return f_divergence(p, q, KL)


def l2_distance_sq(p: Distribution, q: Distribution) -> float:
    """Squared Euclidean distance sum_z (p(z) - q(z))^2."""
    _check_sizes(p, q)
    d = p.probs - q.probs
    return float(np.dot(d, d))


def _quiet():
    """The floating-point error state the kernels run under: overflow
    (a base near 1e-310), 0/0 and inf - inf are results here, not faults."""
    return np.errstate(divide="ignore", over="ignore", invalid="ignore")


def _bracket_g(x: np.ndarray) -> np.ndarray:
    # g(t) = (1+t)*log1p(t) - t, the nonnegative integrand of extended KL,
    # with g(-1) = 1 (x = -1 reads log1p at the next float up, where
    # 0 * finite - x = 1). The log1p form cancels as t -> 0 (it loses 3e-12
    # relative at |t| = 1e-4), so entries with |t| <= 1e-2 take the series
    # sum_{n >= 2} (-t)^n / (n (n - 1)) to n = 9 by Horner: within 5e-14
    # relative of g on both sides of the cutoff (at t = 0 both give 0).
    # Terms to n = 19 with |t| <= 0.1 would give 4e-15, at two numpy calls
    # per term in every search's ladder. The series is formed on every entry
    # and picked by one np.where; where it overflows (|t| from about 3e34) it
    # is discarded, under the callers' `_quiet()`
    g = (_ONE + x) * np.log1p(np.maximum(x, _NEXT_ABOVE_MINUS_ONE)) - x
    ax = np.abs(x)
    if np.minimum.reduce(ax, axis=None) <= _SERIES_CUT:
        series = x * _SERIES[0] + _SERIES[1]
        for c in _SERIES[2:]:
            series = series * x + c
        g = np.where(ax <= _SERIES_CUT, x * x * series, g)
    return g


def _kl_pair_bits(base: np.ndarray, diff: np.ndarray) -> np.ndarray:
    live = base > _ZERO
    x = np.maximum(diff / np.where(live, base, _ONE), _MINUS_ONE)
    terms = base * _bracket_g(x)
    if not np.maximum.reduce(terms, axis=None) < np.inf:
        # (1 + x) log1p(x) overflows once x passes ~1e306, and x itself past
        # ~1e308: there the term is (base + diff) ln((base + diff)/base) - diff,
        # with the log of the ratio taken as a difference of logs
        over = ~(terms < np.inf)
        b, d = base[over], diff[over]
        terms[over] = (b + d) * (np.log(b + d) - np.log(b)) - d
    # mass where the base has none makes the divergence infinite
    terms = np.where(live | (diff == _ZERO), terms, _INF)
    return np.add.reduce(terms, axis=-1) / _LN2


def _tv_pair(base: np.ndarray, diff: np.ndarray) -> np.ndarray:
    return 0.5 * np.add.reduce(np.abs(diff), axis=-1)


def _chi2_pair(base: np.ndarray, diff: np.ndarray) -> np.ndarray:
    # where the base is 0 (or -0), diff^2/base is 0/0 (NaN, read as 0) or
    # +-inf (mass where the base has none: infinite)
    return np.add.reduce(np.fmax(np.abs(diff * diff / base), _ZERO), axis=-1)


_KERNELS = {FKind.TOTAL_VARIATION: _tv_pair, FKind.KL: _kl_pair_bits, FKind.CHI_SQUARED: _chi2_pair}


def _pair_divergence(spec: FKind):
    """The kernel D(base + diff || base) of `spec`, as a function of two
    arrays of shape (..., m): one divergence per row, reduced over the last
    axis. Support violations (base = 0 < diff) give +inf for KL and chi^2
    and contribute |diff|/2 for total variation."""
    if not isinstance(spec, FKind):
        raise TypeError(f"spec must be TOTAL_VARIATION, KL or CHI_SQUARED, got {spec!r}")
    return _KERNELS[spec]


def f_divergence(p: Distribution, q: Distribution, spec: FKind) -> float:
    """sum_z q(z) f(p(z)/q(z)) with the conventions 0/0 := 1 and 1/0 := inf,
    evaluated from the base q and the difference p - q.

    A symbol with q(z) = 0 < p(z) contributes p(z) * lim_{t->inf} f(t)/t,
    which makes the result +inf for f of superlinear growth (KL, chi^2).
    KL is the extended form sum_z q(z) g((p(z) - q(z))/q(z)) / ln 2 with
    g(t) = (1+t) ln(1+t) - t, equal to sum_z p(z) log2(p(z)/q(z)) -
    (sum p - sum q)/ln 2 and never negative.
    """
    _check_sizes(p, q)
    with _quiet():
        return float(_pair_divergence(spec)(q.probs, p.probs - q.probs))
