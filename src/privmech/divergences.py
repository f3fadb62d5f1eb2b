"""Distances and divergences between distributions on a common alphabet.

All KL-type quantities are reported in bits (base-2 logs). Infinity is a
legal return value, not an error: callers that need finite ratios filter
infinite pairs themselves.

Every divergence is evaluated in (base, difference) form, D(base + diff ||
base), by the one kernel per kind that `_pair_divergence` selects, never
from two separately rounded vectors: the public functions pass (q, p - q),
and `estimate_eta_f` takes the image of a pair's difference straight from
two rows of the channel. Each divergence is thus computed at full relative
precision; otherwise a ratio taken near the search's admission floor
follows rounding noise and can report a "lower bound" above the true
supremum. A kernel takes arrays of shape (..., m) and reduces over the
last axis, so the search evaluates a block of pairs in one call and the
public functions pass one row. The last axis is reduced whole, or, given
`split`, as the two column groups [:split] and [split:]: the search places
the two letters of each input pair and their images side by side, shape
(..., 2 + m), and gets the input and the output divergence from one
elementwise pass. Each group's sum is the one a separate call on that
group would give.

The kernels run under the caller's `np.errstate`, the one `_quiet()`
returns: there a ratio that overflows (a base near 1e-310) and 0/0 (a symbol
both sides leave empty) are values, not warnings. `f_divergence`,
`estimate_eta_f` and the Le Cam condition each enter it once per call, not
once per kernel call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .core import EQ_TOL, Distribution
from .errors import CustomFNotNormalized, DimensionMismatch

_LN2 = math.log(2.0)
_NEXT_ABOVE_MINUS_ONE = math.nextafter(-1.0, 0.0)


class FKind(Enum):
    TOTAL_VARIATION = "total_variation"
    KL = "kl"
    CHI_SQUARED = "chi_squared"
    CUSTOM = "custom"


@dataclass(frozen=True)
class FDivergenceSpec:
    """Choice of convex f with f(1) = 0 defining sum_z q(z) f(p(z)/q(z)).

    Built-in kinds carry no callable. CUSTOM requires `custom_f`; its
    normalization f(1) = 0 is probed at call time, but convexity is the
    caller's obligation (there is no reliable finite test for it).
    """

    kind: FKind
    custom_f: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.kind is FKind.CUSTOM and self.custom_f is None:
            raise ValueError("CUSTOM spec requires custom_f")
        if self.kind is not FKind.CUSTOM and self.custom_f is not None:
            raise ValueError("built-in kinds take no custom_f")


TOTAL_VARIATION = FDivergenceSpec(FKind.TOTAL_VARIATION)
KL = FDivergenceSpec(FKind.KL)
CHI_SQUARED = FDivergenceSpec(FKind.CHI_SQUARED)


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
    # 0 * finite - x = 1); entries with 0 < |t| <= 1e-4 take the series,
    # which keeps full relative precision there (at t = 0 both give 0)
    g = (1.0 + x) * np.log1p(np.maximum(x, _NEXT_ABOVE_MINUS_ONE)) - x
    ax = np.abs(x)
    if np.minimum.reduce(ax, axis=None) <= 1e-4:
        small = (ax <= 1e-4) & (ax > 0.0)
        t = x[small]
        if t.size:
            tt = t * t
            g[small] = tt * (0.5 - t / 6.0 + tt / 12.0)
    return g


def _column_sums(terms: np.ndarray, split: int | None) -> np.ndarray:
    """Sums of `terms` over the last axis: whole when split is None, else
    the column groups [:split] and [split:], stacked on a new first axis."""
    if split is None:
        return np.add.reduce(terms, axis=-1)
    sums = np.empty((2,) + terms.shape[:-1])
    np.add.reduce(terms[..., :split], axis=-1, out=sums[0, ...])
    np.add.reduce(terms[..., split:], axis=-1, out=sums[1, ...])
    return sums


def _kl_pair_bits(base: np.ndarray, diff: np.ndarray, split: int | None = None) -> np.ndarray:
    live = base > 0.0
    x = np.maximum(diff / np.where(live, base, 1.0), -1.0)
    terms = base * _bracket_g(x)
    if not np.maximum.reduce(terms, axis=None) < np.inf:
        # (1 + x) log1p(x) overflows once x passes ~1e306, and x itself past
        # ~1e308: there the term is (base + diff) ln((base + diff)/base) - diff,
        # with the log of the ratio taken as a difference of logs
        over = ~(terms < np.inf)
        b, d = base[over], diff[over]
        terms[over] = (b + d) * (np.log(b + d) - np.log(b)) - d
    # mass where the base has none makes the divergence infinite
    terms = np.where(live | (diff == 0.0), terms, np.inf)
    return _column_sums(terms, split) / _LN2


def _tv_pair(base: np.ndarray, diff: np.ndarray, split: int | None = None) -> np.ndarray:
    return 0.5 * _column_sums(np.abs(diff), split)


def _chi2_pair(base: np.ndarray, diff: np.ndarray, split: int | None = None) -> np.ndarray:
    # where the base is 0 (or -0), diff^2/base is 0/0 (NaN, read as 0) or
    # +-inf (mass where the base has none: infinite)
    return _column_sums(np.fmax(np.abs(diff * diff / base), 0.0), split)


def _custom_pair(spec: FDivergenceSpec):
    """Pair kernel of a custom f, evaluated on the reconstructed pair, so
    its precision near zero divergence depends on the caller's f. Raises
    CustomFNotNormalized unless f(1) = 0 within EQ_TOL."""
    f = spec.custom_f
    at_one = float(f(1.0))
    if not abs(at_one) <= EQ_TOL:
        raise CustomFNotNormalized(f"f(1) = {at_one!r}, expected 0")
    # probe f(t)/t growth; a convex f has a (possibly infinite) limit slope
    try:
        lo, hi = f(1e8) / 1e8, f(1e12) / 1e12
    except OverflowError:
        lo = hi = float("inf")
    if not np.isfinite(hi) or hi > lo * (1.0 + 1e-6) + 1e-12:
        f_inf = float("inf")
    else:
        f_inf = float(hi)

    def pair(base: np.ndarray, diff: np.ndarray, split: int | None = None) -> np.ndarray:
        pp = np.clip(base + diff, 0.0, None)
        qpos = base > 0
        terms = np.zeros_like(pp)
        terms[qpos] = base[qpos] * np.array([float(f(t)) for t in pp[qpos] / base[qpos]])
        total = _column_sums(terms, split)
        # mass where q vanishes; 0/0 pairs add 0
        escaped = _column_sums(np.where(qpos, 0.0, pp), split)
        return np.where(escaped > 0.0, total + escaped * f_inf, total)

    return pair


def _pair_divergence(spec: FDivergenceSpec):
    """The kernel D(base + diff || base) of `spec`, as a function of two
    arrays of shape (..., m): one divergence per row, reduced over the last
    axis, and an optional column `split`, which gives an array of shape
    (2, ...): the divergences of the groups [:split] and [split:]. Support
    violations (base = 0 < diff) give +inf for KL and chi^2 and contribute
    |diff|/2 for total variation."""
    if spec.kind is FKind.TOTAL_VARIATION:
        return _tv_pair
    if spec.kind is FKind.KL:
        return _kl_pair_bits
    if spec.kind is FKind.CHI_SQUARED:
        return _chi2_pair
    return _custom_pair(spec)


def f_divergence(p: Distribution, q: Distribution, spec: FDivergenceSpec) -> float:
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
