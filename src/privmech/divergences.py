"""Distances and divergences between distributions on a common alphabet.

All KL-type quantities are reported in bits (base-2 logs). Infinity is a
legal return value, not an error: callers that need finite ratios filter
infinite pairs themselves.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .core import DEFAULT_TOL, Distribution, ToleranceConfig
from .errors import CustomFNotNormalized, DimensionMismatch


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
    _check_sizes(p, q)
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """sum_z p(z) log2(p(z)/q(z)) in bits, with 0 log(0/q) = 0.

    Returns +inf when p puts mass where q does not.
    """
    _check_sizes(p, q)
    pp, qq = p.probs, q.probs
    mask = pp > 0
    if np.any(qq[mask] == 0.0):
        return float("inf")
    pm = pp[mask]
    return float(np.sum(pm * np.log2(pm / qq[mask])))


def l2_distance_sq(p: Distribution, q: Distribution) -> float:
    """Squared Euclidean distance sum_z (p(z) - q(z))^2."""
    _check_sizes(p, q)
    d = p.probs - q.probs
    return float(np.dot(d, d))


def _xlog2x(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log2(x[pos])
    return out


def _builtin_f(kind: FKind):
    """Vectorized integrand and its slope at infinity lim f(t)/t."""
    if kind is FKind.TOTAL_VARIATION:
        return lambda x: 0.5 * np.abs(x - 1.0), 0.5
    if kind is FKind.KL:
        return _xlog2x, float("inf")
    if kind is FKind.CHI_SQUARED:
        return lambda x: (x - 1.0) ** 2, float("inf")
    raise ValueError(f"no built-in integrand for {kind}")


def _custom_integrand(spec: FDivergenceSpec, tol: ToleranceConfig):
    """Vectorized custom f and its slope at infinity lim f(t)/t; raises
    CustomFNotNormalized unless f(1) = 0 within tol.eq_tol."""
    f = spec.custom_f
    at_one = float(f(1.0))
    if not abs(at_one) <= tol.eq_tol:
        raise CustomFNotNormalized(f"f(1) = {at_one!r}, expected 0")
    f_vec = lambda x: np.array([float(f(t)) for t in x])
    # probe f(t)/t growth; a convex f has a (possibly infinite) limit slope
    try:
        lo, hi = f(1e8) / 1e8, f(1e12) / 1e12
    except OverflowError:
        return f_vec, float("inf")
    if not np.isfinite(hi) or hi > lo * (1.0 + 1e-6) + 1e-12:
        return f_vec, float("inf")
    return f_vec, float(hi)


def _f_sum(pp: np.ndarray, qq: np.ndarray, f_vec, f_inf: float) -> float:
    qpos = qq > 0
    total = float(np.sum(qq[qpos] * f_vec(pp[qpos] / qq[qpos])))
    escaped = float(pp[~qpos].sum())  # mass where q vanishes; 0/0 pairs add 0
    if escaped > 0.0:
        total += escaped * f_inf
    return total


def f_divergence(
    p: Distribution,
    q: Distribution,
    spec: FDivergenceSpec,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """sum_z q(z) f(p(z)/q(z)) with the conventions 0/0 := 1 and 1/0 := inf.

    A symbol with q(z) = 0 < p(z) contributes p(z) * lim_{t->inf} f(t)/t,
    which makes the result +inf for f of superlinear growth (KL, chi^2).
    """
    _check_sizes(p, q)
    if spec.kind is FKind.CUSTOM:
        f_vec, f_inf = _custom_integrand(spec, tol)
    else:
        f_vec, f_inf = _builtin_f(spec.kind)
    return _f_sum(p.probs, q.probs, f_vec, f_inf)
