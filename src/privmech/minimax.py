"""Monte Carlo study of distribution estimation from leakage-constrained
privatized samples.

The sampling path is: source distribution -> staircase mechanism ->
output counts, Multinomial(n, q) with q = pW -> unclipped plug-in estimate
of the source, which depends on the n i.i.d. privatized symbols only
through their counts. The estimator is deliberately NOT projected onto the
simplex: the closed-form expected risk analyzed here is for the raw
plug-in estimate, and projection would break that comparison.

Output symbols are 0-based column indices; the staircase dummy symbol is
index k.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .bounds import BoundCheckResult, _verdict
from .core import (
    EQ_TOL, Channel, Distribution, _as_floats, _check_count, _check_seed, _readonly,
    pushforward, validate_distribution,
)
from .divergences import _LN2, _kl_pair_bits, _quiet
from .errors import (
    BadDirectionVector, DimensionMismatch, PreconditionNotMet, RaggedRows, SymbolOutOfRange,
)
from .mechanisms import _check_k, _check_k_alpha, staircase_rate

# Count cells per multinomial block. Rows are drawn in order from one
# generator, so the block size bounds memory without changing any result.
_BLOCK_CELLS = 1 << 16

# How near its limit the large-sample condition must come (see lecam_lower_check).
_TAYLOR_SLACK = 1e-3


@dataclass(frozen=True)
class SimulationConfig:
    """One Monte Carlo configuration: `replicates` count rows of `n`
    privatized samples each, drawn from one generator seeded by `seed`.
    Identical configs give bit-identical results."""

    k: int
    alpha_bits: float
    n: int
    replicates: int
    seed: int
    source: Distribution

    def __post_init__(self):
        _check_k_alpha(self.k, self.alpha_bits)
        object.__setattr__(self, "n", _check_count("n", self.n))
        object.__setattr__(self, "replicates", _check_count("replicates", self.replicates))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        if self.source.alphabet_size != self.k:
            raise DimensionMismatch(
                f"source alphabet {self.source.alphabet_size} != k = {self.k}"
            )


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo mean squared-l2 risk with closed-form references."""

    mean_risk: float
    std_error: float
    replicates: int
    closed_form: float
    upper_bound: float
    lecam_lower: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LeCamPair:
    """Two-point family: uniform p0 and its unit perturbation p1.

    `p1` is None when the perturbed vector leaves [0, 1], and the pair is
    then not `valid`; when valid, the squared l2 distance between the two
    points is exactly 1/(n * (2**a - 1)).
    """

    p0: Distribution
    p1: Distribution | None
    u: np.ndarray

    @property
    def valid(self) -> bool:
        return self.p1 is not None


@dataclass(frozen=True)
class SweepRow:
    """One sample-size point of a risk scaling sweep."""

    n: int
    mean_risk: float
    std_error: float
    normalized_risk: float
    closed_form: float
    upper_bound: float
    lecam_lower: float


def sample_outputs(w: Channel, p: Distribution, n: int, seed) -> np.ndarray:
    """n i.i.d. output symbols of the channel fed with p: one multinomial
    count row, in uniformly random order (the law of an i.i.d. sequence
    given its counts). `seed` is anything numpy's default_rng accepts (int,
    SeedSequence, ...); draws are deterministic given the seed."""
    n = _check_count("n", n)
    q = pushforward(w, p).probs
    rng = np.random.default_rng(seed)
    return rng.permutation(np.repeat(np.arange(q.size), rng.multinomial(n, q)))


def staircase_estimator(samples, k: int, alpha_bits: float, n: int) -> np.ndarray:
    """Unclipped plug-in estimate p_hat(x) = count(x) / (n * lam) for x < k.

    Symbols are whole numbers in [0, k] (1.0 is accepted); the dummy k
    contributes to no coordinate. The result is a raw nonnegative vector:
    coordinates may exceed 1 and need not sum to 1.
    """
    n = _check_count("n", n)
    lam = staircase_rate(k, alpha_bits)
    arr = _as_floats(samples, RaggedRows)
    if arr.ndim != 1 or len(arr) != n:
        raise DimensionMismatch(f"expected {n} samples, got shape {arr.shape}")
    bad = ~((arr >= 0) & (arr <= k) & (arr == np.round(arr)))  # also catches NaN
    if bad.any():
        raise SymbolOutOfRange(f"symbol {arr[bad][0]} is not a whole number in [0, {k}]")
    return _plug_in(np.bincount(arr.astype(np.int64), minlength=k + 1)[:k], n, lam)


def _plug_in(counts: np.ndarray, n: int, lam: float) -> np.ndarray:
    """The plug-in estimate count(x) / (n * lam), for one count row or a
    batch of them; `staircase_estimator` and the Monte Carlo share it."""
    return counts * (1.0 / (n * lam))


def closed_form_risk(p: Distribution, k: int, alpha_bits: float, n: int) -> float:
    """Exact expected squared-l2 risk of the plug-in estimate under the
    staircase mechanism: (1/(n*lam)) * sum_x p(x) (1 - lam p(x))."""
    if p.alphabet_size != k:
        raise DimensionMismatch(f"source alphabet {p.alphabet_size} != k = {k}")
    n = _check_count("n", n)
    lam = staircase_rate(k, alpha_bits)
    pp = p.probs
    return float(np.sum(pp * (1.0 - lam * pp)) / (n * lam))


def _mc_risks(source: Distribution, lam: float, n, replicates, rng) -> np.ndarray:
    """Squared-l2 risk of the plug-in estimate on each of `replicates` count
    rows of the staircase at rate `lam`, drawn in order from `rng` in blocks
    of _BLOCK_CELLS cells. q = (lam p, 1 - lam) is pW exactly: each of the
    first k columns has one nonzero entry, and the multinomial never reads
    the last probability."""
    k = source.alphabet_size
    q = np.append(lam * source.probs, 1.0 - lam)
    rows = max(1, _BLOCK_CELLS // q.size)
    risks = np.empty(replicates)
    for start in range(0, replicates, rows):
        counts = rng.multinomial(n, q, size=min(rows, replicates - start))
        diff = _plug_in(counts[:, :k], n, lam) - source.probs
        risks[start:start + len(diff)] = (diff * diff).sum(axis=1)
    return risks


def _mean_var(risks: np.ndarray) -> tuple[float, float]:
    """Mean and sample variance of a batch of replicate risks; the variance
    of one replicate is 0."""
    return float(risks.mean()), (float(risks.var(ddof=1)) if risks.size > 1 else 0.0)


def empirical_risk(cfg: SimulationConfig) -> RiskEstimate:
    """Monte Carlo mean of the plug-in estimator's squared-l2 risk.

    Replicate i is the i-th count row drawn from default_rng(cfg.seed), so
    growing `replicates` keeps the earlier replicates. The standard error is
    the sample standard deviation over replicates divided by sqrt(replicates).

    Raises
    ------
    AlphaOutOfRange
        When 2**alpha_bits > k, where the staircase mechanism is undefined.
    """
    lam = staircase_rate(cfg.k, cfg.alpha_bits)
    rng = np.random.default_rng(cfg.seed)
    mean, var = _mean_var(_mc_risks(cfg.source, lam, cfg.n, cfg.replicates, rng))
    r1 = 2.0 ** cfg.alpha_bits - 1.0
    return RiskEstimate(
        mean_risk=mean,
        std_error=math.sqrt(var) / math.sqrt(cfg.replicates),
        replicates=cfg.replicates,
        closed_form=closed_form_risk(cfg.source, cfg.k, cfg.alpha_bits, cfg.n),
        upper_bound=(cfg.k - 1) / (cfg.n * r1),
        lecam_lower=1.0 / (16.0 * cfg.n * r1),
    )


def default_direction(k: int) -> np.ndarray:
    """Zero-sum unit vector (1/sqrt2, -1/sqrt2, 0, ..., 0): the perturbation
    needing the smallest sample size for the two-point pair to stay valid."""
    _check_k(k)
    u = np.zeros(k)
    u[0] = 1.0 / math.sqrt(2.0)
    u[1] = -u[0]
    return u


def lecam_pair(k: int, alpha_bits: float, n: int, u) -> LeCamPair:
    """Uniform p0 and p1(x) = 1/k + u(x)/sqrt(n*(2**a - 1)).

    `u` must be zero-sum with unit squared norm (within EQ_TOL). The pair
    is flagged invalid when any p1 entry leaves [0, 1], which cannot happen
    once n >= k^2/(2**a - 1).
    """
    r1 = _check_k_alpha(k, alpha_bits) - 1.0
    n = _check_count("n", n)
    uu = _as_floats(u, RaggedRows)
    if uu.shape != (k,):
        raise BadDirectionVector(f"direction must have length {k}, got shape {uu.shape}")
    total = float(uu.sum())
    sqnorm = float(uu @ uu)
    if not abs(total) <= EQ_TOL or not abs(sqnorm - 1.0) <= EQ_TOL:  # NaN fails too
        raise BadDirectionVector(
            f"direction must satisfy sum u = 0 and sum u^2 = 1, got {total!r} and {sqnorm!r}"
        )
    p0 = Distribution.uniform(k)
    scale = math.sqrt(n * r1)
    p1_raw = 1.0 / k + uu / scale
    valid = bool((p1_raw >= 0.0).all() and (p1_raw <= 1.0).all())
    p1 = validate_distribution(p1_raw) if valid else None
    return LeCamPair(p0=p0, p1=p1, u=_readonly(uu))


def _taylor_value(k, alpha_bits, n, u) -> float:
    """n*(2**a - 1)*KL(p1 || p0) in nats, with KL taken from the base p0
    and the exact difference p1 - p0, so no cancellation at large n."""
    r1 = 2.0 ** alpha_bits - 1.0
    diff = np.asarray(u, float) / math.sqrt(n * r1)
    with _quiet():
        return float(n * r1 * _LN2 * _kl_pair_bits(np.full(k, 1.0 / k), diff))


def lecam_lower_check(
    k: int, alpha_bits: float, n: int, replicates: int, seed: int
) -> BoundCheckResult:
    """Check the two-point lower bound: the staircase estimator's average
    risk over the pair must be at least 1/(16*n*(2**a - 1)).

    Preconditions, both reported through PreconditionNotMet with the
    smallest satisfying n:

    * pair validity: n >= k^2/(2**a - 1), sufficient for any u, not tight;
    * large-sample condition: n*(2**a - 1)*KL(p1 || p0) <= 1 + 1e-3,
      with KL in nats. The product approaches k/2 from above as n grows
      (for k = 2 it is 1 + 1/(3n(2**a - 1))), so a strict <= 1 test is
      unsatisfiable for every n; the slack 1e-3 sets how close to the
      limit counts as converged, and for k >= 3 no sample size qualifies.

    The verdict passes iff S >= bound - 3*std_error, where S is the Monte
    Carlo estimate of the two-point average risk: `replicates` count rows
    at p0, then `replicates` at p1, all from one default_rng(seed).
    """
    n = _check_count("n", n)
    replicates = _check_count("replicates", replicates)
    seed = _check_seed(seed)
    lam = staircase_rate(k, alpha_bits)  # validates k, alpha and 2**a <= k
    r1 = 2.0 ** alpha_bits - 1.0
    n_min = math.ceil(k * k / r1)
    if n < n_min:
        raise PreconditionNotMet(
            f"pair-validity condition n >= k^2/(2**a - 1) fails at n = {n}; "
            f"smallest satisfying n is {n_min}",
            condition="pair_validity",
            min_n=n_min,
        )
    u = default_direction(k)
    value = _taylor_value(k, alpha_bits, n, u)
    if value > 1.0 + _TAYLOR_SLACK:
        min_n = _min_taylor_n(k, alpha_bits, n_min, u)
        detail = (
            f"smallest satisfying n is {min_n}"
            if min_n is not None
            else f"no sample size satisfies it for k = {k} (limit {k / 2:.3f})"
        )
        raise PreconditionNotMet(
            f"large-sample condition value {value:.6f} exceeds 1 + {_TAYLOR_SLACK}; {detail}",
            condition="large_sample",
            min_n=min_n,
        )
    pair = lecam_pair(k, alpha_bits, n, u)
    assert pair.p1 is not None  # valid
    rng = np.random.default_rng(seed)
    m0, v0 = _mean_var(_mc_risks(pair.p0, lam, n, replicates, rng))
    m1, v1 = _mean_var(_mc_risks(pair.p1, lam, n, replicates, rng))
    s_value = 0.5 * (m0 + m1)
    se = 0.5 * math.sqrt((v0 + v1) / replicates)
    bound = 1.0 / (16.0 * n * r1)
    return _verdict(
        "lecam_lower",
        bound - 3.0 * se,
        s_value,
        note=(
            f"two-point mean risk {s_value:.6e} (se {se:.3e}, {replicates} replicates "
            f"per point); large-sample condition value {value:.6f}"
        ),
    )


def _min_taylor_n(k, alpha_bits, n_min, u):
    """Smallest n >= n_min meeting the large-sample condition at u, or None."""
    if k / 2.0 > 1.0 + _TAYLOR_SLACK:
        return None

    def met(n):
        return _taylor_value(k, alpha_bits, n, u) <= 1.0 + _TAYLOR_SLACK

    hi = n_min
    while not met(hi):
        hi *= 2
    return n_min + bisect.bisect_left(range(n_min, hi + 1), True, key=met)


def scaling_sweep(
    k: int,
    alpha_bits: float,
    n_grid,
    replicates: int,
    seed: int,
    source: Distribution | None = None,
) -> list[SweepRow]:
    """Risk estimates across sample sizes, with the rate-normalized column
    normalized_risk = mean_risk * n * (2**a - 1).

    Rows are ordered by n; each row runs on its own seed substream derived
    from (seed, row index). An empty grid gives an empty table; every
    argument but the grid (k, alpha_bits, replicates, the seed and the
    source's size) is checked even then, by one `SimulationConfig` whose
    n = 1 is a placeholder that each row replaces.
    """
    r1 = _check_k_alpha(k, alpha_bits) - 1.0
    base = SimulationConfig(
        k=k, alpha_bits=alpha_bits, n=1, replicates=replicates, seed=seed,
        source=Distribution.uniform(k) if source is None else source,
    )
    rows = []
    for idx, n in enumerate(sorted(_check_count("n", n) for n in n_grid)):
        row_seed = int(np.random.SeedSequence([base.seed, idx]).generate_state(1, np.uint64)[0])
        est = empirical_risk(replace(base, n=n, seed=row_seed))
        rows.append(
            SweepRow(
                n=n,
                mean_risk=est.mean_risk,
                std_error=est.std_error,
                normalized_risk=est.mean_risk * n * r1,
                closed_form=est.closed_form,
                upper_bound=est.upper_bound,
                lecam_lower=est.lecam_lower,
            )
        )
    return rows
