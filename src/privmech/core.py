"""Finite-alphabet probability objects: distributions, channels, and their algebra.

Distributions are validated probability vectors; channels are row-stochastic
matrices acting on them by pushforward. Raw input is turned into a float
array in one place (`_as_floats`): entries must be real numbers, not strings,
null or integers past the double range. Validation is strict: nothing is
ever renormalized, because downstream certificate checks assume exact
stochasticity up to the fixed sum slack `SUM_TOL`. All objects are immutable
after construction (frozen dataclasses over read-only copies of the arrays
given) and safe to share across threads. A channel fills in its certificates on
first use (see `Channel`); threads that race to do so compute and set equal
values.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyMatrix,
    EmptyVector,
    InvalidSize,
    NegativeEntry,
    NonFiniteEntry,
    RaggedRows,
    RowSumOutOfTolerance,
    SumOutOfTolerance,
    ValidationError,
)


# The one numerics policy, shared by every module; none of it can be set.
SUM_TOL = 1e-9  # slack on vector and row sums at validation
EQ_TOL = 1e-12  # slack for equality between computed reals
INEQ_SLACK = 1e-10  # added to the right side of inequality checks, for rounding


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector on a finite alphabet; `alphabet_size` is its length.

    Construct through `validate_distribution` (or the `uniform` /
    `point_mass` helpers); direct construction skips validation.
    """

    probs: np.ndarray
    alphabet_size: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "probs", _readonly(self.probs))
        object.__setattr__(self, "alphabet_size", self.probs.size)

    @classmethod
    def uniform(cls, k: int) -> "Distribution":
        _check_alphabet(k)
        return cls(np.full(k, 1.0 / k))

    @classmethod
    def point_mass(cls, k: int, x: int) -> "Distribution":
        _check_alphabet(k)
        if not (isinstance(x, (int, np.integer)) and 0 <= x < k):
            raise DimensionMismatch(f"point-mass location x = {x!r} is no integer in [0, {k})")
        return cls(np.arange(k) == x)  # 1.0 at x, 0.0 elsewhere


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic matrix of shape (input_size, output_size): rows[x, y] is
    the probability of output y on input x. Construct through `validate_channel`.

    `rows` is a read-only copy of the array given, so the exact certificates
    are kept on the object (`_certificates`) from the first request on.
    """

    rows: np.ndarray
    input_size: int = field(init=False)
    output_size: int = field(init=False)
    _certificates: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", _readonly(self.rows))
        object.__setattr__(self, "input_size", self.rows.shape[0])
        object.__setattr__(self, "output_size", self.rows.shape[1])


def _check_entries(arr: np.ndarray):
    """Raise on the first non-finite entry, else on the first negative one
    (row-major order), before any sum is formed."""
    # reductions here and in `coefficients` are ufunc calls, not the ndarray
    # methods min/max/sum, which add a Python frame per call
    if (  # NaN fails both tests
        np.minimum.reduce(arr, axis=None) >= 0.0
        and np.maximum.reduce(arr, axis=None) < math.inf
    ):
        return
    for mask, error in ((~np.isfinite(arr), NonFiniteEntry), (arr < 0, NegativeEntry)):
        hits = np.argwhere(mask)
        if hits.size:
            at = tuple(int(i) for i in hits[0])
            raise error(at[-1], float(arr[at]), row=at[0] if arr.ndim == 2 else None)


def _check_count(name: str, value) -> int:
    """`value` as an int if a whole number in [1, 2**63), the int64 range of
    Generator.multinomial (100.0 is 100), else ValueError, since a count
    taken as floor(value) or used as a loop bound would silently do other
    work than asked. The range goes first: 10**400 never reaches float(). A
    str is refused as a value, even one that spells a count, so a caller that
    reads text passes on what it could not read as a number."""
    if isinstance(value, str) or not (1 <= value < 2**63 and float(value).is_integer()):
        big = isinstance(value, int) and value.bit_length() > 128  # echo its size, not its digits
        got = f"an int of {value.bit_length()} bits" if big else repr(value)
        raise ValueError(f"{name} must be a whole number >= 1 and < 2**63, got {got}")
    return int(value)


def _check_alphabet(k):
    """The alphabet size k of `uniform` and `point_mass`: an int or numpy integer >= 1."""
    if not isinstance(k, (int, np.integer)):
        raise InvalidSize(f"alphabet size k must be an integer, got {k!r}")
    if k < 1:
        raise EmptyVector("alphabet size must be at least 1")


def _check_seed(seed) -> int:
    """`seed` as an int if an int or numpy integer >= 0, as default_rng takes
    it: "2" or 2.5 is a TypeError, as there, and a negative one a ValueError
    that names the seed."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    return int(seed)


def _as_floats(x, ragged: type[ValidationError]) -> np.ndarray:
    """`x` as a float array: the one parse of raw input. An entry that is no
    real number (a string, an object, null, an integer past the double
    range) is a ValidationError; nesting of unequal lengths raises `ragged`."""
    try:
        arr = np.asarray(x)
    except ValueError as exc:  # numpy: "inhomogeneous shape"
        raise ragged("nested lists have unequal lengths") from exc
    if arr.dtype.kind in "biuf":
        return arr.astype(float, copy=False)
    # numpy typed the entries as strings, complex or objects (null, a dict,
    # or a Python int past int64, which float() takes up to the double range)
    bad = [v for v in arr.ravel().tolist() if not isinstance(v, numbers.Real)]
    if bad:
        raise ValidationError(f"entries must be numbers, got {bad[0]!r}")
    try:
        return arr.astype(float)
    except OverflowError as exc:
        raise ValidationError(f"entries must be numbers in the double range ({exc})") from exc


def validate_distribution(p) -> Distribution:
    """Validate a raw real vector as a probability distribution.

    Entries must be nonnegative and sum to 1 within `SUM_TOL`. The vector
    is never renormalized; out-of-tolerance input is an error.

    Raises
    ------
    ValidationError (also for an entry that is no number, or ragged nesting),
    EmptyVector, NonFiniteEntry, NegativeEntry, SumOutOfTolerance
    """
    arr = _as_floats(p, ValidationError)
    if arr.ndim != 1:
        raise ValidationError(f"expected a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyVector("probability vector is empty")
    _check_entries(arr)
    total = float(arr.sum())
    if not abs(total - 1.0) <= SUM_TOL:
        raise SumOutOfTolerance(total, SUM_TOL)
    return Distribution(arr)


def validate_channel(m) -> Channel:
    """Validate a raw real matrix as a row-stochastic channel.

    Every row must pass the same checks as `validate_distribution`, with
    row sums within `SUM_TOL` of 1.

    Raises
    ------
    EmptyMatrix, RaggedRows, NonFiniteEntry, NegativeEntry, RowSumOutOfTolerance,
    ValidationError (an entry that is no number)
    """
    arr = _as_floats(m, RaggedRows)
    if arr.size == 0:
        raise EmptyMatrix("channel matrix has no entries")
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-d matrix, got shape {arr.shape}")
    _check_entries(arr)
    sums = np.add.reduce(arr, axis=1)
    off = np.abs(sums - 1.0)
    if not np.maximum.reduce(off) <= SUM_TOL:  # the first bad row is looked for only here
        r = int(np.argmax(~(off <= SUM_TOL)))
        raise RowSumOutOfTolerance(r, float(sums[r]), SUM_TOL)
    return Channel(arr)


def pushforward(w: Channel, p: Distribution) -> Distribution:
    """Image distribution q(y) = sum_x p(x) w(x, y)."""
    if p.alphabet_size != w.input_size:
        raise DimensionMismatch(
            f"distribution size {p.alphabet_size} != channel input size {w.input_size}"
        )
    return Distribution(p.probs @ w.rows)


def compose(w1: Channel, w2: Channel) -> Channel:
    """Serial composition: feed w1's output into w2."""
    if w1.output_size != w2.input_size:
        raise DimensionMismatch(
            f"first output size {w1.output_size} != second input size {w2.input_size}"
        )
    return Channel(w1.rows @ w2.rows)


def json_float(x: float):
    """JSON-safe scalar: infinities and NaN become strings."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def channel_to_dict(w: Channel) -> dict:
    """Interchange form: {"rows": [[...], ...]}."""
    return {"rows": [[float(v) for v in row] for row in w.rows]}


def channel_from_dict(d: dict) -> Channel:
    """Parse the interchange form; unknown keys are ignored, among them the
    "tol" object that older versions wrote: the row-sum slack is `SUM_TOL`."""
    if not isinstance(d, dict) or "rows" not in d:
        raise ValidationError("channel JSON must be an object with a 'rows' key")
    return validate_channel(d["rows"])


def distribution_to_dict(p: Distribution) -> dict:
    return {"probs": [float(v) for v in p.probs]}


def distribution_from_dict(d: dict) -> Distribution:
    if not isinstance(d, dict) or "probs" not in d:
        raise ValidationError("distribution JSON must be an object with a 'probs' key")
    return validate_distribution(d["probs"])
