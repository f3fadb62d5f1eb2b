"""Channel certificates: contraction, privacy levels, leakage, and a
lower-bound search for f-divergence contraction coefficients.

The exact certificates (Dobrushin coefficient, LDP level, maximal leakage,
minimum entry) are closed-form functions of the channel matrix. The
f-divergence contraction coefficient has no closed form for general f, so
`estimate_eta_f` reports a certified lower bound found by search, never a
claimed supremum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Channel, Distribution, _check_count, _readonly, json_float
from .divergences import _ONE, _ZERO, FKind, _chi2_pair, _pair_divergence, _quiet, _tv_pair
from .errors import BudgetTooSmall, DimensionMismatch

# Admission floor for ladder steps: a step whose input divergence is at or
# below it is skipped (the 0 < D of the coefficient's definition). No ceiling
# is needed: a step's input is [u, 1 - u] moved by |t| <= u <= 1/2, so its
# chi^2 is at most 1 and its KL at most 1 bit.
DIV_FLOOR = 1e-12

# Cells per block of pairs in `estimate_eta_f` (pairs times the output
# alphabet) and per block of row differences in `_row_pairs`.
# The size bounds memory. Neither result depends on it: each pair is
# evaluated, and summed, as it would be alone.
_BLOCK_CELLS = 1 << 12

# Most Newton steps `_pair_peaks` takes for a pair, a guard that no search
# in the tests reaches (they take at most about 15). Bisection alone would
# shrink the bracket, 46 wide, to the 1e-12 stopping step in 46 halvings.
_PEAK_STEPS = 64

# The pair stage's and the ladder's constants, as read-only arrays, shared by
# every call: an in-place op on one raises rather than changing later searches.
# `_CAPS` is the stacked read's s = 23, -23 and 0, one row each.
_CAPS = _readonly([[23.0], [-23.0], [0.0]])
_CAP, _MINUS_CAP, _WIDTH = _readonly(23.0), _readonly(-23.0), _readonly(46.0)
_HALF, _TWO, _TINY = _readonly(0.5), _readonly(2.0), _readonly(np.finfo(float).tiny)
_STEP, _FLAT, _MINUS_FLAT = _readonly(1e-12), _readonly(1e-14), _readonly(-1e-14)
# the ladder's 48 steps +-2^-n, n = 0, ..., 23, in the order it evaluates them,
# and the signs of a step's two input letters
_LADDER = _readonly([[sign * 2.0 ** -n] for n in range(24) for sign in (1.0, -1.0)])
_PLUS_MINUS = _readonly([1.0, -1.0])


@dataclass(frozen=True)
class PrivacyReport:
    """Bundle of exact certificates for one channel."""

    eta_tv: float
    ldp_level_bits: float
    maxl_bits: float
    min_entry: float
    input_size: int
    output_size: int

    def to_dict(self) -> dict:
        return {
            "eta_tv": json_float(self.eta_tv),
            "ldp_level_bits": json_float(self.ldp_level_bits),
            "maxl_bits": json_float(self.maxl_bits),
            "min_entry": json_float(self.min_entry),
            "input_size": self.input_size,
            "output_size": self.output_size,
        }


@dataclass(frozen=True)
class ContractionEstimate:
    """Best ratio found by `estimate_eta_f`, with the witnessing pair.

    `value` is a lower bound on the contraction coefficient of the FKind
    `spec`: for KL and chi^2 the ratio `output_divergence / input_divergence`
    as the search evaluated them, capped at 1; for total variation eta_TV.
    Both divergences are 0 when no pair was admitted.
    """

    spec: FKind
    value: float
    input_divergence: float
    output_divergence: float
    witness_p0: Distribution
    witness_p1: Distribution
    evaluations: int


def _row_pairs(rows: np.ndarray):
    """The TV distances of all row pairs, a block of rows at a time: yields
    (i, tv) with tv[r, c] the distance between rows i + r and i + 1 + c, so
    tv[r, r:] holds row i + r against every later row. A block of n rows is
    compared with all rows after the block's first in one broadcast, n chosen
    so the block has at most _BLOCK_CELLS cells (at least one row), so memory
    is O(k*m), never O(k*k*m). Each pair is summed in the same order whatever
    the block, so its distance is that of a row-by-row pass."""
    k, m = rows.shape
    i = 0
    while i < k - 1:
        n = max(1, _BLOCK_CELLS // ((k - i) * m))
        block = rows[i:i + n, None]
        yield i, _tv_pair(block, rows[i + 1:] - block)
        i += n


def _farthest_pair(rows: np.ndarray) -> tuple[float, tuple[int, int] | None]:
    """eta_TV, the greatest TV distance between two rows, and the first pair
    (i, j), i < j, in (i, j) order at that distance (None for a single row):
    `dobrushin_coefficient` and the total-variation search both read it. A
    block's argmax is row-major, and an entry the block holds twice, or a row
    against itself (distance 0), comes after the pair's own entry, so the
    argmax is the block's first maximum in (i, j) order. Blocks are kept as
    max() takes them: the first, then a strictly larger one."""
    eta, pair = 0.0, None
    for i, tv in _row_pairs(rows):
        c = tv.argmax()
        if i == 0 or tv.item(c) > eta:
            r, c = divmod(int(c), tv.shape[1])
            eta, pair = tv.item(r, c), (i + r, i + 1 + c)
    return eta, pair


def dobrushin_coefficient(w: Channel) -> float:
    """Maximum total-variation distance between any two rows of the channel.

    Equals the channel's total-variation contraction factor. A single-row
    channel has coefficient 0 (empty maximum). The value is that of
    `_farthest_pair`, whose pair is the total-variation search's witness.
    """
    return _farthest_pair(w.rows)[0]


def _ratio_bits(hi: np.ndarray, lo: np.ndarray) -> float:
    """log2 of the largest hi/lo, from the maxima and minima of columns whose
    minimum is positive; a ratio that overflows (a minimum near 1e-310) is
    taken as a difference of logs, so the level stays finite."""
    with np.errstate(over="ignore"):
        worst = np.maximum.reduce(hi / lo)  # >= 1, since hi >= lo
    if worst < np.inf:
        return float(np.log2(worst))
    return float(np.maximum.reduce(np.log2(hi) - np.log2(lo)))


def ldp_level(w: Channel) -> float:
    """Least a such that every column's entry ratio is at most 2**a, in bits.

    Columns that are identically zero contribute ratio 1 (the 0/0
    convention); a column mixing zero and nonzero entries forces +inf.
    Constant channels report 0.
    """
    return _column_certificates(w.rows)[0]


def max_leakage(w: Channel) -> float:
    """log2 of the sum over outputs of the column-wise maximum entry, in bits.

    Operationally: the log of the best multiplicative gain a maximum a
    posteriori guesser of the input (or of any function of it) obtains from
    observing the output.
    """
    return _column_certificates(w.rows)[1]


def min_entry(w: Channel) -> float:
    """Smallest entry of the channel matrix."""
    return float(np.minimum.reduce(w.rows, axis=None))


def map_adversary_gain(w: Channel, px: Distribution) -> float:
    """Multiplicative guessing gain of a MAP adversary on the input itself.

    log2( sum_y max_x px(x) w(x,y) / max_x px(x) ), in bits. Equals
    `max_leakage(w)` when px is uniform and 0 when px is a point mass.
    """
    if px.alphabet_size != w.input_size:
        raise DimensionMismatch(
            f"prior size {px.alphabet_size} != channel input size {w.input_size}"
        )
    hit = float((px.probs[:, None] * w.rows).max(axis=0).sum())
    return float(np.log2(hit / px.probs.max()))


def _column_certificates(rows: np.ndarray) -> tuple[float, float, float, int]:
    """The LDP level and maximal leakage, in bits, and lemma 1's largest
    row-pair contrast |a - b|/(a + b) with its count of zero-zero pairs, from
    one column max (hi) and min (lo): a column's largest contrast is that of
    hi and lo, and its z zeros make z(z-1)/2 pairs of contrast 0/0, skipped."""
    col_max, col_min = np.maximum.reduce(rows), np.minimum.reduce(rows)
    least = np.minimum.reduce(col_min)
    if least > 0.0:  # full support: every column is live and no minimum is 0
        hi, lo, skipped = col_max, col_min, 0
        # from a least minimum of 2**-1000 on, hi / lo < 2**1001 cannot overflow
        # (a validated channel's entries are at most 1 + SUM_TOL): no np.errstate
        if least >= 2.0 ** -1000:
            bits = float(np.log2(np.maximum.reduce(hi / lo)))
        else:
            bits = _ratio_bits(hi, lo)
    else:
        live = col_max > 0.0  # an all-zero column has no ratio and no contrast
        hi, lo = col_max[live], col_min[live]
        zeros = np.count_nonzero(rows == 0.0, axis=0)
        bits = float("inf") if (lo == 0.0).any() else _ratio_bits(hi, lo)  # 0 in a live column
        skipped = int(np.add.reduce(zeros * (zeros - 1) // 2))
    contrast = float(np.maximum.reduce((hi - lo) / (hi + lo)))  # >= 0, since hi >= lo
    return bits, float(np.log2(np.add.reduce(col_max))), contrast, skipped


def _certificates(w: Channel) -> tuple[PrivacyReport, float, int]:
    """The channel's PrivacyReport, lemma 1's largest contrast and its count
    of zero-zero pairs, computed on first use and kept on `w`."""
    if w._certificates is None:
        ldp_bits, maxl_bits, contrast, skipped = _column_certificates(w.rows)
        report = PrivacyReport(
            eta_tv=dobrushin_coefficient(w),
            ldp_level_bits=ldp_bits,
            maxl_bits=maxl_bits,
            # not the least column minimum: the two can differ in the sign of a zero
            min_entry=min_entry(w),
            input_size=w.input_size,
            output_size=w.output_size,
        )
        object.__setattr__(w, "_certificates", (report, contrast, skipped))
    return w._certificates


def privacy_report(w: Channel) -> PrivacyReport:
    """Compute all exact certificates for one channel in one pass: eta_tv
    from one blocked row comparison, the LDP level and maximal leakage from
    one column maximum and minimum. Equal, bit for bit, to calling
    `dobrushin_coefficient`, `ldp_level`, `max_leakage` and `min_entry`.

    The pass is made once per channel object: later calls, and
    `run_all_checks` and the `check_*` that read the report, reuse it."""
    return _certificates(w)[0]


def _pair_peaks(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row pair (a, b): the logit s of the weight p on a that
    maximises h(p) = p q sum_y d_y^2 / L_y, with q = 1 - p, d = a - b and
    L = p a + q b, the chi^2 contraction coefficient of the two-input
    channel [a; b], and h there. s stays in [-23, 23], so p and q stay above
    1e-10, where a witness still clears the admission floor.

    h''(p) = -2 sum d^2 a b / L^3 <= 0, so h is concave and its slope falls
    through 0 once. At r = p / q = e^s and D = r a + b, h'(p) is
    G = sum d^2 (b - r^2 a) / D^2 (the factors 1 + r cancel), its terms'
    sizes sum to sum d^2 (b + r^2 a) / D^2, and C = sum d^2 a b / D^3: a read
    costs one exp. One stacked read at s = 23, -23 and 0 serves the caps and
    the first Newton step. A pair peaks at a cap where its slope points
    outward by more than the flat test below, so a flat pair (h constant)
    stays at s = 0. Every other pair takes Newton steps from s = 0 on the
    slope in s, h' r / (1 + r)^2, of G (1 + r) / den, with
    den = 2 r (1 + r)^2 C - G (1 - r). Each read moves one end of the bracket
    (-23, 23) to s; its midpoint replaces a step that leaves it, one where
    den <= 0 and one over half the step before last (Newton creeps toward a
    peak far out in s). A pair stops at a step of at most 1e-12 max(1, |s|)
    or where |h'| is at most 1e-14 of its terms' sizes (a flat peak), tested
    before the bracket, and keeps its s: a block gives the results of
    one-pair calls. h is read at the final s. Call it under `_quiet()`.

    A Newton step is about 55 numpy calls on small blocks (28 pairs for 8
    inputs), so its time is numpy's per-call cost. The scalar operands are
    read-only 0-d arrays, not Python floats, which numpy 2 takes through
    weak-scalar promotion at about 0.2 us more per call (0.59 against
    0.39 us for x + 1.0 on 3 elements); they hold the same doubles, so the
    results keep their bits. np.putmask, at half the cost of np.where,
    updates the bracket and each new s in place."""
    d, ab = a - b, a * b

    def slope(s):
        # G, its terms' sizes, C and r at s; D's floor reads 0/0 (both rows 0) as 0
        r = np.exp(s)
        rc = r[..., None]
        ra = rc * a
        D = np.fmax(ra + b, _TINY)
        u = d / D
        u2 = u * u
        rra = rc * ra
        return (np.add.reduce(u2 * (b - rra), axis=-1), np.add.reduce(u2 * (b + rra), axis=-1),
                np.add.reduce(u2 * (ab / D), axis=-1), r)

    g, size, c, r = slope(_CAPS)  # rows s = 23, -23, 0, each against every pair
    up, down = g[0] > _FLAT * size[0], g[1] < _MINUS_FLAT * size[1]
    s, done = np.where(up, _CAP, np.where(down, _MINUS_CAP, _ZERO)), up | down
    lo, hi, last, before = np.full(s.shape, _MINUS_CAP), np.full(s.shape, _CAP), _WIDTH, _WIDTH
    for n in range(_PEAK_STEPS):
        if np.logical_and.reduce(done):
            break
        g, size, c, r = slope(s) if n else (g[2], size[2], c[2], r[2])
        np.putmask(lo, g > _ZERO, s)
        np.putmask(hi, g < _ZERO, s)
        rp = _ONE + r
        den = _TWO * r * (rp * rp) * c - g * (_ONE - r)
        step = g * rp / den
        new, length = s + step, np.abs(step)
        done |= (length <= _STEP * np.fmax(_ONE, np.abs(s))) | (np.abs(g) <= _FLAT * size)
        newton = (den > _ZERO) & (lo < new) & (new < hi) & (length <= _HALF * before)
        mid = _HALF * (lo + hi)
        np.putmask(mid, newton, new)  # the next s: Newton's where safe, else the midpoint
        before, last = last, np.abs(mid - s)
        np.putmask(mid, done, s)
        s = mid
    p, q = _ONE / (_ONE + np.exp(-s)), _ONE / (_ONE + np.exp(s))
    return s, p * q * _chi2_pair(p[:, None] * a + q[:, None] * b, d)


def _ranked_pairs(rows: np.ndarray, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """The first `keep` row pairs i < j in order of decreasing TV distance,
    ties in (i, j) order, by one stable sort: their TV distances and codes
    i * k + j. Only about 2 * keep + k pairs are held at a time, so memory is
    O(min(keep, k^2) + k) beyond a block of `_row_pairs`. The KL and chi^2
    pair stage, `_best_pair`, is its one caller; the total-variation search
    needs only the first pair, `_farthest_pair`."""
    k = len(rows)
    total = k * (k - 1) // 2
    keep = min(keep, total)
    tv = np.empty(min(total, 2 * keep + k))
    code = np.empty(tv.size, dtype=np.intp)
    n = 0
    for i, block in _row_pairs(rows):
        for a in range(i, i + len(block)):  # row a against rows a + 1, ..., k - 1
            # rows enter in (i, j) order and a cut keeps its survivors ahead of
            # all later rows, so a stable sort leaves ties in (i, j) order
            if n + k - 1 - a > tv.size:  # cut back to the first `keep` in order
                order = np.argsort(-tv[:n], kind="stable")[:keep]
                tv[:keep], code[:keep], n = tv[order], code[order], keep
            tv[n:n + k - 1 - a] = block[a - i, a - i:]
            code[n:n + k - 1 - a] = np.arange(a * k + a + 1, (a + 1) * k)
            n += k - 1 - a
    order = np.argsort(-tv[:n], kind="stable")[:keep]
    return tv[order], code[order]


def _best_pair(rows: np.ndarray, budget: int) -> tuple[int, tuple[int, int, float] | None]:
    """The pair stage: the number of input pairs examined (at most `budget`)
    and, for the first pair of greatest h among them, its inputs (i, j) and
    the logit of p at its peak (None if none was examined). Pairs go in the
    order of `_ranked_pairs(rows, budget)`, and the stage stops at the first
    whose TV distance is at or below the best h so far: h is at most it. A
    block's pairs are examined or not as in a pair-by-pair pass."""
    k, m = rows.shape
    block = max(1, _BLOCK_CELLS // m)
    tv, code = _ranked_pairs(rows, budget)
    examined, best_h, peak = 0, 0.0, None
    for start in range(0, tv.size, block):
        t = tv[start:start + block]
        live = int(np.count_nonzero(t > best_h))  # a prefix, as t decreases
        if not live:
            break
        i, j = np.divmod(code[start:start + live], k)
        s, h = _pair_peaks(rows[i], rows[j])
        # a pair is examined while its TV distance exceeds the best h before it;
        # the first (t[0] > best_h) always is
        before = np.maximum(np.maximum.accumulate(h[:-1]), best_h)
        n = 1 + int(np.count_nonzero(t[1:live] > before))
        examined += n
        c = int(h[:n].argmax())
        if h[c] > best_h:
            best_h, peak = float(h[c]), (int(i[c]), int(j[c]), float(s[c]))
        if n < t.size:
            break
    return examined, peak


def _ladder_steps(e: int, most: int) -> np.ndarray:
    """The first `most` ladder steps, as a column, for a u of binary exponent
    e in [-33, 0]: t = 2^(e-1-n), then -t, for n = 0, 1, ... while t >= 2^-53
    (n <= e + 52), each `_LADDER` entry times the exact power 2^(e-1)."""
    return _LADDER[: min(most, 2 * min(24, e + 53))] * math.ldexp(1.0, e - 1)


def estimate_eta_f(
    w: Channel, spec: FKind, budget: int, seed: int
) -> ContractionEstimate:
    """Search for a high ratio D_f(w(p0) || w(p1)) / D_f(p0 || p1).

    `spec` is an FKind. The search runs one stage per kind, and `budget`
    bounds the evaluations of the KL and chi^2 stage only:

    * total variation: the supremum, eta_TV, is attained at point masses,
      so the value is exact and uncapped, `dobrushin_coefficient`, read with
      its witness from `_farthest_pair`: of the pairs i < j at the greatest
      TV distance the first in (i, j) order, p0 = e_i and p1 = e_j, with
      input divergence 1. Its evaluations are the k(k - 1)/2 row pairs
      that `_farthest_pair` compares, whatever the budget;
    * KL and chi^2: pairs of inputs, since no pair of point masses has a
      finite KL or chi^2 divergence. Restricting a channel to two of its
      inputs, rows a and b, cannot raise its contraction coefficient, and
      that two-input channel's eta_chi2 = eta_KL is the peak of the concave
      h(p) = p(1 - p) sum_y (a_y - b_y)^2 / (p a_y + (1 - p) b_y), found in
      the logit s of p, within [-23, 23], from h' and h'' read at r = e^s:
      at a cap where the slope points outward by more than rounding, else
      by safeguarded Newton steps from s = 0 (see `_pair_peaks`).
      Input pairs are examined in order of decreasing TV distance, one
      evaluation each; h is at most the TV distance, so the stage stops at
      the first pair whose TV distance is at or below the best h so far.
      At the best pair's peak p*, a fixed ladder of 48 steps +-t (24
      powers of two, from at most the smaller weight down) is evaluated
      around p1 = p* e_i + (1 - p*) e_j, with p0 = p1 + t (e_i - e_j), and
      the first strict maximum kept. For chi^2 every step gives h(p*); for
      KL the ratio tends to h(p*) as t -> 0, so the least admitted step is
      the closest. The pairs take at most budget - 48 evaluations (at least
      one), the ladder the rest.

    A ladder step is admitted by the floor alone, an input divergence above
    1e-12 (the 0 < D_f of the definition; it is at most 1). The KL or chi^2
    value is the ratio at its own witnesses, capped at 1, so it is a
    certified lower bound, and by the two-letter reduction above it is at
    most the best pair's coefficient; it is not claimed to be the channel's.
    The result is deterministic given `budget`. `seed` is read by no stage
    and not recorded; it stays while the benchmark passes it positionally.

    A ladder step is evaluated as (base, diff) = ([p*, 1 - p*], t [1, -1])
    on {i, j} and, for the images, (p* a + (1 - p*) b, t (a - b)) from rows
    a = w(i) and b = w(j), with no matrix product. Row pairs are compared,
    and peaked, a block at a time, at most _BLOCK_CELLS cells per block, and
    each pair's numbers are those of a one-pair pass, so the result does not
    depend on the block size. The KL and chi^2 ranking keeps only the pairs
    the budget can reach, so memory is O(min(budget, k^2) + k). The kernels
    run under one `np.errstate` for the whole search.

    Returns
    -------
    ContractionEstimate
        `value` is a certified lower bound on the contraction coefficient
        (0 with degenerate witnesses if no admissible pair exists, e.g. for
        single-letter input alphabets).

    Raises
    ------
    BudgetTooSmall
        If budget < 1.
    ValueError
        If budget is not a whole number (2.5, nan, inf).
    TypeError
        If `spec` is not an FKind member.
    """
    if budget < 1:
        raise BudgetTooSmall("budget must be at least 1")
    budget = _check_count("budget", budget)
    k = w.input_size
    pair_div = _pair_divergence(spec)
    rows = w.rows
    # ratio, input and output divergence, and (i, j, u, t) of the witnesses
    value, din, dout, pair, evals = 0.0, 0.0, 0.0, None, 0
    with _quiet():  # the kernels' error state, entered once per search
        if spec is FKind.TOTAL_VARIATION:
            # eta_TV is attained at the farthest row pair's point masses
            evals = k * (k - 1) // 2
            value, ij = _farthest_pair(rows)
            if ij is not None:
                din, dout, pair = 1.0, value, (*ij, 0.0, 1.0)
        elif k > 1:
            evals, peak = _best_pair(rows, max(1, budget - 48))
            if peak is not None and evals < budget:
                i, j, s = peak
                if s > 0.0:  # put the smaller weight, u, on input i
                    i, j, s = j, i, -s
                mant, e = math.frexp(1.0 / (1.0 + math.exp(-s)))
                # u with its last bit cleared and steps t = 2^(e-1-n) <= u, at
                # least 2^-53: u +- t and 1 - u -+ t are exact, so p0 - p1 is
                # exactly t (e_i - e_j) and its image exactly t (a - b), as evaluated
                u = math.ldexp(math.floor(math.ldexp(mant, 52)), e - 52)
                t = _ladder_steps(e, budget - evals)
                evals += len(t)
                # p1 = u e_i + (1 - u) e_j and p0 = p1 + t (e_i - e_j): on {i, j}
                # (base, diff) = ([u, 1 - u], t [1, -1]), and their images
                # (u a + (1 - u) b, t (a - b)) from rows a = w(i) and b = w(j)
                a, b = rows[i], rows[j]
                ins = pair_div(np.full((len(t), 2), (u, 1.0 - u)), t * _PLUS_MINUS)
                outs = pair_div(np.full((len(t), len(a)), u * a + (1.0 - u) * b), t * (a - b))
                r = np.where(DIV_FLOOR < ins, outs / ins, -1.0)
                c = int(r.argmax())  # the first strict maximum, if a step is admitted
                if r[c] >= 0.0:
                    value, din, dout = min(float(r[c]), 1.0), float(ins[c]), float(outs[c])
                    pair = (i, j, u, float(t[c, 0]))
    if pair is None:
        # no admissible pair (e.g. |X| = 1): report 0 with degenerate witnesses
        w0 = w1 = Distribution.uniform(k)
    else:
        i, j, u, t = pair
        p1 = np.zeros(k)
        p1[i], p1[j] = u, 1.0 - u
        p0 = p1.copy()
        p0[i] += t
        p0[j] -= t
        w0, w1 = Distribution(p0), Distribution(p1)
    return ContractionEstimate(
        spec=spec,
        value=value,
        input_divergence=din,
        output_divergence=dout,
        witness_p0=w0,
        witness_p1=w1,
        evaluations=evals,
    )
