"""Channel certificates: contraction, privacy levels, leakage, and a seeded
lower-bound search for f-divergence contraction coefficients.

The exact certificates (Dobrushin coefficient, LDP level, maximal leakage,
minimum entry) are closed-form functions of the channel matrix. The
f-divergence contraction coefficient has no closed form for general f, so
`estimate_eta_f` reports a certified lower bound found by search, never a
claimed supremum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Channel, Distribution, _check_count, json_float, validate_distribution
from .divergences import FDivergenceSpec, FKind, _pair_divergence
from .errors import BudgetTooSmall, DimensionMismatch

# Admission window for ratio denominators: pairs with divergence outside
# (DIV_FLOOR, DIV_CEIL) are skipped, mirroring the 0 < D < inf constraint
# in the contraction coefficient's definition.
DIV_FLOOR = 1e-12
DIV_CEIL = 1e12

# Cells per block of pairs in `estimate_eta_f` (rows times the larger
# alphabet) and per block of row differences in `dobrushin_coefficient`.
# The size bounds memory. `dobrushin_coefficient` does not depend on it,
# since each pair is summed in the same order in any block. The search's
# blocks keep the order of a pair-by-pair search, but a row of the block
# product `X @ rows` can round differently with the number of rows in `X`
# (OpenBLAS gemm), so from about 8 inputs on a search's path and value can
# depend on the size: `random_channel(20, 3, 0.5, 20003)` under chi^2 at
# budget 20 000, seed 23 gives 0.8233486 here and 0.8238941 at 64 cells.
_BLOCK_CELLS = 1 << 12


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

    `value` is a lower bound on the contraction coefficient for the given
    divergence: `output_divergence / input_divergence`, the divergences of
    the witnesses and of their images as the search evaluated them, clamped
    to [0, 1] (both divergences are 0 when no pair was admitted).
    `grid_resolution` is the per-axis resolution of the deterministic
    exploration grid (0 when no grid stage ran).
    """

    spec: FDivergenceSpec
    value: float
    input_divergence: float
    output_divergence: float
    witness_p0: Distribution
    witness_p1: Distribution
    evaluations: int
    grid_resolution: int
    seed: int


def dobrushin_coefficient(w: Channel) -> float:
    """Maximum total-variation distance between any two rows of the channel.

    Equals the channel's total-variation contraction factor. A single-row
    channel has coefficient 0 (empty maximum). A block of n rows is compared
    with all rows after the block's first in one broadcast, n chosen so the
    block has at most _BLOCK_CELLS cells (at least one row), so memory is
    O(k*m), never O(k*k*m). Pairs inside a block are compared twice or
    with themselves (distance 0), and each pair is summed in the same
    order, so the maximum is that of the row-by-row loop.
    """
    rows = w.rows
    k, m = rows.shape
    gap = 0.0
    i = 0
    while i < k - 1:
        n = max(1, _BLOCK_CELLS // ((k - i) * m))
        gap = max(gap, float(np.abs(rows[i + 1:, None] - rows[i:i + n]).sum(axis=2).max()))
        i += n
    return 0.5 * gap


def _ratio_bits(hi: np.ndarray, lo: np.ndarray) -> float:
    """log2 of the largest hi/lo, from the maxima and minima of columns whose
    minimum is positive; a ratio that overflows (a minimum near 1e-310) is
    taken as a difference of logs, so the level stays finite."""
    with np.errstate(over="ignore"):
        worst = (hi / lo).max()  # >= 1, since hi >= lo
    return float(np.log2(worst) if worst < np.inf else np.max(np.log2(hi) - np.log2(lo)))


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
    return float(np.log2(w.rows.max(axis=0).sum()))


def min_entry(w: Channel) -> float:
    """Smallest entry of the channel matrix."""
    return float(w.rows.min())


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
    col_max, col_min = rows.max(axis=0), rows.min(axis=0)
    if col_min.all():  # full support: every column is live and no minimum is 0
        hi, lo, skipped = col_max, col_min, 0
        bits = _ratio_bits(hi, lo)
    else:
        live = col_max > 0.0  # an all-zero column has no ratio and no contrast
        hi, lo = col_max[live], col_min[live]
        zeros = np.count_nonzero(rows == 0.0, axis=0)
        bits = float("inf") if (lo == 0.0).any() else _ratio_bits(hi, lo)  # 0 in a live column
        skipped = int((zeros * (zeros - 1) // 2).sum())
    contrast = float(((hi - lo) / (hi + lo)).max())  # >= 0, since hi >= lo
    return bits, float(np.log2(col_max.sum())), contrast, skipped


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
            min_entry=float(w.rows.min()),
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


def _off_diagonal(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of the t-th off-diagonal cell of an n x n grid in
    row-major order."""
    a, j = np.divmod(t, n - 1)
    return a, j + (j >= a)


def estimate_eta_f(
    w: Channel, spec: FDivergenceSpec, budget: int, seed: int
) -> ContractionEstimate:
    """Search for a high ratio D_f(w(p0) || w(p1)) / D_f(p0 || p1).

    The search spends up to `budget` ratio evaluations in three stages:

    1. every ordered pair of point masses, when such a pair is admissible:
       their input divergence f(0) + f'(inf) is infinite for KL and chi^2,
       which skip the stage. Total variation attains its supremum there, so
       its search ends after this stage with the exact value, eta_TV, in
       k(k - 1) evaluations;
    2. deterministic exploration: a two-parameter grid for binary input
       alphabets, symmetric-Dirichlet random pairs otherwise;
    3. greedy coordinate-wise refinement of the best pair with shrinking
       steps.

    Pairs whose input divergence falls outside (1e-12, 1e12) are skipped,
    matching the 0 < D_f < inf constraint in the coefficient's definition.
    The result is deterministic given (budget, seed).

    Pairs are evaluated a block at a time, at most _BLOCK_CELLS cells per
    block, with one channel product per block, so memory stays bounded at
    any budget. The blocks keep the order of a pair-by-pair search: the
    best pair is the first strict maximum in stage order, the Dirichlet
    pairs come from one stream, and the refinement keeps its in-sweep
    (Gauss-Seidel) updates exactly. Its block is a window of the moves the
    pair-by-pair climb would try next if none of them improved: the rest of
    the current sweep, then the start of the next one, whose step is the
    current one if the sweep has improved and half of it if not (and which
    is left out once that step falls below 1e-9). The climb accepts the
    first improving move of the window, applies the sweep's end first if
    that move lies in the next sweep, and opens the next window at the move
    after it; `evaluations` counts only the moves up to each accepted one,
    and skips moves from an empty input without counting them. Each block
    takes its input and output divergences from one kernel call. A window's
    moves are slices of tables built per climb over at most two windows of
    positions (which half of the pair moves, whether the move lies in the
    next sweep, where its mass comes from, and a row of -1 at the source and
    +1 at the target), rebuilt when a window leaves them: for small k they
    cover both sweeps and are built once, and memory stays O(block) at any k.

    Returns
    -------
    ContractionEstimate
        `value` is a certified lower bound on the contraction coefficient
        (0 with degenerate witnesses if no admissible pair exists, e.g. for
        single-letter input alphabets).

    Raises
    ------
    BudgetTooSmall
        If budget < 1, or if the divergence is total variation and the
        budget cannot cover all ordered point-mass pairs.
    ValueError
        If budget is not a whole number (2.5, nan, inf).
    """
    if budget < 1:
        raise BudgetTooSmall("budget must be at least 1")
    _check_count("budget", budget)
    budget = int(budget)
    k = w.input_size
    n_vertex = k * (k - 1)
    if spec.kind is FKind.TOTAL_VARIATION and budget < n_vertex:
        raise BudgetTooSmall(
            f"total-variation search needs at least {n_vertex} evaluations "
            f"to cover all point-mass pairs, got {budget}"
        )
    pair_div = _pair_divergence(spec)
    rows = w.rows
    block = max(1, _BLOCK_CELLS // max(k, w.output_size))

    evals = 0
    best_val = -1.0
    best: np.ndarray | None = None  # rows p0, p1 of the best pair
    best_div = (0.0, 0.0)  # its input and output divergence

    def ratios(p0s: np.ndarray, p1s: np.ndarray):
        """Ratio of each row pair (-inf where the pair is not admitted),
        with its input and output divergences."""
        diff = p0s - p1s  # exactly 0 off the joint support
        support = (p0s + p1s) > 0.0
        # project the difference back onto zero sum over the joint support;
        # kills the rounding drift that would otherwise leak into the ratio
        shift = np.add.reduce(diff, axis=1) / np.add.reduce(support, axis=1)
        diff = np.where(support, diff - shift[:, None], diff)
        n = len(p1s)
        # rows: the n bases, then the n differences, each beside its image
        stacked = np.concatenate((p1s, diff))
        joined = np.concatenate((stacked, stacked @ rows), axis=1)
        din, dout = pair_div(joined[:n], joined[n:], k)
        out = np.full(n, -np.inf)
        return np.divide(dout, din, out=out, where=(DIV_FLOOR < din) & (din < DIV_CEIL)), din, dout

    def accept(r, din, dout, p0s, p1s, j):
        nonlocal best_val, best, best_div
        best_val = float(r[j])
        best = np.array((p0s[j], p1s[j]))
        best_div = (float(din[j]), float(dout[j]))

    def scan(total: int, make_block):
        """Evaluate `total` pairs, block by block, keeping the first strict
        maximum; make_block(start, stop) returns the pairs start..stop-1."""
        nonlocal evals
        for start in range(0, total, block):
            p0s, p1s = make_block(start, min(total, start + block))
            r, din, dout = ratios(p0s, p1s)
            evals += len(r)
            j = int(np.argmax(np.where(r > best_val, r, -np.inf)))
            if r[j] > best_val:
                accept(r, din, dout, p0s, p1s, j)

    eye = np.eye(k)

    def vertex_block(start, stop):
        a, b = _off_diagonal(k, np.arange(start, stop))
        return eye[a], eye[b]

    # every point-mass pair has the same input divergence, f(0) + f'(inf),
    # so one pair decides whether the stage can admit any (KL and chi^2
    # cannot: theirs is infinite)
    if k > 1 and DIV_FLOOR < pair_div(eye[1:2], eye[:1] - eye[1:2])[0] < DIV_CEIL:
        scan(min(n_vertex, budget), vertex_block)

    def explore_stage() -> int:
        """Spend half the remaining budget on the grid or the Dirichlet
        pairs; returns the grid resolution (0 when no grid ran)."""
        explore = (budget - evals) // 2
        if k == 2:
            g = 0
            while (g + 1) * g <= explore:
                g += 1
            # at exit g*(g-1) <= explore: the grid fits the exploration budget
            if g < 2:
                return 0
            pts = np.arange(1, g + 1) / (g + 1.0)

            def grid_block(start, stop):
                a, b = _off_diagonal(g, np.arange(start, stop))
                return (np.column_stack((pts[a], 1.0 - pts[a])),
                        np.column_stack((pts[b], 1.0 - pts[b])))

            scan(g * (g - 1), grid_block)
            return g
        rng = np.random.default_rng(seed)
        alpha = np.ones(k)

        def dirichlet_block(start, stop):
            # the same stream as stop - start interleaved pairs of draws
            d = rng.dirichlet(alpha, size=(stop - start, 2))
            return d[:, 0], d[:, 1]

        scan(explore, dirichlet_block)
        return 0

    def climb_stage():
        # move t of a sweep shifts mass from a to b in best[t // n_vertex],
        # with (a, b) the (t mod n_vertex)-th ordered pair of distinct inputs;
        # window position g is move g of the current sweep, or move
        # g - n_moves of the next one
        nonlocal evals
        n_moves = 2 * n_vertex
        window = min(block, n_moves)

        def tables(lo):
            """For positions lo.. (at most 2 * window of them): the half of
            the pair each moves, whether it lies in the next sweep, the flat
            index of its source entry in `best`, and its move row (-1 at
            the source, +1 at the target)."""
            g = np.arange(lo, min(lo + 2 * window, 2 * n_moves))
            in_next = g >= n_moves
            idx = g - n_moves * in_next
            which = idx // n_vertex
            a, b = _off_diagonal(k, idx - which * n_vertex)
            delta = np.zeros((g.size, k))
            r = np.arange(g.size)
            delta[r, a] = -1.0
            delta[r, b] = 1.0
            return which, in_next, which * k + a, delta

        lo = 0
        which_at, next_at, source_at, delta_at = tables(lo)
        step, before, t = 0.1, best_val, 0
        while evals < budget:
            step_next = step if best_val > before else 0.5 * step
            stop = t + window if step_next >= 1e-9 else min(t + window, n_moves)
            if stop <= t:
                break
            if t < lo or stop > lo + len(which_at):
                lo = t
                which_at, next_at, source_at, delta_at = tables(lo)
            s = slice(t - lo, stop - lo)
            which, delta = which_at[s], delta_at[s]
            eps = np.minimum(np.where(next_at[s], step_next, step), best.take(source_at[s]))
            live = eps > 0.0  # a move from an empty input is skipped, not counted
            keep = None
            if not live.all() or eps.size > budget - evals:
                keep = np.flatnonzero(live)[: budget - evals]
                which, delta, eps = which[keep], delta[keep], eps[keep]
            sweep_best, end, counted = best_val, stop, eps.size
            if eps.size:
                # eps <= the mass at the source, so no entry turns negative;
                # x + eps * (-1) is x - eps and x + eps * 0 is x, bit for bit
                moved = best.take(which, axis=0) + eps[:, None] * delta
                moved /= moved.sum(axis=1, keepdims=True)
                first = (which == 0)[:, None]
                p0s = np.where(first, moved, best[0])
                p1s = np.where(first, best[1], moved)
                found, din, dout = ratios(p0s, p1s)
                gains = found > best_val
                j = int(np.argmax(gains))  # the first improving move, if any
                if gains[j]:
                    end = t + 1 + (j if keep is None else int(keep[j]))
                    counted = j + 1
                    accept(found, din, dout, p0s, p1s, j)
            evals += counted
            if end > n_moves:
                # the window crossed into the next sweep: end the current one
                step, before, t = step_next, sweep_best, end - n_moves
            else:
                t = end

    grid_resolution = 0
    # eta_TV is attained at a pair of point masses, so the first stage is exact
    if spec.kind is not FKind.TOTAL_VARIATION:
        grid_resolution = explore_stage()
        if best is not None:
            climb_stage()
    if best is not None:
        value = min(max(best_val, 0.0), 1.0)
        din, dout = best_div
        w0 = validate_distribution(best[0])
        w1 = validate_distribution(best[1])
    else:
        # no admissible pair (e.g. |X| = 1): report 0 with degenerate witnesses
        value = din = dout = 0.0
        w0 = w1 = Distribution.uniform(k)
    return ContractionEstimate(
        spec=spec,
        value=value,
        input_divergence=din,
        output_divergence=dout,
        witness_p0=w0,
        witness_p1=w1,
        evaluations=evals,
        grid_resolution=grid_resolution,
        seed=seed,
    )
