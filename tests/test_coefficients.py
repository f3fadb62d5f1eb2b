import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privmech import (
    CHI_SQUARED,
    KL,
    TOTAL_VARIATION,
    Distribution,
    PrivacyReport,
    compose,
    dobrushin_coefficient,
    estimate_eta_f,
    f_divergence,
    kl_divergence,
    ldp_level,
    map_adversary_gain,
    max_leakage,
    maxl_staircase,
    min_entry,
    privacy_report,
    pushforward,
    random_channel,
    randomized_response,
    staircase_rate,
    total_variation,
    validate_channel,
    validate_distribution,
    z_channel,
)
from privmech import coefficients
from privmech.divergences import _pair_divergence, _quiet
from privmech.errors import BudgetTooSmall, DimensionMismatch

CONSTANT = validate_channel([[0.3, 0.7], [0.3, 0.7]])
BSC_THIRD = randomized_response(2, 1.0)  # [[2/3,1/3],[1/3,2/3]]


def _pushed_divergence(w, est, spec) -> float:
    """Output divergence of a search's witnesses, with their difference
    pushed through the channel: pushing each witness separately rounds the
    output pair by ~1e-17, which at D ~ 1e-12 is ~1e-8 relative."""
    p0, p1 = est.witness_p0.probs, est.witness_p1.probs
    with _quiet():
        return float(_pair_divergence(spec)(p1 @ w.rows, (p0 - p1) @ w.rows))


class TestDobrushinCoefficient:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_identity_is_one(self, k):
        assert dobrushin_coefficient(validate_channel(np.eye(k))) == 1.0

    def test_constant_is_zero(self):
        assert dobrushin_coefficient(CONSTANT) == 0.0

    def test_hand_value(self):
        w = validate_channel([[0.9, 0.1], [0.2, 0.8]])
        assert dobrushin_coefficient(w) == pytest.approx(0.7, abs=1e-15)

    def test_single_input_row(self):
        assert dobrushin_coefficient(validate_channel([[0.2, 0.3, 0.5]])) == 0.0

    @pytest.mark.parametrize("k", range(2, 8))
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_randomized_response_formula(self, k, alpha):
        r = 2.0 ** alpha
        got = dobrushin_coefficient(randomized_response(k, alpha))
        assert got == pytest.approx((r - 1) / (r + k - 1), abs=1e-12)

    def test_in_unit_interval(self):
        for seed in range(50):
            w = random_channel(4, 3, 1.0, seed)
            assert 0.0 <= dobrushin_coefficient(w) <= 1.0

    @pytest.mark.parametrize("cells", [None, 64])
    def test_blocks_equal_the_pairwise_reference(self, monkeypatch, cells):
        # at 64 cells a block holds several rows for all but the first rows
        if cells is not None:
            monkeypatch.setattr(coefficients, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(4077)
        channels = [np.eye(k) for k in (1, 2, 5, 17)]
        channels += [np.full((k, 3), 1.0 / 3.0) for k in (1, 4, 23)]
        for k in range(1, 41):
            m = int(rng.integers(1, 9))
            rows = rng.dirichlet(np.full(m, (0.1, 1.0, 10.0)[k % 3]), size=k)
            if k % 2 == 0:
                rows[rng.random((k, m)) < 0.4] = 0.0
                rows[rows.sum(axis=1) == 0.0, 0] = 1.0
                rows /= rows.sum(axis=1, keepdims=True)
            channels.append(rows)
        for rows in channels:
            k, gap, first = len(rows), 0.0, None
            for i in range(k):
                for j in range(i + 1, k):
                    d = float(np.abs(rows[j] - rows[i]).sum())
                    if first is None or d > gap:
                        gap, first = d, (i, j)
            w = validate_channel(rows)
            assert dobrushin_coefficient(w) == 0.5 * gap, rows
            # the TV search's witnesses are the first farthest pair, in (i, j) order
            if first is not None:
                est = estimate_eta_f(w, TOTAL_VARIATION, k * (k - 1), 0)
                assert np.array_equal(est.witness_p0.probs, np.eye(k)[first[0]]), rows
                assert np.array_equal(est.witness_p1.probs, np.eye(k)[first[1]]), rows

    @pytest.mark.parametrize("cells", [2, 20, None])
    def test_block_maximum_is_the_pairs_own_entry(self, monkeypatch, cells):
        # the only farthest pair is (3, 4). At 20 cells the blocks are rows
        # {0, 1} and {2, 3, 4}, so the second holds (3, 4) and, later in
        # row-major order, its duplicate (4, 3); at 2 cells each block is one
        # row, and by default one block holds every row
        if cells is not None:
            monkeypatch.setattr(coefficients, "_BLOCK_CELLS", cells)
        rows = [[0.5, 0.5], [0.45, 0.55], [0.55, 0.45], [0.1, 0.9], [0.9, 0.1]]
        w = validate_channel(rows)
        tv = 0.5 * float(np.abs(w.rows[4] - w.rows[3]).sum())
        assert dobrushin_coefficient(w) == tv
        est = estimate_eta_f(w, TOTAL_VARIATION, 20, 0)
        assert est.value == tv
        assert np.array_equal(est.witness_p0.probs, np.eye(5)[3])
        assert np.array_equal(est.witness_p1.probs, np.eye(5)[4])


class TestLdpLevel:
    def test_binary_randomized_response(self):
        assert ldp_level(BSC_THIRD) == pytest.approx(1.0, abs=1e-12)

    def test_identity_is_infinite(self):
        assert ldp_level(validate_channel(np.eye(3))) == float("inf")

    def test_constant_is_zero(self):
        assert ldp_level(CONSTANT) == 0.0

    def test_all_zero_column_uses_zero_over_zero_convention(self):
        w = validate_channel([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
        assert ldp_level(w) == 0.0

    def test_dominates_every_column_ratio(self):
        for seed in range(30):
            w = random_channel(3, 4, 0.5, seed)
            bound = 2.0 ** ldp_level(w)
            assert (w.rows.max(axis=0) <= bound * w.rows.min(axis=0) + 1e-12).all()


class TestColumnPassDivision:
    """A least column minimum at or above 2**-1000 divides hi / lo outright
    (a column maximum is at most 1 + SUM_TOL, so the ratio cannot overflow);
    a smaller one goes through `_ratio_bits` and its `np.errstate`. pytest
    turns an overflow warning into an error, so a division that overflowed
    outside the guard would fail here."""

    SAFE = 2.0 ** -1000

    @staticmethod
    def _routed(monkeypatch, least):
        calls = []
        real = coefficients._ratio_bits

        def recording(hi, lo):
            calls.append(real(hi, lo))
            return calls[-1]

        monkeypatch.setattr(coefficients, "_ratio_bits", recording)
        w = validate_channel([[1.0 - least, least], [least, 1.0 - least]])
        assert w.rows.min(axis=0).min() == least
        return ldp_level(w), real(w.rows.max(axis=0), w.rows.min(axis=0)), calls

    @pytest.mark.parametrize("least", [SAFE, math.nextafter(SAFE, 1.0), 0.25])
    def test_at_and_above_the_bound_divides_outright(self, monkeypatch, least):
        bits, guarded, calls = self._routed(monkeypatch, least)
        assert calls == [] and bits.hex() == guarded.hex()

    @pytest.mark.parametrize("least", [math.nextafter(SAFE, 0.0), 2.0 ** -1001])
    def test_below_the_bound_goes_through_the_guard(self, monkeypatch, least):
        bits, guarded, calls = self._routed(monkeypatch, least)
        assert len(calls) == 1 and bits.hex() == guarded.hex() == calls[0].hex()

    def test_an_overflowing_ratio_is_a_difference_of_logs(self, monkeypatch):
        # 1 / 1e-310 overflows a double: the guard takes log2(hi) - log2(lo)
        bits, guarded, calls = self._routed(monkeypatch, 1e-310)
        assert len(calls) == 1 and bits == guarded == -math.log2(1e-310)
        assert privacy_report(validate_channel([[1.0, 1e-310], [1e-310, 1.0]])).ldp_level_bits == bits


class TestMaxLeakage:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_identity(self, k):
        assert max_leakage(validate_channel(np.eye(k))) == pytest.approx(math.log2(k), abs=1e-12)

    def test_constant_channel_leaks_nothing(self):
        assert max_leakage(CONSTANT) == 0.0

    def test_z_channel_half(self):
        # column maxima sum to (sqrt2 - 1) + 1 = sqrt2
        assert max_leakage(z_channel(0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_bounded_by_log_min_dimension(self):
        for seed in range(100):
            w = random_channel(5, 3, 1.0, seed)
            assert -1e-12 <= max_leakage(w) <= math.log2(3) + 1e-10


class TestMinEntry:
    @pytest.mark.parametrize("alpha", [0.25, 1.0, 3.0])
    def test_binary_randomized_response(self, alpha):
        assert min_entry(randomized_response(2, alpha)) == pytest.approx(
            1.0 / (2.0 ** alpha + 1.0), abs=1e-15
        )

    def test_identity(self):
        assert min_entry(validate_channel(np.eye(2))) == 0.0

    def test_constant(self):
        assert min_entry(CONSTANT) == 0.3

    # the whole-matrix minimum: the least column minimum of the first is -0.0
    @pytest.mark.parametrize(
        "rows, sign", [([[1.0, -0.0], [0.0, 1.0]], 1.0), ([[-0.0, 1.0], [0.5, 0.5]], -1.0)]
    )
    def test_keeps_the_sign_of_zero(self, rows, sign):
        w = validate_channel(rows)
        for value in (min_entry(w), privacy_report(w).min_entry):
            assert value == 0.0 and math.copysign(1.0, value) == sign


class TestMapAdversaryGain:
    def test_uniform_prior_recovers_max_leakage(self):
        for seed in range(100):
            kx, ky = 2 + seed % 4, 2 + (seed // 4) % 4
            w = random_channel(kx, ky, 1.0, seed)
            gain = map_adversary_gain(w, Distribution.uniform(kx))
            assert gain == pytest.approx(max_leakage(w), abs=1e-12)

    def test_point_mass_prior_gains_nothing(self):
        w = random_channel(3, 3, 1.0, 9)
        assert map_adversary_gain(w, Distribution.point_mass(3, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_identity_skewed_prior(self):
        w = validate_channel(np.eye(2))
        got = map_adversary_gain(w, validate_distribution([0.9, 0.1]))
        assert got == pytest.approx(math.log2(1 / 0.9), abs=1e-12)

    def test_never_exceeds_max_leakage(self):
        rng = np.random.default_rng(42)
        for seed in range(30):
            w = random_channel(4, 4, 1.0, seed)
            leak = max_leakage(w)
            for _ in range(20):
                px = validate_distribution(rng.dirichlet(np.ones(4)))
                assert map_adversary_gain(w, px) <= leak + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            map_adversary_gain(random_channel(3, 3, 1.0, 0), Distribution.uniform(2))


class TestPrivacyReport:
    def test_fields_match_componentwise(self, certify_corpus):
        # zeros, all-zero columns, -0.0 entries, entries near 1e-300, single
        # rows and constant channels included; compared as JSON, so the sign
        # of a zero minimum counts
        for w in [random_channel(4, 5, 1.0, 17), *certify_corpus]:
            rep = privacy_report(w)
            parts = dict(
                eta_tv=dobrushin_coefficient(w),
                ldp_level_bits=ldp_level(w),
                maxl_bits=max_leakage(w),
                min_entry=min_entry(w),
                input_size=w.input_size,
                output_size=w.output_size,
            )
            assert json.dumps(rep.to_dict()) == json.dumps(PrivacyReport(**parts).to_dict()), w.rows

    def test_to_dict_serializes_infinity_as_string(self):
        rep = privacy_report(validate_channel(np.eye(3)))
        d = rep.to_dict()
        assert d["ldp_level_bits"] == "inf"
        assert d["eta_tv"] == 1.0


class TestEstimateEtaF:
    def test_tv_recovers_dobrushin_exactly(self):
        for seed in range(30):
            w = random_channel(2 + seed % 4, 2 + seed % 3, 1.0, seed)
            est = estimate_eta_f(w, TOTAL_VARIATION, budget=2000, seed=seed)
            # eta_TV is attained at a pair of point masses: the search stops there
            assert est.value == dobrushin_coefficient(w)
            assert est.evaluations == w.input_size * (w.input_size - 1)
            # each witness is an exact point mass, on a pair of rows whose
            # TV distance is the value
            ends = []
            for witness in (est.witness_p0.probs, est.witness_p1.probs):
                (one,) = np.flatnonzero(witness == 1.0)
                assert np.count_nonzero(witness == 0.0) == w.input_size - 1
                ends.append(validate_distribution(w.rows[one]))
            assert total_variation(*ends) == est.value

    def test_kl_constant_channel_is_zero(self):
        est = estimate_eta_f(CONSTANT, KL, budget=500, seed=1)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_kl_binary_randomized_response_near_one_ninth(self):
        est = estimate_eta_f(BSC_THIRD, KL, budget=10_000, seed=12345)
        assert 0.109 <= est.value <= 1 / 3
        assert est.value <= 1 / 9 + 1e-10
        assert est.evaluations <= 10_000

    def test_witnesses_are_admissible(self):
        est = estimate_eta_f(BSC_THIRD, KL, budget=5000, seed=3)
        din = f_divergence(est.witness_p0, est.witness_p1, KL)
        assert 0.0 < din < float("inf")
        dout = _pushed_divergence(BSC_THIRD, est, KL)
        assert dout <= din  # data processing on the witness itself
        assert dout / din == pytest.approx(est.value, rel=1e-12)
        # and through the public API, which pushes each witness separately
        public = kl_divergence(
            pushforward(BSC_THIRD, est.witness_p0), pushforward(BSC_THIRD, est.witness_p1)
        )
        assert public <= din

    def test_deterministic_given_budget_and_seed(self):
        w = random_channel(4, 4, 1.0, 8)
        a = estimate_eta_f(w, KL, budget=3000, seed=99)
        b = estimate_eta_f(w, KL, budget=3000, seed=99)
        assert a.value == b.value
        assert np.array_equal(a.witness_p0.probs, b.witness_p0.probs)
        assert np.array_equal(a.witness_p1.probs, b.witness_p1.probs)
        assert a.evaluations == b.evaluations

    def test_value_bounded_by_eta_tv(self):
        for seed in range(10):
            w = random_channel(3, 4, 0.5, seed)
            dob = dobrushin_coefficient(w)
            for spec in (KL, CHI_SQUARED):
                est = estimate_eta_f(w, spec, budget=2000, seed=seed)
                assert est.value <= dob + 1e-10
                assert 0.0 <= est.value <= 1.0

    def test_budget_errors(self):
        w = random_channel(3, 3, 1.0, 0)
        with pytest.raises(BudgetTooSmall):
            estimate_eta_f(w, KL, budget=0, seed=0)
        with pytest.raises(BudgetTooSmall):
            estimate_eta_f(w, TOTAL_VARIATION, budget=5, seed=0)  # needs 3*2 = 6

    @pytest.mark.parametrize("k", [2, 3])
    def test_budget_must_be_a_whole_number(self, k):
        w = random_channel(k, 3, 1.0, 0)
        for bad in (2.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="whole number"):
                estimate_eta_f(w, KL, budget=bad, seed=0)
        with pytest.raises(BudgetTooSmall):
            estimate_eta_f(w, KL, budget=0.5, seed=0)
        whole = estimate_eta_f(w, KL, budget=300.0, seed=0)
        exact = estimate_eta_f(w, KL, budget=300, seed=0)
        assert (whole.value, whole.evaluations) == (exact.value, exact.evaluations)

    def test_peak_memory_is_bounded_at_large_budget(self):
        # pairs are evaluated in blocks of bounded size, never all at once
        w = random_channel(8, 8, 1.0, 3)
        tracemalloc.start()
        try:
            est = estimate_eta_f(w, KL, budget=100_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 13 of the 28 input pairs before the TV bound stops the pair stage,
        # then the 48 steps of the ladder
        assert est.evaluations == 61 <= 100_000
        assert peak < 1e6, peak

    def test_point_mass_stage_runs_only_where_pairs_are_admissible(self):
        # KL admits no pair of point masses, so at k = 300 the search goes
        # to the input pairs, not to 89 700 skipped point-mass pairs
        w = random_channel(300, 3, 1.0, 1)
        est = estimate_eta_f(w, KL, budget=20_000, seed=0)
        assert est.evaluations == 50 <= 20_000
        assert 0.0 < est.value <= dobrushin_coefficient(w) + 1e-10
        # total variation runs it, and it alone: 0.5 * sum |a - b| in the
        # order dobrushin_coefficient sums it
        w = random_channel(3, 4, 0.5, 2)
        est = estimate_eta_f(w, TOTAL_VARIATION, budget=6, seed=0)
        assert est.value == dobrushin_coefficient(w)
        assert est.evaluations == 6  # the point masses spend the budget

    def test_peak_memory_is_bounded_at_three_hundred_inputs(self):
        # the pair stage keeps the first 19 952 of the 44 850 input pairs in
        # order of TV distance, and evaluates its pairs a block at a time
        w = random_channel(300, 3, 1.0, 1)
        tracemalloc.start()
        try:
            est = estimate_eta_f(w, KL, budget=20_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.evaluations == 50 <= 20_000
        assert peak < 2e6, peak

    def test_peak_memory_follows_the_budget_not_the_pairs_of_inputs(self):
        # 499 500 input pairs, of which the pair stage keeps the first 1 952
        # in order of TV distance: a TV distance and an index for every pair
        # would take 8 MB
        w = random_channel(1000, 2, 1.0, 1)
        tracemalloc.start()
        try:
            est = estimate_eta_f(w, KL, budget=2000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.evaluations <= 2000
        assert 0.99 < est.value <= dobrushin_coefficient(w) + 1e-10
        assert peak < 1e6, peak

    @staticmethod
    def _repeated_rows():
        # 400 rows drawn from 4: each TV distance is shared by thousands of pairs
        rng = np.random.default_rng(4)
        return rng.dirichlet(np.ones(3), size=4)[rng.integers(4, size=400)]

    @pytest.mark.parametrize("cells", [21, 64, 4096], ids=["7", "21", "1365"])
    @pytest.mark.parametrize("budget", [300, 2000])
    def test_pair_order_across_cuts_is_tv_then_inputs(self, monkeypatch, budget, cells):
        # the buffer of about 2 * budget + k pairs is cut back to `budget`
        # many times. The reference sorts all 79 800 pairs at once by
        # (-TV, i, j) and examines them one at a time. The ids name the pair
        # blocks `_best_pair` peaks at m = 3. The TV ranking reads blocks of
        # one row but for the last 3 at 21 cells and the last 10 at 64, and
        # of at least 3 rows at 4096, the default.
        rows = self._repeated_rows()
        tv = {(i, j): 0.5 * float(np.abs(rows[j] - rows[i]).sum())
              for i in range(len(rows)) for j in range(i + 1, len(rows))}
        peaks = {}  # repeated rows have the same peak
        examined, best_h, peak = 0, 0.0, None
        for i, j in sorted(tv, key=lambda pair: (-tv[pair], *pair))[:budget]:
            if tv[i, j] <= best_h:
                break
            key = (rows[i].tobytes(), rows[j].tobytes())
            if key not in peaks:
                peaks[key] = coefficients._pair_peaks(rows[[i]], rows[[j]])
            s, h = peaks[key]
            examined += 1
            if h[0] > best_h:
                best_h, peak = float(h[0]), (i, j, float(s[0]))
        monkeypatch.setattr(coefficients, "_BLOCK_CELLS", cells)
        assert coefficients._best_pair(rows, budget) == (examined, peak)

    @pytest.mark.parametrize("cells", [None, 64])
    def test_total_variation_takes_the_first_pair_of_greatest_distance(self, monkeypatch, cells):
        # of the pairs i < j of greatest TV distance, the first in row-major
        # order: here one of thousands of tied pairs
        if cells is not None:
            monkeypatch.setattr(coefficients, "_BLOCK_CELLS", cells)
        w = validate_channel(self._repeated_rows())
        rows, k = w.rows, w.input_size
        tv = {(i, j): 0.5 * float(np.abs(rows[j] - rows[i]).sum())
              for i in range(k) for j in range(i + 1, k)}
        first = min(tv, key=lambda pair: (-tv[pair], *pair))
        est = estimate_eta_f(w, TOTAL_VARIATION, k * (k - 1), seed=0)
        assert (est.value, est.input_divergence, est.output_divergence) == (tv[first], 1.0, tv[first])
        assert est.evaluations == k * (k - 1)
        assert np.array_equal(est.witness_p0.probs, np.eye(k)[first[0]])
        assert np.array_equal(est.witness_p1.probs, np.eye(k)[first[1]])

    def test_total_variation_is_dobrushin_past_one(self):
        # the validator admits a row sum 5e-10 above 1, and eta_TV is then
        # 1.00000000025: the exact search reports it, uncapped
        w = validate_channel([[1 + 5e-10, 0], [0, 1]])
        est = estimate_eta_f(w, TOTAL_VARIATION, 2, 0)
        assert est.value == dobrushin_coefficient(w) > 1.0

    def test_ladder_steps_are_the_column_stack_construction(self):
        # the ladder scales a template of +-2^-n by 2^(e-1) and keeps t >= 2^-53;
        # it must equal, bit for bit and in order, the steps built per search as
        # t = 2^(e-1-n), column-stacked with -t, masked and cut to the budget,
        # for every exponent of u = p(s) that s in [-23, 23] reaches
        exponents = range(math.frexp(1.0 / (1.0 + math.exp(23.0)))[1], math.frexp(0.5)[1] + 1)
        assert (exponents.start, exponents.stop) == (-33, 1)
        for e in exponents:
            t = np.ldexp(1.0, e - 1 - np.arange(24))
            steps = np.column_stack((t, -t))[t >= 2.0 ** -53].ravel()
            for most in [*range(1, 50), 9_999]:
                got, want = coefficients._ladder_steps(e, most), steps[:most, None]
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (e, most)

    def test_ladder_inputs_are_at_most_one(self, monkeypatch):
        # a ladder step's input is [u, 1 - u] moved by |t| <= u <= 1/2, so its
        # chi^2 is at most 1 and its KL at most 1 bit: the admission test
        # needs no ceiling. A search's first kernel call is the ladder's inputs.
        calls = []
        real = coefficients._pair_divergence

        def recording(spec):
            kernel = real(spec)

            def record(base, diff):
                calls.append(kernel(base, diff))
                return calls[-1]
            return record

        monkeypatch.setattr(coefficients, "_pair_divergence", recording)
        channels = [randomized_response(*args) if kind == "rr" else random_channel(*args)
                    for kind, args, *_ in self.PINNED if kind != "zeros"]
        channels += [validate_channel(self.ZEROS), *(random_channel(*case[0]) for case in self.ROLLING)]
        inputs = []
        for w in channels:
            for spec in (KL, CHI_SQUARED):
                calls.clear()
                estimate_eta_f(w, spec, 20_000, 0)
                inputs.append(calls[0])  # then the images of the inputs
        # binary randomized response reaches the bound, at u = t = 1/2
        assert np.concatenate(inputs).max() <= 1.0

    def test_total_variation_ties_go_to_the_first_inputs(self):
        # every pair of randomized response's inputs is at the same distance
        est = estimate_eta_f(randomized_response(5, 1.0), TOTAL_VARIATION, 20, seed=0)
        assert est.evaluations == 20
        assert np.array_equal(est.witness_p0.probs, [1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(est.witness_p1.probs, [0.0, 1.0, 0.0, 0.0, 0.0])

    # (channel, spec, budget, seed) -> value.hex(), evaluations, and the first
    # 16 hex digits of sha256(witness_p0 bytes + witness_p1 bytes). Cases
    # cover k = 2, 3, 5, 8, 12 and a 6 x 30 channel, and a channel with exact
    # zeros, whose best pair peaks at the end of the logit range. The two
    # total variation rows stop after the point masses, where eta_TV is
    # attained.
    PINNED = [
        ("rr", (2, 1.0), KL, 2000, 3, "0x1.c71c71c71b642p-4", 49, "741acce449e0f2eb"),
        ("rand", (2, 5, 0.5, 21), CHI_SQUARED, 1000, 1, "0x1.4c36c07dce1c9p-1", 49, "8005bbce976975a7"),
        ("rand", (3, 3, 1.0, 11), KL, 3000, 5, "0x1.1a059e0a4e0cbp-2", 50, "1f3065aadcceb149"),
        ("rand", (3, 4, 0.5, 12), CHI_SQUARED, 2500, 6, "0x1.5bebf609414dep-1", 50, "052a234116f30a2c"),
        ("rand", (3, 3, 1.0, 19), KL, 1237, 4, "0x1.24298895f3b5fp-1", 49, "5f60c7dc4a83b5f9"),
        ("rand", (3, 5, 1.0, 20), TOTAL_VARIATION, 800, 2, "0x1.10afb61252bf9p-1", 6, "6cdc628fb753ec8c"),
        ("rand", (5, 4, 1.0, 13), KL, 4000, 7, "0x1.0d76b32707768p-1", 50, "1ad7d24e607622fb"),
        ("rand", (5, 3, 0.5, 14), TOTAL_VARIATION, 1500, 8, "0x1.06f234a42e09ap-1", 20, "ad76d9ce4c3e5652"),
        ("rand", (8, 8, 1.0, 15), CHI_SQUARED, 5000, 9, "0x1.47e27f9b3afb6p-1", 52, "c2b92622adb5239a"),
        ("rand", (8, 5, 0.1, 16), KL, 3000, 10, "0x1.fbaf462c2c184p-1", 51, "2b2645bec2607318"),
        ("rand", (12, 4, 1.0, 17), KL, 4000, 11, "0x1.4a30c6d858ffdp-1", 54, "b73406f60d60ea52"),
        ("rand", (6, 30, 0.5, 18), CHI_SQUARED, 3000, 12, "0x1.4867394df6f99p-1", 56, "d90d12dc6263dea2"),
        ("zeros", None, KL, 3000, 7, "0x1.9999999984534p-1", 41, "74de6e13f597749b"),
        ("zeros", None, CHI_SQUARED, 2000, 8, "0x1.999999997e855p-1", 41, "8f2724149b99576f"),
    ]
    ZEROS = [[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.2, 0.0, 0.8], [0.1, 0.2, 0.7]]

    @pytest.mark.parametrize("cells", [None, 64])
    def test_results_are_pinned(self, monkeypatch, cells):
        # at 64 cells, the ROLLING searches too (the test below pins them at
        # the default): a block then holds 2 pairs at 30 x 30 and 21 at 300 x 3
        cases = self.PINNED
        if cells is not None:
            monkeypatch.setattr(coefficients, "_BLOCK_CELLS", cells)
            cases = cases + [("rand", *case) for case in self.ROLLING]
        for kind, args, spec, budget, seed, value, evals, digest in cases:
            if kind == "rr":
                w = randomized_response(*args)
            elif kind == "rand":
                w = random_channel(*args)
            else:
                w = validate_channel(self.ZEROS)
            est = estimate_eta_f(w, spec, budget, seed)
            witnesses = est.witness_p0.probs.tobytes() + est.witness_p1.probs.tobytes()
            got = (est.value.hex(), est.evaluations, hashlib.sha256(witnesses).hexdigest()[:16])
            assert got == (value, evals, digest), (kind, args, spec.value, budget, seed)
            ratio = est.output_divergence / est.input_divergence
            assert est.value == min(ratio, 1.0), (kind, args, spec.value, budget, seed)

    # As PINNED, for larger channels: at 30 x 30 the pair stage examines 139
    # pairs over several blocks, and at 300 x 3 it stops after 2 of 44 850.
    ROLLING = [
        ((30, 30, 1.0, 5), KL, 10_000, 2, "0x1.0a085474bb9bdp-1", 187, "2a11d1c6e635682f"),
        ((30, 30, 1.0, 5), CHI_SQUARED, 10_000, 3, "0x1.0a085474bbc56p-1", 187, "959e7e9ce4769919"),
        ((300, 3, 1.0, 1), KL, 20_000, 0, "0x1.ebb64ef67ef27p-1", 50, "d9f4018af27e5b0d"),
        ((300, 3, 1.0, 1), CHI_SQUARED, 20_000, 4, "0x1.ebb64ef67ef9dp-1", 50, "328673ef2fcdb0cf"),
    ]

    def test_witnesses_pass_validation_unchanged(self):
        # the search builds its witnesses as Distribution(p, k), unvalidated
        channels = [randomized_response(*args) if kind == "rr" else random_channel(*args)
                    for kind, args, *_ in self.PINNED if kind != "zeros"]
        channels += [validate_channel(self.ZEROS), *(random_channel(*case[0]) for case in self.ROLLING)]
        rng = np.random.default_rng(27)
        channels += [random_channel(int(k), int(m), float(a), int(seed))
                     for k, m, seed in rng.integers(2, 9, (40, 3)) for a in (0.1, 1.0, 10.0)]
        for w in channels:
            for spec in (TOTAL_VARIATION, KL, CHI_SQUARED):
                est = estimate_eta_f(w, spec, max(200, w.input_size ** 2), 0)
                for p in (est.witness_p0, est.witness_p1):
                    v = validate_distribution(p.probs)
                    assert v.probs.tobytes() == p.probs.tobytes()
                    assert v.alphabet_size == p.alphabet_size == w.input_size

    @pytest.mark.parametrize("case", ROLLING, ids=lambda c: f"{c[0][0]}x{c[0][1]}-{c[1].value}")
    def test_larger_channels_are_pinned(self, case):
        args, spec, budget, seed, value, evals, digest = case
        est = estimate_eta_f(random_channel(*args), spec, budget, seed)
        witnesses = est.witness_p0.probs.tobytes() + est.witness_p1.probs.tobytes()
        got = (est.value.hex(), est.evaluations, hashlib.sha256(witnesses).hexdigest()[:16])
        assert got == (value, evals, digest)
        assert est.value == est.output_divergence / est.input_divergence

    @pytest.mark.parametrize("w", [BSC_THIRD, random_channel(2, 2, 10.0, 9310)], ids=["rr", "dirichlet"])
    def test_value_is_the_ratio_of_its_recorded_divergences(self, w):
        est = estimate_eta_f(w, KL, budget=10_000, seed=9310)
        assert 0.0 < est.value < 1.0
        assert est.value == est.output_divergence / est.input_divergence
        # recomputed from the witnesses, both sides land near the search's
        # values; the output side pushes their difference, as the search does
        din = f_divergence(est.witness_p0, est.witness_p1, KL)
        dout = _pushed_divergence(w, est, KL)
        assert din == pytest.approx(est.input_divergence, rel=1e-12)
        assert dout == pytest.approx(est.output_divergence, rel=1e-12)
        # the public API rounds the two images separately, so it is not exact
        public = f_divergence(pushforward(w, est.witness_p0), pushforward(w, est.witness_p1), KL)
        assert public == pytest.approx(est.output_divergence, rel=1e-7)

    def test_single_input_alphabet_degenerates_to_zero(self):
        w = validate_channel([[0.2, 0.8]])
        for spec in (TOTAL_VARIATION, KL, CHI_SQUARED):
            est = estimate_eta_f(w, spec, budget=10, seed=0)
            assert est.value == 0.0, spec
            assert est.input_divergence == est.output_divergence == 0.0, spec
            assert est.evaluations == 0, spec
            assert est.witness_p0.probs.tolist() == est.witness_p1.probs.tolist() == [1.0], spec

    def test_kl_value_is_at_most_its_pair_coefficient(self):
        # the KL ladder's ratio tends to the pair's h(p*) from below as the
        # step shrinks, where the KL integrand keeps its relative precision
        # at small |x|: read from its log1p form at |x| just above 1e-4,
        # which cancels there, this value lands 1.4e-12 above h
        w = random_channel(8, 5, 0.1, 16)
        est = estimate_eta_f(w, KL, budget=3000, seed=10)
        i, j = np.flatnonzero(est.witness_p1.probs)
        with _quiet():
            _, h = coefficients._pair_peaks(w.rows[[i]], w.rows[[j]])
        assert est.value <= h[0] + 1e-14, est.value - h[0]

    @pytest.mark.parametrize("budget", [1, 2, 3, 20, 49, 50, 51])
    def test_small_budgets_cut_the_ladder(self, budget):
        # 3 input pairs and a 48-step ladder: the pairs take budget - 48
        # evaluations (at least one), the ladder what is left
        w = random_channel(3, 4, 1.0, 7)
        est = estimate_eta_f(w, KL, budget=budget, seed=0)
        assert est.evaluations <= budget
        assert 0.0 <= est.value <= dobrushin_coefficient(w) + 1e-10


# Entries are exactly 0 or drawn from [1e-11, 1]; normalizing by a sum of at
# most 6 keeps every nonzero probability at or above 1e-12.
_WEIGHT = st.one_of(st.just(0.0), st.floats(1e-11, 1.0))


@st.composite
def _channels(draw):
    k, m = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    row = st.lists(_WEIGHT, min_size=m, max_size=m).filter(lambda r: sum(r) > 0.0)
    rows = np.array([draw(row) for _ in range(k)])
    return validate_channel(rows / rows.sum(axis=1, keepdims=True))


class TestSearchProperties:
    """The search on arbitrary small channels, zeros and tiny entries included."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(_channels(), st.sampled_from([TOTAL_VARIATION, KL, CHI_SQUARED]))
    def test_certified_within_budget_and_reproducible(self, w, spec):
        est = estimate_eta_f(w, spec, budget=600, seed=5)
        assert 0.0 <= est.value <= dobrushin_coefficient(w) + 1e-10
        assert est.evaluations <= 600
        if spec is TOTAL_VARIATION:  # exact, from the point masses
            assert est.value == dobrushin_coefficient(w)
            assert est.evaluations == w.input_size * (w.input_size - 1)
        if est.input_divergence > 0.0:
            assert est.value == min(est.output_divergence / est.input_divergence, 1.0)
        again = estimate_eta_f(w, spec, budget=600, seed=5)
        assert (again.value, again.evaluations, again.input_divergence, again.output_divergence) == (
            est.value, est.evaluations, est.input_divergence, est.output_divergence
        )
        assert np.array_equal(again.witness_p0.probs, est.witness_p0.probs)
        assert np.array_equal(again.witness_p1.probs, est.witness_p1.probs)


def _binary_input_eta(rows) -> float:
    """Exact eta_KL = eta_chi2 of a binary-input channel:
    sup_{p in (0, 1)} p(1-p) sum_y (W0y - W1y)^2 / (p W0y + (1-p) W1y).

    Searched over the logit s of p: a grid uniform in s (log-spaced in p
    near 0 and 1, where the peak sits for channels with tiny entries), then
    golden section between the best grid point's neighbours."""
    w0, w1 = np.asarray(rows, float)
    live = (w0 + w1) > 0.0
    w0, w1 = w0[live], w1[live]
    d2 = (w0 - w1) ** 2

    def h(s):
        s = np.atleast_1d(np.asarray(s, float))[:, None]
        p, q = 1.0 / (1.0 + np.exp(-s)), 1.0 / (1.0 + np.exp(s))  # q = 1 - p
        return (p * q)[:, 0] * (d2 / (p * w0 + q * w1)).sum(axis=1)

    grid = np.linspace(-60.0, 60.0, 12_001)
    i = int(np.argmax(h(grid)))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-12:
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if h(a)[0] < h(b)[0]:
            lo = a
        else:
            hi = b
    return float(max(h(0.5 * (lo + hi))[0], h(grid[i])[0]))


class TestBinaryInputOracle:
    """The search against the exact binary-input contraction coefficient."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_reference_recovers_randomized_response(self, alpha):
        r = 2.0 ** alpha
        expected = ((r - 1.0) / (r + 1.0)) ** 2
        ref = _binary_input_eta(randomized_response(2, alpha).rows)
        assert ref == pytest.approx(expected, rel=1e-12)

    def test_search_meets_the_exact_value(self):
        for m in (2, 3, 4, 5):
            for conc in (0.1, 1.0, 10.0):
                for draw in range(3):
                    seed = 9000 + 100 * m + 10 * draw + int(conc * 10)
                    w = random_channel(2, m, conc, seed)
                    ref = _binary_input_eta(w.rows)
                    for spec in (KL, CHI_SQUARED):
                        est = estimate_eta_f(w, spec, budget=10_000, seed=seed)
                        where = f"m={m} conc={conc} seed={seed} {spec.value}"
                        assert ref - 1e-9 <= est.value <= ref + 1e-10, (where, est.value, ref)
                        # the value is the ratio at its own witnesses
                        din = f_divergence(est.witness_p0, est.witness_p1, spec)
                        dout = _pushed_divergence(w, est, spec)
                        assert dout / din == pytest.approx(est.value, rel=1e-9), where

    @pytest.mark.parametrize("spec", [KL, CHI_SQUARED], ids=["kl", "chi_squared"])
    @pytest.mark.parametrize("k, alpha, exact", [(3, 1.0, 1 / 12), (5, 2.0, 0.225)])
    def test_randomized_response_with_more_inputs(self, spec, k, alpha, exact):
        # every pair of inputs is alike: rows r/(r + k - 1) and 1/(r + k - 1)
        # on two letters, equal on the rest, with h peaking at p = 1/2
        est = estimate_eta_f(randomized_response(k, alpha), spec, budget=10_000, seed=0)
        assert est.value == pytest.approx(exact, abs=1e-9)
        assert est.value <= exact + 1e-10

    @pytest.mark.parametrize("spec", [KL, CHI_SQUARED], ids=["kl", "chi_squared"])
    def test_three_hundred_inputs_reach_the_best_pair(self, spec):
        w = random_channel(300, 3, 1.0, 1)
        est = estimate_eta_f(w, spec, budget=20_000, seed=0)
        assert 0.96 <= est.value <= dobrushin_coefficient(w) + 1e-10

    def test_zeros_under_kl_reach_the_end_of_the_logit_range(self):
        # rows 0 and 2 of ZEROS: h rises to their TV distance, 0.8, as p -> 1
        est = estimate_eta_f(validate_channel(TestEstimateEtaF.ZEROS), KL, budget=3000, seed=7)
        assert 0.79 <= est.value <= 0.8

    @staticmethod
    def _criterion_05_channels():
        rng = np.random.default_rng(50_505)  # as test_acceptance's criterion 05
        for trial in range(100):
            kx, ky = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            yield random_channel(kx, ky, (0.1, 1.0, 10.0)[trial % 3], 55_000 + trial)

    def test_search_meets_the_best_pair_of_inputs(self):
        channels = [*self._criterion_05_channels(), random_channel(12, 4, 1.0, 701),
                    random_channel(30, 30, 1.0, 703)]
        for w in channels:
            rows, k = w.rows, w.input_size
            pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
            tv = {(i, j): 0.5 * float(np.abs(rows[i] - rows[j]).sum()) for i, j in pairs}
            etas = {}
            for spec, tol in ((KL, 1e-9), (CHI_SQUARED, 1e-12)):
                est = estimate_eta_f(w, spec, budget=10_000, seed=0)
                assert est.value <= dobrushin_coefficient(w) + 1e-10, (rows, spec.value)
                # a pair's eta is at most its TV distance: only pairs above the value can beat it
                for i, j in (pair for pair in pairs if tv[pair] > est.value):
                    if (i, j) not in etas:
                        etas[i, j] = _binary_input_eta(rows[[i, j]])
                    assert etas[i, j] - tol <= est.value, (rows, i, j, spec.value)


def _exact_slope(a, b, s) -> tuple[Fraction, Fraction]:
    """h'(p) = sum d^2 (q^2 b - p^2 a) / L^2 and the sum of its terms'
    sizes, in exact arithmetic, at the p and q that `_pair_peaks` computes
    for logit s: both are of degree 0 in (p, q), so they are read at
    p / (p + q) exactly."""
    p, q = Fraction(1.0 / (1.0 + np.exp(-s))), Fraction(1.0 / (1.0 + np.exp(s)))
    slope = size = Fraction(0)
    for x, y in zip(map(Fraction, a), map(Fraction, b)):
        if x or y:
            scale = (x - y) ** 2 / (p * x + q * y) ** 2
            slope += scale * (q * q * y - p * p * x)
            size += scale * (q * q * y + p * p * x)
    return slope, size


class TestPairPeaks:
    """`_pair_peaks` against exact slopes, the binary-input oracle and its
    own one-pair calls."""

    @staticmethod
    def _peaks(a, b):
        with _quiet():
            return coefficients._pair_peaks(np.asarray(a, float), np.asarray(b, float))

    # the strategy's k, m <= 6 seldom reach them: at 8 x 8 and concentration
    # 0.1, peaks sit at |s| of 5 to 15, where the creeping guard and the
    # bracket's midpoint take over from Newton
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(_channels())
    @example(random_channel(8, 8, 0.1, 6))
    @example(random_channel(8, 8, 0.1, 9))
    @example(random_channel(8, 8, 0.1, 15))
    def test_peaks_are_where_the_exact_slope_changes_sign(self, w):
        rows = w.rows
        i, j = np.triu_indices(len(rows), 1)
        s, h = self._peaks(rows[i], rows[j])
        for n, (a, b) in enumerate(zip(rows[i], rows[j])):
            step = 1e-12 * max(1.0, abs(s[n]))
            # the rounding error h' may carry: `_pair_peaks` stops where
            # |h'| is within 1e-14 of the sum of its terms' sizes
            slack = 2e-14 * _exact_slope(a, b, s[n])[1]
            if s[n] == 23.0:  # h still rises outward at the cap
                assert _exact_slope(a, b, s[n])[0] >= -slack, (a, b)
            elif s[n] == -23.0:
                assert _exact_slope(a, b, s[n])[0] <= slack, (a, b)
            else:
                assert abs(s[n]) < 23.0
                assert _exact_slope(a, b, s[n] - step)[0] >= -slack, (a, b, s[n])
                assert _exact_slope(a, b, s[n] + step)[0] <= slack, (a, b, s[n])
                ref = _binary_input_eta(np.stack((a, b)))
                assert abs(h[n] - ref) <= 1e-13 * ref, (a, b, h[n], ref)

    @pytest.mark.parametrize("steps", [None, 0])
    def test_zeros_rows_peak_at_the_cap(self, monkeypatch, steps):
        # rows 0 and 2 of ZEROS: h rises to their TV distance, 0.8, as p -> 1;
        # the slope read at the caps places them, with no Newton step
        if steps is not None:
            monkeypatch.setattr(coefficients, "_PEAK_STEPS", steps)
        rows = np.array(TestEstimateEtaF.ZEROS)
        s, h = self._peaks(rows[[0, 2]], rows[[2, 0]])
        assert s.tolist() == [23.0, -23.0]
        assert h[0] == h[1] and 0.79 < h[0] < 0.8

    @pytest.mark.parametrize("k, alpha", [(8, 2.0), (16, 1.0), (5, 2.0)])
    def test_flat_pairs_stay_at_one_half(self, k, alpha):
        # every pair of the staircase has h = lam at every p: no slope points
        # outward at a cap by more than rounding, so each pair stops at s = 0,
        # and the search examines one pair and admits the whole ladder
        w = maxl_staircase(k, alpha)
        i, j = np.triu_indices(k, 1)
        s, h = self._peaks(w.rows[i], w.rows[j])
        assert np.all(s == 0.0) and np.all(h == staircase_rate(k, alpha))
        for spec in (KL, CHI_SQUARED):
            est = estimate_eta_f(w, spec, budget=5000, seed=0)
            assert est.evaluations == 49, spec.value
            assert sorted(est.witness_p1.probs[est.witness_p1.probs > 0.0]) == [0.5, 0.5]

    def test_a_block_gives_the_results_of_one_pair_calls(self):
        zeros = np.array(TestEstimateEtaF.ZEROS)
        rr = np.pad(randomized_response(2, 1.0).rows, ((0, 0), (0, 1)))  # a letter both rows miss
        a = np.array([zeros[0], rr[0], [1e-11, 0.3, 0.7 - 1e-11], zeros[1]])
        b = np.array([zeros[2], rr[1], [0.9, 0.1 - 1e-11, 1e-11], zeros[3]])
        s, h = self._peaks(a, b)
        for n in range(len(a)):
            one = self._peaks(a[[n]], b[[n]])
            assert (s[n].hex(), h[n].hex()) == (one[0][0].hex(), one[1][0].hex()), n
        # the cap; p = 1/2 exactly, where the slope is exactly 0; a peak far out
        assert (s[0], s[1]) == (23.0, 0.0)
        assert h[1] == pytest.approx(1 / 9, rel=1e-15)
        assert 11.0 < s[2] < 12.0

    def test_constants_are_read_only_and_calls_repeat(self):
        # the constants are shared by every call: writing to one must raise,
        # where an in-place op would silently change every later search
        consts = [v for v in vars(coefficients).values() if isinstance(v, np.ndarray)]
        assert len(consts) >= 12
        for c in consts:
            assert not c.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                c += 1.0
        # a call updates only its own arrays: the same block twice, the same bytes
        rows = np.vstack((random_channel(8, 3, 0.1, 6).rows, TestEstimateEtaF.ZEROS))  # caps too
        i, j = np.triu_indices(len(rows), 1)
        first, second = self._peaks(rows[i], rows[j]), self._peaks(rows[i], rows[j])
        assert [x.tobytes() for x in first] == [x.tobytes() for x in second]

    def test_no_search_reaches_the_step_cap(self, monkeypatch):
        # every block the search tests pass to `_pair_peaks` gives the same
        # results with ten times the steps: no pair stopped at the cap
        blocks = []
        real = coefficients._pair_peaks

        def record(a, b):
            blocks.append((a, b, real(a, b)))
            return blocks[-1][2]

        monkeypatch.setattr(coefficients, "_pair_peaks", record)
        channels = [random_channel(*args) for kind, args, *_ in TestEstimateEtaF.PINNED if kind == "rand"]
        channels += [random_channel(*case[0]) for case in TestEstimateEtaF.ROLLING]
        channels += [*TestBinaryInputOracle._criterion_05_channels(), random_channel(12, 4, 1.0, 701),
                     random_channel(30, 30, 1.0, 703), validate_channel(TestEstimateEtaF.ZEROS),
                     randomized_response(3, 1.0), randomized_response(5, 2.0)]
        for w in channels:
            for spec in (KL, CHI_SQUARED):
                estimate_eta_f(w, spec, budget=20_000, seed=0)
        monkeypatch.setattr(coefficients, "_pair_peaks", real)
        monkeypatch.setattr(coefficients, "_PEAK_STEPS", 10 * coefficients._PEAK_STEPS)
        assert len(blocks) > 200
        for a, b, (s, h) in blocks:
            again = self._peaks(a, b)
            assert np.array_equal(again[0], s) and np.array_equal(again[1], h)


class TestContractionProperties:
    def test_kl_sdpi_under_dobrushin(self):
        rng = np.random.default_rng(11)
        for seed in range(40):
            w = random_channel(3, 4, 1.0, seed)
            dob = dobrushin_coefficient(w)
            for _ in range(25):
                p0 = validate_distribution(rng.dirichlet(np.ones(3)))
                p1 = validate_distribution(rng.dirichlet(np.ones(3)))
                lhs = kl_divergence(pushforward(w, p0), pushforward(w, p1))
                assert lhs <= dob * kl_divergence(p0, p1) + 1e-10

    def test_tv_contraction_under_dobrushin(self):
        rng = np.random.default_rng(12)
        for seed in range(40):
            w = random_channel(4, 3, 1.0, seed)
            dob = dobrushin_coefficient(w)
            for _ in range(25):
                p0 = validate_distribution(rng.dirichlet(np.ones(4)))
                p1 = validate_distribution(rng.dirichlet(np.ones(4)))
                lhs = total_variation(pushforward(w, p0), pushforward(w, p1))
                assert lhs <= dob * total_variation(p0, p1) + 1e-10

    def test_equality_attained_at_point_mass_pair(self):
        for seed in range(30):
            k = 2 + seed % 5
            w = random_channel(k, 4, 1.0, seed)
            best = max(
                total_variation(
                    pushforward(w, Distribution.point_mass(k, i)),
                    pushforward(w, Distribution.point_mass(k, j)),
                )
                for i in range(k)
                for j in range(i + 1, k)
            )
            assert best == pytest.approx(dobrushin_coefficient(w), abs=1e-12)

    def test_submultiplicative_under_composition(self):
        for seed in range(50):
            a = random_channel(3, 4, 1.0, 2 * seed)
            b = random_channel(4, 3, 1.0, 2 * seed + 1)
            lhs = dobrushin_coefficient(compose(a, b))
            assert lhs <= dobrushin_coefficient(a) * dobrushin_coefficient(b) + 1e-10
