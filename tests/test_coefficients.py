import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmech import (
    CHI_SQUARED,
    KL,
    TOTAL_VARIATION,
    Distribution,
    FDivergenceSpec,
    FKind,
    PrivacyReport,
    compose,
    dobrushin_coefficient,
    estimate_eta_f,
    f_divergence,
    kl_divergence,
    ldp_level,
    map_adversary_gain,
    max_leakage,
    min_entry,
    privacy_report,
    pushforward,
    random_channel,
    randomized_response,
    total_variation,
    validate_channel,
    validate_distribution,
    z_channel,
)
from privmech import coefficients
from privmech.divergences import _pair_divergence, _quiet
from privmech.errors import BudgetTooSmall, CustomFNotNormalized, DimensionMismatch

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
            gap = 0.0
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    gap = max(gap, float(np.abs(rows[j] - rows[i]).sum()))
            assert dobrushin_coefficient(validate_channel(rows)) == 0.5 * gap, rows


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
        # total variation and a custom f of finite slope at infinity run it
        w = random_channel(3, 4, 0.5, 2)
        est = estimate_eta_f(w, TOTAL_VARIATION, budget=6, seed=0)
        assert est.value == pytest.approx(dobrushin_coefficient(w), abs=1e-12)
        half_tv = FDivergenceSpec(FKind.CUSTOM, custom_f=lambda t: 0.5 * abs(t - 1.0))
        est = estimate_eta_f(w, half_tv, budget=6, seed=0)
        assert est.value == pytest.approx(dobrushin_coefficient(w), abs=1e-12)
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

    # (channel, spec, budget, seed) -> value.hex(), evaluations, and the first
    # 16 hex digits of sha256(witness_p0 bytes + witness_p1 bytes). Cases
    # cover k = 2, 3, 5, 8, 12 and a 6 x 30 channel, and a channel with exact
    # zeros, whose best pair peaks at the end of the logit range. The two
    # total variation rows stop after the point masses, where eta_TV is
    # attained.
    PINNED = [
        ("rr", (2, 1.0), KL, 2000, 3, "0x1.c71c71c71b649p-4", 49, "d177f25adda810b2"),
        ("rand", (2, 5, 0.5, 21), CHI_SQUARED, 1000, 1, "0x1.4c36c07dce1c8p-1", 49, "49ba5d56fb804412"),
        ("rand", (3, 3, 1.0, 11), KL, 3000, 5, "0x1.1a059e0a4e0d2p-2", 50, "d11911b6f044a4c4"),
        ("rand", (3, 4, 0.5, 12), CHI_SQUARED, 2500, 6, "0x1.5bebf609414dep-1", 50, "a0c82c2cac3255b5"),
        ("rand", (3, 3, 1.0, 19), KL, 1237, 4, "0x1.24298895f3b61p-1", 49, "c41a56abfe7712b4"),
        ("rand", (3, 5, 1.0, 20), TOTAL_VARIATION, 800, 2, "0x1.10afb61252bf9p-1", 6, "6cdc628fb753ec8c"),
        ("rand", (5, 4, 1.0, 13), KL, 4000, 7, "0x1.0d76b3270777ep-1", 50, "4382420139bcdd80"),
        ("rand", (5, 3, 0.5, 14), TOTAL_VARIATION, 1500, 8, "0x1.06f234a42e09ap-1", 20, "ad76d9ce4c3e5652"),
        ("rand", (8, 8, 1.0, 15), CHI_SQUARED, 5000, 9, "0x1.47e27f9b3afb6p-1", 52, "fb9cc1a75df02e2e"),
        ("rand", (8, 5, 0.1, 16), KL, 3000, 10, "0x1.fbaf462c2c641p-1", 51, "6062bfdb8df16293"),
        ("rand", (12, 4, 1.0, 17), KL, 4000, 11, "0x1.4a30c6d85901bp-1", 54, "7aae247deedc8290"),
        ("rand", (6, 30, 0.5, 18), CHI_SQUARED, 3000, 12, "0x1.4867394df6f9bp-1", 56, "3b8293aac3134680"),
        ("zeros", None, KL, 3000, 7, "0x1.999999998452ep-1", 41, "21c329de82b2e779"),
        ("zeros", None, CHI_SQUARED, 2000, 8, "0x1.999999997e852p-1", 41, "42c140c4fcbaf639"),
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
            assert got == (value, evals, digest), (kind, args, spec.kind.value, budget, seed)
            ratio = est.output_divergence / est.input_divergence
            assert est.value == min(ratio, 1.0), (kind, args, spec.kind.value, budget, seed)

    # As PINNED, for larger channels: at 30 x 30 the pair stage examines 139
    # pairs over several blocks, and at 300 x 3 it stops after 2 of 44 850.
    ROLLING = [
        ((30, 30, 1.0, 5), KL, 10_000, 2, "0x1.0a085474bb9c8p-1", 187, "1ff35156f77269b5"),
        ((30, 30, 1.0, 5), CHI_SQUARED, 10_000, 3, "0x1.0a085474bbc56p-1", 187, "990cd83493819df7"),
        ((300, 3, 1.0, 1), KL, 20_000, 0, "0x1.ebb64ef67ef37p-1", 50, "4d6817333ad76e86"),
        ((300, 3, 1.0, 1), CHI_SQUARED, 20_000, 4, "0x1.ebb64ef67ef9cp-1", 50, "d64a52a02c2f3296"),
    ]

    @pytest.mark.parametrize("case", ROLLING, ids=lambda c: f"{c[0][0]}x{c[0][1]}-{c[1].kind.value}")
    def test_results_with_rolling_climb_tables_are_pinned(self, case):
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
        est = estimate_eta_f(w, KL, budget=10, seed=0)
        assert est.value == 0.0
        assert est.input_divergence == est.output_divergence == 0.0

    def test_custom_f(self):
        w = random_channel(3, 4, 0.5, 2)
        with pytest.raises(CustomFNotNormalized):
            estimate_eta_f(w, FDivergenceSpec(FKind.CUSTOM, custom_f=lambda t: t), budget=100, seed=0)
        chi2 = FDivergenceSpec(FKind.CUSTOM, custom_f=lambda t: (t - 1.0) ** 2)
        est = estimate_eta_f(w, chi2, budget=300, seed=0)
        assert 0.0 < est.value <= dobrushin_coefficient(w) + 1e-10

    # As PINNED, for custom f: (channel, f, budget) -> value.hex(),
    # evaluations, witness digest, and the stage whose pair wins. Both
    # stages run: for triangular discrimination a ladder step wins, for half
    # the TV distance a pair of point masses.
    CUSTOM_PINNED = [
        ((3, 4, 0.5, 0), lambda t: (t - 1.0) ** 2 / (t + 1.0), 2000,
         "0x1.1518ce9fc5c3cp-1", 56, "098eaa938efe9422", "ladder"),
        ((4, 4, 0.5, 0), lambda t: 0.5 * abs(t - 1.0), 2000,
         "0x1.59004ef3e70e5p-1", 63, "56abeffce5d25d3a", "point masses"),
    ]

    @pytest.mark.parametrize("case", CUSTOM_PINNED, ids=["triangular", "half_tv"])
    def test_custom_f_results_are_pinned(self, case):
        args, f, budget, value, evals, digest, stage = case
        est = estimate_eta_f(random_channel(*args), FDivergenceSpec(FKind.CUSTOM, custom_f=f), budget, 0)
        witnesses = est.witness_p0.probs.tobytes() + est.witness_p1.probs.tobytes()
        got = (est.value.hex(), est.evaluations, hashlib.sha256(witnesses).hexdigest()[:16])
        assert got == (value, evals, digest)
        assert est.value == est.output_divergence / est.input_divergence
        peaks = {est.witness_p0.probs.max(), est.witness_p1.probs.max()}
        assert stage == ("point masses" if peaks == {1.0} else "ladder")

    @pytest.mark.parametrize("args", [(3, 4, 0.5, 0), (3, 4, 0.5, 1), (5, 4, 1.0, 13), (12, 4, 1.0, 701)])
    def test_custom_chi_squared_matches_the_built_in_one(self, args):
        # the same pair and ladder, evaluated by the custom kernel, which
        # rebuilds p0 = base + diff and so loses digits at small steps
        w = random_channel(*args)
        chi2 = FDivergenceSpec(FKind.CUSTOM, custom_f=lambda t: (t - 1.0) ** 2)
        custom = estimate_eta_f(w, chi2, budget=2000, seed=0)
        built_in = estimate_eta_f(w, CHI_SQUARED, budget=2000, seed=0)
        assert custom.value == pytest.approx(built_in.value, abs=1e-9)
        assert custom.evaluations == built_in.evaluations

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
    @given(_channels(), st.sampled_from([KL, CHI_SQUARED]))
    def test_certified_within_budget_and_reproducible(self, w, spec):
        est = estimate_eta_f(w, spec, budget=600, seed=5)
        assert 0.0 <= est.value <= dobrushin_coefficient(w) + 1e-10
        assert est.evaluations <= 600
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
                        where = f"m={m} conc={conc} seed={seed} {spec.kind.value}"
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
                assert est.value <= dobrushin_coefficient(w) + 1e-10, (rows, spec.kind.value)
                # a pair's eta is at most its TV distance: only pairs above the value can beat it
                for i, j in (pair for pair in pairs if tv[pair] > est.value):
                    if (i, j) not in etas:
                        etas[i, j] = _binary_input_eta(rows[[i, j]])
                    assert etas[i, j] - tol <= est.value, (rows, i, j, spec.kind.value)


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
