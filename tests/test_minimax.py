import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from privmech import (
    KL,
    Distribution,
    SimulationConfig,
    closed_form_risk,
    default_direction,
    dobrushin_coefficient,
    empirical_risk,
    estimate_eta_f,
    kl_divergence,
    l2_distance_sq,
    lecam_lower_check,
    lecam_pair,
    maxl_staircase,
    pushforward,
    randomized_response,
    sample_outputs,
    scaling_sweep,
    staircase_estimator,
    staircase_rate,
    total_variation,
    validate_channel,
    validate_distribution,
)
from privmech import minimax
from privmech.errors import (
    AlphaOutOfRange,
    BadDirectionVector,
    DimensionMismatch,
    PreconditionNotMet,
    SymbolOutOfRange,
    ValidationError,
)

LN2 = math.log(2.0)


class TestSampleOutputs:
    def test_identity_point_mass(self):
        w = validate_channel(np.eye(4))
        out = sample_outputs(w, Distribution.point_mass(4, 2), 50, seed=0)
        assert (out == 2).all()

    def test_deterministic_column(self):
        w = validate_channel([[1.0, 0.0], [1.0, 0.0]])
        out = sample_outputs(w, Distribution.uniform(2), 50, seed=1)
        assert (out == 0).all()

    def test_seeded_reproducibility(self):
        w = maxl_staircase(3, 1.0)
        p = Distribution.uniform(3)
        a = sample_outputs(w, p, 1000, seed=9)
        b = sample_outputs(w, p, 1000, seed=9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_outputs(w, p, 1000, seed=10))

    def test_staircase_output_frequencies(self):
        # outputs are [lam/3, lam/3, lam/3, 1-lam] with lam = 1/2
        n = 100_000
        out = sample_outputs(maxl_staircase(3, 1.0), Distribution.uniform(3), n, seed=123)
        freq = np.bincount(out, minlength=4) / n
        expect = np.array([1 / 6, 1 / 6, 1 / 6, 1 / 2])
        sigma = np.sqrt(expect * (1 - expect) / n)
        assert (np.abs(freq - expect) <= 3 * sigma).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sample_outputs(validate_channel(np.eye(2)), Distribution.uniform(3), 10, seed=0)

    def test_sample_size_must_be_whole(self):
        w, p = maxl_staircase(3, 1.0), Distribution.uniform(3)
        for n in (0, 2.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                sample_outputs(w, p, n, seed=0)
        assert len(sample_outputs(w, p, 5.0, seed=0)) == 5


class TestStaircaseEstimator:
    def test_hand_example(self):
        # k=3, one bit: scale (k-1)/(2**a - 1) = 2; dummy symbol is index 3
        est = staircase_estimator(np.array([0, 0, 1, 3]), k=3, alpha_bits=1.0, n=4)
        assert np.allclose(est, [1.0, 0.5, 0.0], atol=1e-15)

    def test_all_dummy_gives_zero_vector(self):
        est = staircase_estimator(np.full(10, 3), k=3, alpha_bits=1.0, n=10)
        assert np.array_equal(est, np.zeros(3))

    def test_symbol_out_of_range(self):
        with pytest.raises(SymbolOutOfRange):
            staircase_estimator(np.array([0, 4]), k=3, alpha_bits=1.0, n=2)
        with pytest.raises(SymbolOutOfRange):
            staircase_estimator(np.array([-1, 0]), k=3, alpha_bits=1.0, n=2)
        with pytest.raises(SymbolOutOfRange):
            staircase_estimator(np.array([0.5, 2.9, 1.0]), k=3, alpha_bits=1.0, n=3)

    @pytest.mark.parametrize("samples", [["1", "0"], [None, 1]], ids=["strings", "null"])
    def test_non_numeric_samples_are_validation_errors(self, samples):
        with pytest.raises(ValidationError, match="must be numbers"):
            staircase_estimator(samples, k=3, alpha_bits=1.0, n=2)

    def test_an_integer_past_int64_is_out_of_range(self):
        with pytest.raises(SymbolOutOfRange):
            staircase_estimator([10**30, 0], k=3, alpha_bits=1.0, n=2)

    def test_whole_valued_floats_accepted(self):
        est = staircase_estimator(np.array([0.0, 2.0, 1.0, 3.0]), k=3, alpha_bits=1.0, n=4)
        assert np.array_equal(est, staircase_estimator(np.array([0, 2, 1, 3]), 3, 1.0, 4))

    def test_sample_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            staircase_estimator(np.array([0, 1]), k=3, alpha_bits=1.0, n=3)

    @pytest.mark.parametrize("samples, n", [([], 0), ([0, 1], 2.5)], ids=["zero", "fractional"])
    def test_n_must_be_a_whole_count(self, samples, n):
        # n = 0 would divide by zero, and n = 2.5 is no sample count at all
        with pytest.raises(ValueError, match="whole number"):
            staircase_estimator(samples, k=3, alpha_bits=1.0, n=n)

    def test_consistency_large_n(self):
        k, alpha, n = 3, 1.0, 1_000_000
        w = maxl_staircase(k, alpha)
        source = Distribution.uniform(k)
        out = sample_outputs(w, source, n, seed=2024)
        est = staircase_estimator(out, k, alpha, n)
        lam = staircase_rate(k, alpha)
        q = lam / k
        sigma = math.sqrt(q * (1 - q) / n) / lam
        assert (np.abs(est - 1 / k) <= 3 * sigma).all()

    def test_unbiased_over_replicates(self):
        # mean over 10^4 replicates of n=10^3 samples hits the source within 4 se
        k, alpha, n, reps = 3, 1.0, 1000, 10_000
        w = maxl_staircase(k, alpha)
        source = validate_distribution([0.5, 0.3, 0.2])
        seqs = np.random.SeedSequence(31337).spawn(reps)
        ests = np.empty((reps, k))
        for i, s in enumerate(seqs):
            out = sample_outputs(w, source, n, seed=s)
            ests[i] = staircase_estimator(out, k, alpha, n)
        mean = ests.mean(axis=0)
        se = ests.std(axis=0, ddof=1) / math.sqrt(reps)
        assert (np.abs(mean - source.probs) <= 4 * se).all()


class TestClosedFormRisk:
    def test_uniform_hand_value(self):
        got = closed_form_risk(Distribution.uniform(3), 3, 1.0, 100)
        assert got == pytest.approx(1 / 60, rel=1e-12)

    def test_lossless_point_mass_has_zero_risk(self):
        got = closed_form_risk(Distribution.point_mass(2, 0), 2, 1.0, 50)
        assert got == 0.0

    def test_bounded_by_rate_upper_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            alpha = float(rng.uniform(0.1, math.log2(k)))
            n = int(rng.integers(1, 500))
            p = validate_distribution(rng.dirichlet(np.ones(k)))
            assert closed_form_risk(p, k, alpha, n) <= (k - 1) / (n * (2**alpha - 1)) + 1e-12

    def test_alpha_out_of_range(self):
        with pytest.raises(AlphaOutOfRange):
            closed_form_risk(Distribution.uniform(2), 2, 1.5, 100)

    def test_source_size_must_match(self):
        with pytest.raises(DimensionMismatch):
            closed_form_risk(Distribution.uniform(2), 3, 1.0, 100)


class TestEmpiricalRisk:
    def test_matches_closed_form_within_monte_carlo_error(self):
        for k, alpha, source in [
            (2, 0.5, Distribution.uniform(2)),
            (3, 1.0, Distribution.uniform(3)),
            (3, 1.0, validate_distribution([0.9, 0.05, 0.05])),
            (5, math.log2(5), validate_distribution([0.4, 0.3, 0.2, 0.05, 0.05])),
        ]:
            cfg = SimulationConfig(k=k, alpha_bits=alpha, n=100, replicates=1500, seed=77, source=source)
            est = empirical_risk(cfg)
            assert abs(est.mean_risk - est.closed_form) <= 3 * est.std_error
            assert est.closed_form <= est.upper_bound + 1e-12
            assert est.lecam_lower < est.closed_form

    def test_single_replicate_smoke(self):
        cfg = SimulationConfig(
            k=3, alpha_bits=1.0, n=1, replicates=1, seed=0, source=Distribution.uniform(3)
        )
        est = empirical_risk(cfg)
        assert est.mean_risk >= 0.0 and math.isfinite(est.mean_risk)
        assert est.std_error == 0.0

    def test_bit_identical_reruns(self):
        cfg = SimulationConfig(
            k=3, alpha_bits=1.0, n=200, replicates=300, seed=5, source=Distribution.uniform(3)
        )
        a, b = empirical_risk(cfg), empirical_risk(cfg)
        assert a == b  # frozen dataclass equality is fieldwise exact

    def test_growing_replicates_keeps_prefix_stream(self):
        base = dict(k=3, alpha_bits=1.0, n=50, seed=5, source=Distribution.uniform(3))
        small = empirical_risk(SimulationConfig(replicates=100, **base))
        big = empirical_risk(SimulationConfig(replicates=200, **base))
        # replicates are count rows drawn in order from one generator, so the
        # two runs share their first 100 replicates: means cannot drift arbitrarily
        assert abs(small.mean_risk - big.mean_risk) <= 6 * small.std_error

    def test_staircase_inapplicable_alpha(self):
        with pytest.raises(AlphaOutOfRange):
            empirical_risk(
                SimulationConfig(
                    k=2, alpha_bits=1.5, n=10, replicates=2, seed=0, source=Distribution.uniform(2)
                )
            )


class TestCountsEngine:
    CFG = SimulationConfig(
        k=5, alpha_bits=1.0, n=300, replicates=1000, seed=42,
        source=validate_distribution([0.4, 0.3, 0.2, 0.05, 0.05]),
    )

    @pytest.mark.parametrize("cells", [1, 37 * 6])  # one row per block; 37 rows, not dividing 1000
    def test_block_size_does_not_change_results(self, monkeypatch, cells):
        default = empirical_risk(self.CFG)
        monkeypatch.setattr(minimax, "_BLOCK_CELLS", cells)
        assert empirical_risk(self.CFG) == default

    def test_growing_replicates_keeps_earlier_risks(self):
        lam = staircase_rate(5, 1.0)

        def risks(r):
            rng = np.random.default_rng(self.CFG.seed)
            return minimax._mc_risks(self.CFG.source, lam, self.CFG.n, r, rng)

        assert np.array_equal(risks(2000)[:1000], risks(1000))

    # (k, alpha, n, replicates, seed, source) -> (mean_risk, std_error) by hex,
    # equal to those of sampling from the staircase channel's pushforward pW
    PINNED_RISKS = [
        ((2, 0.5, 1, 500, 1, (0.5, 0.5)), ("0x1.f297a752fcd8fp+0", "0x1.3561b2bdd1da2p-4")),
        ((5, 1.0, 300, 1000, 42, (0.4, 0.3, 0.2, 0.05, 0.05)),
         ("0x1.9980fe508bc21p-7", "0x1.4df056377fe20p-12")),
        ((17, 3.0, 10_000, 200, 7, tuple(np.arange(1, 18) / 153)),
         ("0x1.d786d4fbefa91p-13", "0x1.b0a07968c2596p-18")),
    ]

    @pytest.mark.parametrize("case, expected", PINNED_RISKS, ids=["k2-n1", "k5-n300", "k17-n10000"])
    def test_risks_are_pinned(self, case, expected):
        k, alpha, n, replicates, seed, source = case
        est = empirical_risk(SimulationConfig(
            k=k, alpha_bits=alpha, n=n, replicates=replicates, seed=seed,
            source=validate_distribution(source),
        ))
        assert (est.mean_risk.hex(), est.std_error.hex()) == expected

    def test_sweep_and_lecam_are_pinned(self):
        rows = scaling_sweep(3, 1.0, [100, 1000], 300, 5)
        assert [(r.n, r.mean_risk.hex(), r.std_error.hex()) for r in rows] == [
            (100, "0x1.221b249049d66p-6", "0x1.cc3179f356b59p-11"),
            (1000, "0x1.ca4a6680928c9p-10", "0x1.857a00db9aa06p-14"),
        ]
        verdict = lecam_lower_check(2, 1.0, 2000, 500, 3)
        assert (verdict.lhs.hex(), verdict.rhs.hex()) == (
            "-0x1.3c4a0ac131288p-18", "0x1.076d690176e31p-12"
        )

    @pytest.mark.parametrize("k, alpha, n, source", [
        (2, 0.5, 1, (0.5, 0.5)),
        (3, 1.0, 100, (0.9, 0.05, 0.05)),
        (5, math.log2(5), 1000, (0.4, 0.3, 0.2, 0.05, 0.05)),
        (17, 3.0, 10_000, tuple(np.arange(1, 18) / 153)),
    ], ids=["k2-n1", "k3-n100", "k5-n1000", "k17-n10000"])
    def test_one_replicate_is_the_public_sample_paths_risk(self, k, alpha, n, source):
        # the engine draws the count row sample_outputs draws from the same
        # seed, and estimates from it with staircase_estimator's arithmetic
        p = validate_distribution(source)
        w = maxl_staircase(k, alpha)
        for seed in range(20):
            est = empirical_risk(SimulationConfig(
                k=k, alpha_bits=alpha, n=n, replicates=1, seed=seed, source=p,
            ))
            d = staircase_estimator(sample_outputs(w, p, n, seed), k, alpha, n) - p.probs
            assert est.mean_risk == float((d * d).sum()), seed

    def test_peak_memory_is_bounded_by_the_block(self):
        cfg = SimulationConfig(
            k=512, alpha_bits=1.0, n=1000, replicates=20_000, seed=0,
            source=Distribution.uniform(512),
        )
        tracemalloc.start()
        try:
            empirical_risk(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # an unblocked draw peaks near 249 MB


def _exact_risk_variance(p, lam, n) -> float:
    """Var R for R = sum_{x<k} D_x^2/(n lam)^2, D = N - n q, N ~ Multinomial(n, q),
    q = (lam p, 1 - lam), from the cumulants of one draw Z = e_Y - q:
    Var R = sum_{x,y<k} [n k4(x,x,y,y) + 2 n^2 k2(x,y)^2] / (n lam)^4."""
    q = np.append(lam * p, 1.0 - lam)
    k = p.size
    k2 = (np.diag(q) - np.outer(q, q))[:k, :k]
    dev2 = ((np.eye(q.size) - q) ** 2)[:, :k]  # (delta_cx - q_x)^2
    m4 = np.einsum("c,cx,cy->xy", q, dev2, dev2)
    k4 = m4 - np.outer(np.diag(k2), np.diag(k2)) - 2.0 * k2 ** 2
    return float((n * k4 + 2.0 * n * n * k2 ** 2).sum() / (n * lam) ** 4)


def _enumerated_risk_moments(p, lam, n) -> tuple[float, float]:
    """Mean and variance of R over every count vector of Multinomial(n, q)."""
    q = np.append(lam * p, 1.0 - lam)

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for c in range(total + 1):
            for rest in compositions(total - c, parts - 1):
                yield (c, *rest)

    probs, risks = [], []
    for counts in compositions(n, q.size):
        coef = math.factorial(n)
        for c in counts:
            coef //= math.factorial(c)
        probs.append(coef * math.prod(float(qc) ** c for qc, c in zip(q, counts)))
        risks.append(float(np.sum((np.array(counts[:-1]) / (n * lam) - p) ** 2)))
    probs, risks = np.array(probs), np.array(risks)
    mean = float(probs @ risks)
    return mean, float(probs @ (risks - mean) ** 2)


class TestRiskVarianceOracle:
    @pytest.mark.parametrize("k, alpha, n", [(2, 1.0, 9), (3, 1.0, 12), (4, 1.5, 10)])
    def test_matches_exact_enumeration(self, k, alpha, n):
        p = np.full(k, 1.0 / k)
        lam = staircase_rate(k, alpha)
        mean, var = _enumerated_risk_moments(p, lam, n)
        assert abs(_exact_risk_variance(p, lam, n) - var) <= 1e-12 * var
        closed = closed_form_risk(Distribution.uniform(k), k, alpha, n)
        assert abs(closed - mean) <= 1e-12 * mean

    def test_std_error_matches_the_oracle(self):
        k, alpha, n, replicates = 3, 1.0, 1000, 200_000
        est = empirical_risk(SimulationConfig(
            k=k, alpha_bits=alpha, n=n, replicates=replicates, seed=0,
            source=Distribution.uniform(k),
        ))
        var = _exact_risk_variance(np.full(k, 1.0 / k), staircase_rate(k, alpha), n)
        ratio = est.std_error * math.sqrt(replicates) / math.sqrt(var)
        assert abs(ratio - 1.0) <= 0.02, ratio


class TestLeCamPair:
    def test_hand_values(self):
        pair = lecam_pair(2, 1.0, 100, default_direction(2))
        assert pair.valid and pair.p1 is not None
        assert pair.p1.probs[0] == pytest.approx(0.5707106781186547, abs=1e-12)
        assert pair.p1.probs[1] == pytest.approx(0.4292893218813453, abs=1e-12)
        assert l2_distance_sq(pair.p0, pair.p1) == pytest.approx(0.01, abs=1e-12)

    def test_distance_identity_whenever_valid(self):
        for k, alpha, n in [(2, 1.0, 50), (3, 0.5, 400), (5, 2.0, 100)]:
            pair = lecam_pair(k, alpha, n, default_direction(k))
            if pair.valid:
                assert l2_distance_sq(pair.p0, pair.p1) == pytest.approx(
                    1.0 / (n * (2**alpha - 1)), abs=1e-12
                )

    def test_too_small_n_is_invalid(self):
        pair = lecam_pair(2, 1.0, 1, default_direction(2))
        assert not pair.valid and pair.p1 is None

    def test_validity_is_whether_p1_exists(self):
        # `valid` is read from p1, so the two cannot disagree, and it cannot be given
        args = [(2, 1.0, 100), (2, 1.0, 1), (3, 0.5, 400), (5, 2.0, 100), (4, 1.0, 10), (3, 0.5, 1)]
        pairs = [lecam_pair(k, a, n, default_direction(k)) for k, a, n in args]
        assert [pair.valid for pair in pairs] == [True, False, True, True, True, False]
        for pair in pairs:
            assert pair.valid == (pair.p1 is not None)
        with pytest.raises(TypeError):
            minimax.LeCamPair(p0=pairs[0].p0, p1=None, u=pairs[0].u, valid=True)

    def test_bad_direction_vectors(self):
        with pytest.raises(BadDirectionVector):
            lecam_pair(2, 1.0, 100, np.array([1.0, -1.0]))  # squared norm 2
        with pytest.raises(BadDirectionVector):
            lecam_pair(2, 1.0, 100, np.array([0.5, 0.5]))  # nonzero sum
        with pytest.raises(BadDirectionVector):
            lecam_pair(3, 1.0, 100, np.array([1.0, -1.0]))  # wrong length
        with pytest.raises(BadDirectionVector):
            lecam_pair(2, 1.0, 100, [math.nan, math.nan])  # NaN fails both tests
        with pytest.raises(ValidationError, match="must be numbers"):
            lecam_pair(2, 1.0, 100, ["0.7071067811865476", "-0.7071067811865476"])
        with pytest.raises(ValidationError, match="must be numbers"):
            lecam_pair(2, 1.0, 100, [None, 1])

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_default_direction_is_admissible(self, k):
        u = default_direction(k)
        assert abs(u.sum()) <= 1e-15
        assert u @ u == pytest.approx(1.0, abs=1e-15)


class TestLeCamLowerCheck:
    def test_passes_at_reference_configuration(self):
        res = lecam_lower_check(2, 1.0, 10_000, replicates=400, seed=11)
        assert res.applicable and res.passed
        # two-point average risk clears the bound comfortably here
        assert res.rhs > res.lhs

    def test_one_replicate_has_zero_standard_error(self):
        # with se 0 the left side is the bound itself, 1/(16 n (2**a - 1))
        res = lecam_lower_check(2, 1.0, 2000, 1, 3)
        assert res.lhs == 1.0 / (16 * 2000) == 3.125e-05
        assert "(se 0.000e+00, 1 replicates per point)" in res.note

    def test_whole_valued_float_counts_are_accepted(self):
        exact = lecam_lower_check(2, 1.0, 10_000, replicates=2000, seed=11)
        for replicates in (2000.0, np.float64(2000.0)):
            assert lecam_lower_check(2, 1.0, 10_000.0, replicates, seed=11) == exact

    @pytest.mark.parametrize("n", [2.5, 10.5, 1000.5])
    def test_fractional_n_is_rejected_before_the_preconditions(self, n):
        # 2.5 fails pair validity and 10.5 the large-sample condition, and
        # 1000.5 meets both: each is a fractional count first
        with pytest.raises(ValueError, match="n must be a whole number >= 1"):
            lecam_lower_check(2, 1.0, n, replicates=10, seed=0)

    def test_pair_validity_precondition(self):
        with pytest.raises(PreconditionNotMet) as exc:
            lecam_lower_check(4, 1.0, 10, replicates=10, seed=0)
        assert exc.value.condition == "pair_validity"
        assert exc.value.min_n == 16

    def test_pair_validity_message_names_the_sufficient_condition(self):
        # n >= k^2/(2**a - 1) is sufficient, not tight: the default pair is
        # already valid at n = 10, so the message must not call it invalid
        with pytest.raises(PreconditionNotMet) as exc:
            lecam_lower_check(4, 1.0, 10, replicates=10, seed=0)
        assert "invalid" not in str(exc.value)
        assert "n >= k^2/(2**a - 1) fails at n = 10" in str(exc.value)
        assert lecam_pair(4, 1.0, 10, default_direction(4)).valid

    def test_whole_valued_float_n_is_echoed_as_an_int(self):
        with pytest.raises(PreconditionNotMet) as exc:
            lecam_lower_check(2, 1.0, 2.0, 10, 0)
        assert "n = 2;" in str(exc.value) and "2.0" not in str(exc.value)

    def test_large_sample_precondition_reports_minimal_n(self):
        # at k=2, a=1 the condition value is 1 + 1/(3n) + O(1/n^2); with slack
        # 1e-3 direct evaluation puts the threshold at n = 335
        with pytest.raises(PreconditionNotMet) as exc:
            lecam_lower_check(2, 1.0, 100, replicates=10, seed=0)
        assert exc.value.condition == "large_sample"
        assert exc.value.min_n == 335

    def test_large_sample_condition_accurate_at_large_n(self):
        # the exact value is 1 + 1/(3n) + O(1/n^2); evaluating KL from p1 and
        # p0 separately loses it to cancellation (1.000056 at n = 10**12)
        res = lecam_lower_check(2, 1.0, 10**12, 10, 0)
        assert "large-sample condition value 1.000000" in res.note
        n = 10**14
        value = minimax._taylor_value(2, 1.0, n, default_direction(2))
        assert abs(value - (1.0 + 1.0 / (3.0 * n))) <= 1e-12

    def test_large_sample_unattainable_for_k_three(self):
        # the condition value approaches k/2 = 1.5 from above: no n qualifies
        with pytest.raises(PreconditionNotMet) as exc:
            lecam_lower_check(3, 1.0, 10**6, replicates=10, seed=0)
        assert exc.value.condition == "large_sample"
        assert exc.value.min_n is None

    def test_proof_chain_on_the_constructed_pair(self):
        k, alpha, n = 2, 1.0, 10_000
        pair = lecam_pair(k, alpha, n, default_direction(k))
        w = maxl_staircase(k, alpha)
        q0, q1 = pushforward(w, pair.p0), pushforward(w, pair.p1)
        # squared distance identity
        assert l2_distance_sq(pair.p0, pair.p1) == pytest.approx(1e-4, abs=1e-15)
        # single-letter Pinsker step, bits converted to nats inside the sqrt
        assert total_variation(q1, q0) <= math.sqrt(0.5 * LN2 * kl_divergence(q1, q0)) + 1e-12
        # contraction step and its leakage relaxation
        kl_in = kl_divergence(pair.p1, pair.p0)
        kl_out = kl_divergence(q1, q0)
        assert kl_out <= dobrushin_coefficient(w) * kl_in + 1e-10
        assert kl_out <= (2.0**alpha - 1.0) * kl_in + 1e-10


class TestScalingSweep:
    def test_empty_grid(self):
        assert scaling_sweep(3, 1.0, [], replicates=10, seed=0) == []
        # every argument but the grid is checked before the grid
        for grid in ([], [10]):
            with pytest.raises(ValueError, match="^replicates must be"):
                scaling_sweep(3, 1.0, grid, replicates=-5, seed=0)
            with pytest.raises(DimensionMismatch, match="^source alphabet 4 != k = 3"):
                scaling_sweep(3, 1.0, grid, 5, 0, Distribution.uniform(4))

    def test_rows_sorted_by_n(self):
        rows = scaling_sweep(3, 1.0, [400, 100, 200], replicates=50, seed=1)
        assert [r.n for r in rows] == [100, 200, 400]

    def test_sample_sizes_must_be_whole(self):
        # int() would run 100.7 as n = 100 and report it under that n
        with pytest.raises(ValueError):
            scaling_sweep(3, 1.0, [200, 100.7], replicates=10, seed=0)
        assert [r.n for r in scaling_sweep(3, 1.0, [200.0], replicates=10, seed=0)] == [200]
        # so are whole-valued replicate counts
        exact = scaling_sweep(3, 1.0, [100, 200], replicates=2000, seed=0)
        assert scaling_sweep(3, 1.0, [100, 200], replicates=2000.0, seed=0) == exact

    def test_normalized_risk_constant_at_closed_form_level(self):
        rows = scaling_sweep(3, 1.0, [100, 200, 400], replicates=2000, seed=7)
        for r in rows:
            sigma = r.n * (2.0 - 1.0) * r.std_error
            assert abs(r.normalized_risk - 5 / 3) <= 3 * sigma

    def test_normalized_risk_band_across_alpha(self):
        # for any source: n*(2**a - 1)*closed_form lies in [(k-1)(1-lam), k-1]
        k, n = 3, 400
        for alpha in (0.5, 1.0, 1.5):
            rows = scaling_sweep(k, alpha, [n], replicates=2000, seed=13)
            lam = staircase_rate(k, alpha)
            lo, hi = (k - 1) * (1 - lam), float(k - 1)
            sigma = n * (2.0**alpha - 1.0) * rows[0].std_error
            assert lo - 3 * sigma <= rows[0].normalized_risk <= hi + 3 * sigma

    def test_deterministic(self):
        a = scaling_sweep(3, 1.0, [100, 200], replicates=100, seed=3)
        b = scaling_sweep(3, 1.0, [100, 200], replicates=100, seed=3)
        assert a == b

    def test_seed_is_taken_as_given(self):
        # int() would run seed 2.5 as seed 2, and a seed sequence reads "2"
        # as seed 2; empirical_risk refuses both. An empty grid is checked too
        for seed in (2.5, "2"):
            for grid in ([10, 20], []):
                with pytest.raises(TypeError, match="seed must be integer"):
                    scaling_sweep(3, 1.0, grid, replicates=5, seed=seed)
        exact = scaling_sweep(3, 1.0, [10, 20], replicates=5, seed=5)
        for seed in (np.int64(5), np.uint32(5)):
            assert scaling_sweep(3, 1.0, [10, 20], replicates=5, seed=seed) == exact
        assert scaling_sweep(3, 1.0, [10, 20], replicates=5, seed=True) == scaling_sweep(
            3, 1.0, [10, 20], replicates=5, seed=1
        )


class TestSeedCheck:
    """Every entry point that draws from a seed checks it through one rule,
    before any draw and before the sweep's grid: an int or numpy integer
    >= 0. A negative one is a ValueError that names the seed (numpy's own
    message, "expected non-negative integer", did not), and "2" or 2.5 a
    TypeError."""

    @staticmethod
    def _entries(seed):
        return {
            "empirical_risk": lambda: empirical_risk(SimulationConfig(
                k=3, alpha_bits=1.0, n=10, replicates=5, seed=seed, source=Distribution.uniform(3)
            )),
            "lecam_lower_check": lambda: lecam_lower_check(2, 1.0, 10_000, 5, seed),
            "scaling_sweep": lambda: scaling_sweep(3, 1.0, [10], 5, seed),
            "scaling_sweep, empty grid": lambda: scaling_sweep(3, 1.0, [], 5, seed),
            "scaling_sweep, bad grid": lambda: scaling_sweep(3, 1.0, [2.5], 5, seed),
        }

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), -(2**70)])
    def test_negative_seed_is_named(self, seed):
        for call in self._entries(seed).values():
            with pytest.raises(ValueError, match=r"^seed must be >= 0, got "):
                call()

    @pytest.mark.parametrize("seed", ["2", 2.5, 2.0, None])
    def test_non_integer_seed_is_a_type_error(self, seed):
        for call in self._entries(seed).values():
            with pytest.raises(TypeError, match=r"^seed must be integer, got "):
                call()

    def test_integer_seeds_draw_as_their_int(self):
        for seed in (np.int64(7), np.uint32(7), 7):
            cfg = SimulationConfig(
                k=3, alpha_bits=1.0, n=10, replicates=5, seed=seed, source=Distribution.uniform(3)
            )
            assert type(cfg.seed) is int and cfg.seed == 7
            assert lecam_lower_check(2, 1.0, 10_000, 5, seed) == lecam_lower_check(2, 1.0, 10_000, 5, 7)
        assert len(scaling_sweep(3, 1.0, [10], 5, 2**70)) == 1  # default_rng takes any int >= 0


class TestSimulationConfig:
    def test_counts_are_stored_as_ints(self):
        cfg = SimulationConfig(
            k=3, alpha_bits=1.0, n=100.0, replicates=2000.0, seed=0, source=Distribution.uniform(3)
        )
        assert type(cfg.n) is int and type(cfg.replicates) is int
        assert (cfg.n, cfg.replicates) == (100, 2000)

    def test_source_size_must_match(self):
        with pytest.raises(DimensionMismatch):
            SimulationConfig(
                k=3, alpha_bits=1.0, n=10, replicates=1, seed=0, source=Distribution.uniform(2)
            )

    def test_positive_sizes(self):
        # numpy would draw Multinomial(floor(n), q) but the estimator divides by n
        for n in (0, 2.5, float("nan")):
            with pytest.raises(ValueError):
                SimulationConfig(
                    k=3, alpha_bits=1.0, n=n, replicates=1, seed=0, source=Distribution.uniform(3)
                )
        with pytest.raises(ValueError):
            SimulationConfig(
                k=3, alpha_bits=1.0, n=5, replicates=0, seed=0, source=Distribution.uniform(3)
            )
        # a whole-valued float is a count: it draws what the int draws
        runs = [
            empirical_risk(SimulationConfig(
                k=3, alpha_bits=1.0, n=100, replicates=r, seed=0, source=Distribution.uniform(3)
            ))
            for r in (2000, 2000.0, np.float64(2000.0))
        ]
        assert runs[0] == runs[1] == runs[2]
        assert all(type(est.replicates) is int for est in runs)

    def test_source_defaults_to_uniform(self):
        # the uniform source is made after k has passed, and draws the same bits
        for k, alpha in ((2, 1.0), (3, 1.5), (5, 2.0)):
            default = SimulationConfig(k, alpha, 100, 300, 4)
            given = SimulationConfig(k, alpha, 100, 300, 4, Distribution.uniform(k))
            assert np.array_equal(default.source.probs, given.source.probs)
            assert empirical_risk(default).to_dict() == empirical_risk(given).to_dict()

    def test_alpha_is_held_as_a_float(self):
        # 2.0 ** np.float32(a) is a float32, so the bounds and the sweep's
        # normalized risk came out in single precision
        a = np.float32(0.9)
        cfg = SimulationConfig(3, a, 100, 50, 0)
        assert type(cfg.alpha_bits) is float and cfg.alpha_bits == float(a)
        runs = [
            (empirical_risk(SimulationConfig(3, alpha, 100, 50, 0)).to_dict(),
             [dataclasses.asdict(r) for r in scaling_sweep(3, alpha, [100], 50, 0)],
             lecam_lower_check(2, alpha, 1000, 50, 0).to_dict())
            for alpha in (a, float(a))
        ]
        assert repr(runs[0]) == repr(runs[1])


def _raised(call):
    """The type of the exception `call` raises, or None."""
    try:
        call()
    except Exception as exc:
        return type(exc)
    return None


class TestStaircaseDomain:
    """`SimulationConfig` decides the staircase domain 1 < 2**a <= k for every
    Monte Carlo entry point, through `staircase_rate`: each refuses exactly
    what `staircase_rate` refuses, with its error type, and a sweep on an
    empty grid as on a full one. 2**a is snapped to k within one part in 1e9."""

    @pytest.mark.parametrize(
        "k, alpha",
        [
            (3, math.log2(3 * (1 + 2e-9))),
            (3, math.log2(3)),
            (3, math.nextafter(math.log2(3), math.inf)),
            (3, 0.0),
            (3, 1e-20),
            (3, -1.0),
            (3, math.nan),
            (3, math.inf),
            (3, 1024.0),
            (1, 1.0),
            (2.5, 1.0),
            ("3", 1.0),
        ],
        ids=[
            "past-snap", "log2k", "log2k-ulp", "zero", "tiny", "negative", "nan", "inf",
            "1024", "k1", "k2.5", "k-str",
        ],
    )
    def test_entry_points_refuse_what_staircase_rate_refuses(self, k, alpha):
        expected = _raised(lambda: staircase_rate(k, alpha))
        calls = {
            "config": lambda: SimulationConfig(k, alpha, 10, 5, 0),
            "config, fixed source": lambda: SimulationConfig(k, alpha, 10, 5, 0, Distribution.uniform(2)),
            "sweep, empty grid": lambda: scaling_sweep(k, alpha, [], 5, 0),
            "sweep": lambda: scaling_sweep(k, alpha, [10], 5, 0),
            "lecam_lower_check": lambda: lecam_lower_check(k, alpha, 10_000, 5, 0),
        }
        for name, call in calls.items():
            got = _raised(call)
            if expected is None:
                # inside the domain: the source's size or Le Cam's preconditions may fail
                assert got in (None, DimensionMismatch, PreconditionNotMet), (name, got)
            else:
                assert got is expected, (name, got)

    def test_domain_is_checked_before_the_counts(self):
        # lecam_lower_check checked n, replicates and the seed first
        with pytest.raises(AlphaOutOfRange, match="exceeds k = 2"):
            lecam_lower_check(2, 2.0, 0, 0, -1)


class TestRecordsCompareByIdentity:
    """Records with a `Distribution` field compare and hash by identity, as
    `Distribution` does: a generated __eq__ called two bit-identical records
    unequal, and LeCamPair's generated __hash__ raised TypeError on `u`."""

    def test_each_hashes_and_equals_itself(self):
        w = randomized_response(2, 1.0)
        twice = {
            "ContractionEstimate": [estimate_eta_f(w, KL, 100, 0) for _ in range(2)],
            "LeCamPair": [lecam_pair(2, 1.0, 100, default_direction(2)) for _ in range(2)],
            "SimulationConfig": [SimulationConfig(3, 1.0, 10, 5, 0) for _ in range(2)],
        }
        for name, (a, b) in twice.items():
            assert hash(a) == object.__hash__(a), name
            assert a == a and a != b, name
            assert len({a, b, a}) == 2, name
