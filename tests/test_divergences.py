import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmech import (
    CHI_SQUARED,
    KL,
    TOTAL_VARIATION,
    FDivergenceSpec,
    FKind,
    f_divergence,
    kl_divergence,
    l2_distance_sq,
    pushforward,
    total_variation,
    validate_channel,
    validate_distribution,
)
from privmech.divergences import _pair_divergence
from privmech.errors import CustomFNotNormalized, DimensionMismatch

LN2 = math.log(2.0)


def dist(raw):
    return validate_distribution(raw)


def random_pair(rng, k):
    return dist(rng.dirichlet(np.ones(k))), dist(rng.dirichlet(np.ones(k)))


class TestTotalVariation:
    def test_zero_iff_equal(self):
        p = dist([0.2, 0.3, 0.5])
        assert total_variation(p, p) == 0.0

    def test_hand_value(self):
        assert total_variation(dist([0.5, 0.5]), dist([1.0, 0.0])) == pytest.approx(0.5, abs=1e-15)

    def test_disjoint_supports(self):
        assert total_variation(dist([1, 0]), dist([0, 1])) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p, q = random_pair(rng, int(rng.integers(2, 8)))
            assert total_variation(p, q) == total_variation(q, p)
            assert 0.0 <= total_variation(p, q) <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            total_variation(dist([1, 0]), dist([1 / 3, 1 / 3, 1 / 3]))


class TestKlDivergence:
    def test_zero_on_equal(self):
        p = dist([0.25, 0.75])
        assert kl_divergence(p, p) == 0.0

    def test_hand_value_in_bits(self):
        # 0.5*log2(2) + 0.5*log2(2/3) = 1 - 0.5*log2(3)
        got = kl_divergence(dist([0.5, 0.5]), dist([0.25, 0.75]))
        assert got == pytest.approx(1.0 - 0.5 * math.log2(3.0), abs=1e-12)

    def test_support_violation_is_infinite(self):
        assert kl_divergence(dist([1, 0]), dist([0, 1])) == float("inf")

    def test_zero_numerator_terms_drop(self):
        assert kl_divergence(dist([0, 1]), dist([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative_and_asymmetric(self):
        rng = np.random.default_rng(4)
        saw_asymmetry = False
        for _ in range(100):
            p, q = random_pair(rng, int(rng.integers(2, 8)))
            fwd, rev = kl_divergence(p, q), kl_divergence(q, p)
            assert fwd >= 0.0 and rev >= 0.0
            if abs(fwd - rev) > 1e-9:
                saw_asymmetry = True
        assert saw_asymmetry

    def test_pinsker_in_bits(self):
        # tv <= sqrt((ln2 / 2) * kl_bits); the ln2 converts bits to nats
        rng = np.random.default_rng(5)
        for _ in range(500):
            p, q = random_pair(rng, int(rng.integers(2, 8)))
            kl = kl_divergence(p, q)
            assert total_variation(p, q) <= math.sqrt(0.5 * LN2 * kl) + 1e-12


class TestL2DistanceSq:
    def test_zero_on_equal(self):
        p = dist([0.2, 0.8])
        assert l2_distance_sq(p, p) == 0.0

    def test_disjoint(self):
        assert l2_distance_sq(dist([1, 0]), dist([0, 1])) == 2.0

    def test_symmetric(self):
        p, q = dist([0.1, 0.9]), dist([0.4, 0.6])
        assert l2_distance_sq(p, q) == l2_distance_sq(q, p)


class TestFDivergence:
    def test_tv_kind_matches_direct_total_variation(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            p, q = random_pair(rng, int(rng.integers(2, 7)))
            assert f_divergence(p, q, TOTAL_VARIATION) == pytest.approx(
                total_variation(p, q), abs=1e-12
            )

    def test_kl_kind_matches_kl_divergence(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            p, q = random_pair(rng, int(rng.integers(2, 7)))
            assert f_divergence(p, q, KL) == pytest.approx(kl_divergence(p, q), abs=1e-10)

    def test_kl_kind_infinite_on_support_violation(self):
        assert f_divergence(dist([1, 0]), dist([0, 1]), KL) == float("inf")

    def test_tv_kind_finite_on_support_violation(self):
        # escaped mass contributes p * lim f(t)/t = p * 1/2
        assert f_divergence(dist([1, 0]), dist([0, 1]), TOTAL_VARIATION) == pytest.approx(1.0)

    def test_chi_squared_hand_value(self):
        got = f_divergence(dist([0.5, 0.5]), dist([0.25, 0.75]), CHI_SQUARED)
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_nonnegativity_all_kinds(self):
        rng = np.random.default_rng(8)
        pairs = [random_pair(rng, int(rng.integers(2, 6))) for _ in range(200)]
        # sums differ within tolerance; plain sum p log(p/q) gives -1.44e-9 here
        pairs.append((dist([0.5, 0.5 - 5e-10]), dist([0.5, 0.5 + 5e-10])))
        for p, q in pairs:
            assert kl_divergence(p, q) >= 0.0
            for spec in (TOTAL_VARIATION, KL, CHI_SQUARED):
                assert f_divergence(p, q, spec) >= 0.0
                assert f_divergence(p, p, spec) == pytest.approx(0.0, abs=1e-12)

    def test_zero_zero_convention(self):
        # shared zero coordinate contributes nothing (0/0 := 1, f(1) = 0)
        p, q = dist([0.5, 0.5, 0.0]), dist([0.25, 0.75, 0.0])
        assert f_divergence(p, q, CHI_SQUARED) == pytest.approx(1 / 3, abs=1e-12)

    def test_custom_f_reproduces_chi_squared(self):
        spec = FDivergenceSpec(FKind.CUSTOM, custom_f=lambda t: (t - 1.0) ** 2)
        p, q = dist([0.5, 0.5]), dist([0.25, 0.75])
        assert f_divergence(p, q, spec) == pytest.approx(1 / 3, abs=1e-12)

    def test_custom_f_must_vanish_at_one(self):
        spec = FDivergenceSpec(FKind.CUSTOM, custom_f=lambda t: t)
        with pytest.raises(CustomFNotNormalized):
            f_divergence(dist([0.5, 0.5]), dist([0.25, 0.75]), spec)

    def test_custom_f_superlinear_growth_gives_infinity(self):
        spec = FDivergenceSpec(FKind.CUSTOM, custom_f=lambda t: t * math.log2(t) if t > 0 else 0.0)
        assert f_divergence(dist([1, 0]), dist([0, 1]), spec) == float("inf")

    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            FDivergenceSpec(FKind.CUSTOM)  # custom requires a callable
        with pytest.raises(ValueError):
            FDivergenceSpec(FKind.KL, custom_f=lambda t: 0.0)


# Entries are exactly 0 or drawn from [1e-11, 1]; normalizing by a sum of at
# most 6 keeps every nonzero probability at or above 1e-12.
_WEIGHT = st.one_of(st.just(0.0), st.floats(1e-11, 1.0))


def _weights(size):
    return st.lists(_WEIGHT, min_size=size, max_size=size).filter(lambda r: sum(r) > 0.0)


@st.composite
def _pair_and_channel(draw):
    k, m = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    p, q = (np.array(draw(_weights(k))) for _ in range(2))
    rows = np.array([draw(_weights(m)) for _ in range(k)])
    return (
        dist(p / p.sum()),
        dist(q / q.sum()),
        validate_channel(rows / rows.sum(axis=1, keepdims=True)),
    )


class TestKernelProperties:
    """Every built-in kind through the one (base, difference) kernel."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(_pair_and_channel())
    def test_nonnegative_zero_on_equal_and_data_processing(self, case):
        p, q, w = case
        pw, qw = pushforward(w, p), pushforward(w, q)
        for spec in (TOTAL_VARIATION, KL, CHI_SQUARED):
            d_in = f_divergence(p, q, spec)
            assert d_in >= 0.0
            assert f_divergence(p, p, spec) == 0.0
            assert f_divergence(pw, qw, spec) <= d_in * (1.0 + 1e-9) + 1e-12

    def test_batched_rows_equal_one_row_calls(self):
        # exact zeros on either side, including mass where the base has none
        rng = np.random.default_rng(2024)
        for m in (1, 2, 5, 7, 8, 13):
            base = rng.dirichlet(np.full(m, 0.5), size=40)
            other = rng.dirichlet(np.full(m, 0.5), size=40)
            base[rng.random(base.shape) < 0.2] = 0.0
            other[rng.random(other.shape) < 0.2] = 0.0
            diff = other - base
            for spec in (
                TOTAL_VARIATION,
                KL,
                CHI_SQUARED,
                FDivergenceSpec(FKind.CUSTOM, custom_f=lambda t: (t - 1.0) ** 2),
            ):
                kernel = _pair_divergence(spec)
                batched = kernel(base, diff)
                assert batched.shape == (40,)
                for i in range(40):
                    one = kernel(base[i], diff[i])
                    assert np.ndim(one) == 0
                    assert batched[i] == one
                # two column groups from one call, each as its own call gives
                split = m // 2
                if split:
                    left, right = kernel(base, diff, split)
                    assert np.array_equal(left, kernel(base[:, :split], diff[:, :split]))
                    assert np.array_equal(right, kernel(base[:, split:], diff[:, split:]))
