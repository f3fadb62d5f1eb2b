import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmech import (
    CHI_SQUARED,
    KL,
    TOTAL_VARIATION,
    FKind,
    estimate_eta_f,
    f_divergence,
    kl_divergence,
    l2_distance_sq,
    pushforward,
    randomized_response,
    total_variation,
    validate_channel,
    validate_distribution,
)
from privmech import divergences
from privmech.divergences import _bracket_g, _kl_pair_bits, _pair_divergence, _quiet
from privmech.errors import DimensionMismatch

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

    @pytest.mark.parametrize(
        "t, bits",
        # 0.5 log2(0.5/(1 - t)) + 0.5 log2(0.5/t), to 20 digits (mpmath)
        [(1e-308, 510.57692661265380164), (1e-310, 513.89885470754116612)],
    )
    def test_finite_where_the_ratio_overflows(self, t, bits):
        # diff/base = 0.5/t passes 1e306, where (1 + x) log1p(x) overflows
        # (inf at 1e-308), and the double range at 1e-310 (x = inf, NaN)
        got = kl_divergence(dist([0.5, 0.5]), dist([1 - t, t]))
        assert got == pytest.approx(bits, rel=1e-15)

    @_quiet()
    def test_integrand_meets_an_exact_series_on_both_sides_of_the_cutoff(self):
        # g(x) = (1 + x) ln(1 + x) - x = sum_{n >= 2} (-x)^n / (n (n - 1)),
        # summed in rationals at each float x until a term is below 1e-20 of
        # the sum. The kernel reads its own series to |x| = 1e-2 and the
        # log1p form past it; that form cancels toward 0 (alone it loses
        # 3.4e-12 relative at x = -1.23e-4)
        grid = np.logspace(-10.0, math.log10(0.5), 201)
        xs = np.concatenate((grid, -grid, [1e-2, -1e-2, np.nextafter(1e-2, 1.0), np.nextafter(-1e-2, -1.0),
                                           1e-4, -1e-4, -1.23e-4, 1.5e-4]))
        for x, g in zip(xs, _bracket_g(xs)):
            t, power, exact, n = Fraction(float(x)), Fraction(float(x)) ** 2, Fraction(0), 2
            while n == 2 or abs(power) / (n * (n - 1)) > abs(exact) * Fraction(1, 10**20):
                exact += power / (n * (n - 1)) * (-1) ** n
                power *= t
                n += 1
            assert abs(g - float(exact)) <= 1e-13 * float(exact), x

    def test_integrand_picks_its_series_as_the_gather_form_did(self):
        # `_bracket_g` forms the series on every entry and picks it by
        # np.where; the gather form summed it on |x| <= 1e-2 alone and
        # scattered it back. Both sides of the cut, both zeros, x = -1 and the
        # next float up, and 1e306 and 1e308, where the series overflows and
        # is discarded, must give the same bits and no warning under _quiet()
        cut, below = 1e-2, math.nextafter(-1.0, 0.0)
        coeffs = [(-1.0) ** n / (n * (n - 1)) for n in range(9, 1, -1)]

        def gather(x):
            g = (1.0 + x) * np.log1p(np.maximum(x, below)) - x
            if np.abs(x).min() <= cut:
                small = np.abs(x) <= cut
                t = x[small]
                series = np.full_like(t, coeffs[0])
                for c in coeffs[1:]:
                    series = series * t + c
                g[small] = t * t * series
            return g

        edges = [c for e in (1e-2, -1e-2) for c in (e, np.nextafter(e, 0.0), np.nextafter(e, 2 * e))]
        grid = np.array(edges + [1e-4, -1e-4, 0.0, -0.0, -1.0, below, 1e306, 1e308, 0.5, -0.5, 3.0, 1e-300])
        far = np.array([-1.0, below, 0.5, 1e306, 1e308])  # no entry reads the series
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with _quiet():
                for x in (grid, far, grid.reshape(3, -1), np.linspace(-0.05, 0.05, 1001)):
                    assert _bracket_g(x).tobytes() == gather(x).tobytes(), x
                # x = 1e306 and 1e308: base * g overflows, and `_kl_pair_bits`
                # takes the log-difference branch
                base, diff = np.array([1e-2, 1e-2, 0.5]), np.array([1e304, 1e306, 1e-4])
                got = _kl_pair_bits(base, diff)
                b, d = base[:2], diff[:2]
                terms = np.append((b + d) * (np.log(b + d) - np.log(b)) - d, base[2] * gather(diff[2:] / base[2]))
                assert got == np.add.reduce(terms) / LN2
        assert caught == []

    def test_kernel_constants_are_read_only(self):
        consts = [v for v in vars(divergences).values() if isinstance(v, np.ndarray)]
        consts += divergences._SERIES
        assert len(consts) >= 14
        for c in consts:
            assert c.ndim == 0 and not c.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                c += 1.0

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

    def test_chi_squared_past_the_double_range_is_infinite(self):
        # 0.25/t: 2.5e307 at t = 1e-308, and 2.5e309 (inf) at 1e-310
        assert f_divergence(dist([0.5, 0.5]), dist([1 - 1e-308, 1e-308]), CHI_SQUARED) == pytest.approx(2.5e307)
        assert f_divergence(dist([0.5, 0.5]), dist([1 - 1e-310, 1e-310]), CHI_SQUARED) == float("inf")

    @pytest.mark.parametrize("spec", [KL, CHI_SQUARED], ids=["kl", "chi_squared"])
    def test_a_negative_zero_base_is_an_empty_symbol(self, spec):
        assert f_divergence(dist([0.5, 0.5]), dist([-0.0, 1.0]), spec) == float("inf")
        assert f_divergence(dist([0.0, 1.0]), dist([-0.0, 1.0]), spec) == 0.0

    def test_zero_zero_convention(self):
        # shared zero coordinate contributes nothing (0/0 := 1, f(1) = 0)
        p, q = dist([0.5, 0.5, 0.0]), dist([0.25, 0.75, 0.0])
        assert f_divergence(p, q, CHI_SQUARED) == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("spec", ["kl", None, 2, FKind], ids=["str", "none", "int", "enum_class"])
    def test_a_spec_that_is_not_a_kind_is_a_type_error(self, spec):
        # both public entry points reach the kernel table through _pair_divergence
        with pytest.raises(TypeError, match="TOTAL_VARIATION, KL or CHI_SQUARED"):
            f_divergence(dist([0.5, 0.5]), dist([0.25, 0.75]), spec)
        with pytest.raises(TypeError, match="TOTAL_VARIATION, KL or CHI_SQUARED"):
            estimate_eta_f(randomized_response(3, 1.0), spec, 100, 0)


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
    """Every FKind through the one (base, difference) kernel."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(_pair_and_channel())
    def test_nonnegative_zero_on_equal_and_data_processing(self, case):
        p, q, w = case
        pw, qw = pushforward(w, p), pushforward(w, q)
        for spec in FKind:
            d_in = f_divergence(p, q, spec)
            assert d_in >= 0.0
            assert f_divergence(p, p, spec) == 0.0
            assert f_divergence(pw, qw, spec) <= d_in * (1.0 + 1e-9) + 1e-12

    @_quiet()  # the kernels run under their callers' error state
    def test_batched_rows_equal_one_row_calls(self):
        # exact zeros on either side, including mass where the base has none
        rng = np.random.default_rng(2024)
        for m in (1, 2, 5, 7, 8, 13):
            base = rng.dirichlet(np.full(m, 0.5), size=40)
            other = rng.dirichlet(np.full(m, 0.5), size=40)
            base[rng.random(base.shape) < 0.2] = 0.0
            other[rng.random(other.shape) < 0.2] = 0.0
            diff = other - base
            for spec in FKind:
                kernel = _pair_divergence(spec)
                batched = kernel(base, diff)
                assert batched.shape == (40,)
                for i in range(40):
                    one = kernel(base[i], diff[i])
                    assert np.ndim(one) == 0
                    assert batched[i] == one

    @_quiet()
    @pytest.mark.parametrize("spec", [KL, CHI_SQUARED], ids=["kl", "chi_squared"])
    def test_a_row_that_takes_a_branch_leaves_the_other_rows_bits(self, spec):
        # seeded full-support rows, with no |x| = |diff/base| <= 1e-4 (2 of
        # their entries take KL's series, to |x| = 1e-2), give the same bits
        # alone and in a block with one row that takes a branch
        kernel = _pair_divergence(spec)
        rng = np.random.default_rng(15)
        base = rng.dirichlet(np.ones(6), size=30)
        diff = rng.dirichlet(np.ones(6), size=30) - base
        assert (np.abs(diff / base) > 1e-4).all()
        alone = [kernel(base[i], diff[i]) for i in range(30)]
        q = base[0]
        branches = {
            # |x| = 1e-10 or less: KL's series
            "small": (q, 1e-10 * np.array([1, -1, 2, -2, 0.5, -0.5])),
            # x = 0 exactly: the direct form, which is exact there
            "zero diff": (q, np.zeros(6)),
            # base 0: an empty symbol (0/0), and mass where the base has none
            "empty": (np.array([0.0, 0.2, 0.2, 0.2, 0.2, 0.2]), np.array([0.0, 0.1, -0.1, 0, 0, 0])),
            "escaped": (np.array([0.0, 0.2, 0.2, 0.2, 0.2, 0.2]), np.array([0.1, -0.1, 0, 0, 0, 0])),
            # x past 1e306: KL's overflow mend, and chi^2 past the double range
            "overflow": (np.array([1e-310, 0.2, 0.2, 0.2, 0.2, 0.2 - 1e-310]), np.array([0.3, -0.3, 0, 0, 0, 0])),
        }
        for name, (b, d) in branches.items():
            block = kernel(np.vstack((base, b)), np.vstack((diff, d)))
            assert [v.tobytes() for v in block[:30]] == [v.tobytes() for v in alone], name
            assert block[30].tobytes() == kernel(b, d).tobytes(), name
        assert kernel(*branches["escaped"]) == np.inf
        assert kernel(*branches["empty"]) == kernel(np.full(5, 0.2), np.array([0.1, -0.1, 0, 0, 0]))
        # the small row to full relative precision (the direct form of KL
        # would be off by about 1e-7 relative at |x| ~ 1e-9)
        b, d = branches["small"]
        x = d / b
        exact = (b * x * x * (0.5 - x / 6 + x * x / 12)).sum() / LN2 if spec is KL else (d * d / b).sum()
        assert kernel(b, d) == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert np.isfinite(kernel(*branches["overflow"])) == (spec is KL)

