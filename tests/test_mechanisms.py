import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from privmech import (
    Distribution,
    SimulationConfig,
    default_direction,
    dobrushin_coefficient,
    lecam_pair,
    ldp_level,
    max_leakage,
    maxl_staircase,
    pushforward,
    random_channel,
    randomized_response,
    staircase_rate,
    total_variation,
    validate_channel,
    validate_distribution,
    z_channel,
)
from privmech.errors import (
    AlphaOutOfRange,
    InvalidConcentration,
    InvalidK,
    InvalidSize,
    NegativeAlpha,
)


class TestRandomizedResponse:
    def test_binary_one_bit(self):
        w = randomized_response(2, 1.0)
        assert np.allclose(w.rows, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-15)

    def test_zero_bits_is_uniform(self):
        for k in (2, 3, 6):
            w = randomized_response(k, 0.0)
            assert np.allclose(w.rows, 1.0 / k, atol=1e-15)

    # the diagonal is added in place: the bytes of the dense eye form
    @pytest.mark.parametrize("alpha", [0.0, 1e-300, 0.5, 1.0, "log2k", 30.0, 1023.0])
    def test_bytes_match_the_eye_form(self, alpha):
        for k in range(2, 65):
            a = math.log2(k) if alpha == "log2k" else alpha
            r = 2.0 ** a
            denom = r + k - 1.0
            want = np.full((k, k), 1.0 / denom) + np.eye(k) * ((r - 1.0) / denom)
            assert randomized_response(k, a).rows.tobytes() == want.tobytes(), (k, a)

    def test_ternary_one_bit(self):
        w = randomized_response(3, 1.0)
        assert np.allclose(np.diag(w.rows), 0.5, atol=1e-15)
        assert dobrushin_coefficient(w) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 7])
    @pytest.mark.parametrize("alpha", [0.25, 1.0, 2.5])
    def test_ldp_level_equals_alpha(self, k, alpha):
        assert ldp_level(randomized_response(k, alpha)) == pytest.approx(alpha, abs=1e-12)

    def test_parameter_errors(self):
        with pytest.raises(InvalidK):
            randomized_response(1, 1.0)
        with pytest.raises(NegativeAlpha):
            randomized_response(3, -0.5)
        with pytest.raises(AlphaOutOfRange):
            randomized_response(3, float("inf"))

    @pytest.mark.parametrize("k,alpha", [(2, 0.5), (3, 1.0), (5, 2.0)])
    def test_uniform_contraction_equality(self, k, alpha):
        # output distance is exactly eta * input distance for every pair
        w = randomized_response(k, alpha)
        eta = (2.0 ** alpha - 1.0) / (2.0 ** alpha + k - 1.0)
        rng = np.random.default_rng(1000 + k)
        for _ in range(1000):
            p0 = validate_distribution(rng.dirichlet(np.ones(k)))
            p1 = validate_distribution(rng.dirichlet(np.ones(k)))
            lhs = total_variation(pushforward(w, p0), pushforward(w, p1))
            assert abs(lhs - eta * total_variation(p0, p1)) <= 1e-10


class TestZChannel:
    def test_one_bit_is_identity(self):
        assert np.array_equal(z_channel(1.0).rows, np.eye(2))

    def test_zero_bits_is_constant(self):
        w = z_channel(0.0)
        assert np.array_equal(w.rows, [[0.0, 1.0], [0.0, 1.0]])
        assert dobrushin_coefficient(w) == 0.0

    def test_half_bit_entries(self):
        w = z_channel(0.5)
        root2 = math.sqrt(2.0)
        assert np.allclose(w.rows, [[root2 - 1, 2 - root2], [0.0, 1.0]], atol=1e-15)

    @pytest.mark.parametrize("alpha", np.round(np.linspace(0.0, 1.0, 11), 10).tolist())
    def test_certificates_match_alpha(self, alpha):
        w = z_channel(alpha)
        assert max_leakage(w) == pytest.approx(alpha, abs=1e-12)
        assert dobrushin_coefficient(w) == pytest.approx(2.0 ** alpha - 1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [-0.1, 1.0001, 1.5])
    def test_rejects_out_of_range(self, alpha):
        # clamping would create a negative entry, so reject instead
        with pytest.raises(AlphaOutOfRange):
            z_channel(alpha)

    def test_uniform_contraction_equality(self):
        w = z_channel(0.7)
        eta = 2.0 ** 0.7 - 1.0
        rng = np.random.default_rng(77)
        for _ in range(1000):
            p0 = validate_distribution(rng.dirichlet(np.ones(2)))
            p1 = validate_distribution(rng.dirichlet(np.ones(2)))
            lhs = total_variation(pushforward(w, p0), pushforward(w, p1))
            assert abs(lhs - eta * total_variation(p0, p1)) <= 1e-10


class TestMaxlStaircase:
    def test_ternary_one_bit_layout(self):
        w = maxl_staircase(3, 1.0)
        expect = [[0.5, 0, 0, 0.5], [0, 0.5, 0, 0.5], [0, 0, 0.5, 0.5]]
        assert np.allclose(w.rows, expect, atol=1e-15)
        assert max_leakage(w) == pytest.approx(1.0, abs=1e-12)

    def test_binary_boundary_drops_dummy_mass(self):
        w = maxl_staircase(2, 1.0)  # pass-through rate 1
        assert np.array_equal(w.rows, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert max_leakage(w) == pytest.approx(1.0, abs=1e-12)

    def test_small_alpha_limit(self):
        w = maxl_staircase(3, 0.01)
        assert max_leakage(w) == pytest.approx(0.01, abs=1e-6)
        assert w.rows[:, 3].min() > 0.99

    @pytest.mark.parametrize("k", [3, 5, 6])
    def test_log2_k_boundary_accepted(self, k):
        # 2**log2(k) may land one ulp past k; the rate snaps to the boundary
        w = maxl_staircase(k, math.log2(k))
        assert max_leakage(w) == pytest.approx(math.log2(k), abs=1e-12)

    @pytest.mark.parametrize("k", [15, 20, 21])
    def test_log2_k_rounding_above_k_is_snapped(self, k):
        # 2**log2(15) = 15.000000000000002 > 15: accepted as the boundary
        assert 2.0 ** math.log2(k) > k
        assert staircase_rate(k, math.log2(k)) == 1.0
        assert np.array_equal(maxl_staircase(k, math.log2(k)).rows[:, k], np.zeros(k))

    def test_snap_is_limited_to_rounding(self):
        with pytest.raises(AlphaOutOfRange):
            maxl_staircase(3, math.log2(3) + 1e-8)

    def test_parameter_errors(self):
        with pytest.raises(InvalidK):
            maxl_staircase(1, 0.5)
        with pytest.raises(AlphaOutOfRange):
            maxl_staircase(3, 0.0)
        with pytest.raises(AlphaOutOfRange):
            maxl_staircase(2, 1.1)  # 2**1.1 > 2

    def test_pushforward_scales_source_coordinates(self):
        # first k output coordinates carry lam * p(x)
        k, alpha = 4, 1.3
        w = maxl_staircase(k, alpha)
        lam = staircase_rate(k, alpha)
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = validate_distribution(rng.dirichlet(np.ones(k)))
            q = pushforward(w, p)
            assert np.abs(q.probs[:k] - lam * p.probs).max() <= 1e-12
            assert q.probs[k] == pytest.approx(1.0 - lam, abs=1e-12)


@st.composite
def _named(draw):
    """(kind, k, alpha) across each named mechanism's whole domain, k in 2-64."""
    kind, k = draw(st.sampled_from(["rr", "staircase", "z"])), draw(st.integers(2, 64))
    if kind == "rr":
        return kind, k, draw(st.floats(0.0, 1023.0))
    if kind == "z":
        return kind, 2, draw(st.floats(0.0, 1.0))
    top = math.log2(k)  # 2**top may round past k, and is snapped to it
    return kind, k, draw(st.floats(1e-15, math.nextafter(top, math.inf)))


class TestStochasticByConstruction:
    """The named mechanisms build their Channel without `validate_channel`:
    every matrix they build must pass it unchanged, byte for byte."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(_named())
    # alpha 0, and a tiny alpha where 2**alpha rounds to 1 (r - 1 = 0)
    @example(("rr", 2, 0.0))
    @example(("rr", 64, 1e-300))
    @example(("z", 2, 0.0))
    @example(("z", 2, 1e-300))
    @example(("z", 2, 1.0))
    # alpha 1023: 2**a + k - 1 rounds to 2**a, the off-diagonal is 2**-1023
    @example(("rr", 2, 1023.0))
    @example(("rr", 64, 1023.0))
    # the log2(k) snap: 2**log2(15) = 15.000000000000002 is taken as 15
    @example(("staircase", 2, 1.0))
    @example(("staircase", 15, math.log2(15)))
    @example(("staircase", 64, 6.0))
    @example(("staircase", 3, math.nextafter(math.log2(3), math.inf)))
    @example(("staircase", 64, 1e-15))
    def test_validation_accepts_every_output_unchanged(self, case):
        kind, k, alpha = case
        if kind == "rr":
            w = randomized_response(k, alpha)
        elif kind == "z":
            w = z_channel(alpha)
        else:
            w = maxl_staircase(k, alpha)
        v = validate_channel(w.rows)
        assert v.rows.tobytes() == w.rows.tobytes() and v.rows.shape == w.rows.shape
        assert (v.input_size, v.output_size) == (w.input_size, w.output_size)
        assert type(w.input_size) is int and type(w.output_size) is int
        assert not w.rows.flags.writeable

    def test_numpy_k_gives_int_sizes(self):
        # the sizes are read off the matrix, so a numpy k still reports plain ints
        for w in (randomized_response(np.int64(3), 1.0), maxl_staircase(np.int64(3), 1.0)):
            assert type(w.input_size) is int and type(w.output_size) is int


class TestRandomChannel:
    def test_deterministic_per_seed(self):
        a = random_channel(2, 2, 1.0, seed=7)
        b = random_channel(2, 2, 1.0, seed=7)
        assert np.array_equal(a.rows, b.rows)

    def test_seeds_differ(self):
        a = random_channel(3, 3, 1.0, seed=0)
        b = random_channel(3, 3, 1.0, seed=1)
        assert not np.array_equal(a.rows, b.rows)

    def test_single_row_contracts_completely(self):
        w = random_channel(1, 5, 1.0, seed=3)
        assert dobrushin_coefficient(w) == 0.0

    def test_rows_are_valid(self):
        w = random_channel(3, 3, 1.0, seed=42)
        assert np.abs(w.rows.sum(axis=1) - 1.0).max() <= 1e-9

    @pytest.mark.parametrize("conc", [0.1, 1.0, 10.0])
    def test_concentration_regimes(self, conc):
        w = random_channel(6, 6, conc, seed=11)
        assert w.rows.shape == (6, 6)

    def test_parameter_errors(self):
        with pytest.raises(InvalidSize):
            random_channel(0, 3, 1.0, 0)
        with pytest.raises(InvalidSize):
            random_channel(3, 0, 1.0, 0)
        with pytest.raises(InvalidConcentration):
            random_channel(2, 2, 0.0, 0)
        with pytest.raises(InvalidConcentration):
            random_channel(2, 2, float("nan"), 0)


class TestSharedDomainCheck:
    """randomized_response, staircase_rate, SimulationConfig, lecam_pair and
    default_direction reject k and alpha through one validator."""

    @staticmethod
    def _calls(k, alpha):
        return {
            "randomized_response": lambda: randomized_response(k, alpha),
            "staircase_rate": lambda: staircase_rate(k, alpha),
            "SimulationConfig": lambda: SimulationConfig(
                k=k, alpha_bits=alpha, n=10, replicates=2, seed=0, source=Distribution.uniform(2)
            ),
            "lecam_pair": lambda: lecam_pair(k, alpha, 100, [2**-0.5, -(2**-0.5)]),
        }

    @pytest.mark.parametrize("k", [1, 0, 2.5, np.float64(3.0), "3", None])
    def test_bad_k(self, k):
        calls = {**self._calls(k, 1.0), "default_direction": lambda: default_direction(k)}
        for call in calls.values():
            with pytest.raises(InvalidK):
                call()

    # 2**2000 overflows a double
    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf"), 2000.0])
    def test_non_finite_alpha(self, alpha):
        for call in self._calls(2, alpha).values():
            with pytest.raises(AlphaOutOfRange):
                call()

    # 2**1e-20 rounds to 1, so 2**a - 1 is 0, as at a = 0
    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1e-20])
    def test_non_positive_alpha(self, alpha):
        calls = self._calls(2, alpha)
        rr = calls.pop("randomized_response")
        if alpha < 0.0:
            with pytest.raises(NegativeAlpha):
                rr()
        else:
            rr()  # a = 0 is the uniform channel
        for call in calls.values():
            with pytest.raises(AlphaOutOfRange):
                call()
