import inspect

import numpy as np
import pytest

import privmech
from privmech import (
    Channel,
    Distribution,
    channel_from_dict,
    channel_to_dict,
    compose,
    distribution_from_dict,
    distribution_to_dict,
    pushforward,
    validate_channel,
    validate_distribution,
)
from privmech.core import EQ_TOL, INEQ_SLACK, SUM_TOL, _check_count
from privmech.errors import (
    DimensionMismatch,
    EmptyMatrix,
    EmptyVector,
    NegativeEntry,
    NonFiniteEntry,
    RaggedRows,
    RowSumOutOfTolerance,
    SumOutOfTolerance,
    ValidationError,
)


class TestNumericsPolicy:
    def test_defaults(self):
        assert SUM_TOL == 1e-9
        assert EQ_TOL == 1e-12
        assert INEQ_SLACK == 1e-10

    def test_no_public_callable_takes_a_tolerance(self):
        # the policy is the three constants, and no caller can set any of them
        def is_tolerance(param):
            return param == "tol" or param.endswith(("_tol", "_slack"))

        found, walked = [], 0
        for name in privmech.__all__:
            obj = getattr(privmech, name)
            if not callable(obj):
                continue
            walked += 1
            found += [
                (name, param)
                for param in inspect.signature(obj).parameters
                if is_tolerance(param)
            ]
        assert walked >= 50 and found == []


class TestValidateDistribution:
    def test_uniform_pair(self):
        d = validate_distribution([0.5, 0.5])
        assert d.alphabet_size == 2
        assert np.array_equal(d.probs, [0.5, 0.5])

    def test_sum_out_of_tolerance(self):
        with pytest.raises(SumOutOfTolerance) as exc:
            validate_distribution([0.7, 0.4])
        assert exc.value.actual_sum == pytest.approx(1.1)

    def test_tiny_sum_slack_accepted(self):
        d = validate_distribution([1 / 3, 1 / 3, 1 / 3 + 1e-16])
        assert d.alphabet_size == 3

    def test_negative_entry_reports_index(self):
        with pytest.raises(NegativeEntry) as exc:
            validate_distribution([0.5, 0.6, -0.1])
        assert exc.value.index == 2

    def test_empty(self):
        with pytest.raises(EmptyVector):
            validate_distribution([])

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteEntry):
            validate_distribution([float("nan"), 1.0])

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_infinite_entry_reports_index(self, bad):
        with pytest.raises(NonFiniteEntry) as exc:
            validate_distribution([0.5, 0.5, bad])
        assert exc.value.index == 2 and exc.value.row is None

    def test_no_renormalization(self):
        # entries are stored exactly as given, never rescaled
        raw = [0.25, 0.25, 0.5 + 1e-12]
        d = validate_distribution(raw)
        assert d.probs[2] == raw[2]

    def test_immutable(self):
        d = validate_distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 1.0

    def test_point_mass_and_uniform_helpers(self):
        p = Distribution.point_mass(4, 2)
        assert p.probs[2] == 1.0 and p.probs.sum() == 1.0
        u = Distribution.uniform(3)
        assert np.allclose(u.probs, 1 / 3)

    def test_not_a_vector(self):
        with pytest.raises(ValidationError, match="1-d vector"):
            validate_distribution([[0.5, 0.5], [0.5, 0.5]])

    def test_helpers_reject_empty_alphabets_and_outside_locations(self):
        with pytest.raises(EmptyVector):
            Distribution.uniform(0)
        with pytest.raises(EmptyVector):
            Distribution.point_mass(0, 0)
        with pytest.raises(DimensionMismatch):
            Distribution.point_mass(3, 3)


class TestCheckCount:
    # a count (sample size, replicates, budget) is a whole number in
    # [1, 2**63), the int64 range that Generator.multinomial takes
    @pytest.mark.parametrize(
        "value",
        [2**63, np.uint64(2**64 - 1), 10**400, 1e300, float("nan"), 2.5, 0],
        ids=["2**63", "uint64-max", "10**400", "1e300", "nan", "2.5", "0"],
    )
    def test_rejects_with_value_error(self, value):
        with pytest.raises(ValueError, match="n must be a whole number >= 1"):
            _check_count("n", value)

    @pytest.mark.parametrize(
        "value, expected",
        [(2000.0, 2000), (np.float64(2000.0), 2000), (np.int64(5), 5), (2**63 - 1, 2**63 - 1)],
        ids=["float", "float64", "int64", "int64-max"],
    )
    def test_returns_an_int(self, value, expected):
        got = _check_count("n", value)
        assert type(got) is int and got == expected

    @pytest.mark.parametrize("value", [10**5000, 10**400], ids=["10**5000", "10**400"])
    def test_a_huge_int_is_named_by_its_size(self, value):
        # 10**5000 is past Python's 4300-digit limit on int-to-str conversion
        with pytest.raises(ValueError) as info:
            _check_count("n", value)
        message = str(info.value)
        assert message.startswith("n must be a whole number >= 1 and < 2**63, got ")
        assert len(message) < 120, message


class TestValidateChannel:
    def test_identity(self):
        w = validate_channel([[1, 0], [0, 1]])
        assert (w.input_size, w.output_size) == (2, 2)

    def test_hand_checked_rows(self):
        w = validate_channel([[0.9, 0.1], [0.2, 0.8]])
        assert np.array_equal(w.rows, [[0.9, 0.1], [0.2, 0.8]])

    def test_row_sum_out_of_tolerance(self):
        with pytest.raises(RowSumOutOfTolerance) as exc:
            validate_channel([[0.5, 0.6], [0.2, 0.8]])
        assert exc.value.row == 0
        assert exc.value.actual_sum == pytest.approx(1.1)

    def test_row_sum_error_names_the_first_bad_row(self):
        # not the worst one: row 3 is further off than row 1
        rows = [[0.5, 0.5], [0.3, 0.7 + 3e-9], [0.2, 0.8 + 1e-10], [0.5, 0.9]]
        with pytest.raises(RowSumOutOfTolerance) as exc:
            validate_channel(rows)
        assert exc.value.row == 1 and exc.value.actual_sum == sum(rows[1])

    def test_negative_entry_reports_position(self):
        with pytest.raises(NegativeEntry) as exc:
            validate_channel([[0.5, 0.5], [1.2, -0.2]])
        assert (exc.value.row, exc.value.index) == (1, 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entry_reports_position(self, bad):
        with pytest.raises(NonFiniteEntry) as exc:
            validate_channel([[0.5, 0.5], [1.0, bad]])
        assert (exc.value.row, exc.value.index) == (1, 1)
        assert "row 1, column 1" in str(exc.value)

    def test_empty(self):
        with pytest.raises(EmptyMatrix):
            validate_channel([])
        with pytest.raises(EmptyMatrix):
            validate_channel([[], []])

    def test_ragged(self):
        with pytest.raises(RaggedRows):
            validate_channel([[1.0], [0.5, 0.5]])

    def test_not_a_matrix(self):
        with pytest.raises(ValidationError):
            validate_channel([0.5, 0.5])

    def test_degenerate_sizes_are_legal(self):
        assert validate_channel([[0.2, 0.3, 0.5]]).input_size == 1
        assert validate_channel([[1.0], [1.0]]).output_size == 1


class TestPushforward:
    def test_identity_fixes_everything(self):
        w = validate_channel([[1, 0], [0, 1]])
        p = validate_distribution([0.3, 0.7])
        assert np.array_equal(pushforward(w, p).probs, p.probs)

    def test_hand_product(self):
        w = validate_channel([[0.9, 0.1], [0.2, 0.8]])
        p = validate_distribution([0.5, 0.5])
        q = pushforward(w, p)
        assert np.allclose(q.probs, [0.55, 0.45], atol=1e-15)

    def test_rank_one_channel_forgets_input(self):
        w = validate_channel([[0.3, 0.7], [0.3, 0.7]])
        for raw in ([1, 0], [0, 1], [0.25, 0.75]):
            q = pushforward(w, validate_distribution(raw))
            assert np.allclose(q.probs, [0.3, 0.7], atol=1e-15)

    def test_dimension_mismatch(self):
        w = validate_channel([[1, 0], [0, 1]])
        with pytest.raises(DimensionMismatch):
            pushforward(w, validate_distribution([1 / 3, 1 / 3, 1 / 3]))

    def test_output_always_valid(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            kx, ky = rng.integers(1, 7, size=2)
            w = validate_channel(rng.dirichlet(np.ones(ky), size=kx))
            p = validate_distribution(rng.dirichlet(np.ones(kx)))
            q = pushforward(w, p)
            validate_distribution(q.probs)  # closure of the simplex

    def test_affine_in_the_distribution(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            k, m = rng.integers(1, 6, size=2)
            w = validate_channel(rng.dirichlet(np.ones(m), size=k))
            p0 = rng.dirichlet(np.ones(k))
            p1 = rng.dirichlet(np.ones(k))
            lam = rng.random()
            mixed = pushforward(w, validate_distribution(lam * p0 + (1 - lam) * p1))
            parts = lam * pushforward(w, validate_distribution(p0)).probs + (
                1 - lam
            ) * pushforward(w, validate_distribution(p1)).probs
            assert np.abs(mixed.probs - parts).max() <= EQ_TOL


class TestCompose:
    def test_identity_neutral(self):
        eye = validate_channel([[1, 0], [0, 1]])
        w = validate_channel([[0.9, 0.1], [0.2, 0.8]])
        assert np.allclose(compose(eye, w).rows, w.rows, atol=1e-15)

    def test_constant_channel_absorbs(self):
        w = validate_channel([[0.9, 0.1], [0.2, 0.8]])
        const = validate_channel([[0.3, 0.7], [0.3, 0.7]])
        out = compose(w, const)
        assert np.allclose(out.rows, [[0.3, 0.7], [0.3, 0.7]], atol=1e-15)

    def test_symmetric_square(self):
        # [[2/3,1/3],[1/3,2/3]] squared has off-diagonal 4/9
        w = validate_channel([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        ww = compose(w, w)
        assert np.allclose(ww.rows, [[5 / 9, 4 / 9], [4 / 9, 5 / 9]], atol=1e-15)

    def test_dimension_mismatch(self):
        w1 = validate_channel([[0.5, 0.3, 0.2]])
        w2 = validate_channel([[1, 0], [0, 1]])
        with pytest.raises(DimensionMismatch):
            compose(w1, w2)

    def test_associative_and_consistent_with_pushforward(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            a, b, c, d = rng.integers(1, 6, size=4)
            wa = validate_channel(rng.dirichlet(np.ones(b), size=a))
            wb = validate_channel(rng.dirichlet(np.ones(c), size=b))
            wc = validate_channel(rng.dirichlet(np.ones(d), size=c))
            left = compose(compose(wa, wb), wc).rows
            right = compose(wa, compose(wb, wc)).rows
            assert np.abs(left - right).max() <= EQ_TOL
            p = validate_distribution(rng.dirichlet(np.ones(a)))
            via_compose = pushforward(compose(wa, wb), p).probs
            via_stages = pushforward(wb, pushforward(wa, p)).probs
            assert np.abs(via_compose - via_stages).max() <= EQ_TOL


class TestJsonInterchange:
    def test_channel_round_trip(self):
        w = validate_channel([[0.9, 0.1], [0.2, 0.8]])
        d = channel_to_dict(w)
        assert list(d) == ["rows"]
        back = channel_from_dict(d)
        assert np.array_equal(back.rows, w.rows)

    def test_channel_from_dict_ignores_unknown_keys(self):
        back = channel_from_dict({"rows": [[1.0, 0.0], [0.0, 1.0]], "version": "x", "seed": 3})
        assert back.input_size == 2

    def test_channel_missing_rows(self):
        with pytest.raises(ValidationError):
            channel_from_dict({"tol": {"sum_tol": 1e-9}})

    def test_json_tol_of_any_shape_is_not_read(self):
        # older versions read "tol" as the row-sum slack; the slack is SUM_TOL now
        loose = [[0.7, 0.3 - 1e-7], [0.2, 0.8 + 1e-7]]
        exact = [[0.7, 0.3], [0.2, 0.8]]
        for tol in ({"sum_tol": 1e-6}, {}, {"sum_tol": "x"}, 5, None):
            with pytest.raises(RowSumOutOfTolerance) as exc:
                channel_from_dict({"rows": loose, "tol": tol})
            assert exc.value.row == 0 and exc.value.sum_tol == SUM_TOL
            assert np.array_equal(channel_from_dict({"rows": exact, "tol": tol}).rows, exact)

    @pytest.mark.parametrize(
        "raw",
        [[[{}]], [[0.5, object()]], {}, [["a", 0.5]], [["0.5", "0.5"]], [[10 ** 400, 0]],
         [[None, 1.0]]],
    )
    def test_non_numeric_channel_entries_are_validation_errors(self, raw):
        with pytest.raises(ValidationError, match="entries must be numbers") as exc:
            validate_channel(raw)
        assert not isinstance(exc.value, RaggedRows)

    @pytest.mark.parametrize(
        "raw", [[{}, 1], [0.5, object()], {}, ["0.5", "0.5"], [10 ** 400, 0], [None, 1.0]]
    )
    def test_non_numeric_distribution_entries_are_validation_errors(self, raw):
        with pytest.raises(ValidationError, match="entries must be numbers"):
            validate_distribution(raw)

    def test_integers_past_int64_in_the_double_range_are_numbers(self):
        with pytest.raises(RowSumOutOfTolerance) as exc:
            validate_channel([[0.5, 10 ** 30]])
        assert exc.value.actual_sum == 1e30

    def test_ragged_vector_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="unequal lengths"):
            validate_distribution([[1], [1, 2]])

    def test_distribution_round_trip(self):
        p = validate_distribution([0.25, 0.75])
        assert np.array_equal(distribution_from_dict(distribution_to_dict(p)).probs, p.probs)

    def test_distribution_missing_probs(self):
        with pytest.raises(ValidationError):
            distribution_from_dict({})
