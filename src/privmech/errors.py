"""Exception hierarchy for validation and precondition failures."""


class PrivmechError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PrivmechError, ValueError):
    """A raw vector or matrix failed stochasticity validation."""


class EmptyVector(ValidationError):
    """Probability vector of length zero."""


class EmptyMatrix(ValidationError):
    """Channel matrix with zero rows or zero columns."""


class RaggedRows(ValidationError):
    """Channel rows of unequal lengths."""


class _EntryError(ValidationError):
    """One bad entry, at `index` (the column, for a channel) of `row`."""

    def __init__(self, index, value, row=None):
        self.index = index
        self.row = row
        self.value = value
        where = f"row {row}, column {index}" if row is not None else f"index {index}"
        super().__init__(f"{self.what} entry {value!r} at {where}")


class NonFiniteEntry(_EntryError):
    """A probability entry is NaN or infinite."""
    what = "non-finite"


class NegativeEntry(_EntryError):
    """A probability entry is negative."""
    what = "negative"


class SumOutOfTolerance(ValidationError):
    """Vector entries do not sum to one within `core.SUM_TOL`."""

    def __init__(self, actual_sum, sum_tol):
        self.actual_sum = actual_sum
        self.sum_tol = sum_tol
        super().__init__(f"entries sum to {actual_sum!r}, not 1 within {sum_tol!r}")


class RowSumOutOfTolerance(ValidationError):
    """A channel row does not sum to one within `core.SUM_TOL`."""

    def __init__(self, row, actual_sum, sum_tol):
        self.row = row
        self.actual_sum = actual_sum
        self.sum_tol = sum_tol
        super().__init__(f"row {row} sums to {actual_sum!r}, not 1 within {sum_tol!r}")


class DimensionMismatch(PrivmechError, ValueError):
    """Operands defined on incompatible alphabets."""


class BudgetTooSmall(PrivmechError, ValueError):
    """Search budget below the minimum required evaluations."""


class InvalidK(PrivmechError, ValueError):
    """Alphabet size outside the mechanism's domain."""


class NegativeAlpha(PrivmechError, ValueError):
    """Privacy level must be nonnegative."""


class AlphaOutOfRange(PrivmechError, ValueError):
    """Privacy level outside the mechanism's admissible range."""


class InvalidSize(PrivmechError, ValueError):
    """Channel dimensions and alphabet sizes must be positive integers."""


class InvalidConcentration(PrivmechError, ValueError):
    """Dirichlet concentration must be a positive finite real."""


class SymbolOutOfRange(PrivmechError, ValueError):
    """An observed output symbol falls outside the expected alphabet."""


class BadDirectionVector(PrivmechError, ValueError):
    """Perturbation direction must be zero-sum with unit squared norm."""


class PreconditionNotMet(PrivmechError, ValueError):
    """A check's applicability condition failed.

    `condition` names the failed condition; `min_n` is the smallest sample
    size that satisfies it, or None when no sample size does.
    """

    def __init__(self, message, condition, min_n=None):
        self.condition = condition
        self.min_n = min_n
        super().__init__(message)

