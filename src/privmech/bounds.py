"""Numerical certification of the contraction/privacy inequalities.

Every verdict is a closed-form function of the channel's exact certificates
(eta_tv, LDP level, maximal leakage and minimum entry, bundled in a
`PrivacyReport`); lemma 1 also needs the largest row-pair entry contrast and
its count of zero-zero pairs, which are kept with the report.
`run_all_checks` derives all nine verdicts from these numbers, which are
computed once per channel object and shared with `privacy_report`; each
public `check_*` picks its verdicts from the same derivation. An
inequality stated twice (thm2 and the upper LDP sandwich, thm4 and the upper
leakage sandwich) is decided once.

A verdict passes when lhs <= rhs + INEQ_SLACK; checks whose preconditions
fail are flagged `applicable=False` and pass vacuously (they are excluded
from exit-code aggregation).
"""
from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

from .core import INEQ_SLACK, Channel, json_float
from .coefficients import PrivacyReport, _certificates, _column_certificates, privacy_report


class BoundCheckResult(NamedTuple):
    """One inequality verdict: passed iff lhs <= rhs + INEQ_SLACK.

    Likelihood-ratio verdicts (see the product-form note) report the
    ratio-form numbers but decide `passed` on the equivalent unit-scale
    rearrangement, where the slack is meaningful. An immutable record, kept
    a named tuple because every certified channel builds nine of them.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    applicable: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": json_float(self.lhs),
            "rhs": json_float(self.rhs),
            "margin": json_float(self.margin),
            "passed": self.passed,
            "applicable": self.applicable,
            "note": self.note,
        }


# A record from its seven fields in order. The named tuple's generated __new__
# is a Python function that calls tuple.__new__(BoundCheckResult, fields);
# this calls it directly, a frame fewer for each of a channel's nine verdicts.
_record = partial(tuple.__new__, BoundCheckResult)


def _verdict(name, lhs, rhs, applicable=True, note="", holds=None) -> BoundCheckResult:
    """Passed iff lhs <= rhs + INEQ_SLACK, or iff `holds` when it is given
    (a product-form test, see below); vacuously when not applicable."""
    # Python floats: inf - inf is nan without a warning
    lhs = float(lhs)
    rhs = float(rhs)
    if holds is None:
        holds = lhs <= rhs + INEQ_SLACK
    passed = bool(holds) if applicable else True
    return _record((name, lhs, rhs, rhs - lhs, passed, applicable, note))


# The likelihood-ratio bounds compare quantities as large as 1/min_entry,
# where both the entries' own float resolution and any absolute slack are
# meaningless. Those verdicts report the ratio-form lhs/rhs but are DECIDED
# in the algebraically equivalent product form, whose terms are all of unit
# scale: e.g. ratio <= 1 + eta/min_entry becomes (ratio-1)*min_entry <= eta.
_PRODUCT_FORM_NOTE = "decided in the product form at unit scale"
# Past a level of ~1024 bits the ratio R overflows a double, while the level
# and every product stay finite; those verdicts report log2 of both sides.
_IN_BITS_NOTE = _PRODUCT_FORM_NOTE + "; lhs and rhs in bits, since R overflows"


def _pow2(bits: float) -> float:
    """2**bits, inf where that overflows (where Python's ** raises)."""
    try:
        return 2.0 ** bits
    except OverflowError:
        return math.inf


def _ldp_cap(alpha: float) -> float:
    """(2**a - 1)/(2**a + 1), the right side of thm1 and lemma1; 1 where
    2**a overflows, as it rounds to 1 from a = 54 on."""
    r = _pow2(alpha)
    return 1.0 if math.isinf(r) else (r - 1.0) / (r + 1.0)


def _report_verdicts(rep: PrivacyReport) -> dict[str, BoundCheckResult]:
    """The eight verdicts that depend on the report alone, by name, in output order."""
    eta, wstar, inf = rep.eta_tv, rep.min_entry, float("inf")
    ratio = _pow2(rep.ldp_level_bits)  # worst likelihood ratio R
    leak = 2.0 ** rep.maxl_bits  # column-max sum
    # thm4 and maxl_sandwich_upper are one inequality, which needs |X| >= 2
    many = rep.input_size >= 2
    thm4 = _verdict(
        "thm4", leak, 0.5 * rep.input_size * (1.0 + eta), many, "" if many else "single input"
    )
    # so are thm2 (R <= 1 + eta/w*) and ldp_sandwich_upper (R - 1 <= eta/w*),
    # whose right sides are infinite when the channel has a zero entry
    full = wstar > 0.0
    below_one = eta < 1.0
    lower = 2.0 * eta / (1.0 - eta) if below_one else inf
    q = eta / wstar if full else inf
    upper_holds = (ratio - 1.0) * wstar <= eta + INEQ_SLACK
    thm2, ldp_upper, ldp_lower = (ratio, 1.0 + q), (ratio - 1.0, q), (lower, ratio - 1.0)
    note = _PRODUCT_FORM_NOTE
    upper_note = note if full else "zero entry"
    if full and (math.isinf(ratio) or math.isinf(q)):
        # R or eta/w* overflows: thm2's sides are log2 R and log2(1 + eta/w*),
        # with eta/w* never formed
        bits, log_wstar = rep.ldp_level_bits, math.log2(wstar)
        thm2 = (bits, math.log2(eta + wstar) - log_wstar)
        if math.isinf(ratio):
            # a finite level whose R overflows: R - 1 rounds to R, and R * w* <= 1
            upper_holds = 2.0 ** (bits + log_wstar) <= eta + INEQ_SLACK
            ldp_upper, ldp_lower = thm2, (math.log2(lower), bits)
            note = upper_note = _IN_BITS_NOTE
        else:
            # R is finite but eta/w* overflows (w* is tiny): log2 of each side,
            # where R - 1 >= 2 eta > 0 by the lower LDP sandwich
            ldp_upper = (math.log2(ratio - 1.0), math.log2(eta) - log_wstar)
            upper_note += "; lhs and rhs in bits, since eta/w* overflows"
    return {
        v.name: v
        for v in (
            _verdict("thm1", eta, _ldp_cap(rep.ldp_level_bits)),
            _verdict("thm2", *thm2, full, upper_note, upper_holds),
            _verdict("thm3", eta, min(1.0, leak - 1.0)),
            thm4,
            _verdict("maxl_sandwich_lower", 1.0 + eta, leak),
            _record(("maxl_sandwich_upper", *thm4[1:])),
            _verdict(
                "ldp_sandwich_lower",
                *ldp_lower,
                below_one,
                note if below_one else "eta_tv = 1",
                2.0 * eta <= (ratio - 1.0) * (1.0 - eta) + INEQ_SLACK,
            ),
            _verdict("ldp_sandwich_upper", *ldp_upper, full, upper_note, upper_holds),
        )
    }


def _lemma1(alpha: float, contrast: float, skipped: int) -> BoundCheckResult:
    """Lemma 1 from the LDP level, the largest contrast and the count of
    skipped zero-zero pairs (see `coefficients._column_certificates`)."""
    applicable = not math.isinf(alpha)
    notes = [f"skipped {skipped} zero-zero triples"] if skipped else []
    if not applicable:
        notes.append("ldp level infinite")
    return _verdict(
        "lemma1", contrast, _ldp_cap(alpha), applicable=applicable, note="; ".join(notes)
    )


def check_thm1(w: Channel) -> BoundCheckResult:
    """Dobrushin coefficient <= (2**a - 1)/(2**a + 1) at the channel's LDP level.

    An infinite level gives the vacuous right side 1.
    """
    return _report_verdicts(privacy_report(w))["thm1"]


def check_thm2(w: Channel) -> BoundCheckResult:
    """Worst likelihood ratio <= 1 + eta_tv / (minimum entry).

    Only applicable to full-support channels; with a zero entry the right
    side is infinite.
    """
    return _report_verdicts(privacy_report(w))["thm2"]


def check_thm3(w: Channel) -> BoundCheckResult:
    """Dobrushin coefficient <= min(1, 2**a - 1) at the channel's leakage level."""
    return _report_verdicts(privacy_report(w))["thm3"]


def check_thm4(w: Channel) -> BoundCheckResult:
    """Column-max sum <= (|X|/2)(1 + eta_tv); equality at |X| = 2, not applicable at |X| = 1."""
    return _report_verdicts(privacy_report(w))["thm4"]


def check_maxl_sandwich(w: Channel):
    """1 + eta_tv <= column-max sum <= (|X|/2)(1 + eta_tv), as two verdicts."""
    v = _report_verdicts(privacy_report(w))
    return v["maxl_sandwich_lower"], v["maxl_sandwich_upper"]


def check_ldp_sandwich(w: Channel):
    """2*eta/(1 - eta) <= R - 1 <= eta / (minimum entry), where R is the
    worst likelihood ratio. Each side carries its own applicability flag."""
    v = _report_verdicts(privacy_report(w))
    return v["ldp_sandwich_lower"], v["ldp_sandwich_upper"]


def check_lemma1(w: Channel) -> BoundCheckResult:
    """Row-pair entry contrast |w1 - w2|/(w1 + w2) <= (2**a - 1)/(2**a + 1).

    Triples where both entries vanish are skipped (their contrast is the
    indeterminate 0/0); the count of skipped triples is recorded in the
    note. Not applicable when the LDP level is infinite.
    """
    # lemma 1 needs the column extremes and the LDP level, not eta_tv
    alpha, _, contrast, skipped = _column_certificates(w.rows)
    return _lemma1(alpha, contrast, skipped)


def run_all_checks(w: Channel) -> list[BoundCheckResult]:
    """Every verdict for one channel, in a fixed order, from one report.

    The report and the numbers lemma 1 reads are the channel's
    certificates, computed once per channel object (see `privacy_report`),
    so asking for the report and then for the verdicts makes one pass.
    """
    rep, contrast, skipped = _certificates(w)
    checks = list(_report_verdicts(rep).values())
    checks.append(_lemma1(rep.ldp_level_bits, contrast, skipped))
    return checks
