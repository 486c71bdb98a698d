"""Low-genus closed forms via the stationary descendent theory of the fiber.

The descendent series T_0 = q d/dq C_2 and T_1 = q d/dq ((2/3)C_2^2 -
(1/3)C_4) generate the stationary invariants; products T_{k_1} ... T_{k_n}
over Delta give the n-point stationary series.  Pushing the boundary
expressions of low-genus Hodge classes through these series yields closed
forms for R_{1,h}, R_{2,h}, R_{3,h} which this module re-derives and checks
against the direct tables, identity by identity.  Each ring element is
written once, in _forms(); _IDENTITIES says how each identity is checked,
and _BOUNDARY weights the strata identities whose sum is each closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .series import first_mismatch, q_derive
from .modforms import QModElement, c_form, qmod_derive, qmod_expand
from . import kkv


@lru_cache(maxsize=None)
def _forms():
    """Every ring element behind the low-genus identities, by name (shared).

    A key that names a strata identity holds Delta times its right-hand side.
    """
    c2, c4, c6 = (c_form(weight, 0)[1] for weight in (2, 4, 6))
    return {
        "one": QModElement.unit(),
        "C2": c2,
        "C4": c4,
        "C6": c6,
        "T0": Fraction(-2) * c2 * c2 + Fraction(10) * c4,
        "T1_primitive": Fraction(2, 3) * c2 * c2 - Fraction(1, 3) * c4,
        "T1": Fraction(-8, 3) * c2 ** 3 + Fraction(16) * c2 * c4 - Fraction(7) * c6,
        "dC4": Fraction(-8) * c2 * c4 + Fraction(21) * c6,
        "dC6": Fraction(-12) * c2 * c6 + Fraction(160, 7) * c4 * c4,
        "qd_inv_delta": Fraction(24) * c2,
        "genus2_strata_qd2": Fraction(11, 5) * c2 * c2 + c4,
        "genus2_strata_T0": Fraction(-1, 5) * c2 * c2 + c4,
        "genus3_strata_qd3": (Fraction(1760) * c2 ** 3 + Fraction(2400) * c2 * c4
                              + Fraction(840) * c6),
        "genus3_strata_qd_T0": (Fraction(-480) * c2 ** 3 + Fraction(1440) * c2 * c4
                                + Fraction(2520) * c6),
        "genus3_strata_T1": (Fraction(-32) * c2 ** 3 + Fraction(192) * c2 * c4
                             - Fraction(84) * c6),
    }


# The eleven identities, in report order.  ("rule", f, df) checks q d/dq f = df
# as q-series, ("ring", f, df) checks it inside the ring, and
# ("strata", scale, n, f) checks scale (q d/dq)^n (f/Delta) = name/Delta.
_IDENTITIES = {
    "qd_C2": ("rule", "C2", "T0"),
    "qd_C4": ("rule", "C4", "dC4"),
    "qd_C6": ("rule", "C6", "dC6"),
    "qd_inv_delta": ("delta",),
    "T0_presentation": ("ring", "C2", "T0"),
    "T1_presentation": ("ring", "T1_primitive", "T1"),
    "genus2_strata_qd2": ("strata", Fraction(1, 240), 2, "one"),
    "genus2_strata_T0": ("strata", Fraction(1, 10), 0, "T0"),
    "genus3_strata_qd3": ("strata", Fraction(1, 6), 3, "one"),
    "genus3_strata_qd_T0": ("strata", Fraction(12), 1, "T0"),
    "genus3_strata_T1": ("strata", Fraction(12), 0, "T1"),
}

# genus -> [(strata identity, weight)]; the weighted sum of the identities'
# forms is the closed form, Delta times the Hodge row sum_h R_{g,h} q^{h-1}
_BOUNDARY = {
    1: [("qd_inv_delta", Fraction(-1, 12))],
    2: [("genus2_strata_qd2", Fraction(1)), ("genus2_strata_T0", Fraction(1))],
    3: [("genus3_strata_qd3", Fraction(-1, 1008)),
        ("genus3_strata_qd_T0", Fraction(-1, 1680)),
        ("genus3_strata_T1", Fraction(-1, 252))],
}


def t_form(k):
    """The descendent series T_k (k = 0 or 1) as an exact element.

    T_0 = q d/dq C_2 = -2 C_2^2 + 10 C_4
    T_1 = q d/dq ((2/3) C_2^2 - (1/3) C_4) = -(8/3) C_2^3 + 16 C_2 C_4 - 7 C_6

    Both presentations are verified against each other before returning.
    """
    if k not in (0, 1):
        raise ValueError("only T_0 and T_1 are available")
    forms = _forms()
    _, src, poly = _IDENTITIES[f"T{k}_presentation"]
    if qmod_derive(forms[src]) != forms[poly]:
        raise AssertionError(f"T_{k} presentations disagree")
    return forms[poly]


def stationary_series(ks, q_order):
    """(1/Delta) * prod T_{k_i}, certified from q^-1 through q^q_order."""
    acc = kkv.inv_discriminant_q(q_order + len(ks))
    for k in ks:
        acc = acc * qmod_expand(t_form(k), q_order + len(ks) + 1)
    return acc.truncate(q_order)


def _over_delta(elem, q_order):
    """expand(elem) / Delta, window q^-1 .. q^q_order."""
    return (qmod_expand(elem, q_order + 2) * kkv.inv_discriminant_q(q_order + 1)).truncate(q_order)


@lru_cache(maxsize=None)
def _identity(name, q_order):
    """(name, ok, first mismatching q-exponent or None) for one identity."""
    forms = _forms()
    kind, *spec = _IDENTITIES[name]
    ring_ok = True
    if kind == "rule":
        left = q_derive(qmod_expand(forms[spec[0]], q_order))
        right = qmod_expand(forms[spec[1]], q_order)
    elif kind == "ring":
        # ring-level equality, expanded only so a failure can be located
        derived = qmod_derive(forms[spec[0]])
        left, right = qmod_expand(derived, q_order), qmod_expand(forms[spec[1]], q_order)
        ring_ok = derived == forms[spec[1]]
    elif kind == "delta":
        inv_d = kkv.inv_discriminant_q(q_order + 1)
        left = q_derive(inv_d)
        right = qmod_expand(forms[name], q_order + 2) * inv_d
        ring_ok = min(left.order, right.order) >= q_order
    else:
        scale, n, form = spec
        left = _over_delta(forms[form], q_order)
        for _ in range(n):
            left = q_derive(left)
        left = scale * left
        right = _over_delta(forms[name], q_order)
    bad = first_mismatch(left, right)
    return name, bad is None and ring_ok, bad


def identity_details(q_order=30):
    """The eleven identities with mismatch positions: [(name, ok, exponent)].

    The exponent entry is None when the identity holds; otherwise it is the
    first q-exponent where the two sides disagree, for error reporting.
    """
    return [_identity(name, q_order) for name in _IDENTITIES]


def identity_checks(q_order=30):
    """The eleven exact identities behind the low-genus closed forms.

    Three generator derivation rules and the discriminant rule hold as
    q-series identities (independently validating qmod_derive); the two
    T-presentations are checked inside the ring; the remaining five are the
    genus-2 and genus-3 strata evaluations.  Returns [(name, bool)].
    """
    return [(name, ok) for name, ok, _ in identity_details(q_order)]


@dataclass
class BoundaryReport:
    genus: int
    h_max: int
    closed_form: QModElement
    intermediate_checks: list
    matches_kkv: bool


def boundary_R(genus, h_max, q_order=30):
    """Assemble the closed form for R_{genus,h} and check it two ways.

    The closed form is the weighted sum of the genus's strata forms.  Those
    strata identities are verified as q-series to q_order, and the row
    generating function expand(closed)/Delta is compared against
    hodge_r_table entries for h <= h_max.
    """
    if genus not in _BOUNDARY:
        raise ValueError("closed forms cover genus 1, 2, 3")
    forms = _forms()
    weights = _BOUNDARY[genus]
    closed = sum((weight * forms[name] for name, weight in weights), QModElement())
    q_check = max(q_order, h_max + 2)
    strata = [_identity(name, q_check)[:2] for name, _ in weights]

    row_series = _over_delta(closed, max(h_max + 1, 1))
    table = kkv.hodge_r_table(genus, h_max)
    matches = all(row_series.coeff(h - 1) == table.value(genus, h)
                  for h in range(0, h_max + 1))
    return BoundaryReport(genus, h_max, closed, strata, matches)
