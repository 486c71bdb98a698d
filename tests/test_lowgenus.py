"""Tests for the descendent T-forms and the low-genus boundary formulas.

The T-form presentations are checked against their defining derivative
rules inside t_form itself; here we freeze the first expansion values
(hand-checked from the Eisenstein coefficients) and confirm the eleven
series identities plus the genus 1..3 boundary evaluations.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from k3series import lowgenus
from k3series.modforms import c_form, qmod_expand
from k3series.lowgenus import (
    boundary_R,
    identity_checks,
    identity_details,
    stationary_series,
    t_form,
)
from k3series.kkv import hodge_r_table


def test_t0_expansion_frozen():
    t0 = qmod_expand(t_form(0), 5)
    assert [t0.coeff(k) for k in range(6)] == [0, 1, 6, 12, 28, 30]


def test_t1_expansion_frozen():
    # [q^1] = E6/25920 - E2 E4/4320 + E2^3/5184 at q^1
    #       = -7/360 - 1/20 - 1/72 = -1/12
    t1 = qmod_expand(t_form(1), 4)
    assert [t1.coeff(k) for k in range(5)] == [
        0, Fraction(-1, 12), Fraction(1, 2), 9, Fraction(107, 3)]


def test_t_form_rejects_unknown_index():
    with pytest.raises(ValueError):
        t_form(2)


def test_identity_checks_all_pass():
    results = identity_checks(20)
    names = [name for name, _ in results]
    assert len(names) == 11
    assert len(set(names)) == 11
    for name, good in results:
        assert good, name


def test_identity_details_locate_nothing_when_passing():
    for name, good, bad in identity_details(12):
        assert good and bad is None, name


def test_boundary_matches_hodge_rows():
    for genus in (1, 2, 3):
        rep = boundary_R(genus, 6, 20)
        assert rep.matches_kkv, genus
        for name, flag in rep.intermediate_checks:
            assert flag, name


def test_boundary_reuses_identity_details():
    # the appendixB suite's order: boundary_R reads its six strata identities
    # off what identity_details checked, and the ring forms are built once
    lowgenus._forms.cache_clear()
    lowgenus._identity.cache_clear()
    identity_details(24)
    for genus in (1, 2, 3):
        assert boundary_R(genus, 10, 24).matches_kkv, genus
    assert lowgenus._identity.cache_info().misses == 11
    assert lowgenus._forms.cache_info().misses == 1


def test_boundary_closed_forms_equal_the_hand_entered_ones():
    # Delta times the Hodge rows, as the KKV exponent gives them in C2, C4, C6
    c2, c4, c6 = (c_form(weight, 0)[1] for weight in (2, 4, 6))
    hand = {
        1: Fraction(-2) * c2,
        2: Fraction(2) * c2 * c2 + Fraction(2) * c4,
        3: -(Fraction(4, 3) * c2 ** 3 + Fraction(4) * c2 * c4 + Fraction(2) * c6),
    }
    for genus, want in hand.items():
        assert boundary_R(genus, 2, 10).closed_form == want, genus


def test_boundary_genus_one_closed_form():
    # R_{1,h} = -2 [q^{h-1}] C2/Delta; at h = 0 this is (-2)(-1/24) = 1/12
    rep = boundary_R(1, 0, 10)
    assert rep.matches_kkv
    R = hodge_r_table(1, 0)
    assert R.value(1, 0) == Fraction(1, 12)


def test_boundary_rejects_high_genus():
    with pytest.raises(ValueError):
        boundary_R(4, 3, 10)


def test_stationary_series_values():
    s = stationary_series([0], 4)
    assert [s.coeff(k) for k in range(5)] == [1, 30, 480, 5460, 49440]
    s2 = stationary_series([0, 0], 3)
    assert [s2.coeff(k) for k in range(4)] == [0, 1, 36, 672]
    s3 = stationary_series([], 2)
    # no insertions: plain 1/Delta with its q^-1 pole
    assert s3.coeff(-1) == 1 and s3.coeff(0) == 24


def test_stationary_series_mixed_insertion():
    s = stationary_series([0, 1], 3)
    t0 = qmod_expand(t_form(0), 6)
    t1 = qmod_expand(t_form(1), 6)
    prod = t0 * t1
    # leading coefficient: [q^2] T0*T1 = 1 * (-1/12) + 6 * 0 = -1/12, shifted by q^-1
    assert s.coeff(1) == prod.coeff(2)
