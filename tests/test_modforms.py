"""Tests for Eisenstein series, discriminants, and the quasimodular ring.

Numeric oracles are frozen table values (divisor sums, tau coefficients)
rather than recomputations through the library.  Recognition is checked
as an exact round trip plus both failure modes.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from k3series.series import Series, YLaurent, q_derive
from k3series.modforms import (
    InsufficientPrecision,
    NotQuasimodular,
    QModElement,
    bernoulli,
    c_form,
    discriminant_q,
    discriminant_yq,
    eisenstein,
    qmod_derive,
    qmod_expand,
    qmod_from_text,
    qmod_recognize,
    qmod_to_text,
    weight_basis,
)


def test_bernoulli_frozen_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(3) == 0 and bernoulli(11) == 0


def test_eisenstein_frozen_values():
    e2 = eisenstein(2, 6)
    assert [e2.coeff(k) for k in range(7)] == [1, -24, -72, -96, -168, -144, -288]
    e4 = eisenstein(4, 5)
    assert [e4.coeff(k) for k in range(6)] == [1, 240, 2160, 6720, 17520, 30240]
    e6 = eisenstein(6, 4)
    assert [e6.coeff(k) for k in range(5)] == [1, -504, -16632, -122976, -532728]


def test_discriminant_tau_values():
    d = discriminant_q(6)
    assert [d.coeff(k) for k in range(1, 7)] == [1, -24, 252, -1472, 4830, -6048]
    assert d.coeff(0) == 0


def test_discriminant_equals_eisenstein_combination():
    # 1728 Delta = E4^3 - E6^2
    order = 12
    e4 = eisenstein(4, order)
    e6 = eisenstein(6, order)
    lhs = discriminant_q(order).scale(Fraction(1728))
    assert lhs == e4 * e4 * e4 - e6 * e6


def test_refined_discriminant_first_row():
    d = discriminant_yq(2)
    # q-coefficient of q^1 is the constant 1; q^2 row is -(20 + 2y + 2/y)
    row1 = d.coeff(1)
    assert row1 == YLaurent({0: 1})
    row2 = d.coeff(2)
    assert row2 == YLaurent({0: -20, 1: -2, -1: -2})


def test_refined_discriminant_specializes_at_y_equal_one():
    order = 8
    d = discriminant_yq(order)
    plain = discriminant_q(order)
    for k in range(1, order + 1):
        assert d.coeff(k).evaluate_one() == plain.coeff(k)


def test_c_forms_scaled_eisenstein():
    s2, elem2 = c_form(2, 4)
    assert [s2.coeff(k) for k in range(5)] == [Fraction(-1, 24), 1, 3, 4, 7]
    assert qmod_expand(elem2, 4) == s2
    s4, _ = c_form(4, 3)
    assert s4.coeff(0) == Fraction(1, 2880)
    s6, _ = c_form(6, 2)
    assert s6.coeff(0) == Fraction(-1, 181440)


def test_weight_basis_dimensions():
    # monomial counts by exact weight: 1, 1, 2, 3, 4, 5, 7
    assert len(weight_basis(0)) == 1
    assert len(weight_basis(2)) == 2
    assert len(weight_basis(4)) == 4
    assert len(weight_basis(12)) == 23


def test_qmod_derive_matches_series_derivative():
    rng = random.Random(5)
    gens = [QModElement.generator(w) for w in (2, 4, 6)]
    order = 16
    for _ in range(20):
        elem = QModElement()
        for g in gens:
            power = rng.randint(0, 2)
            term = QModElement.unit()
            for _ in range(power):
                term = term * g
            elem = elem + term * Fraction(rng.randint(-4, 4))
        lhs = qmod_expand(qmod_derive(elem), order)
        rhs = q_derive(qmod_expand(elem, order + 1)).truncate(order)
        assert lhs == rhs


def test_recognize_round_trip_random():
    rng = random.Random(6)
    basis = weight_basis(10)
    for _ in range(25):
        elem = QModElement()
        for key in basis:
            if rng.random() < 0.3:
                elem = elem + QModElement({key: Fraction(
                    rng.randint(-5, 5), rng.randint(1, 3))})
        dim = len(basis)
        f = qmod_expand(elem, dim + 6)
        got = qmod_recognize(f, 10)
        assert got == elem


def test_recognize_rejects_non_quasimodular():
    f = Series("q", 0, [Fraction(1), Fraction(1)] + [Fraction(0)] * 20, 21)
    with pytest.raises(NotQuasimodular):
        qmod_recognize(f, 6)


def test_recognize_needs_enough_coefficients():
    f = qmod_expand(QModElement.generator(4), 8)
    with pytest.raises(InsufficientPrecision):
        qmod_recognize(f, 8)


def test_recognize_rejects_poles():
    f = Series("q", -1, [Fraction(1)] * 30, 28)
    with pytest.raises(ValueError):
        qmod_recognize(f, 4)


def test_qmod_text_round_trip():
    elem = QModElement.generator(2) * QModElement.generator(4) * Fraction(3, 7)
    elem = elem + QModElement.unit() * Fraction(-1, 2)
    back = qmod_from_text(qmod_to_text(elem))
    assert back == elem


def test_qmod_text_rejects_zero_denominator():
    with pytest.raises(ValueError):
        qmod_from_text("E2^1*E4^0*E6^0: 1/0\n")


def test_ramanujan_derivation_rules():
    e2 = QModElement.generator(2)
    e4 = QModElement.generator(4)
    e6 = QModElement.generator(6)
    assert qmod_derive(e2) == (e2 * e2 - e4) * Fraction(1, 12)
    assert qmod_derive(e4) == (e2 * e4 - e6) * Fraction(1, 3)
    assert qmod_derive(e6) == (e2 * e6 - e4 * e4) * Fraction(1, 2)
