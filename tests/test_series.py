"""Tests for the exact truncated series layer.

Oracles are computed here with independent code paths (plain integer
convolutions, pentagonal-number recurrences) rather than by calling the
library twice.  Window rules are exercised directly: a result is only
compared on the window the arithmetic certifies.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from k3series.series import (
    PrecisionError,
    Series,
    YLaurent,
    _w_numerators,
    q_derive,
    series_exp,
    series_from_text,
    series_inv,
    series_log,
    series_to_text,
    sin_half_square,
    symmetric_to_z,
    trig_substitute,
    weighted_product,
)


def partition_counts(n_max):
    """p(0..n_max) via Euler's pentagonal recurrence (independent oracle)."""
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def convolve(a, b, n_max):
    out = [0] * (n_max + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > n_max:
            continue
        for j, bj in enumerate(b):
            if i + j > n_max:
                break
            out[i + j] += ai * bj
    return out


def eta24_inverse(n_max):
    """Coefficients of prod (1-q^n)^(-24) by repeated convolution."""
    p = partition_counts(n_max)
    p2 = convolve(p, p, n_max)
    p4 = convolve(p2, p2, n_max)
    p8 = convolve(p4, p4, n_max)
    p16 = convolve(p8, p8, n_max)
    return convolve(p16, p8, n_max)


def test_weighted_product_matches_pentagonal_partitions():
    # prod (1-q^n)^(-1) is the partition generating function
    n_max = 40
    s = weighted_product({}, n_max, default=-1)
    p = partition_counts(n_max)
    assert [s.coeff(k) for k in range(n_max + 1)] == p


def test_inverse_discriminant_against_convolution_oracle():
    n_max = 24
    prod = weighted_product({}, n_max, default=-24)
    oracle = eta24_inverse(n_max)
    assert [prod.coeff(k) for k in range(n_max + 1)] == oracle
    # and the first shifted values are the classic 1, 24, 324, 3200
    assert oracle[:4] == [1, 24, 324, 3200]


def test_series_window_floor_and_order():
    s = Series("q", 1, [Fraction(1), Fraction(2)], 2)
    assert s.coeff(0) == 0
    assert s.coeff(1) == 1
    with pytest.raises(PrecisionError):
        s.coeff(3)
    with pytest.raises(PrecisionError):
        s.truncate(5)
    t = s.truncate(0)
    assert t.window() == (1, 0)  # empty window is legal


def test_mul_window_is_pessimistic():
    a = Series("q", 0, [Fraction(1)] * 5, 4)
    b = Series("q", 2, [Fraction(1)] * 3, 4)
    c = a * b
    # first unknown product exponent is min(5 + 2, 5 + 0) = 5
    assert c.window() == (2, 4)
    d = a + b
    assert d.order == 4


def test_variable_mismatch_raises():
    a = Series("q", 0, [Fraction(1)], 0)
    b = Series("u", 0, [Fraction(1)], 0)
    with pytest.raises(ValueError):
        a * b


def test_series_ring_axioms_random():
    rng = random.Random(0)

    def rand_series():
        lo = rng.randint(-2, 2)
        hi = lo + rng.randint(0, 5)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(hi - lo + 1)]
        return Series("q", lo, coeffs, hi)

    for _ in range(60):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a + b == b + a
        assert a * b == b * a
        lhs = (a + b) * c
        rhs = a * c + b * c
        assert lhs == rhs
        assert (a * b) * c == a * (b * c)
        assert a + Series.zero("q", a.order, a.min_exp) == a


def test_leibniz_rule_random():
    rng = random.Random(1)

    def rand_series():
        hi = rng.randint(2, 6)
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(hi + 1)]
        return Series("q", 0, coeffs, hi)

    for _ in range(40):
        a, b = rand_series(), rand_series()
        assert q_derive(a * b) == q_derive(a) * b + a * q_derive(b)


def test_inverse_and_exp_log_round_trips():
    rng = random.Random(2)
    for _ in range(25):
        hi = rng.randint(3, 7)
        coeffs = [Fraction(1)] + [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                  for _ in range(hi)]
        a = Series("q", 0, coeffs, hi)
        inv = series_inv(a)
        prod = a * inv
        assert prod == Series.one("q", prod.order)
        assert series_exp(series_log(a)) == a

    arg = Series("q", 1, [Fraction(2), Fraction(-3)], 2)
    assert series_log(series_exp(arg)) == arg


def test_inverse_window_shrinks_for_late_lead():
    a = Series("q", 2, [Fraction(1), Fraction(5)], 3)
    inv = series_inv(a)
    # order - 2 * min_exp
    assert inv.window() == (-2, -1)


def test_exp_requires_positive_valuation():
    a = Series("q", 0, [Fraction(1), Fraction(1)], 1)
    with pytest.raises(ValueError):
        series_exp(a)


def test_log_requires_unit_constant_term():
    one_q = Series("q", 0, [Fraction(1), Fraction(0)], 1)
    for a in (Series("q", 0, [Fraction(2), Fraction(1)], 1),
              Series("q", 1, [Fraction(1)], 1),
              Series("q", -1, [Fraction(1), Fraction(1)], 0),
              Series("u", 0, [one_q, one_q], 1)):  # a q-series lead is not the scalar 1
        with pytest.raises(ValueError):
            series_log(a)


def test_equality_with_a_constant():
    # c is exact: the series must equal c at q^0 and vanish elsewhere on its window
    assert Series("q", 0, [Fraction(3), Fraction(0)], 1) == 3
    assert Series("q", -2, [], -3) == 5  # certified below q^0 only, where it is zero
    assert Series("q", 1, [Fraction(0)], 1) == 0
    for a, c in ((Series("q", 0, [Fraction(3), Fraction(0)], 1), 2),
                 (Series("q", 0, [Fraction(3), Fraction(1)], 1), 3),
                 (Series("q", -1, [Fraction(1), Fraction(3)], 0), 3),
                 (Series("q", 1, [Fraction(1)], 1), 0)):
        assert a != c
    row = YLaurent({1: 2, -1: 2})
    assert Series("q", 0, [row, YLaurent()], 1) == row
    assert Series("q", 0, [row, YLaurent()], 1) != row * 2


def test_inv_of_zero_lead_raises():
    a = Series("q", 0, [Fraction(0), Fraction(1)], 1)
    # normalization lifts the floor; the unit lead is then q^1
    inv = series_inv(a)
    assert inv.min_exp == -1
    b = Series("q", 0, [], -1)
    with pytest.raises((ValueError, PrecisionError)):
        series_inv(b)


def test_ylaurent_product_and_symmetry():
    y = YLaurent({1: 1})
    yinv = YLaurent({-1: 1})
    two = YLaurent({0: 2})
    p = (y + two) * (yinv + two)
    assert p.coeff(1) == 2 and p.coeff(-1) == 2 and p.coeff(0) == 5
    assert p.is_symmetric()
    assert not (y + two).is_symmetric()
    # (1 + 2yq)(1 + 2q/y) at the q^2 coefficient is 4
    q2 = (YLaurent({1: 2}) * YLaurent({-1: 2}))
    assert q2.coeff(0) == 4


def test_ylaurent_substitute_neg():
    p = YLaurent({2: 3, 1: 1, 0: -2, -1: 1, -2: 3})
    n = p.substitute_neg()
    assert n.coeff(1) == -1 and n.coeff(2) == 3 and n.coeff(0) == -2


def test_w_basis_and_z_basis():
    # y^2 + y^-2 = w^2 - 2 = (z + 2)^2 - 2 = z^2 + 4z + 2
    p = YLaurent({2: 1, -2: 1})
    assert _w_numerators(p) == ([-2, 0, 1], 1)
    assert symmetric_to_z(p) == [Fraction(2), Fraction(4), Fraction(1)]
    with pytest.raises(ValueError):
        _w_numerators(YLaurent({1: 1}))


def test_sin_half_square_series():
    s2 = sin_half_square(8)
    # (2 sin(u/2))^2 = u^2 - u^4/12 + u^6/360 - ...
    assert s2.coeff(2) == 1
    assert s2.coeff(4) == Fraction(-1, 12)
    assert s2.coeff(6) == Fraction(1, 360)
    assert s2.coeff(3) == 0


def test_trig_substitute_is_multiplicative():
    rng = random.Random(3)
    order = 10

    def rand_symmetric():
        deg = rng.randint(0, 3)
        terms = {}
        for d in range(deg + 1):
            c = Fraction(rng.randint(-5, 5))
            if c:
                terms[d] = terms.get(d, 0) + c
                if d:
                    terms[-d] = terms.get(-d, 0) + c
        return YLaurent(terms) if terms else YLaurent({0: 1})

    for _ in range(30):
        p, q = rand_symmetric(), rand_symmetric()
        lhs = trig_substitute(p * q, order)
        rhs = (trig_substitute(p, order) * trig_substitute(q, order)).truncate(order)
        assert lhs == rhs


def test_trig_substitute_base_case():
    # y + 1/y under y = -exp(iu) becomes s^2 - 2 with s = 2 sin(u/2)
    got = trig_substitute(YLaurent({1: 1, -1: 1}), 8)
    want = sin_half_square(8) - 2
    assert got == want


def horner_trig_substitute(p, order):
    """y = -e^{iu} through w = y + 1/y -> s^2 - 2: a Horner chain of Series products."""
    b, den = _w_numerators(p)
    base = sin_half_square(order) - 2
    acc = Series.monomial("u", 0, Fraction(b[-1], den), order)
    for d in range(len(b) - 2, -1, -1):
        acc = acc * base + Fraction(b[d], den)
    return acc.truncate(order)


def test_trig_substitute_matches_horner_reference():
    rng = random.Random(13)
    for i in range(400):
        terms = {}
        if i % 20:
            for d in range(rng.randint(0, 12) + 1):
                if rng.random() < 0.8:
                    terms[d] = terms[-d] = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        p = YLaurent(terms)
        for order in (i % 27 - 2, rng.randint(-2, 24)):
            if order < 0:
                # the reference's w -> s^2 - 2 cannot add 2 below u^0
                with pytest.raises(PrecisionError):
                    horner_trig_substitute(p, order)
                with pytest.raises(PrecisionError):
                    trig_substitute(p, order)
                continue
            got, want = trig_substitute(p, order), horner_trig_substitute(p, order)
            assert (got.var, got.min_exp, got.order) == (want.var, want.min_exp, want.order)
            assert got.coeffs == want.coeffs
            assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    for bad in (YLaurent({1: 1}), YLaurent({0: 1, 2: 1}), YLaurent({-1: 1, 1: 2})):
        with pytest.raises(ValueError):
            trig_substitute(bad, 6)


def test_symmetric_to_z_round_trip_random():
    rng = random.Random(4)
    for _ in range(30):
        deg = rng.randint(0, 4)
        zs = [Fraction(rng.randint(-7, 7)) for _ in range(deg + 1)]
        z = YLaurent({1: 1, 0: -2, -1: 1})
        acc = YLaurent({})
        zp = YLaurent({0: 1})
        for c in zs:
            acc = acc + zp * c
            zp = zp * z
        back = symmetric_to_z(acc)
        trimmed = list(zs)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        assert back == trimmed


def test_text_round_trip_preserves_window():
    s = Series("q", -1, [Fraction(1), Fraction(0), Fraction(-24), Fraction(252, 7)], 2)
    back = series_from_text(series_to_text(s))
    assert back == s
    assert back.window() == s.window()


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        series_from_text("")
    with pytest.raises(ValueError):
        series_from_text("var=x order=3\n0: 1/1\n")
    with pytest.raises(ValueError):
        series_from_text("var=q order=0\n0: one\n")
    with pytest.raises(ValueError):
        series_from_text("var=q order=1\n0: 1/0\n1: 0/1\n")
    with pytest.raises(ValueError):
        series_from_text("var=q order=3\n0: 1/1\n1: 1/1\n")
    with pytest.raises(ValueError):
        series_from_text("var=q order=3\n-1: 1/1\n0: 1/1\n2: 1/1\n3: 1/1\n")


def test_binomial_weighted_product_negative_exponent():
    # (1-q)^(-3) has coefficients C(k+2, 2)
    s = weighted_product({1: -3}, 8)
    assert [s.coeff(k) for k in range(9)] == [comb(k + 2, 2) for k in range(9)]


def test_exp_matches_factorial_series():
    a = Series("q", 1, [Fraction(1)] + [Fraction(0)] * 7, 8)
    e = series_exp(a)
    assert [e.coeff(k) for k in range(9)] == [Fraction(1, factorial(k)) for k in range(9)]
