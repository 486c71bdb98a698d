"""The rational q-series kernels, pinned on a seeded corpus.

Every output of a rational kernel (series_inv, series_exp, series_log, the
rational and scalar products, q_derive, truncate, qmod_expand and the eta
products) is serialized with series_to_text and hashed per kernel, so any
change of a coefficient, a window floor or a certified order shows up here.
The inputs mix denominators, run from length 1 to 120, and include Laurent
series (min_exp -1).
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from k3series.kkv import format_rational, inv_discriminant_q
from k3series.modforms import QModElement, discriminant_q, qmod_expand
from k3series.series import (
    PrecisionError,
    Series,
    _row,
    q_derive,
    series_exp,
    series_inv,
    series_log,
    series_to_text,
    weighted_product,
)

LENGTHS = (1, 2, 3, 5, 8, 13, 24, 40, 77, 120)
DEFAULTS = (-24, -3, -1, 0, 1, 3, 24)
MAPS = ({}, {1: 2, 2: -3, 5: 1, 7: 0, 11: -24}, {3: -1, 4: 24, 9: 2}, {1: -24})
WP_ORDERS = (0, 1, 6, 31, 120)
DENS = (1, 1, 2, 3, 4, 5, 6, 7, 9, 12, 35)


def rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice(DENS))


def series(rng, lo, n, lead=None):
    """A q-series on [lo, lo + n - 1] with mixed denominators and a nonzero lead."""
    head = rational(rng) or Fraction(1, 3) if lead is None else lead
    return Series("q", lo, [head] + [rational(rng) for _ in range(n - 1)], lo + n - 1)


def corpus():
    """label -> list of series_to_text outputs, one list per kernel."""
    rng = random.Random(20100927)
    out = {}

    def put(kernel, s):
        out.setdefault(kernel, []).append(series_to_text(s))

    for n in LENGTHS:
        for lo in (0, -1):
            a, b = series(rng, lo, n), series(rng, lo, n + rng.randint(0, 3))
            put("series_inv", series_inv(a))
            put("mul", a * b)
            put("mul", b * series(rng, 1, max(n - 1, 1)))
            c = rational(rng)
            put("scale", a * c)
            put("scale", 3 * a)
            put("scale", a * 0)
            put("q_derive", q_derive(a))
            put("truncate", a.truncate(a.order - n // 2))
            put("truncate", a.truncate(a.min_exp - 1))
        unit = series(rng, 0, n, Fraction(1))
        put("series_log", series_log(unit))
        put("series_exp", series_exp(series(rng, 1, n)))
        put("series_exp", series_exp(Series("q", 2, [rational(rng)] * n, n + 1)))
        put("series_exp", series_log(series_exp(series(rng, 1, n))))
    for exponents in MAPS:
        for default in DEFAULTS:
            for order in WP_ORDERS:
                put("weighted_product", weighted_product(exponents, order, default))
    for order in (1, 2, 9, 40, 72, 120):
        put("discriminant_q", discriminant_q(order))
    for order in (-1, 0, 8, 40, 72, 119):
        put("inv_discriminant_q", inv_discriminant_q(order))
    for weight_terms in ({(0, 0, 0): 1}, {(1, 0, 0): Fraction(1, 3), (0, 1, 0): -2},
                         {(2, 1, 0): Fraction(-5, 12), (0, 0, 1): Fraction(7, 9),
                          (1, 0, 0): 4}):
        for order in (0, 1, 17, 40):
            put("qmod_expand", qmod_expand(QModElement(weight_terms), order))
    return out


PINNED = {
    "series_inv": "db5e19c28f2cdf1ab8969db277ac004ce1a1a1aeb9a96c58e7e515203eaa7655",
    "mul": "4f370b6c620adaa6d1c3f2bd3132c42b0f2a0c49f9aa1179a68cf9db5d9825dd",
    "scale": "b90285116c056f030ab74d0e28327360b0d072aaaeb945702ad5d2e0d66d7e4f",
    "q_derive": "77405bda8fd9b755c664dd48b1aaa1dcf90ee2183061862fcd74b0f5d3bb051c",
    "truncate": "9995da97726e29d2ce64b9fe0408f72d6262829e226f46c5fd216c012b2b3652",
    "series_log": "65e8358ba3e8f2b7b2f8bd758f3feb1e95bef7d9316006aff0b23a33e0306055",
    "series_exp": "7b4229a214cd9ed9558de1826c9691159d629d5d84daddaa45bbd0fc4804a830",
    "weighted_product": "6c136d391ba1d929131f8b8ec547c08b4fa50e687e885f0410dd44a758ac50ce",
    "discriminant_q": "e9d871b6243b1ea7a529b208c7d8a5cb48307d05d6d2fb36435e277aef591795",
    "inv_discriminant_q": "41b6d2ae73a9d3adabc6c2c82f125bf170a9e526ad0fc672365be6ece3251882",
    "qmod_expand": "99acc43539d07516790048250adbe7b2a9190382c24a2153aabfae99b1e61427",
}


def test_rational_kernel_corpus_is_pinned():
    got = {k: hashlib.sha256("".join(v).encode()).hexdigest() for k, v in corpus().items()}
    assert got == PINNED


# -- no Fraction per coefficient ------------------------------------------------

def row_backed(rng, lo, n, lead=None):
    """A row-backed series: the product of a Fraction-built series with 1."""
    return series(rng, lo, n, lead) * Series.one("q", lo + n + 3)


@pytest.mark.parametrize("n", [40, 120])
def test_rational_kernels_build_no_fraction_per_coefficient(monkeypatch, n):
    rng = random.Random(n)
    a, b, lau = row_backed(rng, 0, n), row_backed(rng, 0, n + 3), row_backed(rng, -1, n)
    unit, pos = row_backed(rng, 0, n, Fraction(1)), row_backed(rng, 1, n)
    elem, c = QModElement({(1, 0, 0): Fraction(1, 3), (0, 1, 0): 2}), Fraction(-3, 7)
    runs = {
        "series_inv": lambda: series_inv(a), "series_inv(Laurent)": lambda: series_inv(lau),
        "series_exp": lambda: series_exp(pos), "series_log": lambda: series_log(unit),
        "mul": lambda: a * b, "mul(Laurent)": lambda: lau * b, "scale": lambda: a * c,
        "rscale": lambda: 3 * lau, "q_derive": lambda: q_derive(lau),
        "truncate": lambda: a.truncate(n // 2),
        "weighted_product": lambda: weighted_product({1: 2, 5: -3}, n, -24),
        "discriminant_q": lambda: discriminant_q(n),
        "inv_discriminant_q": lambda: inv_discriminant_q.__wrapped__(n),
        "qmod_expand": lambda: qmod_expand(elem, n),
    }
    calls = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    counts = {}
    for name, run in runs.items():
        calls[0] = 0
        run()
        counts[name] = calls[0]
    monkeypatch.undo()
    assert max(counts.values()) <= 4, counts
    # a Fraction-built series is cleared once; a row-backed one builds its Fractions once
    built = series(rng, 0, n)
    assert _row(built) is _row(built)
    out = series_inv(a)
    assert out.coeffs is out.coeffs and all(type(x) is Fraction for x in out.coeffs)
    assert series_to_text(out) == series_to_text(Series("q", 0, list(out.coeffs), out.order))


def test_series_log_checks_the_constant_term_of_a_row():
    one = Series.one("q", 6)
    for lo, lead in ((0, Fraction(2)), (1, Fraction(1)), (-1, Fraction(1))):
        a = Series("q", lo, [lead, Fraction(1, 3)], lo + 1) * one
        with pytest.raises(ValueError, match="exact scalar 1 constant term"):
            series_log(a)
    with pytest.raises(PrecisionError, match="window does not reach exponent 0"):
        series_log(Series("q", -3, [Fraction(1)], -3) * Series.one("q", 0))
    assert series_log(one).window() == (7, 6)  # log 1 = 0 on the whole window


# -- an independent oracle for weighted_product ----------------------------------

def sieve_weighted_product(exponents, order, default=0):
    """prod (1 - q^n)^e(n) over int by the log-derivative recurrence.

    q d/dq log P = -sum_m c_m q^m with c_m = sum_{n | m} n e(n), read off a
    divisor sieve, and m p_m = -sum_{j=1..m} c_j p_{m-j}: O(order^2), and no
    pentagonal series.
    """
    c = [0] * (order + 1)
    for n in range(1, order + 1):
        for m in range(n, order + 1, n):
            c[m] += n * exponents.get(n, default)
    p = [1] + [0] * order
    for m in range(1, order + 1):
        p[m], rem = divmod(-sum(c[j] * p[m - j] for j in range(1, m + 1)), m)
        assert rem == 0
    return p


@pytest.mark.parametrize("default", DEFAULTS)
def test_weighted_product_matches_the_divisor_sieve(default):
    order = 150
    dense = {n: n % 5 - 2 for n in range(1, order + 1)}  # every factor folded in
    for exponents in ({}, {1: 2, 2: -3, 5: 1, 7: 0, 11: -24}, dense):
        got = weighted_product(exponents, order, default=default)
        want = sieve_weighted_product(exponents, order, default)
        assert got.window() == (0, order)
        assert got.coeffs == [Fraction(v) for v in want]
        assert all(type(v) is int for v in _row(got).nums)


def test_weighted_product_ignores_exponents_off_its_window():
    order = 12
    want = weighted_product({3: 5}, order, default=-1)
    assert weighted_product({0: 7, -2: 1, 3: 5, 13: 4, 40: -9}, order, default=-1) == want


def test_weighted_product_checks_its_integer_division():
    # (1 - q)^(1/2) is not over int: the first division by m leaves a remainder
    with pytest.raises(AssertionError):
        weighted_product({1: Fraction(1, 2)}, 4)


# -- rendering --------------------------------------------------------------------

def test_format_rational_renders_ints_and_fractions():
    cases = [(0, "0"), (-17, "-17"), (10 ** 30, str(10 ** 30)), (True, "1"), (False, "0"),
             (Fraction(-3, 7), "-3/7"), (Fraction(12, 4), "3"), (Fraction(-8, 2), "-4")]
    for x, want in cases:
        assert format_rational(x) == want
