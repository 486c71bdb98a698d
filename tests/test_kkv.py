"""Tests for the BPS, Hodge, and stable-pairs table builders.

Small rows are frozen from independent hand expansions of the refined
discriminant product (the h = 1 and h = 2 rows are short enough to
multiply out by hand).  Structural identities cross-check the rest:
two code paths must agree wherever they overlap.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from k3series import kkv, series
from k3series.modforms import _sigma_table, bernoulli
from k3series.series import (
    Series,
    YLaurent,
    _row,
    series_exp,
    series_inv,
    series_log,
    sin_half_square,
    trig_substitute,
)
from k3series.kkv import (
    InvariantTable,
    _ascending_extract,
    _inv_s2,
    bps_r_table,
    bps_transform_check,
    euler_pk,
    format_rational,
    gw_pairs_check,
    gw_point_factor,
    hodge_r_series,
    hodge_r_table,
    inv_discriminant_q,
    inv_discriminant_yq,
    inverse_euler_pk,
    ky_euler_table,
    log_identity_check,
    pairs_point_factor,
    pairs_signed_Z,
    point_series_gw,
    point_series_pairs,
    point_series_pairs_upto,
    quasimodularity_audit,
    signed_euler_table,
)


def test_bps_rows_from_hand_expansion():
    """[q^0] and [q^1] of 1/Delta(y,q) expanded by hand give rows 1 and 2.

    [q^0] = 20 + 2y + 2/y            = 2z + 24
    [q^1] = 3y^2+42y+234+42/y+3/y^2  = 3z^2 + 54z + 324
    """
    r = bps_r_table(2, 2)
    assert r.value(0, 1) == 24 and r.value(1, 1) == -2
    assert r.value(0, 2) == 324 and r.value(1, 2) == -54 and r.value(2, 2) == 3
    assert r.value(0, 0) == 1


def test_bps_genus_zero_is_inverse_discriminant():
    h_max = 12
    r = bps_r_table(0, h_max)
    inv = inv_discriminant_q(h_max)
    for h in range(h_max + 1):
        assert r.value(0, h) == inv.coeff(h - 1)


def test_bps_integrality_and_vanishing():
    r = bps_r_table(6, 5)
    for (g, h), v in r.entries.items():
        assert v.denominator == 1
        if g > h:
            assert v == 0


def test_integer_tables_hold_ints():
    euler = ky_euler_table(12, 10)
    for table in (bps_r_table(8, 10), euler, signed_euler_table(euler),
                  point_series_pairs(2, 12, 8)):
        assert all(type(v) is int for v in table.entries.values()), table.kind


def _halved_inv_discriminant_yq(monkeypatch):
    # rows of 1/Delta(y,q) over 2: row h = 1 has odd numerators, so some
    # Euler characteristics and BPS counts are halves
    def halved(order, plain=kkv.inv_discriminant_yq):
        inv = plain(order)
        return Series("q", inv.min_exp, [_row(c) * Fraction(1, 2) for c in inv.coeffs], inv.order)
    monkeypatch.setattr(kkv, "inv_discriminant_yq", halved)


def test_euler_integrality_check_fires(monkeypatch):
    _halved_inv_discriminant_yq(monkeypatch)
    with pytest.raises(AssertionError, match="Euler characteristic is not an integer"):
        ky_euler_table(6, 3)


def test_bps_integrality_check_fires(monkeypatch):
    _halved_inv_discriminant_yq(monkeypatch)
    with pytest.raises(AssertionError, match="is not an integer"):
        bps_r_table(4, 3)


def test_refined_row_one_is_symmetric():
    inv = inv_discriminant_yq(1)
    row = inv.coeff(0)
    assert row == YLaurent({0: 20, 1: 2, -1: 2})


def test_hodge_frozen_values():
    R = hodge_r_table(2, 2)
    assert R.value(1, 0) == Fraction(1, 12)
    assert R.value(1, 1) == 0
    assert R.value(2, 1) == Fraction(1, 10)
    assert R.value(1, 2) == -27


def test_hodge_h0_row_is_inverse_sine_square():
    # the q^-1 row of the Hodge series is (u / (2 sin(u/2)))^2
    g_max = 6
    R = hodge_r_table(g_max, 1)
    s2 = sin_half_square(2 * g_max + 4)
    inv = series_inv(s2)
    for g in range(g_max + 1):
        assert R.value(g, 0) == inv.coeff(2 * g - 2)


@pytest.mark.parametrize("g_max, h_max", [(0, 0), (1, 3), (3, 1), (4, 4), (6, 2)])
def test_point_series_gw_k0_equals_hodge_table(g_max, h_max):
    # the margin bivariate of point_series_gw and the exact-size Hodge series
    # give the same (g, h) entries
    assert point_series_gw(0, g_max, h_max)[1].entries == hodge_r_table(g_max, h_max).entries


def test_audit_rows_below_outer_floor_are_zero():
    # for g < k the u^{2g-2} row lies below the floor u^{2k-2} of the k-point
    # series, an exact scalar zero, and is recognized as the zero element
    rows = {(k, g): elem for k, g, elem in quasimodularity_audit(2, 3)}
    assert len(rows) == 12
    assert sorted(kg for kg, elem in rows.items() if elem.is_zero()) == [(1, 0), (2, 0), (2, 1)]


def test_hodge_series_odd_rows_vanish():
    biv = hodge_r_series(8, 4)
    for odd in (-1, 1, 3, 5, 7):
        row = biv.coeff(odd)
        if isinstance(row, Series):
            assert row.is_zero_on_window()
        else:
            assert row == 0


def _hodge_oracle(u_order, q_order):
    """u^-2/Delta(q) as a one-row u-series times a separate exp of the Bernoulli-Eisenstein sum."""
    pre = Series("u", -2, [_row(inv_discriminant_q(q_order + 1))] + [Fraction(0)] * (u_order + 4),
                 u_order + 2)
    return pre * series_exp(kkv._bernoulli_eisenstein(u_order + 2, q_order + 2))


# every window of the grid, plus windows below u^-2 or q^-1 that raise ValueError
HODGE_CASES = [(u, q) for u in range(-2, 21) for q in range(-1, 13)] + [(-3, 4), (-4, 0), (6, -3)]


def test_hodge_series_equals_product_oracle():
    # field by field, rows, windows and exact zeros included; a window the
    # oracle cannot build raises the same exception type
    for u_order, q_order in HODGE_CASES:
        try:
            want = _hodge_oracle(u_order, q_order)
        except Exception as exc:
            with pytest.raises(type(exc)):
                hodge_r_series(u_order, q_order)
            continue
        assert _fields(hodge_r_series(u_order, q_order)) == _fields(want), (u_order, q_order)


def _gw_point_factor_oracle(u_order, q_order):
    """The point factor from its divisor sums: [u^2g q^m] is (-1)^(g+1) 2 m sigma_{2g-1}(m) / (2g)!."""
    coeffs = [Fraction(0)] * max(u_order - 1, 0)
    for j in range(2, u_order + 1, 2):
        sig = _sigma_table(j - 1, q_order)
        inner = [(-1) ** (j // 2 + 1) * 2 * m * sig[m] for m in range(1, q_order + 1)]
        coeffs[j - 2] = YLaurent._normalized(1, inner, factorial(j), q_order)
    return Series("u", 2, coeffs, u_order)


def test_gw_point_factor_equals_divisor_sum_oracle():
    # field by field on every window u, q in 0..29; a window the oracle
    # cannot build raises the same exception type
    for u_order in range(30):
        for q_order in range(30):
            try:
                want = _gw_point_factor_oracle(u_order, q_order)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    gw_point_factor(u_order, q_order)
                continue
            assert _fields(gw_point_factor(u_order, q_order)) == _fields(want), (u_order, q_order)


@pytest.mark.parametrize("build, window", [(hodge_r_series, (-1, 5)), (gw_point_factor, (1, 4))])
def test_q_coeff_returns_q_series_or_exact_zero(build, window):
    # q_coeff is the edge from a windowed q-row to a q-Series of Fractions on
    # the row's window; an exact zero row comes back as the scalar Fraction(0)
    biv = build(6, 4)
    for j in range(biv.min_exp, biv.order + 1):
        got = kkv.q_coeff(biv, j)
        if j % 2:
            assert type(got) is Fraction and got == 0
            continue
        assert isinstance(got, Series) and got.var == "q" and got.window() == window
        assert all(type(c) is Fraction for c in got.coeffs)
        assert got.coeffs == [biv.coeff(j).coeff(k) for k in range(window[0], window[1] + 1)]


def test_transform_small_grid():
    rep = bps_transform_check(4, 4)
    assert rep.equal and rep.mismatches == []


def test_ky_euler_values():
    e = ky_euler_table(6, 2)
    assert [e.value(n, 0) for n in range(1, 7)] == [1, 2, 3, 4, 5, 6]
    assert e.value(0, 1) == 2
    assert e.value(1, 1) == 24
    assert e.value(-1, 2) == 3
    for (n, h), v in e.entries.items():
        assert v.denominator == 1


def test_ky_euler_vanishing_below_floor():
    e = ky_euler_table(4, 3)
    for h in range(4):
        floor = 1 - h
        assert (floor - 1, h) not in e.entries


def test_signed_euler_signs():
    e = ky_euler_table(4, 1)
    s = signed_euler_table(e)
    assert s.value(1, 0) == 1
    assert s.value(2, 0) == -2
    assert s.value(0, 1) == -2
    assert s.value(1, 1) == 24


def test_pairs_signed_Z_matches_table():
    for h in range(0, 4):
        num, rep = pairs_signed_Z(h, 8)
        assert rep["symmetric"], h
        assert rep["matches_signed_euler"], h
        assert rep["mismatches"] == []


def test_point_series_pairs_k0_equals_signed_euler():
    c0 = point_series_pairs(0, 8, 3)
    signed = signed_euler_table(ky_euler_table(8, 3))
    for (n, h), v in signed.entries.items():
        assert c0.value(0, n, h) == v


def test_point_series_pairs_k1_small_values():
    # numerator for (k, h) = (1, 1) is y - 2 + 1/y by hand; only n = 0 survives
    c1 = point_series_pairs(1, 4, 1)
    assert c1.value(1, 0, 1) == 1
    assert all(c1.value(1, n, 1) == 0 for n in range(1, 5))
    assert all(c1.value(1, n, 0) == 0 for n in range(1, 5))


def test_euler_pk_recovers_plain_euler_at_k0():
    combined = {}
    for j in range(0, 8):
        combined.update(point_series_pairs(j, 4, 2).entries)
    ct = InvariantTable("C_point", combined)
    e = ky_euler_table(4, 2)
    for h in range(0, 3):
        for n in range(1 - h, 5):
            if n + 2 * h - 1 < 0:
                continue
            assert euler_pk(ct, 0, n, h) == e.value(n, h)


def test_euler_pk_beyond_top_is_zero():
    ct = InvariantTable("C_point", {(0, 1, 0): Fraction(1)})
    assert euler_pk(ct, 5, 1, 0) == 0


def test_euler_pk_inverse_round_trip():
    combined = {}
    for j in range(0, 10):
        combined.update(point_series_pairs(j, 5, 2).entries)
    ct = InvariantTable("C_point", combined)
    for h in range(0, 3):
        for n in range(max(1 - h, 0), 6):
            m_top = n + 2 * h - 1
            if m_top < 0:
                continue
            e_vals = {(j, n, h): euler_pk(ct, j, n, h) for j in range(m_top + 1)}
            for k in range(0, min(m_top, 4) + 1):
                assert inverse_euler_pk(e_vals, k, n, h) == ct.value(k, n, h)


def test_gw_pairs_small_grid():
    for h in range(0, 3):
        for k in range(0, 3):
            rep = gw_pairs_check(h, k, 8)
            assert rep.equal, (h, k)
            assert rep.numerator_symmetric, (h, k)


def _fields(series):
    """A Series as (min_exp, order, coefficients); each row by its fields."""
    return (series.min_exp, series.order,
            [(c.lo, c.nums, c.den, c.hi) if isinstance(c, YLaurent) else (type(c), c)
             for c in series.coeffs])


def _padded_gw_bivariate(k, u_order, q_order):
    """Hodge series times the k-th point-factor power, padded past (u_order, q_order)."""
    biv = hodge_r_series(u_order + 2, q_order + 2)
    if k:
        biv = biv * gw_point_factor(u_order + 4, q_order + 3) ** k
    return biv


def test_gw_pairs_sides_match_padded_windows():
    # each side is built exactly through u^u_order; a padded build agrees there
    for h in range(0, 8):
        for k in range(0, 4):
            prod = inv_discriminant_yq(h + 1)
            if k:
                prod = prod * pairs_point_factor(h + 2) ** k
            numerator = _row(prod.coeff(h - 1)).substitute_neg() * Fraction((-1) ** k)
            for u in (0, 1, 2, 3, 8, 13):
                rep = gw_pairs_check(h, k, u)
                biv = _padded_gw_bivariate(k, 2 * (u // 2) + 4, h)
                gw = kkv.u_slice(biv, h - 1).truncate(u)
                pairs = (trig_substitute(numerator, u + 4) * _inv_s2(u + 4)).truncate(u)
                assert rep.gw_side.order == rep.pairs_side.order == u
                assert _fields(rep.gw_side) == _fields(gw), (h, k, u)
                assert _fields(rep.pairs_side) == _fields(pairs), (h, k, u)
                assert rep.equal, (h, k, u)


def test_point_and_audit_bivariates_keep_their_windows(monkeypatch):
    # every chain step is certified through the u^u_order it serves
    for k in range(0, 3):
        for g_max, h_max in ((1, 0), (2, 3), (4, 5)):
            biv, _ = point_series_gw(k, g_max, h_max)
            want = _padded_gw_bivariate(k, 2 * g_max - 2, max(h_max - 1, 0)).truncate(2 * g_max)
            assert _fields(biv) == _fields(want), (k, g_max, h_max)
    built = []
    exact = kkv._gw_point_bivariate
    monkeypatch.setattr(kkv, "_gw_point_bivariate",
                        lambda k, u, q: built.append((k, u, q)) or exact(k, u, q))
    quasimodularity_audit(2, 3)
    assert [k for k, _, _ in built] == [0, 1, 2]
    for k, u, q in built:
        want = _padded_gw_bivariate(k, u - 2, q - 2).truncate(u)
        assert _fields(exact(k, u, q)) == _fields(want), (k, u, q)


def test_gw_h0_k0_sides_are_inverse_sine_square():
    rep = gw_pairs_check(0, 0, 10)
    inv = series_inv(sin_half_square(12))
    # equality holds on the common certified window
    assert rep.gw_side == inv


def test_log_identity_small():
    rep = log_identity_check(6, 4)
    assert rep.bivariate_equal and rep.scalar_equal and rep.equal


def test_log_identity_scalar_side_is_the_bernoulli_sum():
    # log S(u) = sum_g (-1)^g B_2g/(2g (2g)!) u^2g, which is -1/2 the q^0 column
    # of the KKV exponent, the scalar side log_identity_check compares
    for order in range(1, 24):
        want = Series("u", 2, [Fraction((-1) ** (j // 2)) * bernoulli(j) / (j * factorial(j))
                               if j % 2 == 0 else Fraction(0) for j in range(2, order + 1)], order)
        got = Fraction(-1, 2) * kkv.u_slice(kkv._bernoulli_eisenstein(order, 0), 0)
        assert got.window() == want.window() and got == want, order
        log_s = Fraction(1, 2) * series_log(Series("u", 0, sin_half_square(order + 2).coeffs, order))
        assert log_s == want, order


def test_quasimodularity_audit_structure():
    rows = quasimodularity_audit(1, 2)
    for k, g, elem in rows:
        if elem.terms:
            assert elem.weight() <= 2 * g + 2 * k
            assert elem.is_homogeneous()
    # the genus-0, no-insertion row is Delta * (1/Delta) = 1
    first = dict(((k, g), elem) for k, g, elem in rows)
    assert first[(0, 0)].terms == {(0, 0, 0): 1}


def test_invariant_table_interfaces():
    t = bps_r_table(1, 1)
    assert t.value(0, 1) == 24
    with pytest.raises(KeyError):
        t.value(9, 9)
    csv = t.to_csv()
    assert csv.splitlines()[0] == "g,h,value"
    assert "0,1,24" in csv
    obj = t.to_json_obj()
    assert obj["kind"] == "r"
    assert {"g": 0, "h": 1, "value": "24"} in obj["rows"]


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 12)) == "-1/12"


def test_ascending_extract_on_rational_rows():
    # the table rows are integral; rational rows check the common denominator
    rng = random.Random(71)
    for _ in range(40):
        terms = {j: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                 for j in range(rng.randint(-5, 2), rng.randint(-2, 6))}
        row = YLaurent(terms)
        got, alternating = _ascending_extract(row, -8, 9), _ascending_extract(row, -8, 9, True)
        for n in range(-8, 10):
            want = sum((c * (n - j) for j, c in terms.items() if n - j >= 1), Fraction(0))
            assert got[n + 8] == want
            want = sum((c * (-1) ** (n - j - 1) * (n - j) for j, c in terms.items() if n - j >= 1),
                       Fraction(0))
            assert alternating[n + 8] == want


def _clear_kkv_caches():
    """Clear every lru_cache of kkv, so a run builds its products from scratch."""
    for obj in list(vars(kkv).values()):
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


@pytest.mark.parametrize("ks", [list(range(7)), [6] + list(range(6))])
def test_point_products_equal_powered_products(ks):
    # both point-insertion products equal the base times the k-th power of
    # their point factor, field by field, whatever order k is asked in; the
    # GW product is certified through the u^u_order its chain serves
    _clear_kkv_caches()
    for u_order, q_order in ((0, 0), (2, 1), (6, 3), (10, 5)):
        hodge = hodge_r_series(u_order, q_order)
        pf = gw_point_factor(u_order + 2, q_order + 1)
        for k in ks:
            want = (hodge * pf ** k).truncate(u_order) if k else hodge
            got = kkv._gw_point_bivariate(k, u_order, q_order)
            assert _fields(got) == _fields(want), (k, u_order, q_order)
    for h in (0, 1, 3, 6):
        inv = inv_discriminant_yq(max(h - 1, -1))
        pf = pairs_point_factor(max(h, 1))
        for k in ks:
            prod = inv * pf ** k if k else inv
            want = {j: _row(prod.coeff(j - 1)) * Fraction((-1) ** (k + 1)) for j in range(h + 1)}
            got = kkv.pairs_point_numerators(k, h)
            assert list(want) == list(range(h + 1))
            assert ({j: (r.lo, r.nums, r.den, r.hi) for j, r in got.items()}
                    == {j: (r.lo, r.nums, r.den, r.hi) for j, r in want.items()}), (k, h)


def _report_fields(rep):
    return (rep.h, rep.k, rep.u_order, _fields(rep.gw_side), _fields(rep.pairs_side),
            rep.numerator_symmetric, rep.equal)


@pytest.mark.parametrize("h_max, k_max, u_order", [(4, 2, 12), (7, 3, 13), (8, 3, 40), (0, 1, 3)])
def test_gw_pairs_grid_equals_each_check(h_max, k_max, u_order):
    # the grid reads every report off the largest windows; each equals the
    # report built at its own windows, field by field
    _clear_kkv_caches()
    grid = kkv.gw_pairs_grid(h_max, k_max, u_order)
    assert sorted(grid) == [(h, k) for h in range(h_max + 1) for k in range(k_max + 1)]
    _clear_kkv_caches()
    for (h, k), rep in grid.items():
        want = gw_pairs_check(h, k, u_order)
        assert _report_fields(rep) == _report_fields(want), (h, k)
        assert rep.equal and rep.numerator_symmetric, (h, k)


# the (h, k, u) points of the benchmark's yq-session gw_pairs_check grid
YQ_GRID = [(3, 0, 8), (4, 0, 12), (4, 1, 8), (5, 1, 12), (6, 2, 8), (7, 2, 12), (5, 3, 8)]


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_gw_pairs_checks_do_not_depend_on_the_order_asked(order):
    # one session asks every grid point in turn; each report equals the one
    # a cold call builds, whatever windows the session built before it
    cold = {}
    for point in YQ_GRID:
        _clear_kkv_caches()
        cold[point] = _report_fields(gw_pairs_check(*point))
    points = sorted(YQ_GRID, reverse=order == "descending")
    if order == "shuffled":
        random.Random(3).shuffle(points)
    _clear_kkv_caches()
    for point in points:
        assert _report_fields(gw_pairs_check(*point)) == cold[point], point


def _count_point_products(run):
    """(GW, pairs): the products run() makes from cold caches in which a
    point factor takes part, directly or through an earlier such product."""
    made, counts = {}, {"gw": 0, "pairs": 0}  # id -> (side, object kept alive)
    plain_mul = Series.__mul__

    def counting_mul(self, other):
        out = plain_mul(self, other)
        for side in {made[id(x)][0] for x in (self, other) if id(x) in made}:
            counts[side] += 1
            made[id(out)] = side, out
        return out

    with pytest.MonkeyPatch.context() as mp:
        for side, name in (("gw", "gw_point_factor"), ("pairs", "pairs_point_factor")):
            def recording(*args, side=side, plain=getattr(kkv, name)):
                out = plain(*args)
                made[id(out)] = side, out
                return out
            mp.setattr(kkv, name, recording)
        mp.setattr(Series, "__mul__", counting_mul)
        _clear_kkv_caches()
        run()
    return counts["gw"], counts["pairs"]


def test_point_chains_make_one_product_per_k():
    # a power pf ** k would add a product per squaring on top of base * pf^k
    assert _count_point_products(lambda: kkv.gw_pairs_grid(4, 2, 12)) == (2, 2)
    assert _count_point_products(lambda: quasimodularity_audit(2, 3)) == (2, 0)
    # asking k = 6 first builds every step once; asking again builds nothing
    assert _count_point_products(
        lambda: [kkv._gw_point_bivariate(k, 4, 2) for k in (6, 2, 6, 0)]
        + [kkv.pairs_point_numerators(k, 3) for k in (5, 1, 5)]) == (6, 5)


def test_smaller_windows_read_the_longest_chains():
    # once the largest window is built, each smaller h at the same u and k is
    # read off the chains built for it: no point product, no second factor
    def run():
        gw_pairs_check(7, 2, 12)
        for h in range(3, 7):
            gw_pairs_check(h, 2, 12)
    gw_point_factor.cache_clear()  # _count_point_products wraps the factors, so
    pairs_point_factor.cache_clear()  # its cache clearing does not reach them
    assert _count_point_products(run) == (2, 2)
    for cached in (hodge_r_series, gw_point_factor, pairs_point_factor):
        assert cached.cache_info().misses == 1, cached


@pytest.mark.parametrize("seed", range(1, 9))
def test_a_session_pass_builds_each_gw_chain_once(seed):
    # the benchmark's pass: the pairs tables through h = 8, then the grid in
    # its seeded order; the u = 8 and u = 12 chains each build their Hodge
    # base once, through the pairs chain's h window
    points = list(YQ_GRID)
    random.Random(f"yq-session:{seed}").shuffle(points)
    _clear_kkv_caches()
    for k in range(4):
        point_series_pairs(k, 12, 8)
    for point in points:
        assert gw_pairs_check(*point).equal, point
    assert hodge_r_series.cache_info().misses == 2


def test_a_longer_pairs_chain_alone_rebuilds_no_gw_chain():
    _clear_kkv_caches()
    gw_pairs_check(3, 0, 8)
    point_series_pairs(0, 12, 8)
    gw_pairs_check(3, 0, 8)
    gw_pairs_check(2, 1, 8)
    assert hodge_r_series.cache_info().misses == 1


def _row_dot_calls(monkeypatch, run):
    """The pair list of every packed dot that run() forms."""
    calls, plain = [], series._row_dot
    monkeypatch.setattr(series, "_row_dot",
                        lambda pairs, *args: calls.append(list(pairs)) or plain(pairs, *args))
    run()
    return calls


def test_row_dots_pair_only_live_rows(monkeypatch):
    # odd u-rows are exact zeros: a pair with one forms no product, and a row
    # with no other pair is the exact zero without a dot
    def exact_zero(r):
        return not r.nums and r.hi is None
    _clear_kkv_caches()
    calls = _row_dot_calls(monkeypatch, lambda: (
        hodge_r_series(18, 9), kkv.gw_pairs_grid(4, 2, 12), kkv.pairs_point_numerators(3, 8)))
    assert calls
    for pairs in calls:
        assert pairs and not any(exact_zero(x) or exact_zero(y) for x, y in pairs)


def test_chain_steps_stop_at_the_order_they_serve():
    # each step is cut at its chain's top before the product: u^u_order for
    # the GW chain, q^(h_max-1) for the pairs chain
    _clear_kkv_caches()
    for u_order, q_order in ((0, 0), (4, 2), (12, 5)):
        for k in range(6):
            assert kkv._gw_step(k, u_order, q_order).order == u_order, (k, u_order)
    for h_max in (0, 1, 3, 8):
        for k in range(6):
            assert kkv._pairs_step(k, h_max).order == h_max - 1, (k, h_max)


def test_pairs_steps_past_the_window_make_no_dot(monkeypatch):
    # at h_max = 3 step k starts at q^(k-1), so every step k >= 4 is an empty
    # window through q^2 and costs no packed dot
    _clear_kkv_caches()
    point_series_pairs_upto(3, 8, 3)
    assert _row_dot_calls(monkeypatch, lambda: point_series_pairs_upto(13, 8, 3)) == []


def test_negative_point_count_raises():
    _clear_kkv_caches()
    for run in (lambda: gw_pairs_check(2, -1, 4), lambda: point_series_pairs(-1, 4, 2),
                lambda: point_series_gw(-1, 2, 2), lambda: kkv.gw_pairs_grid(2, -1, 4),
                lambda: kkv.pairs_point_numerators(-1, 2),
                lambda: kkv._gw_point_bivariate(-1, 4, 2)):
        with pytest.raises(ValueError, match="point insertions"):
            run()
    # an empty range of counts is no error
    assert point_series_pairs_upto(-1, 0, 0).entries == {}
    assert quasimodularity_audit(-1, 2) == []


def test_point_series_pairs_upto_merges_each_k():
    for k_max, n_max, h_max in ((0, 3, 0), (4, 3, 2), (6, 5, 3)):
        merged = point_series_pairs_upto(k_max, n_max, h_max).entries
        want = {}
        for k in range(k_max + 1):
            want.update(point_series_pairs(k, n_max, h_max).entries)
        assert merged == want


def test_inv_discriminant_yq_rows_match_a_fresh_recurrence():
    # orders asked high first, then low, then higher again: every series is
    # the one a fresh recurrence at its own order gives, field by field
    _clear_kkv_caches()
    for order in (9, 4, -1, 0, 9, 12, 6):
        want = Series("q", -1, kkv.modforms._yq_eta_product(order + 1, -1), order)
        assert _fields(inv_discriminant_yq(order)) == _fields(want), order


def _fraction_euler_pk(c_table, k, n, h):
    """euler_pk as a running Fraction sum, the reference for the int sum."""
    m_top = n + 2 * h - 1
    if k > m_top:
        return Fraction(0)
    sign = Fraction((-1) ** (m_top - k))
    if k == 0:
        return sign * Fraction(c_table.value(0, n, h))
    acc = Fraction(0)
    for i in range(0, m_top - k + 1):
        acc += Fraction((-1) ** i * comb(i + k - 1, k - 1)) * c_table.value(k + i, n, h)
    return sign * acc


def _fraction_inverse_euler_pk(e_values, k, n, h):
    """inverse_euler_pk as a Fraction back substitution, the reference."""
    m_top = n + 2 * h - 1
    c = {}
    for j in range(m_top, k - 1, -1):
        val = Fraction((-1) ** (m_top - j)) * Fraction(e_values[(j, n, h)])
        if j:
            for i in range(1, m_top - j + 1):
                val -= Fraction((-1) ** i * comb(i + j - 1, j - 1)) * c[j + i]
        c[j] = val
    return c[k]


def test_euler_sums_match_fraction_sums():
    # rational and integral inputs, ints and Fractions: values and types agree
    rng = random.Random(15)
    for n, h in ((1, 0), (0, 2), (3, 1), (2, 3), (-1, 2)):
        m_top = n + 2 * h - 1
        for rational in (False, True):
            c = {(j, n, h): Fraction(rng.randint(-50, 50), rng.randint(1, 9) if rational else 1)
                 for j in range(m_top + 1)}
            c[(0, n, h)] = rng.randint(-9, 9)  # a plain int entry
            ct = InvariantTable("C_point", c)
            e_vals = {}
            for k in range(0, m_top + 3):
                got, want = euler_pk(ct, k, n, h), _fraction_euler_pk(ct, k, n, h)
                assert (type(got), got) == (type(want), want), (k, n, h)
                e_vals[(k, n, h)] = got
            for k in range(0, m_top + 1):
                got = inverse_euler_pk(e_vals, k, n, h)
                want = _fraction_inverse_euler_pk(e_vals, k, n, h)
                assert (type(got), got) == (type(want), want), (k, n, h)
                assert got == c[(k, n, h)]


def _oracle_transform(g_max, h_max):
    """The transform check as Fraction series: per h, sum_g r_{g,h} s^{2g-2} as
    scaled powers of s^2, compared with the R_{g,h} series on u^-2 .. u^{2 g_max - 2}."""
    u_order = 2 * g_max - 2
    budget = 2 * g_max + 2
    r_tab = kkv.bps_r_table(g_max, h_max)
    big_tab = kkv.hodge_r_table(g_max, h_max)
    s2 = sin_half_square(budget)
    powers = {-1: _inv_s2(u_order), 0: Series.one("u", budget)}
    for g in range(2, g_max + 1):
        powers[g - 1] = powers[g - 2] * s2
    mismatches = []
    for h in range(0, h_max + 1):
        lhs = Series.zero("u", u_order, -2)
        for g in range(0, g_max + 1):
            if r_tab.value(g, h):
                lhs = lhs + r_tab.value(g, h) * powers[g - 1]
        rhs = Series("u", -2, [big_tab.value((j + 2) // 2, h) if j % 2 == 0 else Fraction(0)
                               for j in range(-2, u_order + 1)], u_order)
        assert min(lhs.order, rhs.order) >= u_order
        if lhs != rhs:
            mismatches.append(h)
    return kkv.TransformReport(g_max, h_max, u_order, not mismatches, mismatches)


@pytest.mark.parametrize("g_max,h_max", [(0, 0), (1, 3), (4, 4), (8, 8), (12, 6)])
def test_transform_check_matches_series_oracle(g_max, h_max):
    rep = bps_transform_check(g_max, h_max)
    assert rep == _oracle_transform(g_max, h_max)
    assert rep.equal and rep.u_order == 2 * g_max - 2


def test_transform_check_reports_a_forged_hodge_entry(monkeypatch):
    exact = kkv.hodge_r_table

    def forged(g_max, h_max):
        table = exact(g_max, h_max)
        entries = dict(table.entries)
        entries[(2, 3)] += Fraction(1, 7)
        return InvariantTable("R", entries)

    monkeypatch.setattr(kkv, "hodge_r_table", forged)
    rep = bps_transform_check(4, 5)
    assert rep == _oracle_transform(4, 5)
    assert not rep.equal and rep.mismatches == [3]


def test_transform_check_adds_and_scales_no_series(monkeypatch):
    expected = bps_transform_check(8, 8)  # warms the tables the check reads

    def forbidden(*args, **kwargs):
        raise AssertionError("Series sum or scaling in the transform check")

    for name in ("__add__", "__radd__", "scale", "__rmul__"):
        monkeypatch.setattr(Series, name, forbidden)
    assert bps_transform_check(8, 8) == expected
