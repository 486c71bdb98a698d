"""Acceptance gate: the ten headline checks, all at zero tolerance.

Every comparison is exact rational equality; there are no epsilons
anywhere in this file.  Each test prints a single PASS line so a -s run
reads as a checklist.  The stated wall-clock budgets are asserted too.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from k3series.series import (
    Series,
    YLaurent,
    q_derive,
    symmetric_to_z,
    trig_substitute,
)
from k3series.modforms import (
    QModElement,
    qmod_expand,
    qmod_recognize,
    weight_basis,
)
from k3series.kkv import (
    InvariantTable,
    bps_r_table,
    bps_transform_check,
    euler_pk,
    gw_pairs_check,
    hodge_r_series,
    inv_discriminant_q,
    inverse_euler_pk,
    ky_euler_table,
    log_identity_check,
    pairs_signed_Z,
    point_series_gw,
    point_series_pairs,
    q_coeff,
    quasimodularity_audit,
    signed_euler_table,
)
from k3series.lowgenus import boundary_R, identity_checks, t_form
from k3series.vertex import divisibility_audit


def _report(num, label, started):
    print(f"ACCEPTANCE {num:2d} PASS {label} ({time.time() - started:.2f}s)")


def _partition_counts(n_max):
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


def _convolve(a, b, n_max):
    out = [0] * (n_max + 1)
    for i, ai in enumerate(a):
        if ai and i <= n_max:
            for j, bj in enumerate(b):
                if i + j > n_max:
                    break
                out[i + j] += ai * bj
    return out


def test_criterion_01_bps_transform_triangle():
    started = time.time()
    rep = bps_transform_check(12, 12)
    assert rep.equal and rep.mismatches == []
    elapsed = time.time() - started
    assert elapsed < 30, f"budget exceeded: {elapsed:.1f}s"
    _report(1, "r/R tables agree under s = 2 sin(u/2) for g, h <= 12", started)


def test_criterion_02_genus_zero_row():
    started = time.time()
    h_max = 20
    p = _partition_counts(h_max)
    p2 = _convolve(p, p, h_max)
    p4 = _convolve(p2, p2, h_max)
    p8 = _convolve(p4, p4, h_max)
    p16 = _convolve(p8, p8, h_max)
    oracle = _convolve(p16, p8, h_max)  # prod (1-q^n)^(-24)
    assert oracle[:4] == [1, 24, 324, 3200]
    r = bps_r_table(0, h_max)
    for h in range(h_max + 1):
        assert r.value(0, h) == oracle[h]
    _report(2, "genus-0 row equals 1/Delta by convolution oracle, h <= 20", started)


def test_criterion_03_boundary_closed_forms():
    started = time.time()
    results = identity_checks(30)
    assert len(results) == 11
    for name, good in results:
        assert good, name
    for genus in (1, 2, 3):
        rep = boundary_R(genus, 25, 30)
        assert rep.matches_kkv, genus
        assert all(flag for _, flag in rep.intermediate_checks)
    elapsed = time.time() - started
    assert elapsed < 10, f"budget exceeded: {elapsed:.1f}s"
    _report(3, "eleven identities at q-order 30; boundary rows h <= 25", started)


def test_criterion_04_log_identity():
    started = time.time()
    rep = log_identity_check(12, 10)
    assert rep.bivariate_equal and rep.scalar_equal
    _report(4, "log identity holds at u-order 12, q-order 10", started)


def test_criterion_05_gw_pairs_correspondence():
    started = time.time()
    for k in (0, 1, 2):
        for h in range(7):
            rep = gw_pairs_check(h, k, 20)
            assert rep.equal, (h, k)
            assert rep.numerator_symmetric, (h, k)
    for h in range(9):
        _, zrep = pairs_signed_Z(h, 10)
        assert zrep["symmetric"], h
    _report(5, "GW/pairs match for k <= 2, h <= 6 at u-order 20; N_h symmetric", started)


def test_criterion_06_signed_euler_and_round_trip():
    started = time.time()
    c0 = point_series_pairs(0, 20, 8)
    signed = signed_euler_table(ky_euler_table(20, 8))
    for (n, h), v in signed.entries.items():
        assert c0.value(0, n, h) == v
    combined = {}
    for j in range(0, 12):
        combined.update(point_series_pairs(j, 8, 2).entries)
    ct = InvariantTable("C_point", combined)
    plain = ky_euler_table(8, 2)
    for h in range(0, 3):
        for n in range(max(1 - h, 0), 9):
            m_top = n + 2 * h - 1
            if m_top < 0:
                continue
            e_vals = {(j, n, h): euler_pk(ct, j, n, h) for j in range(m_top + 1)}
            assert e_vals[(0, n, h)] == plain.value(n, h)
            for k in range(0, min(m_top, 4) + 1):
                assert inverse_euler_pk(e_vals, k, n, h) == ct.value(k, n, h)
    _report(6, "k = 0 recovers Euler characteristics; round trip exact", started)


def test_criterion_07_vertex_sweep():
    started = time.time()
    for mu in [(1,), (2,), (1, 1), (3,), (2, 1)]:
        rep = divisibility_audit(mu, 4)
        assert rep["violations"] == 0, mu
        for row in rep["rows"]:
            assert row["direct"] == row["formula"]
            assert row["direct"] <= 0
            if row["size"] > sum(mu):
                assert row["direct"] <= -1
    elapsed = time.time() - started
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    _report(7, "vertex constant term: formula, sign, strict bound on 5 shapes", started)


def test_criterion_08_quasimodularity_audit():
    started = time.time()
    rows = quasimodularity_audit(2, 4)
    for k, g, elem in rows:
        if elem.terms:
            assert elem.weight() <= 2 * g + 2 * k, (k, g)
    t0 = t_form(0)
    for g in (1, 2, 3):
        biv, _ = point_series_gw(g, g, 10)
        row = q_coeff(biv, 2 * g - 2)
        want = qmod_expand(t0 ** g, 12) * inv_discriminant_q(11)
        assert row == want, g
    _report(8, "Delta-cleared rows quasimodular of weight <= 2g + 2k; k = g rows", started)


def test_criterion_09_recognition_round_trip():
    started = time.time()
    rng = random.Random(12)
    basis = weight_basis(12)
    order = len(basis) + 6
    for _ in range(50):
        elem = QModElement()
        for key in basis:
            if rng.random() < 0.25:
                elem = elem + QModElement({key: Fraction(
                    rng.randint(-9, 9), rng.randint(1, 4))})
        assert qmod_recognize(qmod_expand(elem, order), 12) == elem
    _report(9, "recognize(expand(x)) = x on 50 seeded elements, weight <= 12", started)


def test_criterion_10_property_suites():
    started = time.time()
    rng = random.Random(13)

    def rand_series():
        lo = rng.randint(-2, 1)
        hi = lo + rng.randint(1, 5)
        return Series("q", lo, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                for _ in range(hi - lo + 1)], hi)

    for _ in range(30):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert q_derive(a * b) == q_derive(a) * b + a * q_derive(b)

    for _ in range(20):
        terms = {}
        for d in range(rng.randint(1, 3) + 1):
            v = Fraction(rng.randint(-4, 4))
            if v:
                terms[d] = v
                terms[-d] = v
        p = YLaurent(terms) if terms else YLaurent({0: 1})
        q = YLaurent({1: 1, 0: rng.randint(-3, 3), -1: 1})
        lhs = trig_substitute(p * q, 8)
        rhs = (trig_substitute(p, 8) * trig_substitute(q, 8)).truncate(8)
        assert lhs == rhs
        zs = symmetric_to_z(p)
        rebuilt = YLaurent({})
        zpow = YLaurent({0: 1})
        zgen = YLaurent({1: 1, 0: -2, -1: 1})
        for cz in zs:
            rebuilt = rebuilt + zpow * cz
            zpow = zpow * zgen
        assert rebuilt == p

    r = bps_r_table(5, 5)
    assert all(v.denominator == 1 for v in r.entries.values())
    assert all(v == 0 for (g, h), v in r.entries.items() if g > h)
    e = ky_euler_table(5, 3)
    assert all(n >= 1 - h for (n, h) in e.entries)
    biv = hodge_r_series(6, 3)
    for odd in (-1, 1, 3, 5):
        row = biv.coeff(odd)
        assert (row.is_zero_on_window() if isinstance(row, Series) else row == 0)
    _report(10, "ring axioms, Leibniz, trig homomorphism, table supports", started)
