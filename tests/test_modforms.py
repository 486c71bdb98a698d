"""Tests for Eisenstein series, discriminants, and the quasimodular ring.

Numeric oracles are frozen table values (divisor sums, tau coefficients)
rather than recomputations through the library.  Recognition is checked
as an exact round trip plus both failure modes; its integer columns against
Eisenstein products, and its modular solver (elimination mod p, Dixon
lifting) against a Gauss-Jordan elimination over Fraction kept here as the
reference, also with small primes that make bad primes happen.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

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
from k3series import modforms
from k3series.modforms import _monomial_coeffs, _solve_exact


def test_bernoulli_frozen_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(3) == 0 and bernoulli(11) == 0


def recurrence_bernoulli(n_max):
    """B_0..B_n_max from sum_{j<=n} C(n+1, j) B_j = 0, the Fraction recurrence
    that the tangent-number formula replaced."""
    b = [Fraction(1)]
    for n in range(1, n_max + 1):
        b.append(-sum((comb(n + 1, j) * b[j] for j in range(n)), Fraction(0)) / (n + 1))
    return b


def test_bernoulli_matches_fraction_recurrence():
    bernoulli.cache_clear()
    want = recurrence_bernoulli(100)
    got = [bernoulli(n) for n in range(101)]
    assert got == want
    assert all(type(v) is Fraction for v in got)
    with pytest.raises(ValueError):
        bernoulli(-1)


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


# -- recognition layer: integer columns and the modular solver ---------------

def gauss_jordan_reference(columns, rhs, n_rows):
    """Gauss-Jordan elimination over Fraction, the reference for _solve_exact."""
    n_cols = len(columns)
    aug = [[columns[j][i] for j in range(n_cols)] + [rhs[i]] for i in range(n_rows)]
    pivots = []
    row = 0
    for col in range(n_cols):
        piv = None
        for r in range(row, n_rows):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            raise InsufficientPrecision("window too short to separate basis monomials")
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(n_rows):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == n_rows:
            break
    if len(pivots) < n_cols:
        raise InsufficientPrecision("window too short to separate basis monomials")
    for r in range(row, n_rows):
        if aug[r][n_cols]:
            raise NotQuasimodular("series is not quasimodular of the allowed weight")
    return [aug[i][n_cols] for i in range(n_cols)]


def solve_outcome(solver, columns, rhs, n_rows):
    try:
        return ("solution", solver(columns, rhs, n_rows))
    except (InsufficientPrecision, NotQuasimodular) as exc:
        return ("raises", type(exc))


def random_system(rng, n_rows, n_cols, kind):
    """Int columns and a rational rhs; kind picks the rank and consistency."""
    sparse = rng.random() < 0.5

    def entry():
        return 0 if sparse and rng.random() < 0.6 else rng.randint(-30, 30)

    columns = [[entry() for _ in range(n_rows)] for _ in range(n_cols)]
    if kind == "duplicate" and n_cols >= 2:
        i, j = rng.sample(range(n_cols), 2)
        columns[j] = list(columns[i])
    if kind == "combination" and n_cols >= 3:
        i, j, t = rng.sample(range(n_cols), 3)
        a, b = rng.randint(-4, 4), rng.randint(1, 4)
        columns[t] = [a * x + b * y for x, y in zip(columns[i], columns[j])]
    x = [Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 7, 10, 12])) for _ in range(n_cols)]
    rhs = [sum((col[i] * v for col, v in zip(columns, x)), Fraction(0)) for i in range(n_rows)]
    if kind == "zero":
        rhs = [Fraction(0)] * n_rows
    if kind == "inconsistent" and n_rows:
        rhs[rng.randrange(n_rows)] += Fraction(rng.choice([1, -1]), rng.randint(1, 9))
    if kind == "mixed":
        rhs = [v if rng.random() < 0.5 else v + Fraction(rng.randint(-5, 5), rng.randint(1, 40))
               for v in rhs]
        rhs = [int(v) if v.denominator == 1 else v for v in rhs]
    return columns, rhs


@pytest.mark.parametrize("kind", ["consistent", "inconsistent", "duplicate", "combination",
                                  "mixed", "zero"])
def test_solve_exact_matches_gauss_jordan(kind):
    rng = random.Random(f"solve-{kind}")
    seen = set()
    for trial in range(60):
        n_cols = rng.randint(0, 8)
        # n_rows == n_cols, a little short, and overdetermined
        n_rows = max(0, n_cols + rng.choice([0, 0, -1, 1, 3, 6]))
        columns, rhs = random_system(rng, n_rows, n_cols, kind)
        got = solve_outcome(_solve_exact, columns, rhs, n_rows)
        want = solve_outcome(gauss_jordan_reference, columns, rhs, n_rows)
        assert got == want, (kind, trial)
        if got[0] == "solution":
            assert all(type(v) is Fraction for v in got[1])
        seen.add(got[1] if got[0] == "raises" else "solution")
    assert "solution" in seen and InsufficientPrecision in seen
    if kind in ("inconsistent", "mixed"):
        assert NotQuasimodular in seen


def test_solve_exact_square_full_rank():
    rng = random.Random(7)
    for n in range(1, 9):
        columns = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        columns[0] = [v or 1 for v in columns[0]]
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        want = solve_outcome(gauss_jordan_reference, columns, rhs, n)
        assert solve_outcome(_solve_exact, columns, rhs, n) == want


def test_solve_exact_matches_gauss_jordan_on_recognition_columns():
    # every window length, so short windows reach the no-pivot branch
    rng = random.Random(9)
    basis = weight_basis(10)
    elem = QModElement({key: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for key in basis})
    f = qmod_expand(elem, 30)
    seen = set()
    for n_rows in range(31):
        columns = [_monomial_coeffs(*key, 30)[:n_rows] for key in basis]
        for bump in (0, Fraction(1, 3)):
            rhs = [f.coeff(k) + (bump if k == n_rows // 2 else 0) for k in range(n_rows)]
            want = solve_outcome(gauss_jordan_reference, columns, rhs, n_rows)
            assert solve_outcome(_solve_exact, columns, rhs, n_rows) == want
            seen.add(want[1] if want[0] == "raises" else "solution")
    assert seen == {"solution", InsufficientPrecision, NotQuasimodular}


# primes small enough that rank deficits and consistency that hold only mod p happen
SMALL_PRIMES = (2, 3, 2**61 - 1)
KINDS = ["consistent", "inconsistent", "duplicate", "combination", "mixed", "zero"]


def is_prime(n):
    """Deterministic Miller-Rabin: the first 13 prime bases decide every n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_prime_tuple_holds_primes():
    assert modforms._PRIMES[0] == 2**61 - 1
    assert all(is_prime(p) for p in modforms._PRIMES + SMALL_PRIMES)
    # 561 is a Carmichael number, 3215031751 a strong pseudoprime to bases 2, 3, 5, 7
    assert not any(is_prime(n) for n in (1, 561, 3215031751, 2**61 - 3))


def test_solve_exact_matches_gauss_jordan_with_small_primes(monkeypatch):
    seen = set()
    lift = modforms._lift

    def observed(aug, piv, low, pivots, t, p):
        bad, x, d = lift(aug, piv, low, pivots, t, p)
        if bad is not None:
            seen.add("kernel vector fails" if t < len(aug[0]) - 1 else "lifting refutes")
        return bad, x, d

    monkeypatch.setattr(modforms, "_PRIMES", SMALL_PRIMES)
    monkeypatch.setattr(modforms, "_lift", observed)
    for kind in KINDS:
        test_solve_exact_matches_gauss_jordan(kind)
    test_solve_exact_matches_gauss_jordan_on_recognition_columns()
    # a rank deficit mod 2 or 3 that is not one over Q, and a system consistent
    # mod p but not over Q, both occurred and were caught
    assert seen == {"kernel vector fails", "lifting refutes"}


def fraction_det(matrix):
    """Determinant of a square matrix by Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(m)):
        piv = next((r for r in range(k, len(m)) if m[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv], det = m[piv], m[k], -det
        det *= m[k][k]
        for r in range(k + 1, len(m)):
            f = m[r][k] / m[k][k]
            m[r] = [a - f * b for a, b in zip(m[r], m[k])]
    return det


def witness_holds(columns, rhs, rows):
    """rows are dim + 1 distinct rows on which [A | b] has a nonzero minor."""
    return (len(rows) == len(columns) + 1 and len(set(rows)) == len(rows)
            and fraction_det([[col[i] for col in columns] + [rhs[i]] for i in rows]) != 0)


def forged_rhs(columns, rhs, rows):
    """rhs with one witness row swapped for a row of the consistent subsystem on the others."""
    for w in rows:
        rest = [i for i in rows if i != w]
        try:
            x = gauss_jordan_reference([[col[i] for i in rest] for col in columns],
                                       [rhs[i] for i in rest], len(rest))
        except InsufficientPrecision:
            continue
        forged = list(rhs)
        forged[w] = sum((col[w] * v for col, v in zip(columns, x)), Fraction(0))
        return forged
    raise AssertionError("no dim rows of the witness are nonsingular")


@pytest.mark.parametrize("primes", [None, SMALL_PRIMES])
def test_not_quasimodular_witness_is_a_nonsingular_minor(monkeypatch, primes):
    if primes:
        monkeypatch.setattr(modforms, "_PRIMES", primes)
    witnessed = 0
    for kind in ("inconsistent", "mixed"):
        rng = random.Random(f"witness-{kind}")
        for trial in range(60):
            n_cols = rng.randint(0, 8)
            n_rows = n_cols + rng.choice([1, 3, 6])
            columns, rhs = random_system(rng, n_rows, n_cols, kind)
            try:
                _solve_exact(columns, rhs, n_rows)
            except NotQuasimodular as exc:
                assert witness_holds(columns, rhs, exc.rows), (kind, trial)
                forged = forged_rhs(columns, rhs, exc.rows)
                assert not witness_holds(columns, forged, exc.rows), (kind, trial)
                witnessed += 1
            except InsufficientPrecision:
                pass
    assert witnessed >= 40


def test_monomial_columns_are_ints_equal_to_eisenstein_products():
    for order in (0, 1, 30):
        e2, e4, e6 = (eisenstein(w, order) for w in (2, 4, 6))
        for a, b, c in weight_basis(16):
            want = e2 ** a * e4 ** b * e6 ** c
            got = _monomial_coeffs(a, b, c, order)
            assert all(type(v) is int for v in got)
            assert list(got) == [want.coeff(k) for k in range(order + 1)]
    with pytest.raises(ValueError):
        _monomial_coeffs(1, 0, 0, -1)


def test_recognition_runs_without_series_products(monkeypatch):
    def forbidden(*args):
        raise AssertionError("recognition fell back to a series product or power")

    rng = random.Random(8)
    elem = QModElement({key: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                        for key in weight_basis(12)})
    f = qmod_expand(elem, len(weight_basis(12)) + 6)
    _monomial_coeffs.cache_clear()
    monkeypatch.setattr(Series, "__mul__", forbidden)
    monkeypatch.setattr(Series, "__pow__", forbidden)
    assert qmod_recognize(f, 12) == elem


def test_recognition_runs_without_re_expansion(monkeypatch):
    def forbidden(*args):
        raise AssertionError("recognition re-expanded its answer")

    rng = random.Random(10)
    elem = QModElement({key: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                        for key in weight_basis(12)})
    f = qmod_expand(elem, len(weight_basis(12)) + 6)
    bad = Series("q", 0, [f.coeff(j) + (j == 3) for j in range(f.order + 1)], f.order)
    monkeypatch.setattr(modforms, "qmod_expand", forbidden)
    assert qmod_recognize(f, 12) == elem
    with pytest.raises(NotQuasimodular):
        qmod_recognize(bad, 12)


def test_recognize_weight_20():
    rng = random.Random(20)
    basis = weight_basis(20)
    dim = len(basis)
    elem = QModElement({key: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                        for key in basis if rng.random() < 0.7})
    f = qmod_expand(elem, dim + 5)
    assert qmod_recognize(f, 20) == elem
    # not q^0: the constant 1 is itself a basis element
    k = rng.randrange(1, dim + 6)
    bad = Series("q", 0, [f.coeff(j) + (j == k) for j in range(dim + 6)], dim + 5)
    with pytest.raises(NotQuasimodular):
        qmod_recognize(bad, 20)
    with pytest.raises(InsufficientPrecision):
        qmod_recognize(f.truncate(dim + 3), 20)
