"""Eisenstein series, the discriminant, and the quasimodular ring Q[E2,E4,E6].

Quasimodular elements are stored exactly as polynomials in the three
generators; qmod_expand turns them into certified q-series.  qmod_recognize
solves the inverse problem: integer monomial columns built incrementally,
fraction-free (Bareiss) elimination, and re-verification on the full window,
so a recognized element is a proof of the identity on the supplied window.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul

from .series import Series, YLaurent, _cleared, _exp_recurrence, parse_rational, weighted_product


class NotQuasimodular(Exception):
    """No element of the allowed weight matches the series on its window."""


class InsufficientPrecision(Exception):
    """The certified window is too short to pin down a candidate element."""


@lru_cache(maxsize=None)
def bernoulli(n):
    """The Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    # recurrence sum_{j<=n} C(n+1, j) B_j = 0 for n >= 1
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def _sigma_table(power, order):
    """sigma_power(n) for n = 0..order as a tuple (index 0 unused)."""
    out = [0] * (order + 1)
    for d in range(1, order + 1):
        dp = d ** power
        for m in range(d, order + 1, d):
            out[m] += dp
    return tuple(out)


@lru_cache(maxsize=None)
def _eisenstein_coeffs(weight, order):
    if weight < 2 or weight % 2:
        raise ValueError("Eisenstein weight must be a positive even integer")
    b = bernoulli(weight)
    factor = Fraction(-2 * weight) / b
    sig = _sigma_table(weight - 1, order)
    coeffs = [Fraction(1)] + [factor * sig[n] for n in range(1, order + 1)]
    return tuple(coeffs)


def eisenstein(weight, order):
    """E_weight(q) = 1 - (2*weight/B_weight) * sum sigma_{weight-1}(n) q^n."""
    return Series("q", 0, list(_eisenstein_coeffs(weight, order)), order)


def discriminant_q(order):
    """Delta(q) = q * prod (1 - q^n)^24, certified to the given order."""
    prod = weighted_product({}, order - 1, default=24)
    return Series("q", 1, prod.coeffs, order)


def discriminant_yq(order):
    """The refinement Delta(y,q) = q prod (1-q^n)^20 (1-yq^n)^2 (1-1/y q^n)^2.

    Coefficients are exact symmetric YLaurent polynomials, computed by the
    log-derivative recurrence of _yq_eta_product in O(order^2) YLaurent
    products.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    return Series("q", 1, _yq_eta_product(order - 1, 1), order)


def _yq_eta_product(n, sign):
    """q^0..q^n of prod_m ((1-q^m)^20 (1-yq^m)^2 (1-1/y q^m)^2)^sign.

    q d/dq log of the product is -sign * sum_m c_m q^m with
    c_m = sum_{d|m} d (20 + 2y^{m/d} + 2y^{-m/d}); c_m comes from a divisor
    sieve and the coefficients from the recurrence m p_m = -sign sum c_j p_{m-j}.
    """
    if n < 0:
        raise ValueError("window does not reach the constant term")
    terms = [{0: 0} for _ in range(n + 1)]
    for d in range(1, n + 1):
        w = -sign * d
        for m in range(d, n + 1, d):
            t = terms[m]
            t[0] += 20 * w
            t[m // d] = t[-(m // d)] = 2 * w
    return _exp_recurrence([YLaurent(t) for t in terms], n, YLaurent({0: 1}))


# the scaled generators C_2, C_4, C_6: series plus exact element
_C_SCALE = {2: Fraction(-1, 24), 4: Fraction(1, 2880), 6: Fraction(-1, 181440)}


def c_form(weight, order):
    """The scaled Eisenstein generator C_weight = -B_w/(w * w!) ... fixed form.

    Concretely C_2 = -E_2/24, C_4 = E_4/2880, C_6 = -E_6/181440.  Returns
    (series, element) with the element exact in the E-basis.
    """
    if weight not in _C_SCALE:
        raise ValueError("C-form weight must be 2, 4, or 6")
    scale = _C_SCALE[weight]
    elem = QModElement({_unit_key(weight): scale})
    return scale * eisenstein(weight, order), elem


def _unit_key(weight):
    return {2: (1, 0, 0), 4: (0, 1, 0), 6: (0, 0, 1)}[weight]


class QModElement:
    """Exact polynomial in E2, E4, E6 with Fraction coefficients.

    Keys are exponent triples (a, b, c); the weight of a monomial is
    2a + 4b + 6c.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, v in terms.items():
                v = Fraction(v)
                if v:
                    self.terms[tuple(k)] = v

    @classmethod
    def unit(cls):
        return cls({(0, 0, 0): 1})

    @classmethod
    def generator(cls, weight):
        return cls({_unit_key(weight): 1})

    def is_zero(self):
        return not self.terms

    def weight(self):
        """Top weight among the monomials (None for the zero element)."""
        if not self.terms:
            return None
        return max(2 * a + 4 * b + 6 * c for (a, b, c) in self.terms)

    def is_homogeneous(self):
        ws = {2 * a + 4 * b + 6 * c for (a, b, c) in self.terms}
        return len(ws) <= 1

    def __neg__(self):
        return QModElement({k: -v for k, v in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QModElement({(0, 0, 0): other})
        if not isinstance(other, QModElement):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, Fraction(0)) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return QModElement(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QModElement({k: v * other for k, v in self.terms.items()})
        if not isinstance(other, QModElement):
            return NotImplemented
        out = {}
        for (a1, b1, c1), v1 in self.terms.items():
            for (a2, b2, c2), v2 in other.terms.items():
                k = (a1 + a2, b1 + b2, c1 + c2)
                s = out.get(k, Fraction(0)) + v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return QModElement(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers leave the ring")
        out = QModElement.unit()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QModElement({(0, 0, 0): other})
        if not isinstance(other, QModElement):
            return NotImplemented
        return self.terms == other.terms

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (2 * kv[0][0] + 4 * kv[0][1] + 6 * kv[0][2], kv[0]))

    def __repr__(self):
        if not self.terms:
            return "QModElement(0)"
        bits = [f"E2^{a}*E4^{b}*E6^{c}: {v}" for (a, b, c), v in self.sorted_terms()]
        return "QModElement(" + ", ".join(bits) + ")"


def _exact_div(num, den):
    q, r = divmod(num, den)
    if r:
        raise AssertionError("integer division is not exact")
    return q


@lru_cache(maxsize=None)
def _monomial_coeffs(a, b, c, order):
    """q^0..q^order of E2^a E4^b E6^c as ints, built incrementally.

    The cached column with one lower c (else b, else a) times the integer
    expansion of E6 (else E4, else E2): one O(order^2) convolution.
    """
    if order < 0:
        raise ValueError("window does not reach the monomial")
    if not (a or b or c):
        return (1,) + (0,) * order
    key, weight = ((a, b, c - 1), 6) if c else ((a, b - 1, c), 4) if b else ((a - 1, b, c), 2)
    prev = _monomial_coeffs(*key, order)
    gen = [_exact_div(x.numerator, x.denominator) for x in _eisenstein_coeffs(weight, order)]
    return tuple(sum(map(mul, prev[k::-1], gen[:k + 1])) for k in range(order + 1))


def qmod_expand(elem, order):
    """Expand an element of Q[E2,E4,E6] into a certified q-series."""
    return sum((v * Series("q", 0, _monomial_coeffs(*key, order), order)
                for key, v in elem.sorted_terms()), Series.zero("q", order))


def qmod_derive(elem):
    """Apply q d/dq inside the ring, via the generator derivation rules.

    q E2' = (E2^2 - E4)/12, q E4' = (E2 E4 - E6)/3, q E6' = (E2 E6 - E4^2)/2.
    Raises the weight of a homogeneous element by exactly 2.
    """
    e2 = QModElement.generator(2)
    e4 = QModElement.generator(4)
    e6 = QModElement.generator(6)
    d2 = (e2 * e2 - e4) * Fraction(1, 12)
    d4 = (e2 * e4 - e6) * Fraction(1, 3)
    d6 = (e2 * e6 - e4 * e4) * Fraction(1, 2)
    out = QModElement()
    for (a, b, c), v in elem.terms.items():
        if a:
            out = out + v * a * QModElement({(a - 1, b, c): 1}) * d2
        if b:
            out = out + v * b * QModElement({(a, b - 1, c): 1}) * d4
        if c:
            out = out + v * c * QModElement({(a, b, c - 1): 1}) * d6
    return out


def weight_basis(max_weight):
    """All monomial triples (a,b,c) with 2a+4b+6c <= max_weight, sorted."""
    out = []
    for a in range(max_weight // 2 + 1):
        for b in range((max_weight - 2 * a) // 4 + 1):
            for c in range((max_weight - 2 * a - 4 * b) // 6 + 1):
                out.append((a, b, c))
    out.sort(key=lambda t: (2 * t[0] + 4 * t[1] + 6 * t[2], t))
    return out


def _solve_exact(columns, rhs, n_rows):
    """Solve columns * x = rhs over int, x as Fractions; each has n_rows entries.

    One LCM clears the rhs denominators.  Fraction-free (Bareiss) elimination
    pivots on the first row at or below the diagonal nonzero in the column; its
    entries are nonzero multiples of Gauss's, so no pivot is InsufficientPrecision
    and a nonzero rhs below the pivots NotQuasimodular.  Back-substitution: det*x.
    """
    n_cols, det = len(columns), 1
    nums, den = _cleared(rhs)
    aug = [[*row, v] for *row, v in zip(*columns, nums)]
    for k in range(n_cols):
        piv = next((r for r in range(k, n_rows) if aug[r][k]), None)
        if piv is None:
            raise InsufficientPrecision("window too short to separate basis monomials")
        aug[k], aug[piv] = aug[piv], aug[k]
        rk = aug[k]
        for ri in aug[k + 1:]:
            ri[k + 1:] = [_exact_div(rk[k] * x - ri[k] * y, det)
                          for x, y in zip(ri[k + 1:], rk[k + 1:])]
        det = rk[k]
    if any(row[n_cols] for row in aug[n_cols:]):
        raise NotQuasimodular("series is not quasimodular of the allowed weight")
    x = [0] * n_cols
    for k, rk in reversed(list(enumerate(aug[:n_cols]))):
        x[k] = _exact_div(det * rk[n_cols] - sum(map(mul, rk[k + 1:n_cols], x[k + 1:])), rk[k])
    return [Fraction(v, det * den) for v in x]


def qmod_recognize(f, max_weight):
    """Find the element of weight <= max_weight whose expansion equals f.

    f must be a q-series with min_exp >= 0 and a window of at least
    dim(basis) + 5 coefficients.  The integer columns and fraction-free
    elimination give a candidate; it is re-verified by expanding it on the
    full window before returning, so the answer is a certificate.
    """
    if f.var != "q":
        raise ValueError("recognition expects a q-series")
    if f.coeffs and f.min_exp < 0:
        raise ValueError("series has a pole; multiply by the discriminant first")
    basis = weight_basis(max_weight)
    n_rows = max(f.order + 1, 0)
    if n_rows < len(basis) + 5:
        raise InsufficientPrecision(
            f"need at least {len(basis) + 5} certified coefficients, have {n_rows}")
    columns = [_monomial_coeffs(*key, f.order) for key in basis]
    sol = _solve_exact(columns, [f.coeff(k) for k in range(n_rows)], n_rows)
    elem = QModElement(dict(zip(basis, sol)))
    if qmod_expand(elem, f.order) != f:
        raise NotQuasimodular("re-verification failed")
    return elem


def qmod_to_text(elem):
    """Serialize as sorted 'E2^a*E4^b*E6^c: num/den' lines."""
    lines = []
    for (a, b, c), v in elem.sorted_terms():
        lines.append(f"E2^{a}*E4^{b}*E6^{c}: {v.numerator}/{v.denominator}")
    return "\n".join(lines) + ("\n" if lines else "")


def qmod_from_text(text):
    terms = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        key_part, _, val = ln.partition(":")
        if not _:
            raise ValueError(f"bad element line: {ln!r}")
        factors = key_part.strip().split("*")
        if len(factors) != 3:
            raise ValueError(f"bad monomial: {key_part!r}")
        exps = []
        for factor, name in zip(factors, ("E2", "E4", "E6")):
            head, _, e = factor.partition("^")
            if head != name or not _:
                raise ValueError(f"bad monomial: {key_part!r}")
            exps.append(int(e))
        key = tuple(exps)
        if key in terms:
            raise ValueError(f"duplicate monomial {key}")
        terms[key] = parse_rational(val)
    return QModElement(terms)
