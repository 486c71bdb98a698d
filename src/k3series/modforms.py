"""Eisenstein series, the discriminant, and the quasimodular ring Q[E2,E4,E6].

Quasimodular elements are stored exactly as polynomials in the three
generators; qmod_expand turns them into certified q-series.  qmod_recognize
solves the inverse problem: integer monomial columns built incrementally, one
elimination modulo a 61-bit prime, and Dixon (p-adic) lifting with rational
reconstruction.  A solution is accepted only when it holds exactly on the full
window, so a recognized element is a proof of the identity there; a rejection
is proved by a minor that is nonzero mod p, or by the unique solution failing
the window.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt, prod
from operator import mul

from .series import (Series, YLaurent, _as_series, _cleared, _pack, _power, _row_recurrence,
                     _row, _slot_bytes, _unpack, parse_rational, weighted_product)


class NotQuasimodular(Exception):
    """No element of the allowed weight matches the series on its window.

    From _solve_exact, rows holds the witness: dim + 1 row indices on which
    the cleared system [A | b] has a nonzero minor.
    """

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows


class InsufficientPrecision(Exception):
    """The certified window is too short to pin down a candidate element."""


@lru_cache(maxsize=None)
def bernoulli(n):
    """The Bernoulli number B_n (B_1 = -1/2 convention).

    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)) with T_m the tangent number
    (tan x = sum T_k x^(2k-1) / (2k-1)!), from the integer recurrence of
    Brent and Harvey: O(m^2) int operations, no Fraction arithmetic.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n < 2:
        return Fraction(1) if n == 0 else Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    m = n // 2
    t = [0, 1]  # t[k] = T_k
    for k in range(2, m + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return Fraction((-1) ** (m - 1) * n * t[m], 4 ** m * (4 ** m - 1))


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
def _eisenstein_row(weight, order):
    """q^0..q^order of E_weight as one int row over its denominator."""
    if weight < 2 or weight % 2:
        raise ValueError("Eisenstein weight must be a positive even integer")
    if order < 0:
        raise ValueError("window does not reach the constant term")
    factor = Fraction(-2 * weight) / bernoulli(weight)
    nums = [factor.numerator * s for s in _sigma_table(weight - 1, order)[1:]]
    return YLaurent._normalized(0, [factor.denominator] + nums, factor.denominator, order)


def eisenstein(weight, order):
    """E_weight(q) = 1 - (2*weight/B_weight) * sum sigma_{weight-1}(n) q^n, row-backed."""
    return _as_series(_eisenstein_row(weight, order), "q")


def discriminant_q(order):
    """Delta(q) = q * prod (1 - q^n)^24 to the given order: weighted_product's row times q."""
    return _as_series(_row(weighted_product({}, order - 1, default=24)), "q", 1)


def discriminant_yq(order):
    """The refinement Delta(y,q) = q prod (1-q^n)^20 (1-yq^n)^2 (1-1/y q^n)^2.

    Coefficients are exact symmetric YLaurent polynomials, computed by the
    log-derivative recurrence of _yq_eta_product: one packed dot product per
    q-coefficient.
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
    return _row_recurrence([YLaurent(t) for t in terms], range(n + 1), YLaurent({0: 1}))


def c_form(weight, order):
    """The scaled Eisenstein generator C_weight = -B_w/(w * w!) E_w.

    Concretely C_2 = -E_2/24, C_4 = E_4/2880, C_6 = -E_6/181440.  Returns
    (series, element) with the element exact in the E-basis.
    """
    if weight not in (2, 4, 6):
        raise ValueError("C-form weight must be 2, 4, or 6")
    scale = -bernoulli(weight) / (weight * factorial(weight))
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
        return _power(self, n, QModElement.unit())

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


@lru_cache(maxsize=None)
def _generator_ints(weight, order):
    """(q^0..q^order of E_weight as ints, their largest |value|) for weight 2, 4 or 6;
    cached, since every monomial column of a recognition reads it twice."""
    row = _eisenstein_row(weight, order)
    assert row.den == 1
    ints = tuple(row.nums)  # sigma(n) > 0, so the row keeps every q^0..q^order
    return ints, max(map(abs, ints))


@lru_cache(maxsize=None)
def _generator_pack(weight, order, size):
    return _pack(_generator_ints(weight, order)[0], size)


@lru_cache(maxsize=None)
def _monomial_coeffs(a, b, c, order):
    """q^0..q^order of E2^a E4^b E6^c as ints, built incrementally.

    The cached column with one lower c (else b, else a), packed (series._pack), times
    E6 (else E4, else E2) packed once per slot width, read back through q^order.
    """
    if order < 0:
        raise ValueError("window does not reach the monomial")
    if not (a or b or c):
        return (1,) + (0,) * order
    key, weight = ((a, b, c - 1), 6) if c else ((a, b - 1, c), 4) if b else ((a - 1, b, c), 2)
    prev = _monomial_coeffs(*key, order)
    size = _slot_bytes((order + 1) * max(map(abs, prev)) * _generator_ints(weight, order)[1])
    gen = _generator_pack(weight, order, size)
    return tuple(_unpack(_pack(prev, size) * gen, order + 1, size))


def qmod_expand(elem, order):
    """Expand an element of Q[E2,E4,E6] into a certified q-series: the int monomial
    columns summed over the coefficients' common denominator, as one row."""
    nums, den = _cleared(list(elem.terms.values()))
    acc = [0] * (order + 1)
    for key, c in zip(elem.terms, nums):
        acc = [a + c * x for a, x in zip(acc, _monomial_coeffs(*key, order))]
    return _as_series(YLaurent._normalized(0, acc, den, order), "q")


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


def basis_size(max_weight):
    """len(weight_basis(max_weight)), without listing it: the triples of weight
    2n are the partitions of n into parts 1, 2, 3, round((n + 3)^2 / 12) many."""
    return sum(((n + 3) ** 2 + 6) // 12 for n in range(max_weight // 2 + 1))


# 61-bit primes, tried in order; a prime that fakes a rank deficit is skipped
_PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45, 2**61 - 229)


def _eliminate(aug, n_cols, p):
    """Gaussian elimination of the int rows aug modulo p, column by column.

    Each row is packed into one int, one entry per slot, so a row operation is
    one multiply-add.  Entries stay nonnegative: a row gains (p - f) times the
    pivot row, whose entries are reduced, then drops its lowest slot (that
    step's column), so no slot reaches (n_cols + 1) p^2 and nothing carries.
    Returns (piv, low, pivots, rest): the pivot row of each column up to the
    first column with no pivot mod p (so len(piv) is that column); each row's
    multipliers, one per step it was reduced at and, for a pivot row, then the
    inverse of its pivot; each pivot row's entries from its column on, scaled
    to 1 there and reduced; and the packed rest of every other row, which after
    the last column is its eliminated rhs entry.
    """
    size = -(-((n_cols + 1) * p * p).bit_length() // 8)
    bits, mask = 8 * size, (1 << 8 * size) - 1

    def pack(vals):
        return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in vals), "little")

    rest = {i: pack([v % p for v in row]) for i, row in enumerate(aug)}
    piv, low, pivots = [], [[] for _ in aug], {}
    for k in range(n_cols):
        pr = next((i for i, r in rest.items() if (r & mask) % p), None)
        if pr is None:
            break
        raw = rest.pop(pr).to_bytes((n_cols + 1 - k) * size, "little")
        row = [int.from_bytes(raw[c:c + size], "little") % p for c in range(0, len(raw), size)]
        inv = pow(row[0], -1, p)
        pivots[pr] = row = [v * inv % p for v in row]
        low[pr].append(inv)
        packed = pack(row)
        for i, r in rest.items():
            f = (r & mask) % p
            low[i].append(f)
            rest[i] = (r + (p - f) * packed if f else r) >> bits
        piv.append(pr)
    return piv, low, pivots, rest


def _reconstruct(residues, m):
    """Integers (X, d) with X_i / d = the rational of residue i mod m, or None.

    Wang's rational reconstruction with numerator and denominator at most
    isqrt((m - 1) // 2), the denominators accumulated into d as it goes: a
    residue times the common denominator so far comes back as an integer at
    once when it is one.
    """
    bound = isqrt((m - 1) // 2)
    parts, d = [], 1
    for u in residues:
        r0, r1, t0, t1 = m, u * d % m, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if t1 < 0:
            r1, t1 = -r1, -t1
        if d * t1 > bound or gcd(t1, m) != 1:
            return None
        parts.append((r1, d * t1))
        d *= t1
    return [a * (d // b) for a, b in parts], d


def _lift(aug, piv, low, pivots, t, p):
    """Dixon lifting: solve for column t of aug in terms of its first r columns.

    The subsystem is the r x r block on the pivot rows, r = len(piv), which is
    nonsingular mod p.  Lifting step 1 back-substitutes the already eliminated
    column t; later steps replay the recorded row operations on the residual.
    Returns (bad, X, d): bad is None when aug[i][:r] . X == d * aug[i][t] on
    every row, else the first row that the unique subsystem solution X / d
    fails.  Once p^k exceeds 2 H^2, H the Hadamard bound of the subsystem with
    its rhs, reconstruction returns that solution, so a failing candidate
    proves that no solution exists.
    """
    r = len(piv)
    sub = [aug[i][:r] for i in piv]
    res = [aug[i][t] for i in piv]
    bound = 2 * prod(max(1, sum(v * v for v in col)) for col in [*zip(*sub), res])
    f_rows = [low[i] for i in piv]
    u_rows = [pivots[i][1:r - m] for m, i in enumerate(piv)]

    def back(z):
        y = [0] * r
        for k in range(r - 1, -1, -1):
            y[k] = (z[k] - sum(map(mul, u_rows[k], y[k + 1:]))) % p
        return y

    y, acc, mod = back([pivots[i][t - m] for m, i in enumerate(piv)]), [0] * r, 1
    while True:
        acc = [a + mod * v for a, v in zip(acc, y)]
        mod *= p
        cand = _reconstruct(acc, mod)
        if cand:
            x, d = cand
            bad = next((i for i, row in enumerate(aug) if sum(map(mul, row, x)) != d * row[t]),
                       None)
            if bad is None or mod > bound:
                return bad, x, d
        elif mod > bound:
            raise AssertionError("rational reconstruction failed past the Hadamard bound")
        res = [(v - sum(map(mul, row, y))) // p for v, row in zip(res, sub)]
        z = []
        for m in range(r):
            z.append((res[m] - sum(map(mul, f_rows[m], z))) * f_rows[m][m] % p)
        y = back(z)


def _solve_exact(columns, rhs, n_rows):
    """Solve columns * x = rhs over int, x as Fractions; each has n_rows entries.

    One LCM clears the rhs, and [A | b] is eliminated once modulo a 61-bit
    prime p.  A nonzero minor mod p is a nonzero integer minor, so:
    - a column with no pivot mod p is solved for in terms of the earlier ones;
      a kernel vector that holds exactly over int is InsufficientPrecision, and
      one that fails marks p as bad, so the next prime is tried;
    - a nonzero rhs below the pivots is NotQuasimodular, its rows the witness;
    - otherwise Dixon lifting on the pivot rows returns the first candidate
      that satisfies every one of the n_rows equations exactly.  That
      acceptance check is the certificate: a returned x solves the whole
      window, and past the Hadamard bound a failing candidate proves that
      nothing does (NotQuasimodular, witnessed by the pivot rows and the
      failing row).
    """
    n_cols = len(columns)
    nums, den = _cleared(rhs)
    aug = [(*row, v) for *row, v in zip(*columns, nums)]
    for p in _PRIMES:
        piv, low, pivots, rest = _eliminate(aug, n_cols, p)
        if len(piv) < n_cols:
            if _lift(aug, piv, low, pivots, len(piv), p)[0] is None:
                raise InsufficientPrecision("window too short to separate basis monomials")
            continue
        bad = next((i for i, r in rest.items() if r % p), None)
        if bad is None:
            bad, x, d = _lift(aug, piv, low, pivots, n_cols, p)
            if bad is None:
                return [Fraction(v, d * den) for v in x]
        raise NotQuasimodular("series is not quasimodular of the allowed weight",
                              sorted(piv + [bad]))
    raise AssertionError("no prime certified the rank of the recognition system")


def qmod_recognize(f, max_weight):
    """Find the element of weight <= max_weight whose expansion equals f.

    f must be a q-series with min_exp >= 0 and a window of at least
    dim(basis) + 5 coefficients.  _solve_exact accepts a solution only when it
    matches every coefficient of the window exactly, which is the statement
    qmod_expand(elem, f.order) == f, so the answer is a certificate.
    """
    if f.var != "q":
        raise ValueError("recognition expects a q-series")
    if f.coeffs and f.min_exp < 0:
        raise ValueError("series has a pole; multiply by the discriminant first")
    n_rows, dim = max(f.order + 1, 0), basis_size(max_weight)
    if n_rows < dim + 5:
        raise InsufficientPrecision(f"need at least {dim + 5} certified coefficients, have {n_rows}")
    basis = weight_basis(max_weight)
    columns = [_monomial_coeffs(*key, f.order) for key in basis]
    sol = _solve_exact(columns, [f.coeff(k) for k in range(n_rows)], n_rows)
    return QModElement(dict(zip(basis, sol)))


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
