"""Exact truncated Laurent series and symmetric Laurent polynomials.

Every series carries an explicit certified window [min_exp, order]: the
coefficients inside the window are exact rationals (or exact values of a
coefficient ring such as YLaurent, or a nested Series), coefficients below
min_exp are exactly zero, and nothing is claimed past the order.  Arithmetic
propagates the window pessimistically, so equality of two series always means
coefficient-wise equality on the common certified window.

Coefficients may be int/Fraction, YLaurent, or another Series (for bivariate
work an outer u-series holds q-series coefficients).  All operations stay
exact; no floats anywhere.  A YLaurent is a dense list of int numerators over
one common denominator, and a product of two series with rational
coefficients is fraction-free: one int convolution over cleared denominators.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import mul


class PrecisionError(Exception):
    """A coefficient past the certified window was requested."""


def _is_exact_zero(c):
    if isinstance(c, Series):
        return False
    if isinstance(c, YLaurent):
        return not c.nums
    return c == 0


def _is_scalar(c):
    return isinstance(c, (int, Fraction))


def _inv_coeff(c):
    """Multiplicative inverse of a unit coefficient."""
    if isinstance(c, Series):
        return series_inv(c)
    if isinstance(c, YLaurent):
        return c.inverse_unit()
    if c == 0:
        raise ZeroDivisionError("leading coefficient is zero")
    return Fraction(1) / c


class YLaurent:
    """Exact Laurent polynomial in y with rational coefficients.

    Stored dense over one common denominator: the value is
    sum_i nums[i] y^(lo + i) / den with int numerators, den > 0,
    gcd(den, *nums) == 1 and no zero numerator at either end (the zero
    polynomial is lo = 0, nums = [], den = 1).  The form is canonical, so
    equality compares fields, and a product is one int convolution.
    Supports the ring ops, the involution y -> 1/y, and the sign
    substitution y -> -y; `terms` is the read-only view exponent -> Fraction.
    """

    __slots__ = ("lo", "nums", "den")

    def __init__(self, terms=None):
        vals = {k: Fraction(v) for k, v in terms.items()} if terms else {}
        vals = {k: v for k, v in vals.items() if v}
        self.lo, self.nums, self.den = 0, [], 1
        if vals:
            # over the lcm of reduced denominators the numerators share no factor
            self.lo = min(vals)
            dense = [vals.get(k, 0) for k in range(self.lo, max(vals) + 1)]
            self.nums, self.den = _cleared(dense)

    @classmethod
    def _normalized(cls, lo, nums, den):
        """The polynomial sum nums[i] y^(lo+i) / den, trimmed and in lowest terms."""
        i, j = 0, len(nums)
        while i < j and not nums[i]:
            i += 1
        while j > i and not nums[j - 1]:
            j -= 1
        out = object.__new__(cls)
        if i == j:
            out.lo, out.nums, out.den = 0, [], 1
            return out
        if i or j < len(nums):
            nums = nums[i:j]
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = [x // g for x in nums]
                den //= g
        out.lo, out.nums, out.den = lo + i, nums, den
        return out

    @property
    def terms(self):
        """A fresh dict exponent -> nonzero Fraction."""
        return {self.lo + i: Fraction(x, self.den) for i, x in enumerate(self.nums) if x}

    def coeff(self, k):
        i = k - self.lo
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    def is_zero(self):
        return not self.nums

    def min_exp(self):
        if not self.nums:
            raise ValueError("zero polynomial has no support")
        return self.lo

    def max_exp(self):
        if not self.nums:
            raise ValueError("zero polynomial has no support")
        return self.lo + len(self.nums) - 1

    def conj(self):
        """The involution y -> 1/y."""
        return YLaurent._normalized(1 - self.lo - len(self.nums), self.nums[::-1], self.den)

    def substitute_neg(self):
        """The substitution y -> -y."""
        nums = [-x if (self.lo + i) % 2 else x for i, x in enumerate(self.nums)]
        return YLaurent._normalized(self.lo, nums, self.den)

    def is_symmetric(self):
        return self.nums == self.nums[::-1] and (not self.nums or self.max_exp() == -self.lo)

    def evaluate_one(self):
        """Value at y = 1."""
        return Fraction(sum(self.nums), self.den)

    def inverse_unit(self):
        if len(self.nums) != 1:
            raise ValueError("only monomials are invertible in YLaurent")
        n = self.nums[0]
        return YLaurent._normalized(-self.lo, [self.den if n > 0 else -self.den], abs(n))

    def __bool__(self):
        return bool(self.nums)

    def __neg__(self):
        return YLaurent._normalized(self.lo, [-x for x in self.nums], self.den)

    def __add__(self, other):
        if _is_scalar(other):
            other = YLaurent({0: other})
        if not isinstance(other, YLaurent):
            return NotImplemented
        if not other.nums:
            return self
        if not self.nums:
            return other
        den = lcm(self.den, other.den)
        lo = min(self.lo, other.lo)
        out = [0] * (max(self.max_exp(), other.max_exp()) - lo + 1)
        for p in (self, other):
            f = den // p.den
            for i, x in enumerate(p.nums, p.lo - lo):
                out[i] += x * f
        return YLaurent._normalized(lo, out, den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, YLaurent) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            return YLaurent._normalized(
                self.lo, [x * other.numerator for x in self.nums], self.den * other.denominator)
        if not isinstance(other, YLaurent):
            return NotImplemented
        a, b = self.nums, other.nums
        if not a or not b:
            return YLaurent()
        # out[k] = sum_i a[i] b[k-i], each one sum over a slice of a and reversed b
        la, lb, rb = len(a), len(b), b[::-1]
        out = [sum(map(mul, a[max(0, k - lb + 1):k + 1], rb[max(lb - 1 - k, 0):lb + la - 1 - k]))
               for k in range(la + lb - 1)]
        return YLaurent._normalized(self.lo + other.lo, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse_unit() ** (-n)
        out = YLaurent({0: 1})
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if _is_scalar(other):
            other = YLaurent({0: other})
        if not isinstance(other, YLaurent):
            return NotImplemented
        return (self.lo, self.den, self.nums) == (other.lo, other.den, other.nums)

    def __repr__(self):
        if not self.nums:
            return "YLaurent(0)"
        bits = [f"{Fraction(x, self.den)}*y^{self.lo + i}" for i, x in enumerate(self.nums) if x]
        return "YLaurent(" + " + ".join(bits) + ")"


class Series:
    """Truncated Laurent series with a certified coefficient window.

    coeffs[i] is the coefficient of var^(min_exp + i); the window is
    certified through var^order inclusive.  An empty window (order ==
    min_exp - 1) is a valid "nothing known" series.
    """

    def __init__(self, var, min_exp, coeffs, order=None):
        if order is None:
            order = min_exp + len(coeffs) - 1
        if len(coeffs) != order - min_exp + 1:
            raise ValueError("coefficient count does not match window")
        coeffs = list(coeffs)
        # normalize: leading exact zeros move the window floor up
        while coeffs and _is_exact_zero(coeffs[0]):
            coeffs.pop(0)
            min_exp += 1
        self.var = var
        self.min_exp = min_exp
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def zero(cls, var, order, min_exp=0):
        return cls(var, min_exp, [Fraction(0)] * (order - min_exp + 1), order)

    @classmethod
    def one(cls, var, order):
        return cls.monomial(var, 0, Fraction(1), order)

    @classmethod
    def monomial(cls, var, exp, coeff, order):
        if order < exp:
            raise ValueError("window does not reach the monomial")
        coeffs = [Fraction(0)] * (order - exp + 1)
        coeffs[0] = coeff
        return cls(var, exp, coeffs, order)

    def coeff(self, k):
        if k > self.order:
            raise PrecisionError(
                f"coefficient of {self.var}^{k} past certified order {self.order}")
        if k < self.min_exp:
            return Fraction(0)
        return self.coeffs[k - self.min_exp]

    def window(self):
        return (self.min_exp, self.order)

    def is_zero_on_window(self):
        return all(_is_exact_zero(c) or c == 0 for c in self.coeffs)

    def truncate(self, order):
        if order > self.order:
            raise PrecisionError("cannot extend a certified window")
        if order < self.min_exp:
            return Series(self.var, order + 1, [], order)
        return Series(self.var, self.min_exp, self.coeffs[: order - self.min_exp + 1], order)

    def scale(self, c):
        """Multiply every coefficient by a fixed ring element."""
        return Series(self.var, self.min_exp, [c * a for a in self.coeffs], self.order)

    def _check_var(self, other):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        if isinstance(other, Series):
            self._check_var(other)
            lo = min(self.min_exp, other.min_exp)
            hi = min(self.order, other.order)
            coeffs = [self.coeff(k) + other.coeff(k) for k in range(lo, hi + 1)]
            return Series(self.var, lo, coeffs, hi)
        if _is_exact_zero(other):
            return self
        # scalar (or YLaurent) adds at exponent 0
        if self.order < 0:
            raise PrecisionError("window does not reach exponent 0")
        lo = min(self.min_exp, 0)
        coeffs = [self.coeff(k) for k in range(lo, self.order + 1)]
        coeffs[0 - lo] = coeffs[0 - lo] + other
        return Series(self.var, lo, coeffs, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.var, self.min_exp, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product, certified from a.min_exp + b.min_exp through
        min(a.order + b.min_exp, b.order + a.min_exp).

        When every coefficient of both factors is an int or a Fraction the
        product is fraction-free: each factor's denominators are cleared by
        one lcm, the int lists are convolved, and each output coefficient is
        one Fraction(s, da * db).  YLaurent and nested-Series coefficients
        run the generic loop.  A non-series factor scales every coefficient.
        """
        if isinstance(other, Series) and other.var == self.var:
            a, b = self, other
            lo = a.min_exp + b.min_exp
            hi = min(a.order + b.min_exp, b.order + a.min_exp)
            if all(map(_is_scalar, a.coeffs)) and all(map(_is_scalar, b.coeffs)):
                n = hi - lo + 1
                x, da = _cleared(a.coeffs[:n])
                rev, db = _cleared(b.coeffs[:n][::-1])
                den = da * db
                # coefficient lo + k is sum_{i<=k} x[i] y[k-i], and y[k-i] = rev[n-1-k+i]
                coeffs = [Fraction(sum(map(mul, x[:k + 1], rev[n - 1 - k:])), den)
                          for k in range(n)]
                return Series(self.var, lo, coeffs, hi)
            coeffs = []
            for k in range(lo, hi + 1):
                acc = Fraction(0)
                i0 = max(a.min_exp, k - b.order)
                i1 = min(a.order, k - b.min_exp)
                for i in range(i0, i1 + 1):
                    acc = acc + a.coeffs[i - a.min_exp] * b.coeffs[k - i - b.min_exp]
                coeffs.append(acc)
            return Series(self.var, lo, coeffs, hi)
        if isinstance(other, Series):
            raise ValueError(
                f"variable mismatch: {self.var} vs {other.var} (use scale())")
        return self.scale(other)

    __rmul__ = scale

    def __pow__(self, n):
        if n < 0:
            return series_inv(self) ** (-n)
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                break
            base = base * base
        if out is None:
            return Series.one(self.var, self.order)
        return out

    def __eq__(self, other):
        if isinstance(other, Series):
            return self.var == other.var and first_mismatch(self, other) is None
        if _is_scalar(other) or isinstance(other, YLaurent):
            lo = min(self.min_exp, 0)
            for k in range(lo, self.order + 1):
                want = other if k == 0 else Fraction(0)
                if self.coeff(k) != want:
                    return False
            return True
        return NotImplemented

    def __repr__(self):
        bits = []
        for k in range(self.min_exp, min(self.order, self.min_exp + 7) + 1):
            c = self.coeff(k)
            if not _is_exact_zero(c):
                bits.append(f"{c!r}*{self.var}^{k}")
        tail = " + ..." if self.order > self.min_exp + 7 else ""
        body = " + ".join(bits) if bits else "0"
        return f"<Series {body}{tail} (order {self.order})>"


def _cleared(coeffs):
    """(nums, den): int numerators over one common denominator den = lcm."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def series_inv(a):
    """Inverse of a series whose leading coefficient is a unit.

    The certified order drops to a.order - 2*a.min_exp, which keeps the
    window honest for Laurent inputs such as q^-1 + 24 + ...
    """
    if not a.coeffs:
        raise ValueError("cannot invert a series with an empty window")
    m = a.min_exp
    lead = a.coeffs[0]
    if _is_exact_zero(lead):
        raise ValueError("leading coefficient must be a unit")
    b0 = _inv_coeff(lead)
    length = len(a.coeffs)
    out = [b0]
    for k in range(1, length):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc = acc + a.coeffs[j] * out[k - j]
        out.append(-(b0 * acc))
    return Series(a.var, -m, out, a.order - 2 * m)


def series_exp(a):
    """exp of a series with min_exp >= 1; result certified to a.order.

    With e = exp(a), var d/dvar e = e * var d/dvar a gives the recurrence
    k e_k = sum_{j=1..k} j a_j e_{k-j}: O(order^2) coefficient products and
    no Series product.  Coefficients may be scalars or nested series.
    """
    if a.min_exp < 1:
        raise ValueError("series_exp needs positive valuation")
    order = a.order
    d = [None] + [j * a.coeff(j) for j in range(1, order + 1)]
    return Series(a.var, 0, _exp_recurrence(d, order, Fraction(1)), order)


def series_log(a):
    """log of a series whose constant term is exactly the scalar 1.

    With l = log(a), var d/dvar a = a * var d/dvar l gives the recurrence
    k l_k = k a_k - sum_{j=1..k-1} j l_j a_{k-j}: O(order^2) coefficient
    products and no Series product.
    """
    if a.min_exp > 0:
        raise ValueError("series_log needs constant term 1")
    lead = a.coeff(0)
    if not (_is_scalar(lead) and lead == 1 and a.min_exp == 0):
        raise ValueError("series_log needs an exact scalar 1 constant term")
    eps = a - 1
    if eps.coeffs and eps.min_exp < 1:
        raise ValueError("series_log needs an exact scalar 1 constant term")
    order = a.order
    if not eps.coeffs:
        return Series.zero(a.var, order)
    e = [eps.coeff(k) for k in range(order + 1)]
    # b[k] = k l_k, the coefficients of var d/dvar log(a)
    b = [None]
    for k in range(1, order + 1):
        acc = k * e[k]
        for j in range(1, k):
            acc = acc - b[j] * e[k - j]
        b.append(acc)
    coeffs = [Fraction(0)] + [b[k] * Fraction(1, k) for k in range(1, order + 1)]
    return Series(a.var, 0, coeffs, order)


def q_derive(a):
    """The operator q d/dq (or var d/dvar): multiply coefficient k by k."""
    coeffs = [k * a.coeffs[k - a.min_exp] for k in range(a.min_exp, a.order + 1)]
    return Series(a.var, a.min_exp, coeffs, a.order)


def first_mismatch(a, b):
    """First exponent where two series differ on their common window, or None.

    Series.__eq__ is this scan, so a None result is exactly a == b (for
    series in the same variable).
    """
    lo = min(a.min_exp, b.min_exp)
    hi = min(a.order, b.order)
    for k in range(lo, hi + 1):
        if a.coeff(k) != b.coeff(k):
            return k
    return None


def weighted_product(exponents, order, default=0, var="q"):
    """Product over n >= 1 of (1 - q^n)^e(n), expanded exactly to order.

    exponents maps n to an integer exponent; missing n fall back to default.
    The log-derivative q d/dq log P = -sum_m c_m q^m has c_m = sum_{n|m} n e(n),
    read off a divisor sieve; the coefficients then follow from the integer
    recurrence m p_m = -sum_{j=1..m} c_j p_{m-j} in O(order^2) operations.
    """
    if order < 0:
        raise ValueError("window does not reach the constant term")
    d = [0] * (order + 1)
    for n in range(1, order + 1):
        e = exponents.get(n, default)
        if e:
            for m in range(n, order + 1, n):
                d[m] -= n * e
    return Series(var, 0, [Fraction(c) for c in _exp_recurrence(d, order, 1)], order)


def _exp_recurrence(d, n, one):
    """p_0..p_n of the series p with p_0 = one and var d/dvar log p = sum d_j var^j.

    Runs m p_m = sum_{j=1..m} d_j p_{m-j}, O(n^2) coefficient products; d[0]
    is ignored and exact-zero d_j are skipped.  Over int the division by m
    is exact (a remainder is an AssertionError); any other ring (Fraction,
    YLaurent, nested Series) multiplies by Fraction(1, m).
    """
    support = [j for j in range(1, n + 1) if not _is_exact_zero(d[j])]
    zero = one * 0  # in the ring of `one`, so a sum with no terms keeps its type
    p = [one]
    for m in range(1, n + 1):
        acc = zero
        for j in support:
            if j > m:
                break
            acc = acc + d[j] * p[m - j]
        if isinstance(acc, int):
            acc, rem = divmod(acc, m)
            if rem:
                raise AssertionError("integer log-derivative recurrence is not exact")
            p.append(acc)
        else:
            p.append(acc * Fraction(1, m))
    return p


def _w_numerators(p):
    """(b, den) with p = sum_d b[d] w^d / den, w = y + 1/y, b over int.

    Peels the top power off the numerators for y^0..y^top: w^d contributes
    C(d, k) at y^(d - 2k), so the reduction never leaves the int list.
    """
    if not isinstance(p, YLaurent):
        p = YLaurent({0: p})
    if not p.is_symmetric():
        raise ValueError("polynomial is not symmetric under y -> 1/y")
    if p.is_zero():
        return [0], 1
    top = p.max_exp()
    rem = p.nums[top:]  # rem[e] is the numerator of y^e, e = 0..top
    out = [0] * (top + 1)
    for d in range(top, -1, -1):
        c = out[d] = rem[d]
        if c:
            for k in range(d // 2 + 1):
                rem[d - 2 * k] -= c * comb(d, k)
    return out, p.den


def to_w_basis(p):
    """Rewrite a symmetric YLaurent as a polynomial in w = y + 1/y.

    Returns the list [b_0, b_1, ...] with p = sum b_d * w^d.
    """
    b, den = _w_numerators(p)
    return [Fraction(x, den) for x in b]


def symmetric_to_z(p):
    """Coefficients of a symmetric YLaurent in the basis z^g, z = y - 2 + 1/y.

    Returns [a_0, a_1, ...]; the z-degree equals the y-degree of p.
    """
    b, den = _w_numerators(p)
    out = [0] * len(b)
    # w = z + 2, so w^d = sum_g C(d,g) 2^(d-g) z^g
    for d, bd in enumerate(b):
        if bd:
            for g in range(d + 1):
                out[g] += bd * comb(d, g) * 2 ** (d - g)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return [Fraction(x, den) for x in out]


def sin_half_square(order, multiple=1, var="u"):
    """(2 sin(multiple*u/2))^2 = 2 - 2 cos(multiple*u) as an exact u-series."""
    d = multiple
    coeffs = [Fraction(0)] * max(order - 1, 0)
    for j in range(1, order // 2 + 1):
        coeffs[2 * j - 2] = Fraction((-1) ** (j + 1) * 2 * d ** (2 * j), factorial(2 * j))
    # below order 2 the window is empty: [order + 1, order]
    return Series(var, min(2, order + 1), coeffs, order)


def trig_substitute(p, order, var="u"):
    """Substitute y = -e^{iu} (so w = y + 1/y -> s^2 - 2, s = 2 sin(u/2)).

    p must be symmetric; the result is an even exact u-series.
    """
    b = to_w_basis(p)
    base = sin_half_square(order, 1, var) - 2
    acc = Series.monomial(var, 0, b[-1], order)
    for d in range(len(b) - 2, -1, -1):
        acc = acc * base + b[d]
    return acc.truncate(order)


def series_to_text(a):
    """Serialize to the exchange format: header line, then exponent lines.

    Every exponent in the window appears, zeros included, so the window
    round-trips exactly.  Coefficients must be plain rationals.
    """
    if a.var not in ("q", "u", "y"):
        raise ValueError(f"text format only covers q, u, y series (got {a.var})")
    lines = [f"var={a.var} order={a.order}"]
    for k in range(a.min_exp, a.order + 1):
        c = a.coeff(k)
        if not _is_scalar(c):
            raise ValueError("text format only covers rational coefficients")
        c = Fraction(c)
        lines.append(f"{k}: {c.numerator}/{c.denominator}")
    return "\n".join(lines) + "\n"


def series_from_text(text):
    """Parse the exchange format of series_to_text; a gap in the window raises."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty series text")
    head = lines[0].split()
    if len(head) != 2 or not head[0].startswith("var=") or not head[1].startswith("order="):
        raise ValueError(f"bad series header: {lines[0]!r}")
    var = head[0][4:]
    if var not in ("q", "u", "y"):
        raise ValueError(f"bad series variable: {var!r}")
    order = int(head[1][6:])
    entries = {}
    for ln in lines[1:]:
        exp_part, _, val = ln.partition(":")
        if not _:
            raise ValueError(f"bad series line: {ln!r}")
        k = int(exp_part.strip())
        if k in entries:
            raise ValueError(f"duplicate exponent {k}")
        if k > order:
            raise ValueError(f"exponent {k} past declared order {order}")
        entries[k] = parse_rational(val)
    if not entries:
        return Series(var, order + 1, [], order)
    lo = min(entries)
    if len(entries) != order - lo + 1:
        raise ValueError(f"exponents {lo}..{order} are not all present")
    return Series(var, lo, [entries[k] for k in range(lo, order + 1)], order)


def parse_rational(text):
    """Parse 'p' or 'p/q' exactly; a zero denominator is a ValueError."""
    num, slash, den = text.strip().partition("/")
    if slash and int(den) == 0:
        raise ValueError(f"zero denominator in {text.strip()!r}")
    return Fraction(int(num), int(den)) if slash else Fraction(int(num))
