"""Exact truncated Laurent series and symmetric Laurent polynomials.

Every series carries an explicit certified window [min_exp, order]: the
coefficients inside the window are exact rationals (or exact values of a
coefficient ring such as YLaurent, or a nested Series), coefficients below
min_exp are exactly zero, and nothing is claimed past the order.  Arithmetic
propagates the window pessimistically, so equality of two series always means
coefficient-wise equality on the common certified window.

Coefficients may be int/Fraction, YLaurent, or another Series (for bivariate
work an outer u-series holds q-series coefficients).  All operations stay
exact; no floats anywhere.  The kernels run over int rows: a YLaurent is a
dense list of int numerators over one denominator, and the same layout with
a window holds a rational q-series, so a scalar product is one convolution,
series_inv, series_exp and series_log run one int recurrence over a running
common denominator (_running_recurrence), and a nested series runs its
product, inverse, exp and log over rows (where an exact scalar zero imposes
no inner window), converted back once per call.
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
        return not c.nums and c.hi is None
    return c == 0


def _is_scalar(c):
    return isinstance(c, (int, Fraction))


class YLaurent:
    """Exact Laurent polynomial in y with rational coefficients.

    Stored dense over one common denominator: the value is
    sum_i nums[i] y^(lo + i) / den with int numerators, den > 0,
    gcd(den, *nums) == 1 and no zero numerator at either end (the zero
    polynomial is lo = 0, nums = [], den = 1).  The form is canonical, so
    equality compares fields, and a product is one int convolution.
    Supports the ring ops, the involution y -> 1/y, and the sign
    substitution y -> -y; `terms` is the read-only view exponent -> Fraction.

    The same layout is the row of nested series (see _rowwise): a row from
    a q-series is certified only through var^hi (zeros up to hi implied; an
    empty row has lo = hi + 1), products and sums follow Series' window
    rules, and its inverse_unit is the series inverse.  Polynomials and
    scalars have hi None: exact, so they cap no window.
    """

    __slots__ = ("lo", "nums", "den", "hi")

    def __init__(self, terms=None):
        vals = {k: Fraction(v) for k, v in terms.items()} if terms else {}
        vals = {k: v for k, v in vals.items() if v}
        self.lo, self.nums, self.den, self.hi = 0, [], 1, None
        if vals:
            # over the lcm of reduced denominators the numerators share no factor
            self.lo = min(vals)
            dense = [vals.get(k, 0) for k in range(self.lo, max(vals) + 1)]
            self.nums, self.den = _cleared(dense)

    @classmethod
    def _normalized(cls, lo, nums, den, hi=None):
        """sum nums[i] y^(lo+i) / den (certified through y^hi), trimmed, in lowest terms."""
        i, j = 0, len(nums)
        while i < j and not nums[i]:
            i += 1
        while j > i and not nums[j - 1]:
            j -= 1
        out = object.__new__(cls)
        out.hi = hi
        if i == j:
            out.lo, out.nums, out.den = 0 if hi is None else hi + 1, [], 1
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
        if self.hi is not None:
            # a row: b_k = -(1/x_0) sum_{j=1..k} x_j b_{k-j}, b_0 = den / x_0
            if not self.nums:
                raise ValueError("cannot invert a series with an empty window")
            n = self.hi - self.lo + 1
            x, den = self.nums + [0] * (n - len(self.nums)), self.den
            if x[0] < 0:
                x, den = [-v for v in x], -den
            g = gcd(den, x[0])
            nums, d = _running_recurrence(x, [x[0]] * n, (den // g, x[0] // g))
            return YLaurent._normalized(-self.lo, nums, d, self.hi - 2 * self.lo)
        if len(self.nums) != 1:
            raise ValueError("only monomials are invertible in YLaurent")
        n = self.nums[0]
        return YLaurent._normalized(-self.lo, [self.den if n > 0 else -self.den], abs(n))

    def __bool__(self):
        return bool(self.nums)

    def __neg__(self):
        return YLaurent._normalized(self.lo, [-x for x in self.nums], self.den, self.hi)

    def __add__(self, other):
        if _is_scalar(other):
            other = YLaurent({0: other})
        if not isinstance(other, YLaurent):
            return NotImplemented
        if not other.nums and other.hi is None:
            return self
        if not self.nums and self.hi is None:
            return other
        den, lo = lcm(self.den, other.den), min(self.lo, other.lo)
        hi = other.hi if self.hi is None else self.hi if other.hi is None else min(self.hi, other.hi)
        n = max(self.lo + len(self.nums), other.lo + len(other.nums)) - lo
        out = [0] * (n if hi is None else min(n, hi - lo + 1))
        for p in (self, other):
            f, off = den // p.den, p.lo - lo
            for i, x in enumerate(p.nums if hi is None else p.nums[:max(len(out) - off, 0)], off):
                out[i] += x * f
        return YLaurent._normalized(lo, out, den, hi)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, YLaurent) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            return YLaurent._normalized(self.lo, [x * other.numerator for x in self.nums],
                                        self.den * other.denominator, self.hi if other else None)
        if not isinstance(other, YLaurent):
            return NotImplemented
        a, b, lo = self.nums, other.nums, self.lo + other.lo
        if (not a and self.hi is None) or (not b and other.hi is None):
            return YLaurent()
        hi = None if self.hi is other.hi is None else min(
            h + m for h, m in ((self.hi, other.lo), (other.hi, self.lo)) if h is not None)
        n = len(a) + len(b) - 1
        out = _conv(a, b, n if hi is None else min(n, hi - lo + 1))
        return YLaurent._normalized(lo, out, self.den * other.den, hi)

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
        return (self.lo, self.den, self.nums, self.hi) == (other.lo, other.den, other.nums, other.hi)

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
        """Multiply every coefficient by a fixed ring element (exact zero: exact zeros)."""
        if _is_scalar(c) and c == 0:
            return Series.zero(self.var, self.order, self.min_exp)
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

        Rational factors are fraction-free: one int convolution of the two
        cleared rows.  Nested factors (scalar and q-series coefficients) run
        the coefficient loop over rows, where an exact scalar zero imposes no
        inner window; YLaurent coefficients run it as they are.  A non-series
        factor scales every coefficient.
        """
        if isinstance(other, Series) and other.var == self.var:
            a, b = self, other
            if all(map(_is_scalar, a.coeffs)) and all(map(_is_scalar, b.coeffs)):
                return _unrow(_row(a) * _row(b), self.var)
            return _generic_mul(a, b)
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
            const = Series.monomial(self.var, 0, other, max(self.order, 0))
            return first_mismatch(self, const) is None
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


def _conv(a, b, n):
    """The first n coefficients of the product of two int lists (zero past their ends)."""
    la, lb, rb = len(a), len(b), b[::-1]
    return [sum(map(mul, a[max(0, k - lb + 1):k + 1], rb[max(lb - 1 - k, 0):lb + la - 1 - k]))
            for k in range(n)]


def _running_recurrence(w, div, first, top=None):
    """(c, E) with out_k = c[k] / E for k < len(w), E the lcm of their reduced denominators.

    out_0 = first[0] / first[1] in lowest terms (first[1] > 0), and
    out_k = (top[k] - sum_{j=1..k} w[j] out_{k-j}) / div[k] over int, div[k] > 0.
    Over the running denominator E the step is num / (div[k] E) with num one
    dot product, and E grows by exactly div[k] / gcd(num, div[k]), so the
    one gcd per step never involves E.  Only the last m outputs (w[j] = 0
    past m) are read again: they are rescaled when E grows, older ones once
    at the end.  No power of a global denominator enters, so the numbers grow
    only as far as the true denominators do.
    """
    n = len(w)
    m = max((j for j in range(1, n) if w[j]), default=0)
    rw = w[m:0:-1]  # w[j] pairs with out_{k-j} in rw[m - len(live):]
    live, e = [first[0]], first[1]
    done, grow = [], [1] * n  # out_i leaves live at step i + m + 1, over E_{i+m}
    for k in range(1, n):
        if len(live) > m:
            done.append(live.pop(0))
        num = -sum(map(mul, rw[m - len(live):], live))
        if top is not None:
            num += top[k] * e
        g = gcd(num, div[k])
        if g != div[k]:
            f = grow[k] = div[k] // g
            live = [v * f for v in live]
            e *= f
        live.append(num // g)
    scale = 1  # E / E_t for t = n - 1 down to m
    for t in range(n - 1, m - 1, -1):
        if t - m < len(done):
            done[t - m] *= scale
        scale *= grow[t]
    return done + live, e


def _row(c):
    """A scalar, or a Series of scalars, as one YLaurent row (a window for the Series)."""
    if isinstance(c, Series):
        return YLaurent._normalized(c.min_exp, *_cleared(c.coeffs), c.order)
    return YLaurent._normalized(0, *_cleared([c]))


def _unrow(r, var):
    """A row back as a Fraction (rows without a window) or a var-Series."""
    if r.hi is None:
        return r.coeff(0)
    pad = [Fraction(0)] * (r.hi - r.lo + 1 - len(r.nums))
    return Series(var, r.lo, [Fraction(x, r.den) for x in r.nums] + pad, r.hi)


def _rowwise(kernel):
    """kernel with the coefficients of nested series arguments as YLaurent rows.

    Applies when some coefficient is a Series and every one is a scalar or a
    Series of scalars in one variable; the result is converted back once.
    Otherwise (scalar series, YLaurent coefficients) kernel runs as it is.
    """
    def run(*args):
        var = None
        for c in (c for s in args for c in s.coeffs):
            if isinstance(c, Series) and var in (None, c.var) and all(map(_is_scalar, c.coeffs)):
                var = c.var
            elif not _is_scalar(c):
                return kernel(*args)
        if var is None:
            return kernel(*args)
        out = kernel(*[Series(s.var, s.min_exp, list(map(_row, s.coeffs)), s.order)
                       for s in args])
        coeffs = [_unrow(c, var) if isinstance(c, YLaurent) else c for c in out.coeffs]
        return Series(out.var, out.min_exp, coeffs, out.order)
    return run


@_rowwise
def _generic_mul(a, b):
    """The coefficient-by-coefficient Series product, over any coefficient ring."""
    lo = a.min_exp + b.min_exp
    hi = min(a.order + b.min_exp, b.order + a.min_exp)
    coeffs = []
    for k in range(lo, hi + 1):
        acc = Fraction(0)
        for i in range(max(a.min_exp, k - b.order), min(a.order, k - b.min_exp) + 1):
            acc = acc + a.coeffs[i - a.min_exp] * b.coeffs[k - i - b.min_exp]
        coeffs.append(acc)
    return Series(a.var, lo, coeffs, hi)


@_rowwise
def series_inv(a):
    """Inverse of a series whose leading coefficient is a unit.

    The certified order drops to a.order - 2*a.min_exp, which keeps the
    window honest for Laurent inputs such as q^-1 + 24 + ...  Rational input
    (and every inner row of a nested series) runs YLaurent.inverse_unit: with
    a = q^m (x_0 + x_1 q + ...) / D over int, b_k = -(1/x_0) sum_j x_j b_{k-j}
    over a running common denominator (_running_recurrence).  Other rings run
    b_k = -b_0 sum_{j=1..k} a_j b_{k-j}; nested series run it over rows.
    """
    if not a.coeffs:
        raise ValueError("cannot invert a series with an empty window")
    m = a.min_exp
    if all(map(_is_scalar, a.coeffs)):
        return _unrow(_row(a).inverse_unit(), a.var)
    lead = a.coeffs[0]
    b0 = (lead.inverse_unit() if isinstance(lead, YLaurent) else
          series_inv(lead) if isinstance(lead, Series) else Fraction(1) / lead)
    out = [b0]
    for k in range(1, len(a.coeffs)):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc = acc + a.coeffs[j] * out[k - j]
        out.append(-(b0 * acc))
    return Series(a.var, -m, out, a.order - 2 * m)


def _padded(r, n):
    """The numerators of a row at exponents 0..n-1 (r.lo >= 0)."""
    return ([0] * r.lo + r.nums + [0] * n)[:n]


@_rowwise
def series_exp(a):
    """exp of a series with min_exp >= 1; result certified to a.order.

    With e = exp(a), var d/dvar e = e * var d/dvar a gives the recurrence
    k e_k = sum_{j=1..k} j a_j e_{k-j}: O(order^2) coefficient products and
    no Series product.  Rational input a = x / D runs it over int as
    e_k = sum_j j x_j e_{k-j} / (k D) with a running common denominator
    (_running_recurrence).  Nested series run it over rows: no inner
    q-Series is built per term.
    """
    if a.min_exp < 1:
        raise ValueError("series_exp needs positive valuation")
    n = a.order + 1
    if all(map(_is_scalar, a.coeffs)):
        r = _row(a)
        w = [-j * v for j, v in enumerate(_padded(r, n))]
        nums, den = _running_recurrence(w, [k * r.den for k in range(n)], (1, 1))
        return _unrow(YLaurent._normalized(0, nums, den, a.order), a.var)
    d = [None] + [j * a.coeff(j) for j in range(1, n)]
    return Series(a.var, 0, _exp_recurrence(d, a.order, Fraction(1)), a.order)


@_rowwise
def series_log(a):
    """log of a series whose constant term is exactly the scalar 1.

    With l = log(a), var d/dvar a = a * var d/dvar l gives the recurrence
    k l_k = k a_k - sum_{j=1..k-1} j l_j a_{k-j}: O(order^2) coefficient
    products and no Series product.  Rational input a = x / D (x_0 = D) runs
    b_k = k l_k = (k x_k - sum_j x_j b_{k-j}) / D over int with a running
    common denominator (_running_recurrence); nested series run over rows.
    """
    eps = a - 1
    if eps.coeffs and eps.min_exp < 1:
        raise ValueError("series_log needs an exact scalar 1 constant term")
    order = a.order
    if not eps.coeffs:
        return Series.zero(a.var, order)
    if all(map(_is_scalar, a.coeffs)):
        r = _row(a)
        x = _padded(r, order + 1)
        b, den = _running_recurrence(x, [r.den] * (order + 1), (0, 1),
                                     [k * v for k, v in enumerate(x)])
        f = lcm(*(k // gcd(v, k) for k, v in enumerate(b) if k))  # l_k = b_k / k over den * f
        nums = [v * f // k if k else 0 for k, v in enumerate(b)]
        return _unrow(YLaurent._normalized(0, nums, den * f, order), a.var)
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
    YLaurent and its rows) multiplies by Fraction(1, m).
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
