"""Exact truncated Laurent series and symmetric Laurent polynomials.

Every series carries an explicit certified window [min_exp, order]: the
coefficients inside the window are exact rationals (or exact YLaurent values),
coefficients below min_exp are exactly zero, and nothing is claimed past the
order.  Arithmetic propagates the window pessimistically, so equality of two
series always means coefficient-wise equality on the common certified window.

Coefficients may be int/Fraction or YLaurent; no coefficient is ever a float.
The kernels run over int rows: a YLaurent is a dense list of int numerators
over one denominator, and a rational Series stores that row with its window,
so a scalar product is one convolution.  series_inv, series_exp and series_log
run one recurrence per ring: _running_recurrence over int, with a running
common denominator, and _row_recurrence over rows (the windowed u-coefficients
of a (u, q) series, the y-polynomials of a (y, q) series), one packed big-int
dot product per step (Kronecker substitution, _row_dot), as is each output row
of a two-variable product.  Eta products are powers of Euler's sparse
pentagonal series (_sparse_power), other powers square-and-multiply (_power).
A (u, q) series is a u-Series of windowed q-rows or exact scalars, where an
exact zero imposes no inner window; a Series coefficient raises TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, isqrt, lcm
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

    The same layout is the row of a two-variable series: a row from a
    q-series is certified only through var^hi (zeros up to hi implied, coeff
    raises PrecisionError past it; an empty row has lo = hi + 1), products
    and sums follow Series' window rules, equality compares the common
    certified window as Series equality does, and its inverse_unit is the
    series inverse.  Polynomials and scalars have hi None: exact, so they cap
    no window, and two of them compare field by field.
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
        if self.hi is not None and k > self.hi:
            raise PrecisionError(f"coefficient of var^{k} past certified order {self.hi}")
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
            return _scaled(self, other) if other else YLaurent()
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
        return _power(self.inverse_unit() if n < 0 else self, abs(n), YLaurent({0: 1}))

    def __eq__(self, other):
        if _is_scalar(other):
            other = YLaurent({0: other})
        if not isinstance(other, YLaurent):
            return NotImplemented
        hi = min((r.hi for r in (self, other) if r.hi is not None), default=None)
        a, b = (r if hi is None else YLaurent._normalized(  # on the common certified window
            r.lo, r.nums[:max(hi - r.lo + 1, 0)], r.den) for r in (self, other))
        return (a.lo, a.den, a.nums) == (b.lo, b.den, b.nums)

    def __repr__(self):
        if not self.nums:
            return "YLaurent(0)"
        bits = [f"{Fraction(x, self.den)}*y^{self.lo + i}" for i, x in enumerate(self.nums) if x]
        return "YLaurent(" + " + ".join(bits) + ")"


class Series:
    """Truncated Laurent series with a certified coefficient window.

    coeffs[i] is the coefficient of var^(min_exp + i); the window is
    certified through var^order inclusive.  An empty window (order ==
    min_exp - 1) is a valid "nothing known" series.  A series is never mutated,
    so a rational one keeps its int row (_row); coeffs builds Fractions on first read.
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
        self.var, self.min_exp, self.order, self._c, self._r = var, min_exp, order, coeffs, None

    @property
    def coeffs(self):
        if self._c is None:
            r = self._r
            pad = [Fraction(0)] * (r.hi - r.lo + 1 - len(r.nums))
            self._c = [Fraction(x, r.den) for x in r.nums] + pad
        return self._c

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
        return cls(var, exp, [coeff] + [Fraction(0)] * (order - exp), order)

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
        return all(c == 0 for c in self.coeffs)

    def truncate(self, order):
        """Certified only through var^order: a built Fraction list is sliced, else the row cut."""
        if order > self.order:
            raise PrecisionError("cannot extend a certified window")
        if self._c is None:
            r = self._r
            nums = r.nums[:max(order - r.lo + 1, 0)]
            return _as_series(YLaurent._normalized(r.lo, nums, r.den, order), self.var)
        lo = min(self.min_exp, order + 1)  # an empty window past the cut
        return Series(self.var, lo, self.coeffs[:order - lo + 1], order)

    def scale(self, c):
        """Multiply every coefficient by a fixed ring element (exact zero: exact zeros)."""
        if _is_scalar(c) and c == 0:
            return Series.zero(self.var, self.order, self.min_exp)
        if _is_scalar(c) and _scalar_coeffs(self):
            return _as_series(_scaled(_row(self), c), self.var)
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
        cleared rows.  YLaurent coefficients (q-rows of a (u, q) series,
        y-polynomials of a (y, q) series) and scalars run _generic_mul: one
        big-int product of packed rows per pair, where an exact zero imposes
        no inner window.  Any other coefficient, a Series included, raises
        TypeError.  A non-series factor scales every coefficient.
        """
        if isinstance(other, Series) and other.var == self.var:
            a, b = self, other
            if _scalar_coeffs(a) & _scalar_coeffs(b):  # & checks both factors
                return _as_series(_row(a) * _row(b), self.var)
            return _generic_mul(a, b)
        if isinstance(other, Series):
            raise ValueError(
                f"variable mismatch: {self.var} vs {other.var} (use scale())")
        return self.scale(other)

    __rmul__ = scale

    def __pow__(self, n):
        _scalar_coeffs(self)  # the TypeError check, also where n = 0 or 1 makes no product
        return _power(series_inv(self) if n < 0 else self, abs(n), Series.one(self.var, self.order))

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


def _power(base, n, one):
    """base ** n (n >= 0) by square and multiply, or one when n == 0.  The
    product starts from the first factor, so no unit factor caps a window."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return one if out is None else out
        base = base * base


def _slot_bytes(bound):
    """Bytes per signed slot that holds every int v with |v| <= bound."""
    return bound.bit_length() // 8 + 1


def _bias(n, size):
    """2^(8 size - 1) in each of n slots of size bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")


def _pack(vals, size):
    """sum_t vals[t] 2^(8 size t): ints with |v| < 2^(8 size - 1), one per slot.

    Packed through biased bytes, so a product of two packs is the packed
    convolution (Kronecker substitution) while no slot of it overflows.
    """
    half = 1 << 8 * size - 1
    raw = b"".join((v + half).to_bytes(size, "little") for v in vals)
    return int.from_bytes(raw, "little") - _bias(len(vals), size)


def _unpack(x, n, size):
    """The first n signed slots of x, each of absolute value < 2^(8 size - 1).

    Adding the per-slot bias makes every slot nonnegative, so reading the
    bytes loses no borrow; the slots past n drop out modulo 2^(8 size n).
    """
    half = 1 << 8 * size - 1
    raw = ((x + _bias(n, size)) & ((1 << 8 * size * n) - 1)).to_bytes(size * n, "little")
    return [int.from_bytes(raw[i:i + size], "little") - half for i in range(0, size * n, size)]


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
    """A row as it is; a scalar, or a Series of scalars (windowed, cleared once), as one row."""
    if isinstance(c, YLaurent):
        return c
    if isinstance(c, Series):
        if c._r is None:
            c._r = YLaurent._normalized(c.min_exp, *_cleared(c.coeffs), c.order)
        return c._r
    return YLaurent._normalized(0, *_cleared([c]))


def _as_series(r, var, shift=0):
    """The var-Series backed by the windowed row r times var^shift; no Fraction is built."""
    if shift:
        r = YLaurent._normalized(r.lo + shift, r.nums, r.den, r.hi + shift)
    out = object.__new__(Series)
    out.var, out.min_exp, out.order, out._c, out._r = var, r.lo, r.hi, None, r
    return out


def _scaled(c, f):
    """f c for a nonzero scalar f: a scalar, or a row over the same window."""
    if _is_scalar(c):
        return f * c
    nums = [x * f.numerator for x in c.nums]
    return YLaurent._normalized(c.lo, nums, c.den * f.denominator, c.hi)


def _scalar_coeffs(a):
    """True if all coefficients of a are scalars, False if the rest are YLaurent, else TypeError."""
    if a._r is not None or all(map(_is_scalar, a.coeffs)):
        return True
    if all(isinstance(c, YLaurent) or _is_scalar(c) for c in a.coeffs):
        return False
    raise TypeError("coefficients must be int, Fraction or YLaurent (q-rows, not q-Series)")


def _row_dot(pairs, packs, size, div=1):
    """(sum x y / div over the row pairs (x, y) as one normalized row, slot width).

    Every pair is live, and there is at least one: callers drop each pair
    with an exact zero (no numerators, no window) and make a sum with no live
    pair the exact zero directly.  Over D div, D the lcm of den_x den_y, the
    numerators are the slots of sum (D / (den_x den_y)) pack(x) pack(y),
    shifted to the row's floor.  A slot is at most
    sum (D / (den_x den_y)) min(len_x, len_y) peak_x peak_y (peak: the
    largest |numerator|), and every packed numerator must fit; the width is
    that bound in whole 4-byte words, never below `size`.  packs maps id(row)
    to [row, peak, width, pack] across the calls of one kernel: a row is
    re-packed only when the width grows, and the entry keeps its row alive,
    so no later row can reuse the id.  A pair is certified through
    min(hi_x + lo_y, hi_y + lo_x), as a YLaurent product is.
    """
    ents = []
    for x, y in pairs:
        px, py = (packs.get(id(r)) or packs.setdefault(
            id(r), [r, max(map(abs, r.nums), default=0), 0, 0]) for r in (x, y))
        ents.append((x, y, px, py, x.den * y.den))
    den, bound, peak, inf = lcm(*[e[4] for e in ents]), 0, 0, float("inf")
    floor, hi, top, acc = inf, inf, -inf, 0
    for x, y, px, py, d in ents:
        bound += den // d * min(len(x.nums), len(y.nums)) * px[1] * py[1]
        peak, floor = max(peak, px[1], py[1]), min(floor, x.lo + y.lo)
    size = max(size, -(-_slot_bytes(max(bound, peak)) // 4) * 4)
    for x, y, px, py, d in ents:
        for r, p in ((x, px), (y, py)):
            if p[2] != size:
                p[2:] = size, _pack(r.nums, size)
        hi = min(hi, inf if x.hi is None else x.hi + y.lo, inf if y.hi is None else y.hi + x.lo)
        top = max(top, x.lo + y.lo + len(x.nums) + len(y.nums) - 2)
        acc += px[3] * (den // d) * py[3] << 8 * size * (x.lo + y.lo - floor)
    m = min(top, hi) - floor + 1
    return YLaurent._normalized(floor, _unpack(acc, m, size) if m > 0 else [], den * div,
                                None if hi == inf else hi), size


def _row_recurrence(w, div, first, top=None, unit=None):
    """p_0..p_{n-1} (n = len(w)): p_0 = first and
    p_m = unit (top[m] + sum_{j=1..m} w[j] p_{m-j}) / div[m].

    w, top and first hold scalars and YLaurent rows (w[0], top[0] unread),
    div ints > 0, unit a row or None.  Step m is one packed dot (_row_dot)
    over the pairs with no exact zero, top[m] paired with the exact row 1; a
    step with no such pair is the exact zero, with no dot.  A row unit
    multiplies a sum that is not an exact zero in one more dot, so the window
    is that of unit * sum.  p_m is a scalar when no unit is given and first,
    top[m] and both factors of each pair whose w[j] is not an exact zero are
    scalars.
    """
    rw = {j: _row(c) for j, c in enumerate(w) if j and not _is_exact_zero(c)}
    p, rows, packs, size, one = [first], [_row(first)], {}, 1, YLaurent({0: 1})
    for m in range(1, len(w)):
        live = [j for j in rw if j <= m]
        pairs = [(rw[j], rows[m - j]) for j in live if not _is_exact_zero(rows[m - j])]
        if top is not None and not _is_exact_zero(top[m]):
            pairs.append((_row(top[m]), one))
        row, size = _row_dot(pairs, packs, size, div[m]) if pairs else (YLaurent(), size)
        if unit is not None and not _is_exact_zero(row):
            row, size = _row_dot([(unit, row)], packs, size)
        rows.append(row)
        scalar = (unit is None and _is_scalar(first) and (top is None or _is_scalar(top[m]))
                  and all(_is_scalar(w[j]) and _is_scalar(p[m - j]) for j in live))
        p.append(row.coeff(0) if scalar else row)
    return p


def _generic_mul(a, b):
    """The Series product over YLaurent coefficients (polynomials or rows) and scalars.

    Output row k is one packed dot (_row_dot) over its pairs with no exact
    zero, over the lcm of den_i den_j rather than one denominator per factor,
    which would double the slot width where row denominators spread
    (u^2g / (2g)!); a row with no such pair is the exact zero, with no dot.
    A coefficient with only scalar pairs stays a Fraction.
    """
    lo, n = a.min_exp + b.min_exp, min(len(a.coeffs), len(b.coeffs))
    fa, fb = a.coeffs[:n], b.coeffs[:n]
    ra, rb = ({i: _row(c) for i, c in enumerate(f) if not _is_exact_zero(c)} for f in (fa, fb))
    scalars = any(map(_is_scalar, fa)) and any(map(_is_scalar, fb))
    packs, size, coeffs = {}, 1, []
    for k in range(n):
        pairs = [(x, rb[k - i]) for i, x in ra.items() if k - i in rb]
        row, size = _row_dot(pairs, packs, size) if pairs else (YLaurent(), size)
        scalar = scalars and all(_is_scalar(fa[i]) and _is_scalar(fb[k - i]) for i in range(k + 1))
        coeffs.append(row.coeff(0) if scalar else row)
    return Series(a.var, lo, coeffs, lo + n - 1)


def series_inv(a):
    """Inverse of a series whose leading coefficient is a unit.

    The certified order drops to a.order - 2*a.min_exp, which keeps the
    window honest for Laurent inputs such as q^-1 + 24 + ...  Rational input
    (and the q-row lead of a (u, q) series) runs YLaurent.inverse_unit: with
    a = q^m (x_0 + x_1 q + ...) / D over int, b_k = -(1/x_0) sum_j x_j b_{k-j}
    over a running common denominator (_running_recurrence).  Rows run
    b_k = -b_0 sum_{j=1..k} a_j b_{k-j} as _row_recurrence: a row b_0 through
    unit -b_0, a scalar b_0 = N / D folded into w_j = -N a_j and div D.
    """
    if a.order < a.min_exp:
        raise ValueError("cannot invert a series with an empty window")
    m = a.min_exp
    if _scalar_coeffs(a):
        return _as_series(_row(a).inverse_unit(), a.var)
    lead, n = a.coeffs[0], len(a.coeffs)
    if isinstance(lead, YLaurent):
        b0 = lead.inverse_unit()
        out = _row_recurrence(a.coeffs, [1] * n, b0, unit=-b0)
    else:
        b0 = Fraction(1) / lead
        out = _row_recurrence([_scaled(c, -b0.numerator) for c in a.coeffs],
                              [b0.denominator] * n, b0)
    return Series(a.var, -m, out, a.order - 2 * m)


def series_exp(a):
    """exp of a series with min_exp >= 1; result certified to a.order.

    With e = exp(a), var d/dvar e = e * var d/dvar a gives the recurrence
    k e_k = sum_{j=1..k} j a_j e_{k-j}: O(order^2) coefficient products and
    no Series product.  Rational input a = x / D runs it over int as
    e_k = sum_j j x_j e_{k-j} / (k D) with a running common denominator
    (_running_recurrence).  Two-variable series run it over rows, one packed
    dot per step (_row_recurrence): no inner q-Series and no YLaurent product
    is built per term.
    """
    if a.min_exp < 1:
        raise ValueError("series_exp needs positive valuation")
    n = a.order + 1
    if _scalar_coeffs(a):
        r = _row(a)
        w = [-j * v for j, v in enumerate(([0] * r.lo + r.nums + [0] * n)[:n])]
        nums, den = _running_recurrence(w, [k * r.den for k in range(n)], (1, 1))
        return _as_series(YLaurent._normalized(0, nums, den, a.order), a.var)
    d = [_scaled(a.coeff(j), j) for j in range(n)]
    return Series(a.var, 0, _row_recurrence(d, range(n), Fraction(1)), a.order)


def series_log(a):
    """log of a series whose constant term is exactly the scalar 1.

    With l = log(a), var d/dvar a = a * var d/dvar l gives the recurrence
    k l_k = k a_k - sum_{j=1..k-1} j l_j a_{k-j}: O(order^2) coefficient
    products and no Series product.  Rational input a = x / D (x_0 = D) runs
    b_k = k l_k = (k x_k - sum_j x_j b_{k-j}) / D over int with a running
    common denominator (_running_recurrence); rows run b_k = k e_k -
    sum_j e_j b_{k-j} (e = a - 1, b_0 = 0) as _row_recurrence.
    """
    order = a.order
    if order < 0:
        raise PrecisionError("window does not reach exponent 0")
    if a.min_exp < 0 or not _is_exact_zero((a if a._r is None else a._r).coeff(0) - 1):
        raise ValueError("series_log needs an exact scalar 1 constant term")
    if _scalar_coeffs(a):
        r = _row(a)
        x = r.nums + [0] * (order + 1 - len(r.nums))  # r.lo = 0 by the check above
        b, den = _running_recurrence(x, [r.den] * (order + 1), (0, 1),
                                     [k * v for k, v in enumerate(x)])
        f = lcm(*(k // gcd(v, k) for k, v in enumerate(b) if k))  # l_k = b_k / k over den * f
        nums = [v * f // k if k else 0 for k, v in enumerate(b)]
        return _as_series(YLaurent._normalized(0, nums, den * f, order), a.var)
    eps = a - 1
    e = [eps.coeff(k) for k in range(order + 1)]
    b = _row_recurrence([_scaled(c, -1) for c in e], [1] * (order + 1), Fraction(0),
                        [_scaled(c, k) for k, c in enumerate(e)])
    coeffs = [Fraction(0)] + [_scaled(b[k], Fraction(1, k)) for k in range(1, order + 1)]
    return Series(a.var, 0, coeffs, order)


def q_derive(a):
    """The operator q d/dq (or var d/dvar): multiply coefficient k by k."""
    if _scalar_coeffs(a):
        r = _row(a)
        nums = [k * x for k, x in enumerate(r.nums, r.lo)]
        return _as_series(YLaurent._normalized(r.lo, nums, r.den, r.hi), a.var)
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


def weighted_product(exponents, order, default=0):
    """Product over n >= 1 of (1 - q^n)^e(n), expanded exactly to order, row-backed.

    exponents maps n to an integer exponent; missing n fall back to default.
    Euler's prod (1 - q^n) = sum_{i in Z} (-1)^i q^(i(3i-1)/2) has O(sqrt(order))
    terms, so Miller's recurrence (_sparse_power) raises it to the default in
    O(order^1.5); each other e(n) folds in (1 - q^n)^(e(n) - default), O(order^2 / n).
    """
    if order < 0:
        raise ValueError("window does not reach the constant term")
    r = isqrt(order)  # |i| <= r covers every pentagonal number up to order
    pent = sorted((i * (3 * i - 1) // 2, (-1) ** (i % 2)) for i in range(-r, r + 1)
                  if 0 < i * (3 * i - 1) // 2 <= order)
    p = _sparse_power(pent, default, order + 1)
    for m, e in exponents.items():
        if 0 < m <= order and e != default:  # times (1 - x)^(e - default), x = q^m
            f = _sparse_power([(1, -1)], e - default, order // m + 1)
            p = p[:m] + [sum(map(mul, f, p[t::-m])) for t in range(m, order + 1)]
    return _as_series(YLaurent._normalized(0, p, 1, order), "q")


def _sparse_power(s, k, n):
    """P_0..P_{n-1} of P = S^k (int k), S = 1 + sum s_g q^g over the (g, s_g) in s, sorted by g.

    Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7): q P' S = k q S' P gives m P_m =
    sum_g ((k + 1) g - m) s_g P_{m-g}, exact over int (a remainder raises AssertionError).
    """
    p, w = [1] + [0] * (n - 1), [(g, (k + 1) * g * c, c) for g, c in s]
    for m in range(1, n):
        t = 0
        for g, a, c in w:  # s is sorted by g
            if g > m:
                break
            t += (a - m * c) * p[m - g]
        p[m], rem = divmod(t, m)
        if rem:
            raise AssertionError("integer power recurrence is not exact")
    return p


def _w_numerators(p):
    """(b, den) with p = sum_d b[d] w^d / den, w = y + 1/y, b over int.

    Peels the top power off the numerators for y^0..y^top: w^d contributes
    C(d, k) at y^(d - 2k), so the reduction never leaves the int list.
    """
    p = _row(p)
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


def _z_numerators(p):
    """(a, den) with p = sum_g a[g] z^g / den, z = y - 2 + 1/y, a over int."""
    b, den = _w_numerators(p)
    out = [0] * len(b)
    # w = z + 2, so w^d = sum_g C(d,g) 2^(d-g) z^g
    for d, bd in enumerate(b):
        if bd:
            for g in range(d + 1):
                out[g] += bd * comb(d, g) * 2 ** (d - g)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out, den


def symmetric_to_z(p):
    """Coefficients of a symmetric YLaurent in the basis z^g, z = y - 2 + 1/y.

    Returns [a_0, a_1, ...]; the z-degree equals the y-degree of p.
    """
    nums, den = _z_numerators(p)
    return [Fraction(x, den) for x in nums]


def sin_half_square(order):
    """s^2 = (2 sin(u/2))^2 = 2 - 2 cos(u) as an exact u-series through u^order."""
    coeffs = [Fraction(0)] * max(order - 1, 0)
    for j in range(1, order // 2 + 1):
        coeffs[2 * j - 2] = Fraction((-1) ** (j + 1) * 2, factorial(2 * j))
    # below order 2 the window is empty: [order + 1, order]
    return Series("u", min(2, order + 1), coeffs, order)


def trig_substitute(p, order):
    """Substitute y = -e^{iu} in a symmetric p = sum_e c_e y^e, exact on [0, order].

    As y^e = (-1)^e e^{ieu}, [u^2j] = (-1)^j/(2j)! sum_e (-1)^e c_e e^2j: one
    int power sum over p's numerators per even coefficient.  A non-symmetric
    p raises ValueError, a negative order PrecisionError.
    """
    p = _row(p)
    if not p.is_symmetric():
        raise ValueError("polynomial is not symmetric under y -> 1/y")
    if order < 0:
        raise PrecisionError("window does not reach exponent 0")
    # at even j, t_e = (-1)^(e + j/2) e^j den c_e and f = j!
    t, f = p.substitute_neg().nums, 1
    sq = [-e * e for e in range(p.lo, p.lo + len(t))]
    coeffs = [Fraction(0)] * (order + 1)
    for j in range(0, order + 1, 2):
        coeffs[j] = Fraction(sum(t), p.den * f)
        t, f = list(map(mul, t, sq)), f * (j + 1) * (j + 2)
    return Series("u", 0, coeffs, order)


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
