"""BPS counts, Hodge integral series, and stable-pairs invariants of K3 fibers.

Everything is derived from two exact generating functions: the discriminant
Delta(q) and its two-variable refinement Delta(y, q).  The module builds

  * the integer BPS table r_{g,h} (z-basis coefficients of 1/Delta(y,q)),
  * the rational Hodge integral table R_{g,h} (a bivariate exp formula),
  * Euler characteristics of stable-pairs moduli and their point-constrained
    refinements C^k_{n,h} (each point-insertion product is a running chain,
    one point-factor multiplication per k through u^u_order or q^(h_max-1)
    only, grown to the largest window asked for so far, and a GW chain on a
    check through the pairs chain's h window; a smaller window reads a prefix),
  * the variable change y = -exp(iu) connecting the two sides, exact as
    the power sums of trig_substitute: [u^2j] of a symmetric row is
    (-1)^j/(2j)! sum_e (-1)^e c_e e^2j.

Bivariate series are an outer u-Series whose coefficients are windowed
q-rows (YLaurent rows in q) or exact scalars; all window bookkeeping is
inherited from the series layer, and q_coeff is the q-Series edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import mul

from .series import (
    PrecisionError,
    Series,
    YLaurent,
    _as_series,
    _cleared,
    _row,
    _row_recurrence,
    _scaled,
    _z_numerators,
    series_inv,
    series_log,
    sin_half_square,
    trig_substitute,
    weighted_product,
)
from . import modforms
from .modforms import _sigma_table, bernoulli, discriminant_q, discriminant_yq


def format_rational(x):
    """Render an int or a Fraction as 'p' or 'p/q' (never a float)."""
    x = x if type(x) is int else Fraction(x)  # an int (not a bool) builds no Fraction
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _sign(m):
    """(-1)^m, safe for negative m."""
    return -1 if m % 2 else 1


_TABLE_FIELDS = {
    "r": ("g", "h"),
    "R": ("g", "h"),
    "euler": ("n", "h"),
    "signedZ": ("n", "h"),
    "C_point": ("k", "n", "h"),
    "euler_pk": ("k", "n", "h"),
}


@dataclass
class InvariantTable:
    """Exact table of invariants, keyed by integer index tuples."""

    kind: str
    entries: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _TABLE_FIELDS:
            raise ValueError(f"unknown table kind {self.kind!r}")

    def fields(self):
        return _TABLE_FIELDS[self.kind]

    def value(self, *index):
        if index not in self.entries:
            raise KeyError(f"{self.kind} table has no entry {index}")
        return self.entries[index]

    def rows(self):
        return sorted(self.entries.items())

    def to_json_obj(self):
        names = self.fields()
        rows = []
        for idx, v in self.rows():
            row = {name: int(i) for name, i in zip(names, idx)}
            row["value"] = format_rational(v)
            rows.append(row)
        return {"kind": self.kind, "rows": rows}

    def to_csv(self):
        names = self.fields()
        lines = [",".join(names) + ",value"]
        for idx, v in self.rows():
            lines.append(",".join(str(i) for i in idx) + "," + format_rational(v))
        return "\n".join(lines) + "\n"

    def to_text(self):
        names = self.fields()
        lines = []
        for idx, v in self.rows():
            head = " ".join(f"{n}={i}" for n, i in zip(names, idx))
            lines.append(f"{head}  {format_rational(v)}")
        return "\n".join(lines) + "\n"


@dataclass
class CorrespondenceReport:
    """Result of one GW/pairs comparison after the variable change."""

    h: int
    k: int
    u_order: int
    gw_side: Series
    pairs_side: Series
    numerator_symmetric: bool
    equal: bool


@lru_cache(maxsize=None)
def inv_discriminant_q(order):
    """1/Delta(q) = q^-1 prod (1-q^n)^-24, certified from q^-1 through q^order.

    The product is weighted_product's power recurrence on Euler's pentagonal
    series, O(order^1.5), its int row shifted by q^-1; no series inversion.
    """
    return _as_series(_row(weighted_product({}, order + 1, default=-24)), "q", -1)


@lru_cache(maxsize=None)
def _yq_rows():
    """The rows q^-1, q^0, ... of 1/Delta(y, q) computed so far."""
    return []


@lru_cache(maxsize=None)
def inv_discriminant_yq(order):
    """1/Delta(y, q) with exact symmetric YLaurent coefficients, q^-1..q^order.

    The product is _yq_eta_product's log-derivative recurrence with the
    exponents negated, one packed dot product per q-coefficient; no series
    inversion.  The rows are exact y-polynomials, so a lower order reads a
    prefix of the longest run so far.
    """
    rows = _yq_rows()
    if order < -1 or len(rows) < order + 2:  # below q^-1 the recurrence raises
        rows[:] = modforms._yq_eta_product(order + 1, -1)
    return Series("q", -1, rows[:order + 2], order)


def bps_r_table(g_max, h_max):
    """The BPS counts r_{g,h}: signed z-basis coefficients of 1/Delta(y,q).

    Integrality and the support bound (zero above z-degree h) are asserted
    while filling the table.
    """
    inv = inv_discriminant_yq(max(h_max - 1, -1))
    entries = {}
    for h in range(0, h_max + 1):
        zs, den = _z_numerators(inv.coeff(h - 1))
        if any(zs[h + 1:]):
            raise AssertionError(f"BPS row h={h} has z-degree above h")
        for g in range(0, g_max + 1):
            v = zs[g] if g < len(zs) else 0
            if v % den:
                raise AssertionError(f"BPS count r_{{{g},{h}}} is not an integer")
            entries[(g, h)] = _sign(g) * (v // den)
    return InvariantTable("r", entries)


def _bernoulli_eisenstein(u_order, q_order):
    """sum_{g>=1} u^{2g} |B_2g|/(g (2g)!) E_2g(q), E_2g certified to q_order.

    Since E_2g = 1 - (4g/B_2g) sum sigma_{2g-1}(n) q^n, row 2g is the int
    row |B_2g|/(g (2g)!) - (4 sgn(B_2g)/(2g)!) sum sigma_{2g-1}(n) q^n.
    """
    coeffs = [Fraction(0)] * max(u_order - 1, 0)
    for j in range(2, u_order + 1, 2):
        b, f = bernoulli(j), factorial(j)
        w = abs(b) / (j // 2 * f)
        den, sig = lcm(w.denominator, f), _sigma_table(j - 1, q_order)
        c = (4 if b < 0 else -4) * (den // f)
        row = [w.numerator * den // w.denominator] + [c * s for s in sig[1:]]
        coeffs[j - 2] = YLaurent._normalized(0, row, den, q_order)
    # below u_order 2 the window is empty: [u_order + 1, u_order]
    return Series("u", min(2, u_order + 1), coeffs, u_order)


@lru_cache(maxsize=None)
def hodge_r_series(u_order, q_order):
    """The bivariate Hodge series sum R_{g,h} u^{2g-2} q^{h-1}.

    Equals u^-2/Delta(q) times the exponential of
    a = sum_{g>=1} u^{2g} |B_2g|/(g (2g)!) E_2g(q).  The exp recurrence
    k e_k = sum_j j a_j e_{k-j} is linear in e and 1/Delta(q) is free of u,
    so seeded with the row 1/Delta(q) it gives u^2 times the series itself:
    one packed dot per u-row, no product.  Every even u-coefficient is a
    windowed q-row, every odd one an exact zero row.
    """
    bu, bq = u_order + 2, q_order + 1
    a = _bernoulli_eisenstein(bu, bq + 1)
    d = [_scaled(a.coeff(j), j) for j in range(bu + 1)]
    return Series("u", -2, _row_recurrence(d, range(bu + 1), _row(inv_discriminant_q(bq))),
                  u_order)


def _inner_coeff(bivariate, u_exp, q_exp):
    """Coefficient of u^u_exp q^q_exp (a scalar is c q^0); PrecisionError past a row's hi."""
    return _row(bivariate.coeff(u_exp)).coeff(q_exp)


def q_coeff(bivariate, u_exp):
    """The coefficient of u^u_exp as a q-Series (an exact scalar stays a scalar)."""
    r = _row(bivariate.coeff(u_exp))
    return r.coeff(0) if r.hi is None else _as_series(r, "q")


def u_slice(bivariate, q_exp):
    """The u-series of coefficients of q^q_exp."""
    coeffs = [_inner_coeff(bivariate, j, q_exp)
              for j in range(bivariate.min_exp, bivariate.order + 1)]
    return Series("u", bivariate.min_exp, coeffs, bivariate.order)


def _gh_entries(biv, g_max, h_max):
    """(g, h) -> coefficient of u^{2g-2} q^{h-1}, g <= g_max, h <= h_max."""
    entries = {}
    for g in range(0, g_max + 1):
        for h in range(0, h_max + 1):
            entries[(g, h)] = _inner_coeff(biv, 2 * g - 2, h - 1)
    return entries


def hodge_r_table(g_max, h_max):
    """The Hodge integral table R_{g,h}; odd u-rows are asserted zero."""
    biv = hodge_r_series(2 * g_max - 2, max(h_max - 1, 0))
    for j in range(biv.min_exp, 2 * g_max - 1):
        if j % 2 and biv.coeff(j) != 0:
            raise AssertionError("odd u-power appears in the Hodge series")
    return InvariantTable("R", _gh_entries(biv, g_max, h_max))


@dataclass
class TransformReport:
    g_max: int
    h_max: int
    u_order: int
    equal: bool
    mismatches: list


def bps_transform_check(g_max, h_max):
    """Check sum_g R_{g,h} u^{2g-2} = sum_g r_{g,h} s^{2g-2}, s = 2 sin(u/2).

    Verified per h on the certified window u^-2 .. u^{2*g_max-2}: the powers
    s^{2g-2} are cleared once to one denominator, so each h is an int sum.
    """
    u_order = 2 * g_max - 2
    budget = 2 * g_max + 2
    r_tab = bps_r_table(g_max, h_max)
    big_tab = hodge_r_table(g_max, h_max)
    s2 = sin_half_square(budget)
    powers = [_inv_s2(u_order), Series.one("u", budget)][:g_max + 1]
    for g in range(2, g_max + 1):
        powers.append(powers[-1] * s2)
    if min(p.order for p in powers) < u_order:
        raise AssertionError("window bookkeeping error in bps_transform_check")
    window = range(-2, u_order + 1)
    cleared = [_cleared([p.coeff(j) for j in window]) for p in powers]
    den = lcm(*[d for _, d in cleared])
    columns = list(zip(*[[n * (den // d) for n in nums] for nums, d in cleared]))
    mismatches = []
    for h in range(0, h_max + 1):
        r = [r_tab.value(g, h).numerator for g in range(0, g_max + 1)]
        for j, column in zip(window, columns):
            big = big_tab.value((j + 2) // 2, h) if j % 2 == 0 else 0
            if sum(map(mul, r, column)) * big.denominator != big.numerator * den:
                mismatches.append(h)
                break
    return TransformReport(g_max, h_max, u_order, not mismatches, mismatches)


def ky_euler_table(n_max, h_max):
    """Euler characteristics e(P_n(S, h)) of stable-pairs moduli spaces.

    Row h of 1/Delta(y,q) is an exact Laurent polynomial; multiplying by the
    ascending expansion 1/(y - 2 + 1/y) = sum_{i>=1} i y^i gives the Euler
    characteristics, which are integers and vanish for n < 1 - h (asserted).
    """
    inv = inv_discriminant_yq(max(h_max - 1, -1))
    entries = {}
    for h in range(0, h_max + 1):
        for n, v in _ascending_values(inv.coeff(h - 1), h, n_max):
            entries[(n, h)] = v
    return InvariantTable("euler", entries)


def _ascending_extract(row, n_lo, n_max, alternate=False):
    """[y^n] row(y) * sum_{i>=1} i y^i (alternate: (-1)^(i-1) i y^i), n = n_lo..n_max.

    It is n S0 - S1, S0 and S1 the running sums of c_e and e c_e over e < n;
    alternating, c_e enters as (-1)^e c_e and the value is times (-1)^(n-1).
    The values are ints over an integral row, Fractions otherwise.
    """
    out, s0, s1, e, top = [], 0, 0, row.lo, row.lo + len(row.nums)
    for n in range(n_lo, n_max + 1):
        while e < min(n, top):
            c = -row.nums[e - row.lo] if alternate and e % 2 else row.nums[e - row.lo]
            s0, s1, e = s0 + c, s1 + e * c, e + 1
        v = n * s0 - s1
        out.append(-v if alternate and n % 2 == 0 else v)
    return out if row.den == 1 else [Fraction(v, row.den) for v in out]


def _ascending_values(row, h, n_max):
    """(n, _ascending_extract at n), n = 1-h..n_max: asserted integral, and zero below."""
    values = _ascending_extract(row, -2 - h, max(n_max, -h))
    for n, v in zip(range(-2 - h, 1 - h), values):
        if v:
            raise AssertionError(f"row h={h} should vanish at n={n} < 1-h")
    if any(v.denominator != 1 for v in values):
        raise AssertionError("Euler characteristic is not an integer")
    return list(zip(range(1 - h, n_max + 1), values[3:]))


def signed_euler_table(euler):
    """(-1)^{n + 2h - 1} e(P_n(S,h)): the signed pairs partition numbers."""
    entries = {}
    for (n, h), v in euler.entries.items():
        entries[(n, h)] = v if n % 2 else -v
    return InvariantTable("signedZ", entries)


def pairs_signed_Z(h, n_window):
    """Closed rational form of the signed pairs series at genus parameter h.

    Returns (N_h, report): the numerator N_h(y) = [q^{h-1}] 1/Delta(-y, q)
    with Z_h(y) = N_h(y) * y/(1+y)^2, plus a report checking symmetry and
    the ascending expansion against the signed Euler characteristics up to
    y^n_window.  Only row h of 1/Delta(y,q) is read.
    """
    row = inv_discriminant_yq(max(h - 1, -1)).coeff(h - 1)
    numerator = row.substitute_neg()
    signed = [v if n % 2 else -v for n, v in _ascending_values(row, h, n_window)]
    # y/(1+y)^2 = sum_{i>=1} (-1)^{i-1} i y^i
    expansion = _ascending_extract(numerator, 1 - h, n_window, alternate=True)
    mismatches = [n for n, got, want in zip(range(1 - h, n_window + 1), expansion, signed)
                  if got != want]
    report = {
        "h": h,
        "n_window": n_window,
        "symmetric": numerator.is_symmetric(),
        "matches_signed_euler": not mismatches,
        "mismatches": mismatches,
    }
    return numerator, report


@lru_cache(maxsize=None)
def pairs_point_factor(q_order):
    """sum_m q^m sum_{d|m} (m/d) (y^d - 2 + y^-d), exact in YLaurent."""
    terms = [{} for _ in range(q_order + 1)]
    for d in range(1, q_order + 1):
        for m in range(d, q_order + 1, d):
            w = m // d
            t = terms[m]
            t[d] = t[-d] = w
            t[0] = t.get(0, 0) - 2 * w
    return Series("q", 1, [YLaurent(t) for t in terms[1:]], q_order)


@lru_cache(maxsize=None)
def gw_point_factor(u_order, q_order):
    """sum_m q^m sum_{d|m} (m/d) (2 sin(du/2))^2 as a nested (u, q) series.

    Since sum_{d|m} (m/d) d^{2g} = m sigma_{2g-1}(m), the coefficient of
    u^{2g} q^m is (-1)^{g+1} 2 m sigma_{2g-1}(m) / (2g)!.
    """
    coeffs = [Fraction(0)] * max(u_order - 1, 0)
    for j in range(2, u_order + 1, 2):
        sig = _sigma_table(j - 1, q_order)
        inner = [_sign(j // 2 + 1) * 2 * m * sig[m] for m in range(1, q_order + 1)]
        coeffs[j - 2] = YLaurent._normalized(1, inner, factorial(j), q_order)
    return Series("u", 2, coeffs, u_order)


@lru_cache(maxsize=None)
def _gw_chain(u_order):
    """[q_order, steps, factor] of hodge_r_series * gw_point_factor^k at u_order."""
    return []


@lru_cache(maxsize=None)
def _pairs_chain():
    """[h_max, steps, factor] of (1/Delta(y,q)) * pairs_point_factor^k."""
    return []


def _step(k, chain, window, base, factor, reach=0):
    """Step k of a point-insertion chain through `window` or past it: the chain
    is rebuilt only when `window` exceeds its own, then through max(window,
    reach), and each missing step is the last one times the factor, so every k
    costs one product.  Each product forms no row past the top the chain serves
    (the base's outer order): the last step is first cut to top - factor.min_exp."""
    if k < 0:
        raise ValueError("the number of point insertions must be >= 0")
    if not chain or chain[0] < window:
        w = max(window, reach)
        chain[:] = w, [base(w)], lambda: factor(w)
    while len(chain[1]) <= k:
        f = chain[2]()
        chain[1].append(chain[1][-1].truncate(chain[1][0].order - f.min_exp) * f)
    return chain[1][k]


def _gw_step(k, u_order, q_order, reach=0):
    """Step k of the GW chain at u_order, through q^q_order or past it."""
    return _step(k, _gw_chain(u_order), q_order, lambda q: hodge_r_series(u_order, q),
                 lambda q: gw_point_factor(u_order + 2, q + 1), reach)


def _pairs_step(k, h_max):
    """Step k of the pairs chain, exact in every row h <= h_max."""
    return _step(k, _pairs_chain(), h_max, lambda h: inv_discriminant_yq(max(h - 1, -1)),
                 lambda h: pairs_point_factor(max(h, 1)))


def _gw_point_bivariate(k, u_order, q_order):
    """hodge_r_series * gw_point_factor^k, certified through u^u_order, q^q_order.

    Hodge rows reach q^(q_order+1) and factor rows start at q^1, so for
    k >= 1 step k reaches q^(q_order+k-1); every step stops at u^u_order.
    The rows of a longer chain reach as much further in q, and are cut back.
    """
    step = _gw_step(k, u_order, q_order)
    cut = _gw_chain(u_order)[0] - q_order
    if not cut:
        return step
    rows = [r if r.hi is None else YLaurent._normalized(
        r.lo, r.nums[:max(r.hi - cut - r.lo + 1, 0)], r.den, r.hi - cut) for r in step.coeffs]
    return Series("u", step.min_exp, rows, step.order)


def point_series_gw(k, g_max, h_max):
    """Gromov-Witten side with k point insertions.

    Returns (bivariate, table): the series hodge_r_series * point_factor^k,
    certified exactly two u-orders and at least two q-orders past its table
    of coefficients at u^{2g-2} q^{h-1}; at k = 0 the table coincides with
    hodge_r_table.
    """
    biv = _gw_point_bivariate(k, 2 * g_max, max(h_max - 1, 0) + 2)
    return biv, InvariantTable("R", _gh_entries(biv, g_max, h_max), meta={"points": k})


def pairs_point_numerators(k, h_max):
    """Rows [q^{h-1}] of (-1)^{k+1} (1/Delta(y,q)) point_factor(y,q)^k, h <= h_max,
    asserted symmetric.

    Row h times the ascending expansion of 1/(y - 2 + 1/y) generates
    (-1)^n C^k_{n,h}.
    """
    prod, sign = _pairs_step(k, h_max), Fraction((-1) ** (k + 1))
    rows = {}
    for h in range(0, h_max + 1):
        row = _row(prod.coeff(h - 1)) * sign
        if not row.is_symmetric():
            raise AssertionError("pairs numerator is not symmetric in y <-> 1/y")
        rows[h] = row
    return rows


def point_series_pairs(k, n_max, h_max):
    """Stable-pairs side with k point insertions: the table C^k_{n,h}."""
    entries = {}
    for h, row in pairs_point_numerators(k, h_max).items():
        for n, v in _ascending_values(row, h, n_max):
            entries[(k, n, h)] = -v if n % 2 else v
    return InvariantTable("C_point", entries, meta={"points": k})


def point_series_pairs_upto(k_max, n_max, h_max):
    """The tables C^k_{n,h} for k = 0..k_max, merged into one table."""
    entries = {}
    for k in range(0, k_max + 1):
        entries.update(point_series_pairs(k, n_max, h_max).entries)
    return InvariantTable("C_point", entries)


def euler_pk(c_table, k, n, h):
    """Euler characteristic of the moduli of pairs with k point constraints.

    e(P^k_n(S,h)) = (-1)^{n+2h-1-k} sum_{i>=0} (-1)^i C(i+k-1, k-1) C^{k+i}_{n,h},
    the sum running while k+i <= n+2h-1, over int numerators with one
    common denominator.
    """
    m_top = n + 2 * h - 1
    if k > m_top:
        return Fraction(0)
    if k == 0:
        return _sign(m_top) * Fraction(c_table.value(0, n, h))
    nums, den = _cleared([c_table.value(k + i, n, h) for i in range(m_top - k + 1)])
    acc = sum(_sign(i) * comb(i + k - 1, k - 1) * c for i, c in enumerate(nums))
    return Fraction(_sign(m_top - k) * acc, den)


def inverse_euler_pk(e_values, k, n, h):
    """Invert euler_pk: recover C^k_{n,h} from e(P^j_n(S,h)), j = k..n+2h-1.

    e_values maps (j, n, h) to the Euler characteristics; the linear system
    is triangular from the top index down, solved over int numerators with
    the common denominator of the e-values.
    """
    m_top = n + 2 * h - 1
    if k > m_top:
        raise ValueError("k exceeds n + 2h - 1")
    nums, den = _cleared([e_values[(j, n, h)] for j in range(k, m_top + 1)])
    c = {}
    for j in range(m_top, k - 1, -1):
        c[j] = _sign(m_top - j) * nums[j - k]
        if j:
            c[j] -= sum(_sign(i) * comb(i + j - 1, j - 1) * c[j + i]
                        for i in range(1, m_top - j + 1))
    return Fraction(c[k], den)


@lru_cache(maxsize=None)
def _inv_s2(order):
    return series_inv(sin_half_square(order + 4))


def gw_pairs_check(h, k, u_order):
    """Compare both sides of the variable change y = -exp(iu) at fixed (h, k).

    Pairs side, asked first: row h of the pairs chain as the closed rational
    form through u^(u_order+2) by trig_substitute, times 1/s^2 (from u^-2).
    GW side: the q^{h-1} u-slice of hodge_r_series * gw_point_factor^k through
    u^u_order; a chain short of q^max(h-1, 0) is (re)built through the pairs
    chain's h window H, to q^max(H-1, 0).  Exact equality on the common window
    through u^u_order.  Both sides read the longest chain so far, whose extra
    rows change nothing.
    """
    # flip y -> -y: sum_n C^k y^n q^{h-1} = (-1)^k / Delta(-y,q) * PF(-y,q)^k / (y + 2 + 1/y)
    numerator = _row(_pairs_step(k, h).coeff(h - 1)).substitute_neg() * Fraction((-1) ** k)
    gw = _gw_step(k, u_order, max(h - 1, 0), _pairs_chain()[0] - 1)
    gw_u = u_slice(gw, h - 1).truncate(u_order)
    pairs_u = (trig_substitute(numerator, u_order + 2) * _inv_s2(u_order + 2)).truncate(u_order)

    if min(gw_u.order, pairs_u.order) < u_order:
        raise AssertionError("window bookkeeping error in gw_pairs_check")
    return CorrespondenceReport(h=h, k=k, u_order=u_order, gw_side=gw_u, pairs_side=pairs_u,
                                numerator_symmetric=numerator.is_symmetric(), equal=gw_u == pairs_u)


def gw_pairs_grid(h_max, k_max, u_order):
    """{(h, k): gw_pairs_check(h, k, u_order)} for k <= k_max, then h <= h_max,
    once the pairs chain is grown to h_max: the first check then builds the
    GW chain through that h window, so neither chain is rebuilt."""
    _pairs_step(k_max, h_max)
    return {(h, k): gw_pairs_check(h, k, u_order)
            for k in range(k_max + 1) for h in range(h_max + 1)}


@dataclass
class LogIdentityReport:
    u_order: int
    q_order: int
    bivariate_equal: bool
    scalar_equal: bool

    @property
    def equal(self):
        return self.bivariate_equal and self.scalar_equal


def _transpose_y_rows(qs, u_order):
    """Bivariate (outer u, inner q-rows) from a q-series with YLaurent coefficients
    under y = exp(iu): each row is flipped y -> -y, then run through trig_substitute."""
    rows = [trig_substitute(c.substitute_neg(), u_order) for c in qs.coeffs]
    coeffs = [_row(Series("q", qs.min_exp, [r.coeff(j) for r in rows], qs.order))
              for j in range(u_order + 1)]
    return Series("u", 0, coeffs, u_order)


def log_identity_check(u_order, q_order):
    """Verify log( Delta(q) / (S(u)^2 Delta(exp(iu), q)) ) term by term.

    The claim: the log equals sum_{g>=1} u^{2g} |B_2g|/(g(2g)!) E_2g(q),
    together with the scalar expansion
    log S(u) = sum_{g>=1} (-1)^g B_2g/(2g (2g)!) u^{2g}, S(u) = sin(u/2)/(u/2).
    """
    bu = u_order + 4
    bq = q_order + bu + 4
    d_yq = discriminant_yq(bq)
    d_u = _transpose_y_rows(d_yq, bu)
    inv_du = series_inv(d_u)
    s2 = sin_half_square(bu + 2)
    big_s2 = Series("u", 0, s2.coeffs, bu)  # S(u)^2 = s^2 / u^2
    inv_big_s2 = series_inv(big_s2)
    delta = Series("u", 0, [_row(discriminant_q(bq))] + [Fraction(0)] * bu, bu)
    target = inv_big_s2 * inv_du * delta

    if not (target.coeff(0) == 1):
        raise AssertionError("u^0 row of the log-identity product is not 1")
    shifted = [Fraction(1)] + [target.coeff(j) for j in range(1, target.order + 1)]
    lhs = series_log(Series("u", 0, shifted, target.order))

    rhs = _bernoulli_eisenstein(lhs.order, bq)
    if min(lhs.order, rhs.order) < u_order:
        raise AssertionError("window bookkeeping error in log_identity_check")
    biv_ok = True
    for j in range(1, u_order + 1):
        left = lhs.coeff(j)
        right = rhs.coeff(j)
        if any(r.hi is not None and r.hi < q_order for r in map(_row, (left, right))):
            raise AssertionError("q window too short in log_identity_check")
        if not (left == right):
            biv_ok = False
            break

    log_s = Fraction(1, 2) * series_log(big_s2)
    scalar_rhs = Series(
        "u", 2,
        [Fraction((-1) ** (j // 2)) * bernoulli(j) / (j * factorial(j))
         if j % 2 == 0 else Fraction(0)
         for j in range(2, log_s.order + 1)],
        log_s.order)
    scalar_ok = log_s == scalar_rhs
    return LogIdentityReport(u_order, q_order, biv_ok, scalar_ok)


def quasimodularity_audit(k_max, g_max):
    """Recognize Delta(q) times every u-row of the k-point GW series.

    Returns rows (k, g, element); recognition enforces weight <= 2g + 2k
    and accepts only an exact match on the window, so success certifies
    quasimodularity.
    """
    w_max = 2 * g_max + 2 * k_max
    dim = modforms.basis_size(w_max)
    q_order = dim + 8
    delta = discriminant_q(q_order + 2)
    results = []
    for k in range(0, k_max + 1):
        biv = _gw_point_bivariate(k, 2 * g_max, q_order + 3)
        for g in range(0, g_max + 1):
            prod = q_coeff(biv, 2 * g - 2) * delta
            elem = modforms.qmod_recognize(prod.truncate(min(prod.order, q_order)),
                                           2 * g + 2 * k)
            results.append((k, g, elem))
    return results
