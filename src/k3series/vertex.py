"""Equivariant vertex weights for box configurations over a partition.

A torus-invariant module with limiting profile mu is encoded by a chain of
Young diagrams nu with mu = nus[0] >= nus[1] >= ... ; level i of the chain
puts the skew diagram mu \\ nus[i] in x3-degree -(m - i) where m = len(nus).
The vertex series H built from the weight generating functions reduces to an
exact Laurent polynomial in t1, t2, t3, and its specialized constant term
(t1 = t, t2 = 1/t, t3 = u; keep t^0 u^0) matches a closed formula in the
diagonal profiles of the chain.

The weight series is F = N/(1 - t3) with N = G + (1 - t3) L, where G sums
t1^a t2^b over the boxes of mu and L sums t1^a t2^b t3^k over the boxes of
rho(k), k < 0; write Nbar = -t3 N(1/t1, 1/t2, 1/t3).  Then H = P/(1 - t3) with

    P = N - Nbar/(t1 t2 t3) + N Nbar (1-t1)(1-t2)/(t1 t2 t3) - B,
    B = G + Gbar/(t1 t2) - G Gbar (1-t1)(1-t2)/(t1 t2),

so H is a Laurent polynomial exactly when every (a, b) column of P sums to
zero over c, and then H_{a,b,c} is the sum of P_{a,b,c'} over c' <= c.
vertex_H certifies every column.  divisibility_audit sums P's diagonal,
non-positive-t3 terms pair by pair from the template of mu, and certifies
one materialized P per audit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul


class NotPolynomial(ArithmeticError):
    """The (1 - t3)-denominator failed to cancel; indicates a logic error."""


def normalize_partition(parts):
    """Validate and canonicalize a partition (weakly decreasing, zeros dropped)."""
    parts = tuple(int(p) for p in parts if int(p) != 0)
    if any(p < 0 for p in parts):
        raise ValueError("partition parts must be non-negative")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return parts


def boxes(partition):
    """Boxes (a, b) of a Young diagram: b indexes the part, a runs along it."""
    return [(a, b) for b, part in enumerate(partition) for a in range(part)]


def subdiagrams(partition):
    """All Young diagrams contained in the given one, sorted."""
    out = []

    def build(prefix, idx, cap):
        if idx == len(partition):
            out.append(tuple(p for p in prefix if p))
            return
        top = min(partition[idx], cap)
        # the cap keeps parts weakly decreasing; trailing zeros are stripped
        for p in range(top + 1):
            build(prefix + [p], idx + 1, p)

    build([], 0, partition[0] if partition else 0)
    return sorted(set(out))


class BoxConfig:
    """A chain nus[0] = mu >= nus[1] >= ... encoding a box configuration.

    rho(k) for k in [-m, 0] is the skew diagram mu \\ nus[-k ... ]: level
    nus[i] sits at x3-degree i - m, so rho(-m) is empty and rho(0) = mu.
    size is the total box count of the negative levels.
    """

    __slots__ = ("mu", "nus", "size")

    def __init__(self, mu, nus):
        mu = normalize_partition(mu)
        nus = tuple(normalize_partition(n) for n in nus)
        if not nus or nus[0] != mu:
            raise ValueError("chain must start at mu")
        for a, b in zip(nus, nus[1:]):
            if not _contains(a, b):
                raise ValueError("chain must be weakly decreasing")
        if len(nus) > 1 and nus[1] == mu:
            raise ValueError("redundant leading level (chain not canonical)")
        self.mu, self.nus, self.size = mu, nus, sum(sum(mu) - sum(n) for n in nus)

    @classmethod
    def _trusted(cls, mu, nus, size):
        """A chain that is valid and canonical by construction, with its size."""
        out = object.__new__(cls)
        out.mu, out.nus, out.size = mu, nus, size
        return out

    def chain_key(self):
        return (self.size, self.nus)

    def __repr__(self):
        return f"BoxConfig(mu={self.mu}, nus={list(self.nus)}, size={self.size})"


def _contains(outer, inner):
    return len(inner) <= len(outer) and all(i <= o for i, o in zip(inner, outer))


def enumerate_configs(mu, excess):
    """All canonical box configurations with size <= |mu| + excess.

    Ordered by (size, chain) so output is deterministic.
    """
    mu = normalize_partition(mu)
    if excess < 0:
        raise ValueError("excess must be >= 0")
    budget = sum(mu) + excess
    out = []
    below = {}

    def extend(chain, total):
        out.append(BoxConfig._trusted(mu, tuple(chain), total))
        last = chain[-1]
        if last not in below:
            below[last] = subdiagrams(last)
        for nu in below[last]:
            if len(chain) == 1 and nu == mu:
                continue
            deficit = sum(mu) - sum(nu)
            if total + deficit <= budget:
                chain.append(nu)
                extend(chain, total + deficit)
                chain.pop()

    extend([mu], 0)
    out.sort(key=BoxConfig.chain_key)
    return out


def profile_formula_value(config):
    """Closed form for the specialized constant term of the vertex series.

    -c_0(rho_-1) + 1/2 sum_r ( d_r(rho_0)^2
                               - sum_{k<=0} (d_r(rho_k) - d_r(rho_{k-1}))^2 ).

    d is additive on skew diagrams, so d(rho_k) = d(mu) - d(nus[k + m]) and
    c_0(rho_-1) = c_0(mu) - c_0(nus[-1]): the level differences are the
    differences of consecutive chain vectors, and the k = 0 term is d(nus[-1]).
    An int, unless the half-sum is odd.
    """
    mu, nus = config.mu, config.nus
    span = (-len(mu), mu[0] if mu else 0)
    vecs = [_diagonal_vector(nu, *span) for nu in nus]
    total = vecs[0][1] - vecs[-1][1]
    for (d, sq, _), (e, sq_next, _) in zip(vecs, vecs[1:]):
        total -= sq + sq_next - 2 * sum(map(mul, d, e))
    return (Fraction(total, 2) if total % 2 else total // 2) - (vecs[0][2] - vecs[-1][2])


@lru_cache(maxsize=None)
def _diagonal_vector(nu, lo, hi):
    """(d, |d|^2, c_0) of nu, with d = (d_lo(nu), ..., d_{hi-1}(nu))."""
    c = [0] * (hi - lo + 1)
    for b, part in enumerate(nu):
        for i in range(-b - lo, part - b - lo):  # diagonals -b .. part - b - 1
            c[i] += 1
    d = tuple(c[i] - c[i + 1] for i in range(hi - lo))
    return d, sum(map(mul, d, d)), c[-lo]


class Laurent3:
    """Laurent polynomial in t1, t2, t3 over Z, divided by (1 - t3)^e.

    num maps exponent triples (a, b, c) to nonzero integers; e is kept
    minimal by cancelling (1 - t3) factors eagerly, so e == 0 certifies an
    honest Laurent polynomial.  It is the result type of vertex_H, which
    reads H off the numerator P without Laurent3 arithmetic.
    """

    __slots__ = ("num", "e")

    def __init__(self, num=None, e=0):
        self.num = {k: v for k, v in (num or {}).items() if v}
        self.e = e
        self._reduce()

    def _reduce(self):
        while self.e > 0:
            quotient = _div_1mt3(self.num)
            if quotient is None:
                return
            self.num = quotient
            self.e -= 1

    def __eq__(self, other):
        if not isinstance(other, Laurent3):
            return NotImplemented
        return self.e == other.e and self.num == other.num

    def to_polynomial(self):
        """The monomial dict, raising NotPolynomial when e cannot reach 0."""
        if self.e:
            raise NotPolynomial("(1 - t3) denominator did not cancel")
        return dict(self.num)

    def __repr__(self):
        bits = [f"{v}*t^{k}" for k, v in sorted(self.num.items())]
        body = " + ".join(bits) if bits else "0"
        tail = f" / (1-t3)^{self.e}" if self.e else ""
        return f"Laurent3({body}{tail})"


def _div_1mt3(num):
    """Exact quotient num / (1 - t3), or None when not divisible.

    Writing num = sum_c N_c(t1,t2) t3^c, divisibility means the N_c sum to
    zero; the quotient coefficients are the running sums from the bottom.
    """
    if not num:
        return {}
    by_ab = {}
    for (a, b, c), v in num.items():
        by_ab.setdefault((a, b), {})[c] = v
    out = {}
    for (a, b), col in by_ab.items():
        lo, hi = min(col), max(col)
        run = 0
        for c in range(lo, hi + 1):
            run += col.get(c, 0)
            if run:
                if c == hi:
                    return None
                out[(a, b, c)] = run
    return out


@lru_cache(maxsize=None)
def _template(mu):
    """The boxes of mu; per ordered pair (i, j) of boxes the (a, b) parts
    (a - 1, b - 1, a, b) of its four keys, (a, b) = box i - box j; the boxes
    with a = b; and (i, j, w), i < j, for boxes whose contents a - b differ by
    at most 1, w = -2 if equal and +1 if not: the weight of the keys on a = b."""
    cells = tuple(boxes(mu))
    pairs = tuple((i, j, a1 - a2 - 1, b1 - b2 - 1, a1 - a2, b1 - b2)
                  for i, (a1, b1) in enumerate(cells) for j, (a2, b2) in enumerate(cells))
    diagonal = tuple(i for i, (a, b) in enumerate(cells) if a == b)
    near = tuple((i, j, -2 if a1 - b1 == a2 - b2 else 1)
                 for i, (a1, b1) in enumerate(cells) for j, (a2, b2) in enumerate(cells)
                 if i < j and abs(a1 - b1 - a2 + b2) <= 1)
    return cells, pairs, diagonal, near


def _add_terms(out, mu, depth):
    """Add N - Nbar/(t1 t2 t3) + N Nbar (1-t1)(1-t2)/(t1 t2 t3) to out, where N
    puts box i of mu at t3^-depth[i]; a pair of boxes adds at t3^(depth j - depth i)."""
    cells, pairs = _template(mu)[:2]
    get = out.get
    for (a, b), d in zip(cells, depth):
        out[a, b, -d] = get((a, b, -d), 0) + 1
        out[-a - 1, -b - 1, d] = get((-a - 1, -b - 1, d), 0) + 1
    for i, j, a0, b0, a1, b1 in pairs:
        c = depth[j] - depth[i]
        out[a0, b0, c] = get((a0, b0, c), 0) - 1
        out[a1, b0, c] = get((a1, b0, c), 0) + 1
        out[a0, b1, c] = get((a0, b1, c), 0) + 1
        out[a1, b1, c] = get((a1, b1, c), 0) - 1
    return out


def _bracket(mu):
    """B as a monomial dict: the terms of N = G."""
    return _add_terms({}, mu, [0] * sum(mu))


def _numerator(config, bracket):
    """P = (1 - t3) H as a monomial dict, given B = _bracket(mu).

    N = G + (1 - t3) L puts each box (a, b) of mu at t3^-d, d the number of
    chain levels that miss it.
    """
    return _add_terms({k: -v for k, v in bracket.items()}, config.mu, _depth(config))


def _depth(config):
    """Per box of mu, the number of chain levels that miss it."""
    mu = config.mu
    return list(map(sum, zip(*[_missed(mu, nu) for nu in config.nus])))


@lru_cache(maxsize=None)
def _missed(mu, nu):
    """1 for each box of mu that nu misses, 0 for each box it contains."""
    return tuple(int(b >= len(nu) or a >= nu[b]) for a, b in _template(mu)[0])


def vertex_H(config):
    """The vertex Laurent polynomial H(t1, t2, t3) = P/(1 - t3) of a box configuration.

    One exact division by (1 - t3) certifies that every (a, b) column of P
    sums to zero over c; otherwise it raises NotPolynomial.
    """
    quotient = _div_1mt3(_numerator(config, _bracket(config.mu)))
    if quotient is None:
        raise NotPolynomial("(1 - t3) denominator did not cancel")
    return Laurent3(quotient)


def _specialized_constant(p):
    """Specialized constant term of H = P/(1 - t3): sum P_{a,a,c} over c <= 0.

    The same pass certifies that every (a, b) column of P sums to zero.
    """
    cols = {}
    get = cols.get
    total = 0
    for (a, b, c), v in p.items():
        if v:
            cols[a, b] = get((a, b), 0) + v
            if a == b and c <= 0:
                total += v
    if any(cols.values()):
        raise NotPolynomial("(1 - t3) denominator did not cancel")
    return total


def constant_term_specialized(h):
    """Constant term after t1 = t, t2 = 1/t, t3 = u: keep a - b = 0, c = 0."""
    total = 0
    for (a, b, c), v in h.to_polynomial().items():
        if a - b == 0 and c == 0:
            total += v
    return Fraction(total)


def divisibility_audit(mu, excess):
    """Cross-check every configuration and collect the sign evidence.

    Per config: the direct specialized constant term of H, the closed
    profile formula, their agreement, and the non-positivity bounds (< 0
    strictly when the size exceeds |mu|).  The direct term sums P's diagonal,
    non-positive-t3 terms from the template: -1 per diagonal box at depth > 0,
    and -w per ordered near pair (i, j) with depth j > depth i, that is per
    unordered one at two depths.  The P of the largest configuration is built
    and certified, and its term must agree, or AssertionError is raised.
    """
    mu = normalize_partition(mu)
    _, _, diagonal, near = _template(mu)
    rows = []
    violations = 0
    for config in enumerate_configs(mu, excess):
        depth = _depth(config)
        direct = (-sum(depth[i] > 0 for i in diagonal)
                  - sum(w for i, j, w in near if depth[i] != depth[j]))
        formula = profile_formula_value(config)
        strict = config.size > sum(mu)
        ok = (direct == formula) and direct <= 0 and (not strict or direct <= -1)
        if not ok:
            violations += 1
        rows.append({
            "mu": list(mu),
            "chain": [list(nu) for nu in config.nus],
            "size": config.size,
            "direct": direct,
            "formula": formula,
            "match": direct == formula,
            "nonpositive": direct <= 0,
            "strict_ok": (direct <= -1) if strict else True,
        })
    # enumerate_configs sorts by size, so the loop ends at the largest configuration
    if _specialized_constant(_numerator(config, _bracket(mu))) != direct:
        raise AssertionError(f"pair sum disagrees with the numerator P at {config!r}")
    return {"mu": list(mu), "excess": excess, "configs": len(rows),
            "violations": violations, "rows": rows}
