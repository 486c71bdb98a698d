"""Integer q-expansions built without k3series, for seeding and checking.

The recognize workload writes its input files from these expansions, so a
recognised element that equals the seeded one is checked against code that
shares nothing with the package under test.
"""

from __future__ import annotations

from fractions import Fraction

_EISENSTEIN_FACTOR = {2: -24, 4: 240, 6: -504}


def weight_basis(max_weight):
    """Monomials (a, b, c) of E2^a E4^b E6^c with 2a + 4b + 6c <= max_weight."""
    return [(a, b, c)
            for a in range(max_weight // 2 + 1)
            for b in range((max_weight - 2 * a) // 4 + 1)
            for c in range((max_weight - 2 * a - 4 * b) // 6 + 1)]


def eisenstein(weight, order):
    """E_weight as integer coefficients of q^0 .. q^order."""
    out = [0] * (order + 1)
    for d in range(1, order + 1):
        dp = d ** (weight - 1)
        for m in range(d, order + 1, d):
            out[m] += dp
    factor = _EISENSTEIN_FACTOR[weight]
    return [1] + [factor * s for s in out[1:]]


def mul(a, b, order):
    """Product of two power series given as coefficient lists from q^0."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def monomials(basis, order):
    """Expansion of every monomial in basis, each built from a smaller one."""
    gens = {0: eisenstein(2, order), 1: eisenstein(4, order), 2: eisenstein(6, order)}
    memo = {(0, 0, 0): [1] + [0] * order}

    def get(key):
        if key not in memo:
            slot = next(i for i in range(3) if key[i])
            smaller = list(key)
            smaller[slot] -= 1
            memo[key] = mul(get(tuple(smaller)), gens[slot], order)
        return memo[key]

    return {key: get(key) for key in basis}


def expand(element, order):
    """Fraction coefficients of sum v * E2^a E4^b E6^c, q^0 .. q^order."""
    monos = monomials(sorted(element), order)
    out = [Fraction(0)] * (order + 1)
    for key, v in element.items():
        for k, c in enumerate(monos[key]):
            out[k] += v * c
    return out


def inv_unit(a, order):
    """Inverse of an integer power series with constant term 1."""
    out = [1]
    for k in range(1, order + 1):
        out.append(-sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1)))
    return out


def eta_power(e, order):
    """prod_{n>=1} (1 - q^n)^e for e >= 0, by the pentagonal number theorem."""
    base = [0] * (order + 1)
    k = 0
    while True:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= order:
                base[g] = -1 if k % 2 else 1
        if k * (3 * k - 1) // 2 > order:
            break
        k += 1
    out = [1] + [0] * order
    while e:
        if e & 1:
            out = mul(out, base, order)
        base = mul(base, base, order)
        e >>= 1
    return out


def text(var, min_exp, coeffs):
    """The package's series text format: header, then 'k: num/den' lines."""
    order = min_exp + len(coeffs) - 1
    lines = [f"var={var} order={order}"]
    for k, c in enumerate(coeffs, start=min_exp):
        c = Fraction(c)
        lines.append(f"{k}: {c.numerator}/{c.denominator}")
    return "\n".join(lines) + "\n"
