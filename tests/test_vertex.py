"""Tests for box configurations and the equivariant vertex series.

The two smallest configurations are verified against fully hand-expanded
Laurent polynomials; larger ones are checked by comparing the direct
specialized constant term of H with the closed diagonal-profile formula,
which is an independent evaluation path.  H itself is compared with an
oracle that composes it in Laurent3 arithmetic from the weight series F and
G, without the numerator P that vertex_H divides by (1 - t3).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from k3series import vertex
from k3series.vertex import (
    BoxConfig,
    NotPolynomial,
    boxes,
    constant_term_specialized,
    divisibility_audit,
    enumerate_configs,
    normalize_partition,
    profile_formula_value,
    subdiagrams,
    vertex_H,
)


class Laurent3(vertex.Laurent3):
    """vertex.Laurent3 with the ring operations the oracle composes H in."""

    __slots__ = ()

    @classmethod
    def monomial(cls, a, b, c, coeff=1):
        return cls({(a, b, c): coeff})

    @classmethod
    def geometric_t3(cls):
        """1 / (1 - t3)."""
        return cls({(0, 0, 0): 1}, e=1)

    def __add__(self, other):
        if not isinstance(other, vertex.Laurent3):
            return NotImplemented
        e = max(self.e, other.e)
        a = _mul_pow_1mt3(self.num, e - self.e)
        for k, v in _mul_pow_1mt3(other.num, e - other.e).items():
            s = a.get(k, 0) + v
            if s:
                a[k] = s
            else:
                a.pop(k, None)
        return Laurent3(a, e)

    def __neg__(self):
        return Laurent3({k: -v for k, v in self.num.items()}, self.e)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, vertex.Laurent3):
            return NotImplemented
        out = {}
        for (a1, b1, c1), v1 in self.num.items():
            for (a2, b2, c2), v2 in other.num.items():
                k = (a1 + a2, b1 + b2, c1 + c2)
                s = out.get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return Laurent3(out, self.e + other.e)

    def conj(self):
        """Invert all three variables; stays in normal form."""
        num = {(-a, -b, -c): v for (a, b, c), v in self.num.items()}
        sign = -1 if self.e % 2 else 1
        shifted = {(a, b, c + self.e): sign * v for (a, b, c), v in num.items()}
        return Laurent3(shifted, self.e)


def _mul_pow_1mt3(num, p):
    """Multiply a monomial dict by (1 - t3)^p, p >= 0."""
    out = dict(num)
    for _ in range(p):
        nxt = {}
        for (a, b, c), v in out.items():
            for k, w in (((a, b, c), v), ((a, b, c + 1), -v)):
                s = nxt.get(k, 0) + w
                if s:
                    nxt[k] = s
                else:
                    nxt.pop(k, None)
        out = nxt
    return out


def _oracle_F(config):
    """Torus-weight generating function of the module encoded by the chain."""
    f = Laurent3({(a, b, 0): 1 for (a, b) in boxes(config.mu)}, e=1)
    for k in range(-len(config.nus), 0):
        f = f + Laurent3({(a, b, k): 1 for (a, b) in _rho(config, k)})
    return f


def _oracle_H(config):
    """H composed in Laurent3 arithmetic from F and the plane-profile series G:

    H = F - conj(F)/(t1 t2 t3) + F conj(F) prod (1 - ti)/ti
        - (G + conj(G)/(t1 t2) - G conj(G)(1-t1)(1-t2)/(t1 t2)) / (1 - t3)
    """
    f = _oracle_F(config)
    fbar = f.conj()
    g = Laurent3({(a, b, 0): 1 for (a, b) in boxes(config.mu)})
    gbar = g.conj()
    shift_all = Laurent3.monomial(-1, -1, -1)
    shift_12 = Laurent3.monomial(-1, -1, 0)
    one = Laurent3.monomial(0, 0, 0)
    t1 = Laurent3.monomial(1, 0, 0)
    t2 = Laurent3.monomial(0, 1, 0)
    t3 = Laurent3.monomial(0, 0, 1)
    k_factor = (one - t1) * (one - t2) * (one - t3) * shift_all
    bracket = g + gbar * shift_12 - g * gbar * (one - t1) * (one - t2) * shift_12
    h = f - fbar * shift_all + f * fbar * k_factor - Laurent3.geometric_t3() * bracket
    h.to_polynomial()
    return h


# the five acceptance shapes at excess 4, the README sizes, and (3, 2, 1) at excess 3
ORACLE_SWEEP = ([(mu, 4) for mu in [(1,), (2,), (1, 1), (3,), (2, 1)]]
                + [((2, 1), 3), ((3, 1), 2), ((2, 2), 4), ((3, 2, 1), 3)])


def test_normalize_partition():
    assert normalize_partition([3, 2, 0]) == (3, 2)
    assert normalize_partition(()) == ()
    with pytest.raises(ValueError):
        normalize_partition([1, 2])
    with pytest.raises(ValueError):
        normalize_partition([-1])


def test_boxes_and_profiles():
    assert boxes((2, 1)) == [(0, 0), (1, 0), (0, 1)]
    c = _profile_c(boxes((2, 1)))
    assert c == {0: 1, 1: 1, -1: 1}
    d = _profile_d(boxes((2, 1)))
    assert d[-1] == 0 and d[0] == 0 and d[1] == 1 and d[-2] == -1


def test_subdiagrams_of_staircase():
    assert subdiagrams((2, 1)) == [(), (1,), (1, 1), (2,), (2, 1)]
    assert subdiagrams((1,)) == [(), (1,)]
    assert subdiagrams(()) == [()]


def test_config_validation():
    with pytest.raises(ValueError):
        BoxConfig((2,), ((1,),))  # chain must start at mu
    with pytest.raises(ValueError):
        BoxConfig((2,), ((2,), (2,)))  # first proper level must differ
    with pytest.raises(ValueError):
        BoxConfig((2,), ((2,), (1,), (2,)))  # must weakly decrease
    cfg = BoxConfig((2,), ((2,), (1,), (1,)))
    assert cfg.size == 2
    assert _rho(cfg, 0) == boxes((2,))
    assert _rho(cfg, -1) == [(1, 0)]
    assert _rho(cfg, -3) == []


def test_enumeration_budget_and_order():
    configs = enumerate_configs((1,), 3)
    sizes = [c.size for c in configs]
    assert sizes == sorted(sizes)
    assert len(configs) == 5  # chains of empties up to four levels
    assert all(c.size <= 1 + 3 for c in configs)
    with pytest.raises(ValueError):
        enumerate_configs((1,), -1)


def test_enumerated_configs_equal_public_constructions():
    # the enumeration builds its chains without re-validating them; the public
    # constructor, which checks everything, rebuilds each one unchanged
    for mu, excess in ORACLE_SWEEP + [((), 3)]:
        for cfg in enumerate_configs(mu, excess):
            public = BoxConfig(list(cfg.mu) + [0], [list(nu) for nu in cfg.nus])
            assert (public.mu, public.nus, public.size) == (cfg.mu, cfg.nus, cfg.size), cfg
            assert type(public.nus) is type(cfg.nus) is tuple


def test_laurent3_mul_and_conj():
    x = Laurent3.monomial(1, 0, 0) + Laurent3.monomial(0, 0, -1, 2)
    y = Laurent3.monomial(0, 1, 1)
    p = x * y
    assert p.num == {(1, 1, 1): 1, (0, 1, 0): 2}
    # conjugation inverts all three variables
    c = x.conj()
    assert c.num == {(-1, 0, 0): 1, (0, 0, 1): 2}


def test_laurent3_geometric_denominator():
    g = Laurent3.geometric_t3()  # 1/(1 - t3)
    one = Laurent3.monomial(0, 0, 0)
    prod = g * (one - Laurent3.monomial(0, 0, 1))
    assert prod == one
    with pytest.raises(NotPolynomial):
        g.to_polynomial()


def test_trivial_cylinder_has_zero_vertex():
    cfg = BoxConfig((1,), ((1,),))
    F = _oracle_F(cfg)
    # F = 1/(1 - t3): numerator 1 with one denominator power
    assert F.e == 1 and F.num == {(0, 0, 0): 1}
    H = vertex_H(cfg)
    assert H.to_polynomial() == {}
    assert constant_term_specialized(H) == 0
    assert profile_formula_value(cfg) == 0


def test_single_removed_box_hand_expansion():
    # mu = (1) with the level-(-1) box removed: H = 1/t3 - 1/(t1 t2)
    cfg = BoxConfig((1,), ((1,), ()))
    H = vertex_H(cfg)
    assert H.to_polynomial() == {(0, 0, -1): 1, (-1, -1, 0): -1}
    assert constant_term_specialized(H) == -1
    assert profile_formula_value(cfg) == -1


def test_formula_equals_direct_over_enumerations():
    for mu in [(1,), (2,), (1, 1), (3,), (2, 1)]:
        for cfg in enumerate_configs(mu, 2):
            direct = constant_term_specialized(vertex_H(cfg))
            assert direct == profile_formula_value(cfg), cfg


def test_sign_bounds_small_sweep():
    for mu in [(1,), (2,), (2, 1)]:
        report = divisibility_audit(mu, 3)
        assert report["violations"] == 0
        for row in report["rows"]:
            assert row["direct"] <= 0
            if row["size"] > sum(mu):
                assert row["direct"] <= -1


def test_constant_term_keeps_only_balanced_monomials():
    # t1^2 t2^2 t3^0 specializes to t^0 u^0 under t1 = t, t2 = 1/t, t3 = u
    H = Laurent3({(2, 2, 0): 5, (1, 0, 0): 7, (0, 0, 1): 11, (3, 3, 0): -5})
    assert constant_term_specialized(H) == 0
    H = H + Laurent3.monomial(0, 0, 0, 2)
    assert constant_term_specialized(H) == 2


@pytest.mark.parametrize("mu,excess", ORACLE_SWEEP,
                         ids=[f"{''.join(map(str, mu))}-{e}" for mu, e in ORACLE_SWEEP])
def test_vertex_H_and_audit_match_laurent3_oracle(mu, excess):
    configs = enumerate_configs(mu, excess)
    rows = divisibility_audit(mu, excess)["rows"]
    assert [row["chain"] for row in rows] == [[list(nu) for nu in c.nus] for c in configs]
    for cfg, row in zip(configs, rows):
        oracle = _oracle_H(cfg)
        h = vertex_H(cfg)
        assert h == oracle and h.e == 0, cfg
        assert row["direct"] == constant_term_specialized(oracle), cfg


def test_perturbed_numerator_raises_not_polynomial(monkeypatch):
    exact = vertex._numerator

    def perturbed(config, bracket):
        p = exact(config, bracket)
        key = next(iter(p))
        p[key] += 1
        return p

    monkeypatch.setattr(vertex, "_numerator", perturbed)
    with pytest.raises(NotPolynomial):
        vertex_H(BoxConfig((2, 1), ((2, 1), (1,))))
    with pytest.raises(NotPolynomial):
        divisibility_audit((2, 1), 2)


def test_pair_sum_equals_the_numerator_constant_term():
    # every configuration of every partition with |mu| <= 5 at excess <= 3
    checked = 0
    for mu in [nu for nu in subdiagrams((5,) * 5) if sum(nu) <= 5]:
        bracket = vertex._bracket(mu)
        for cfg, row in zip(enumerate_configs(mu, 3), divisibility_audit(mu, 3)["rows"]):
            want = vertex._specialized_constant(vertex._numerator(cfg, bracket))
            assert row["direct"] == want, cfg
            assert type(row["direct"]) is type(row["formula"]) is int
            checked += 1
    assert checked == 1348


def test_audit_builds_no_laurent3(monkeypatch):
    expected = divisibility_audit((2, 2), 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("Laurent3 arithmetic on the audit path")

    monkeypatch.setattr(vertex, "Laurent3", forbidden)
    monkeypatch.setattr(vertex, "_div_1mt3", forbidden)
    assert divisibility_audit((2, 2), 2) == expected


def _rho(config, k):
    """Boxes of the skew diagram at x3-degree k (empty below -m, mu above -1)."""
    m = len(config.nus)
    if k < -m:
        return []
    nu = () if k >= 0 else config.nus[k + m]
    return [(a, b) for b, part in enumerate(config.mu)
            for a in range(nu[b] if b < len(nu) else 0, part)]


def _profile_c(rho_boxes):
    """Diagonal counts: c[r] = number of boxes with a - b = r."""
    out = {}
    for a, b in rho_boxes:
        out[a - b] = out.get(a - b, 0) + 1
    return out


def _profile_d(rho_boxes):
    """First differences along diagonals: d[r] = c[r] - c[r+1]."""
    c = _profile_c(rho_boxes)
    rs = set(c)
    rs.update(r - 1 for r in c)
    return {r: c.get(r, 0) - c.get(r + 1, 0) for r in sorted(rs)}


def _oracle_formula(config):
    """The profile formula level by level, over the box lists of rho(k)."""
    m = len(config.nus)
    d_by_level = {k: _profile_d(_rho(config, k)) for k in range(-m, 1)}
    rs = set()
    for d in d_by_level.values():
        rs.update(d)
    total = 0
    for r in rs:
        square_sum = 0
        for k in range(-m, 1):
            prev = d_by_level.get(k - 1, {}).get(r, 0)
            square_sum += (d_by_level[k].get(r, 0) - prev) ** 2
        total += d_by_level[0].get(r, 0) ** 2 - square_sum
    return Fraction(total, 2) - _profile_c(_rho(config, -1)).get(0, 0)


def _oracle_terms(cells):
    """N - Nbar/(t1 t2 t3) + N Nbar (1-t1)(1-t2)/(t1 t2 t3), pairs counted by Counter."""
    out = Counter()
    for a, b, c in cells:
        out[a, b, c] += 1
        out[-a - 1, -b - 1, -c] += 1
    pairs = Counter((a1 - a2, b1 - b2, c1 - c2) for a1, b1, c1 in cells for a2, b2, c2 in cells)
    for (a, b, c), n in pairs.items():
        out[a - 1, b - 1, c] -= n
        out[a, b - 1, c] += n
        out[a - 1, b, c] += n
        out[a, b, c] -= n
    return out


def _oracle_numerator(config):
    """P = N-terms minus G-terms, each box of mu at t3^-(levels that miss it)."""
    depth = [(a, b, -sum(b >= len(nu) or a >= nu[b] for nu in config.nus))
             for a, b in boxes(config.mu)]
    p = _oracle_terms(depth)
    p.subtract(_oracle_terms([(a, b, 0) for a, b in boxes(config.mu)]))
    return {k: v for k, v in p.items() if v}


@pytest.mark.parametrize("mu,excess", ORACLE_SWEEP,
                         ids=[f"{''.join(map(str, mu))}-{e}" for mu, e in ORACLE_SWEEP])
def test_profile_formula_and_numerator_match_level_oracles(mu, excess):
    configs = enumerate_configs(mu, excess)
    rows = divisibility_audit(mu, excess)["rows"]
    bracket = vertex._bracket(normalize_partition(mu))
    for cfg, row in zip(configs, rows):
        want = _oracle_formula(cfg)
        assert row["formula"] == want and profile_formula_value(cfg) == want, cfg
        p = vertex._numerator(cfg, bracket)
        assert {k: v for k, v in p.items() if v} == _oracle_numerator(cfg), cfg


def test_audit_builds_each_diagonal_vector_once():
    vertex._diagonal_vector.cache_clear()
    divisibility_audit((2, 2), 4)
    partitions = {nu for cfg in enumerate_configs((2, 2), 4) for nu in cfg.nus}
    info = vertex._diagonal_vector.cache_info()
    assert info.misses == len(partitions) and info.hits > 0
