"""Checks that must fail on a forged input.

A check that cannot fail certifies nothing, so each test here changes one
ingredient of a check by monkeypatching and asserts that the check reports
the mismatch, on the side that reads the forged ingredient and only there.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from k3series import cli, kkv, lowgenus, vertex
from k3series.modforms import bernoulli


def test_log_identity_check_passes_unforged():
    rep = kkv.log_identity_check(6, 4)
    assert (rep.bivariate_equal, rep.scalar_equal) == (True, True)


def test_log_identity_check_fails_on_a_forged_bernoulli_number(monkeypatch):
    # B_4 enters both the Eisenstein side of the bivariate identity and the scalar one
    monkeypatch.setattr(kkv, "bernoulli",
                        lambda n: bernoulli(n) + (Fraction(1, 7) if n == 4 else 0))
    rep = kkv.log_identity_check(6, 4)
    assert (rep.bivariate_equal, rep.scalar_equal) == (False, False)
    assert not rep.equal


def test_log_identity_check_fails_on_a_forged_divisor_sum(monkeypatch):
    # sigma_3(2) enters only E_4's q-row, so the scalar identity still holds
    real = kkv._sigma_table

    def forged(power, order):
        sig = list(real(power, order))
        if power == 3 and order >= 2:
            sig[2] += 1
        return tuple(sig)

    monkeypatch.setattr(kkv, "_sigma_table", forged)
    rep = kkv.log_identity_check(6, 4)
    assert (rep.bivariate_equal, rep.scalar_equal) == (False, True)


def _forge_bernoulli_4(monkeypatch):
    """kkv's B_4 off by 1/7."""
    monkeypatch.setattr(kkv, "bernoulli",
                        lambda n: bernoulli(n) + (Fraction(1, 7) if n == 4 else 0))


def _forge_sigma_3_of_2(monkeypatch):
    """kkv's sigma_3(2) off by 1."""
    real = kkv._sigma_table

    def forged(power, order):
        sig = list(real(power, order))
        if power == 3 and order >= 2:
            sig[2] += 1
        return tuple(sig)

    monkeypatch.setattr(kkv, "_sigma_table", forged)


@pytest.fixture
def cold_caches():
    """Every kkv and lowgenus cache empty before and after, so that no table
    built from a forged input outlives its test and none built before it hides it."""
    def clear():
        for mod in (kkv, lowgenus):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    clear()
    yield
    clear()


def test_verify_gwpt_names_the_first_mismatch_of_a_forged_divisor_sum(
        capsys, monkeypatch, cold_caches):
    # sigma_3(2) enters E_4's q^2 term, so the Hodge row q^1 (h = 2) first
    # differs at u^2, where u^-2 exp(A) reads A's u^4 row
    _forge_sigma_3_of_2(monkeypatch)
    argv = ["verify", "--suite", "gwpt", "--hmax", "4", "--kmax", "2", "--uorder", "12"]
    assert cli.main(argv) == 3
    out = capsys.readouterr().out
    assert [ln for ln in out.splitlines() if ln.startswith("FAIL")][0] == (
        "FAIL gw_pairs_h2_k0 (first mismatch at u^2)")
    assert out.endswith("suite gwpt: FAILED\n")


def test_verify_appendixB_names_the_boundary_rows_of_a_forged_bernoulli_number(
        capsys, monkeypatch, cold_caches):
    # B_4 enters the direct Hodge table from genus 2 on, and neither the ring
    # forms nor the strata identities, so exactly two closed forms disagree
    _forge_bernoulli_4(monkeypatch)
    assert cli.main(["verify", "--suite", "appendixB", "--hmax", "4", "--qorder", "12"]) == 3
    captured = capsys.readouterr()
    assert [ln for ln in captured.out.splitlines() if ln.startswith("FAIL")] == [
        "FAIL boundary_R_genus2 (closed form disagrees with the direct table)",
        "FAIL boundary_R_genus3 (closed form disagrees with the direct table)"]
    assert "internal error" not in captured.out + captured.err


def _forge_formula_at(monkeypatch, chain):
    """profile_formula_value off by 1 for the one configuration with this chain."""
    real = vertex.profile_formula_value
    monkeypatch.setattr(vertex, "profile_formula_value",
                        lambda config: real(config) + (config.nus == chain))


def _forge_pair_weight(monkeypatch, mu, pair):
    """The template of mu with the weight of near pair (i, j) raised by 1."""
    real = vertex._template

    def forged(nu):
        cells, pairs, diagonal, near = real(nu)
        if nu == mu:
            near = tuple((i, j, w + ((i, j) == pair)) for i, j, w in near)
        return cells, pairs, diagonal, near

    monkeypatch.setattr(vertex, "_template", forged)


def test_divisibility_audit_counts_a_forged_formula_value(monkeypatch):
    assert vertex.divisibility_audit((2, 1), 3)["violations"] == 0
    _forge_formula_at(monkeypatch, ((2, 1), (1,)))
    report = vertex.divisibility_audit((2, 1), 3)
    assert report["violations"] == 1
    bad = [row["chain"] for row in report["rows"] if not row["match"]]
    assert bad == [[[2, 1], [1]]]


def test_verify_vertex_names_the_first_violating_chain(capsys, monkeypatch):
    _forge_formula_at(monkeypatch, ((2, 1), (1,)))
    code = cli.main(["verify", "--suite", "vertex", "--mu", "2,1", "--excess", "3"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL vertex_mu2_1_excess3 (first violating chain: 2.1|1)\n" in out
    assert "suite vertex: FAILED" in out


def test_vertex_audit_exits_3_and_marks_the_forged_row(capsys, monkeypatch):
    _forge_formula_at(monkeypatch, ((2, 1), (1,)))
    assert cli.main(["vertex", "--mu", "2,1", "--excess", "3", "--audit"]) == 3
    capsys.readouterr()
    argv = ["vertex", "--mu", "2,1", "--excess", "3", "--audit", "--format", "text"]
    assert cli.main(argv) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("violations=1")
    assert [ln for ln in lines if ln.startswith("FAIL")] == [
        "FAIL size=2 H0=-2 formula=-1 chain (2,1) > (1)"]


def test_divisibility_audit_fails_on_a_forged_pair_weight(monkeypatch):
    # boxes 0 = (0, 0) and 1 = (1, 0) of (2, 1) have contents 0 and 1; the
    # largest configuration, six levels (2), misses neither, so its check of the
    # pair sum against P still passes and the forgery shows as violations
    _forge_pair_weight(monkeypatch, (2, 1), (0, 1))
    report = vertex.divisibility_audit((2, 1), 3)

    def missed(box, chain):
        a, b = box
        return sum(b >= len(nu) or a >= nu[b] for nu in chain)

    want = [row["chain"] for row in report["rows"]
            if missed((0, 0), row["chain"]) != missed((1, 0), row["chain"])]
    assert want and report["violations"] == len(want)
    assert [row["chain"] for row in report["rows"] if not row["match"]] == want


def test_divisibility_audit_raises_when_the_pair_sum_disagrees_with_p(capsys, monkeypatch):
    # boxes 0 = (0, 0) and 2 = (0, 1) sit at depths 0 and 6 in the largest configuration
    _forge_pair_weight(monkeypatch, (2, 1), (0, 2))
    with pytest.raises(AssertionError, match="pair sum disagrees"):
        vertex.divisibility_audit((2, 1), 3)
    assert cli.main(["vertex", "--mu", "2,1", "--excess", "3", "--audit"]) == 1
    assert capsys.readouterr().err.startswith("internal error: pair sum disagrees")
