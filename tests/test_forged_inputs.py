"""Checks that must fail on a forged input.

A check that cannot fail certifies nothing, so each test here changes one
ingredient of a check by monkeypatching and asserts that the check reports
the mismatch, on the side that reads the forged ingredient and only there.
"""

from __future__ import annotations

from fractions import Fraction

from k3series import kkv
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
