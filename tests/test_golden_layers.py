"""Golden digests of the (y, q) and (u, q) layers past the README sizes.

Each case renders one output of a generator or table and compares its
SHA-256 with a digest recorded before the kernels behind it were rewritten:
the rows of Delta(y, q) and 1/Delta(y, q) through q^60 (each row as its
(lo, nums, den, hi) fields), the BPS table r_{g,h} through (40, 40), the
Hodge table R_{g,h} through (20, 20), both sides of one GW/pairs
comparison, every recognized row of the quasimodularity audit at
(k, g) = (4, 8) and (5, 10) as qmod_to_text, and the JSON report of the vertex audit of
mu = (3, 2, 1) at excess 3 (495 configurations) as cli.main prints it,
rendered f"exit={code}\n{stdout}" like the golden CLI corpus.  A deliberate
change to one of these outputs updates its digest in the same change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from k3series import cli
from k3series.kkv import (
    bps_r_table,
    gw_pairs_check,
    hodge_r_table,
    inv_discriminant_yq,
    quasimodularity_audit,
)
from k3series.modforms import discriminant_yq, qmod_to_text
from k3series.series import series_to_text


def _rows(series):
    lines = [repr(series.window())]
    lines += [repr((r.lo, r.nums, r.den, r.hi)) for r in series.coeffs]
    return "\n".join(lines) + "\n"


def _both_sides(rep):
    return series_to_text(rep.gw_side) + series_to_text(rep.pairs_side)


def _audit_rows(rows):
    return "".join(f"k={k} g={g}\n" + qmod_to_text(elem) for k, g, elem in rows)


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return f"exit={code}\n{out.getvalue()}"


CASES = {
    "discriminant_yq(60)": (lambda: _rows(discriminant_yq(60)),
                            "efc2e4d800e4b0581471c38eea6ae66fef24a40c24e989439f5a97a1c5663378"),
    "inv_discriminant_yq(60)": (lambda: _rows(inv_discriminant_yq(60)),
                                "3eb3fd48ff5e76266296157abcc0f1f79960bc8500e8b413e8d21e6de1b9e12f"),
    "bps_r_table(40,40)": (lambda: bps_r_table(40, 40).to_csv(),
                           "32b7a56ac51f8ca6ec7f657dc9a0c8fa103d17edf84865d28beda2a447e4fcfb"),
    "hodge_r_table(20,20)": (lambda: hodge_r_table(20, 20).to_csv(),
                             "c1a5e47cab8743ba2c0320123572957bdf3eaaa83258b36e96a05f065c22635c"),
    "gw_pairs_check(8,3,40)": (lambda: _both_sides(gw_pairs_check(8, 3, 40)),
                               "02914d4fa5cb86a917e48d7553063dd8ee79a56ca31b1db19c6d0101a502558c"),
    "quasimodularity_audit(4,8)": (lambda: _audit_rows(quasimodularity_audit(4, 8)),
                                   "4ec12bfa444a1fd22d60663f8f3f93c67bab2d113bb15bc71e74eceaf93bef42"),
    "quasimodularity_audit(5,10)": (lambda: _audit_rows(quasimodularity_audit(5, 10)),
                                    "7072899f4910964ae84dffa3e9e34ba82bc2be024ed556899584fbae8b67976b"),
    "vertex(3,2,1;3)": (lambda: _cli("vertex", "--mu", "3,2,1", "--excess", "3", "--format", "json"),
                        "f4d60a2c62b26e4d296321dc9a991781db6c6a4308558e1e7f4c56ae851dd316"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_layer_output_digest(name):
    render, digest = CASES[name]
    assert hashlib.sha256(render().encode()).hexdigest() == digest
