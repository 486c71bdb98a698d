"""Golden-output gate for `recognize`: a seeded corpus of inputs and digests.

Every case feeds one series file to `cli.main(["recognize", "-", ...])` on
stdin and hashes f"exit={code}\\n{stdout}\\x00{stderr}".  The corpus covers
accepted elements at weights 12/16/20 on windows of dim+5..dim+9, one-
coefficient perturbations (exit 4), windows of dim+3/dim+4 (exit 5),
a sparse weight-24 element (dim 102) on dim+5 and its perturbation,
`--delta-pole` inputs, random rational series, `--weight-max 0`, and
malformed files (exit 2).  The inputs are built here from integer
q-expansions that share no code with the package, so the corpus does not
move when the package does.

The committed digests in golden_recognize.json were written by

    PYTHONPATH=src python3 tests/test_golden_recognize.py

and a refactor must leave them unchanged: rerun that command only when the
recognize output is meant to change, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from k3series.cli import main

DIGESTS = Path(__file__).resolve().parent / "golden_recognize.json"
SEED = 20100114


# -- integer q-expansions, independent of k3series ---------------------------

def weight_basis(max_weight):
    return [(a, b, c)
            for a in range(max_weight // 2 + 1)
            for b in range((max_weight - 2 * a) // 4 + 1)
            for c in range((max_weight - 2 * a - 4 * b) // 6 + 1)]


def eisenstein(weight, order):
    factor = {2: -24, 4: 240, 6: -504}[weight]
    return [1] + [factor * sum(d ** (weight - 1) for d in range(1, m + 1) if m % d == 0)
                  for m in range(1, order + 1)]


def mul(a, b, order):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(order + 1)]


def expand(element, order):
    """sum v E2^a E4^b E6^c as Fractions of q^0..q^order."""
    gens = [eisenstein(w, order) for w in (2, 4, 6)]
    out = [Fraction(0)] * (order + 1)
    for key, v in element.items():
        mono = [1] + [0] * order
        for gen, e in zip(gens, key):
            for _ in range(e):
                mono = mul(mono, gen, order)
        out = [x + v * c for x, c in zip(out, mono)]
    return out


def inv_delta_shifted(order):
    """q * (1/Delta) = prod (1 - q^n)^-24 through q^order."""
    eta24 = [1] + [0] * order
    for n in range(1, order + 1):
        factor = [1] + [0] * order
        factor[n] = -1
        for _ in range(24):
            eta24 = mul(eta24, factor, order)
    out = [1]
    for k in range(1, order + 1):
        out.append(-sum(eta24[j] * out[k - j] for j in range(1, k + 1)))
    return out


def text(min_exp, coeffs, var="q"):
    lines = [f"var={var} order={min_exp + len(coeffs) - 1}"]
    lines += [f"{k}: {Fraction(c).numerator}/{Fraction(c).denominator}"
              for k, c in enumerate(coeffs, start=min_exp)]
    return "\n".join(lines) + "\n"


# -- the corpus ---------------------------------------------------------------

def _rational(rng):
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


def _element(rng, weight):
    out = {}
    for key in weight_basis(weight):
        v = Fraction(0)
        while not v:
            v = _rational(rng)
        out[key] = v
    return out


def corpus():
    """Case name -> (series text, extra argv), in a fixed seeded order.

    "dim+s" names a window of dim(basis) + s coefficients, q^0..q^(dim+s-1).
    """
    rng = random.Random(SEED)
    cases = {}
    for weight, slacks in ((12, range(5, 10)), (16, range(5, 10)), (20, (5, 9))):
        dim = len(weight_basis(weight))
        argv = ["--weight-max", str(weight)]
        for slack in slacks:
            coeffs = expand(_element(rng, weight), dim + slack - 1)
            cases[f"w{weight}_dim+{slack}"] = (text(0, coeffs), argv)
            if weight < 20:
                bad = list(coeffs)
                bad[rng.randrange(1, len(bad))] += rng.choice((1, Fraction(1, 7)))
                cases[f"w{weight}_dim+{slack}_perturbed"] = (text(0, bad), argv)
        for slack in (3, 4):
            coeffs = expand(_element(rng, weight), dim + slack - 1)
            cases[f"w{weight}_dim+{slack}_short"] = (text(0, coeffs), argv)
    # a weight-4 element recognized inside the weight-12 basis
    cases["w4_in_w12"] = (text(0, expand({(0, 1, 0): Fraction(1, 240)}, 30)),
                          ["--weight-max", "12"])
    dim = len(weight_basis(12))
    order = dim + 8
    inv = inv_delta_shifted(order + 1)
    for i in range(4):
        coeffs = mul(expand(_element(rng, 12), order + 1), inv, order + 1)
        if i == 3:
            coeffs[rng.randrange(2, order + 2)] += 1
        cases[f"delta_pole_{i}"] = (text(-1, coeffs), ["--weight-max", "12", "--delta-pole"])
    cases["delta_pole_short"] = (text(-1, mul(expand({(0, 0, 0): 1}, 20), inv, 20)),
                                 ["--weight-max", "12", "--delta-pole"])
    for i, weight in enumerate((4, 8, 12, 12, 16, 6)):
        n = len(weight_basis(weight)) + rng.randint(5, 12)
        coeffs = [_rational(rng) for _ in range(n)]
        cases[f"random_{i}_w{weight}"] = (text(0, coeffs), ["--weight-max", str(weight)])
    # weight 24 (dim 102) with a handful of monomials, so expand() stays cheap
    basis = weight_basis(24)
    top = [key for key in basis if 2 * key[0] + 4 * key[1] + 6 * key[2] == 24]
    keys = rng.sample(top, 2) + rng.sample(basis, 3)
    coeffs = expand({key: _rational(rng) or Fraction(1) for key in keys}, len(basis) + 4)
    cases["w24_sparse_dim+5"] = (text(0, coeffs), ["--weight-max", "24"])
    coeffs[rng.randrange(1, len(coeffs))] += 1
    cases["w24_sparse_dim+5_perturbed"] = (text(0, coeffs), ["--weight-max", "24"])
    zero = ["--weight-max", "0"]
    cases["wmax0_constant"] = (text(0, [Fraction(3, 2)] + [0] * 7), zero)
    cases["wmax0_zero"] = (text(0, [0] * 8), zero)
    cases["wmax0_nonconstant"] = (text(0, expand({(1, 0, 0): 1}, 7)), zero)
    cases["wmax0_short"] = (text(0, [1, 0, 0, 0, 0]), zero)
    cases["zero_series_w12"] = (text(0, [0] * 30), ["--weight-max", "12"])
    cases["empty_window"] = ("var=q order=-1\n", ["--weight-max", "12"])
    malformed = {
        "empty": "",
        "bad_header": "var=q\n0: 1\n",
        "bad_var": "var=t order=2\n0: 1\n1: 0\n2: 0\n",
        "gap": "var=q order=3\n0: 1\n2: 0\n3: 0\n",
        "duplicate": "var=q order=1\n0: 1\n0: 1\n1: 0\n",
        "past_order": "var=q order=1\n0: 1\n1: 0\n2: 0\n",
        "zero_denominator": "var=q order=1\n0: 1/0\n1: 0\n",
        "bad_line": "var=q order=1\n0 1\n1: 0\n",
        "not_a_number": "var=q order=1\n0: x\n1: 0\n",
        "u_series": text(0, [1] + [0] * 29, var="u"),
        "pole_without_flag": text(-1, [1] * 31),
    }
    for name, body in malformed.items():
        cases[f"malformed_{name}"] = (body, ["--weight-max", "12"])
    cases["malformed_weight_flag"] = (text(0, [1] * 30), ["--weight-max", "-2"])
    return cases


def run_case(body, argv):
    """(exit code, sha256 of the exit code, stdout and stderr) for one case."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(body)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["recognize", "-"] + argv)
    finally:
        sys.stdin = stdin
    rendered = f"exit={code}\n{out.getvalue()}\x00{err.getvalue()}"
    return code, hashlib.sha256(rendered.encode()).hexdigest()


CORPUS = corpus()
GOLDEN = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def test_corpus_matches_committed_names():
    assert sorted(GOLDEN) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_recognize_output_matches_digest(name):
    code, digest = run_case(*CORPUS[name])
    assert {"exit": code, "sha256": digest} == GOLDEN[name]


if __name__ == "__main__":
    golden = {}
    for name, case in CORPUS.items():
        code, digest = run_case(*case)
        golden[name] = {"exit": code, "sha256": digest}
    DIGESTS.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {DIGESTS.name}")
