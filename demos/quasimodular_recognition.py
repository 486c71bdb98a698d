"""Recognizing series as polynomials in E2, E4, E6 by exact elimination.

Multiplying any u-row of the point-inserted curve-count series by the
discriminant produces a quasimodular form whose weight is bounded by
2g + 2k.  Recognition solves an exact linear system over the rationals
and accepts a solution only when it matches every coefficient of the
window, so a printed element is a proof.
"""

from __future__ import annotations

from k3series.kkv import quasimodularity_audit
from k3series.modforms import qmod_to_text

K_MAX = 2
G_MAX = 3


def main():
    rows = quasimodularity_audit(K_MAX, G_MAX)
    for k, g, elem in rows:
        print(f"k={k} g={g}: ", end="")
        if not elem.terms:
            print("0")
            continue
        w = elem.weight()
        bound = 2 * g + 2 * k
        tag = "<=" if w <= bound else "EXCEEDS"
        print(f"weight {w} ({tag} {bound})")
        for line in qmod_to_text(elem).strip().splitlines():
            print("    " + line)


if __name__ == "__main__":
    main()
