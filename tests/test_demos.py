"""Smoke test for the scripts in demos/.

Each demo runs in-process as __main__ and its stdout must hash to the
SHA-256 digest recorded here, so a demo that stops running or prints
anything different fails.  A deliberate change to a demo's output updates
its digest in the same change.
"""

from __future__ import annotations

import hashlib
import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

DIGESTS = {
    "boundary_low_genus.py":
        "78347da40ae7cae7e0625f36715f5485b83874e2eaa61e4a108b38b744a8cd0a",
    "bps_hodge_tables.py":
        "48267aae07bef2ab2fb92cd0448b15108f330ed178d4669eb08f5da163172f36",
    "gw_pairs_correspondence.py":
        "907562caf4857ac75a51f20f8af853040bd175cf259dd3f207428ef2af2651a1",
    "pairs_euler_characteristics.py":
        "0a9992989f646b36dde3ed0e29cf7232a28fb0744e29c124147720aaa135d74d",
    "quasimodular_recognition.py":
        "b3e54f07cb223e09e6dfaf87f38da3cef05137748504417bfe018e3c06472ca4",
    "vertex_box_counting.py":
        "030e4fe01f898d696a0e5e73d642b87e19416054da048c645d6c46f538ddbd6c",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_digest(name):
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue(), f"{name} printed nothing"
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[name]
