"""Golden-output gate: every README command reproduces its committed digest.

The digests in bench/digests.json["cli-readme"] are SHA-256 hashes of
f"exit={code}\\n{stdout}" for each command run through cli.main, the same
render the benchmark checks.  A refactor that changes any certified output
byte fails here.  The file is only read.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from k3series.cli import main

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "digests.json").read_text()
)["cli-readme"]


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_cli_output_matches_digest(command, capsys):
    code = main(command.split())
    stdout = capsys.readouterr().out
    rendered = f"exit={code}\n{stdout}"
    assert hashlib.sha256(rendered.encode()).hexdigest() == DIGESTS[command]
