"""Write bench/digests.json: SHA-256 of every fixed-input op's rendered output.

    python3 bench/make_digests.py

Run it only at a commit whose outputs are known to be right.  A change that
claims a speed-up must leave this file untouched: the digests are what make
a fast wrong answer count as a failure.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    prog = run.import_program()
    caches = run.find_caches(prog)
    ops = {
        "qseries-cold": workloads.build("qseries-cold", prog, 0, None, {}),
        "yq-session": workloads.yq_fixed_ops(prog, {}) + [
            workloads.grid_op(prog, h, k, u, {}) for k, u, h in workloads.YQ_GRID],
        "cli-readme": workloads.build("cli-readme", prog, 0, None, {}),
    }
    table = {}
    for name, group in ops.items():
        table[name] = {}
        for op in group:
            if op.render is None:
                continue
            run.clear_caches(caches, {})
            out = op.run()
            if op.check is not None and not op.check(out):
                raise SystemExit(f"{op.label}: output fails its own check")
            table[name][op.label] = workloads.sha256(op.render(out))
            print(f"{name:14s} {op.label}", flush=True)
    with open(run.BENCH / "digests.json", "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
