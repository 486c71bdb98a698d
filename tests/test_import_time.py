"""Importing the package does no work.

A cache that holds entries right after import means some table was built
at import time, which every process pays for whether it uses the table or
not.  The child process imports every module of the package and reports
each lru_cache it finds; all of them must be untouched.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import k3series

CHILD = """
import importlib, json, pkgutil
import k3series
stats = {}
for info in pkgutil.iter_modules(k3series.__path__):
    if info.name == "__main__":  # the entry point runs the command line
        continue
    mod = importlib.import_module("k3series." + info.name)
    for name, obj in vars(mod).items():
        if callable(getattr(obj, "cache_info", None)) and obj.__module__ == mod.__name__:
            got = obj.cache_info()
            stats[mod.__name__ + "." + name] = [got.hits, got.misses]
print(json.dumps(stats))
"""


def test_importing_every_module_fills_no_cache():
    pkg = Path(k3series.__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pkg.parent)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    stats = json.loads(proc.stdout)
    # every decorated function is found, so none escapes the check
    declared = sum(len(re.findall(r"^@lru_cache\b", p.read_text(), re.M))
                   for p in pkg.glob("*.py"))
    assert len(stats) == declared > 0
    assert {name: hm for name, hm in stats.items() if hm != [0, 0]} == {}
