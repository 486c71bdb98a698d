"""Spans and counters around calls into each k3series layer.

Installed only for the traced run, from the benchmark's side: module
attributes and class methods are swapped for timing wrappers and restored
afterwards, so nothing under src/ changes.  A layer's self time is its span's
duration minus the time its wrapped children took.

Calls to the hot kernels (Series.__mul__, YLaurent multiplication,
euler_pk) run millions of times in some workloads, so they are folded into
per-name totals rather than kept as individual spans; every other wrapped
call is kept as a span {name, start, end, parent, op_id}.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute, span name, hot).  Attributes of the form
# "Class.method" are patched on the class; plain names are patched wherever
# a k3series module binds the same object.
TARGETS = [
    ("series", "Series.__mul__", "series.mul", True),
    ("series", "YLaurent.__mul__", "series.ylaurent_mul", True),
    ("series", "YLaurent.__rmul__", "series.ylaurent_mul", True),
    ("series", "series_inv", "series.inv", False),
    ("series", "series_exp", "series.exp_log", False),
    ("series", "series_log", "series.exp_log", False),
    ("series", "trig_substitute", "series.trig", False),
    ("modforms", "discriminant_q", "modforms.discriminant", False),
    ("modforms", "discriminant_yq", "modforms.discriminant", False),
    ("modforms", "eisenstein", "modforms.eisenstein", False),
    ("modforms", "qmod_expand", "modforms.expand", False),
    ("modforms", "qmod_recognize", "modforms.recognize", False),
    ("kkv", "inv_discriminant_q", "kkv.inv_discriminant", False),
    ("kkv", "inv_discriminant_yq", "kkv.inv_discriminant", False),
    ("kkv", "bps_r_table", "kkv.tables", False),
    ("kkv", "hodge_r_series", "kkv.tables", False),
    ("kkv", "hodge_r_table", "kkv.tables", False),
    ("kkv", "ky_euler_table", "kkv.tables", False),
    ("kkv", "signed_euler_table", "kkv.tables", False),
    ("kkv", "pairs_signed_Z", "kkv.tables", False),
    ("kkv", "pairs_point_factor", "kkv.tables", False),
    ("kkv", "gw_point_factor", "kkv.tables", False),
    ("kkv", "point_series_gw", "kkv.tables", False),
    ("kkv", "pairs_point_numerators", "kkv.tables", False),
    ("kkv", "point_series_pairs", "kkv.tables", False),
    ("kkv", "euler_pk", "kkv.tables", True),
    ("kkv", "inverse_euler_pk", "kkv.tables", True),
    ("kkv", "bps_transform_check", "kkv.checks", False),
    ("kkv", "gw_pairs_check", "kkv.checks", False),
    ("kkv", "log_identity_check", "kkv.checks", False),
    ("kkv", "quasimodularity_audit", "kkv.checks", False),
    ("vertex", "divisibility_audit", "vertex.audit", False),
    ("lowgenus", "t_form", "lowgenus.identities", False),
    ("lowgenus", "stationary_series", "lowgenus.identities", False),
    ("lowgenus", "identity_details", "lowgenus.identities", False),
    ("lowgenus", "identity_checks", "lowgenus.identities", False),
    ("lowgenus", "boundary_R", "lowgenus.identities", False),
    ("cli", "main", "cli.main", False),
]

SELF_NAMES = sorted({name for _, _, name, _ in TARGETS})


def mul_products(a, b):
    """Inner-loop length of Series.__mul__ for a * b, from the two windows.

    The product is certified up to the shorter window length h past its
    floor, and coefficient k of that range takes k + 1 products, so the
    loop runs (h + 1)(h + 2)/2 times; scalar scaling runs no loop.
    """
    if type(b).__name__ != "Series" or a.var != b.var:
        return 0
    h = min(a.order - a.min_exp, b.order - b.min_exp)
    return (h + 1) * (h + 2) // 2 if h >= 0 else 0


class Tracer:
    """Collects spans, per-name self time and counts while an op is open."""

    def __init__(self):
        self.spans = []
        self.passes = []  # per pass: (self_s, calls, counts)
        self.op_id = None
        self._family = None
        self._stack = []
        self._patches = []
        self.begin_pass()

    def begin_pass(self):
        self.self_s = {name: 0.0 for name in SELF_NAMES}
        self.calls = {name: 0 for name in SELF_NAMES}
        self.counts = {"series.mul.coeff_products": 0, "vertex.configs": 0}

    def end_pass(self):
        self.passes.append((self.self_s, self.calls, self.counts))

    # -- op boundaries -------------------------------------------------
    def begin_op(self, op_id, family):
        self.op_id = op_id
        self._stack = [[len(self.spans), perf_counter(), 0.0]]
        self.spans.append(None)
        self._family = family

    def end_op(self):
        idx, start, _ = self._stack.pop()
        self.spans[idx] = ("op." + self._family, start, perf_counter(), None, self.op_id)
        self.op_id = None

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn, name, hot):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0]
            if hot:
                frame = [parent, perf_counter(), 0.0]
            else:
                frame = [len(tracer.spans), perf_counter(), 0.0]
                tracer.spans.append(None)
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = perf_counter()
                dur = end - frame[1]
                stack[-1][2] += dur
                tracer.self_s[name] += dur - frame[2]
                tracer.calls[name] += 1
                if not hot:
                    tracer.spans[frame[0]] = (name, frame[1], end, parent, tracer.op_id)
            if name == "series.mul":
                tracer.counts["series.mul.coeff_products"] += mul_products(*args)
            elif name == "vertex.audit":
                tracer.counts["vertex.configs"] += out["configs"]
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, package_name="k3series"):
        mods = {key.rsplit(".", 1)[-1]: mod for key, mod in sys.modules.items()
                if key.startswith(package_name + ".") and mod is not None}
        for mod_name, attr, name, hot in TARGETS:
            mod = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, hot))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name, hot)
            for other in mods.values():
                for key, value in list(vars(other).items()):
                    if value is orig:
                        self._patches.append((other, key, orig))
                        setattr(other, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches = []
