"""The four benchmark workloads: seeded op lists and their correctness checks.

Each workload builds a list of Ops from a seed.  The seed changes values
and order, never sizes, so every seed does about the same work.  Op counts
per pass are odd (23, 19, 17, 11): the median and tail percentile then fall
inside one op's samples rather than between two ops.  An Op's `run` is the timed
call into k3series; its `check` runs afterwards, untimed, and returns True
only when the output is right: a committed SHA-256 digest for ops with fixed
inputs, an independent identity for seeded ops.  Ops reach the package
through module attributes at call time, so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import qexp


@dataclass
class Op:
    """One timed call.  `check` is an independent identity on the output;
    `render` turns the output into the text whose digest must equal
    `digest`.  An op with a render but no committed digest fails."""

    family: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool] | None = None
    render: Callable[[object], str] | None = None
    digest: str | None = None

    def verify(self, out):
        if self.render is not None and (
                self.digest is None or sha256(self.render(out)) != self.digest):
            return False
        return self.check is None or bool(self.check(out))


@dataclass
class Workload:
    name: str
    cache_policy: str  # "op": clear every lru_cache before each op; "pass": before each pass
    build: Callable


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(prog, argv):
    """cli.main(argv) in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = prog.cli.main(list(argv))
    return code, out.getvalue()


def render_cli(out):
    code, stdout = out
    return f"exit={code}\n{stdout}"


def _rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


# -- qseries-cold ------------------------------------------------------------

GEN_SIZES = (40, 56, 72)
HODGE_SIZES = (8, 9, 10)
INV_LENGTHS = (40, 80, 120)
LOG_LENGTHS = (32, 40)
SERIES_PER_LENGTH = 2


def _series_ops(prog, rng):
    ops = []
    Series = prog.series.Series
    one = Fraction(1)
    for n in INV_LENGTHS:
        for i in range(SERIES_PER_LENGTH):
            a = Series("q", 0, [one] + [_rational(rng) for _ in range(n - 1)], n - 1)

            def check(b, a=a):
                prod = b * a
                return prod.order >= a.order and prod == 1
            ops.append([Op("series_inv", f"series_inv(len={n},#{i})",
                           lambda a=a: prog.series.series_inv(a), check=check)])
    for n in LOG_LENGTHS:
        for i in range(SERIES_PER_LENGTH):
            a = Series("q", 0, [one] + [_rational(rng) for _ in range(n - 1)], n - 1)
            logs = {}

            def run_log(a=a, logs=logs):
                logs.clear()
                logs["out"] = prog.series.series_log(a)
                return logs["out"]

            def check_log(lg, a=a):
                # q d/dq log a = (q d/dq a) / a
                qd = prog.series.q_derive
                lhs = qd(lg) * a
                return (lg.order >= a.order and lg.coeff(0) == 0
                        and lhs.order >= a.order and lhs == qd(a))

            def check_exp(e, a=a):
                return e.order >= a.order and e == a
            ops.append([
                Op("series_log", f"series_log(len={n},#{i})", run_log, check=check_log),
                Op("series_exp", f"series_exp(len={n},#{i})",
                   lambda logs=logs: prog.series.series_exp(logs["out"]),
                   check=check_exp),
            ])
    return ops


def build_qseries_cold(prog, rng, tmp, digests):
    text = prog.series.series_to_text
    groups = []
    for n in GEN_SIZES:
        label = f"discriminant_q({n})"
        groups.append([Op("discriminant_q", label,
                          lambda n=n: prog.modforms.discriminant_q(n),
                          render=text, digest=digests.get(label))])
        label = f"inv_discriminant_q({n})"
        groups.append([Op("inv_discriminant_q", label,
                          lambda n=n: prog.kkv.inv_discriminant_q(n),
                          render=text, digest=digests.get(label))])
    for g in HODGE_SIZES:
        label = f"hodge_r_table({g},{g})"
        groups.append([Op("hodge_r_table", label,
                          lambda g=g: prog.kkv.hodge_r_table(g, g),
                          render=_csv, digest=digests.get(label))])
    groups += _series_ops(prog, rng)
    return _shuffled(groups, rng)


# -- yq-session --------------------------------------------------------------

YQ_H = 10
YQ_N = 12
YQ_SIGNED_Z_H = range(5, YQ_H + 1)
YQ_POINT_K = range(0, 4)
YQ_POINT_H = 8
# gw_pairs_check grid as (k, u, h).  Every h reuses an inv_discriminant_yq
# order that pairs_signed_Z computed earlier in the pass.  The seed orders the
# grid but does not choose its points: the cost of a point grows with h, k and
# u, so seeded points would make the work differ from seed to seed.
YQ_GRID = [(0, 8, 3), (0, 12, 4), (1, 8, 4), (1, 12, 5), (2, 8, 6), (2, 12, 7),
           (3, 8, 5)]


def build_yq_session(prog, rng, tmp, digests):
    """Fixed ops first, in a fixed order, so the same ops pay for the shared
    cache misses every pass; then the grid in seeded order."""
    grid = [grid_op(prog, h, k, u, digests) for k, u, h in YQ_GRID]
    rng.shuffle(grid)
    return yq_fixed_ops(prog, digests) + grid


def yq_fixed_ops(prog, digests):
    """The yq-session ops whose inputs do not depend on the seed."""
    ops = []
    label = f"bps_r_table(8,{YQ_H})"
    ops.append(Op("bps_r_table", label, lambda: prog.kkv.bps_r_table(8, YQ_H),
                  render=_csv, digest=digests.get(label)))
    label = f"ky_euler_table({YQ_N},{YQ_H})"
    ops.append(Op("ky_euler_table", label, lambda: prog.kkv.ky_euler_table(YQ_N, YQ_H),
                  render=_csv, digest=digests.get(label)))
    for h in YQ_SIGNED_Z_H:
        label = f"pairs_signed_Z({h},{YQ_N})"
        ops.append(Op("pairs_signed_Z", label, lambda h=h: prog.kkv.pairs_signed_Z(h, YQ_N),
                      check=lambda out: out[1]["symmetric"] and out[1]["matches_signed_euler"],
                      render=_render_signed_z, digest=digests.get(label)))
    for k in YQ_POINT_K:
        label = f"point_series_pairs({k},{YQ_N},{YQ_POINT_H})"
        ops.append(Op("point_series_pairs", label,
                      lambda k=k: prog.kkv.point_series_pairs(k, YQ_N, YQ_POINT_H),
                      render=_csv, digest=digests.get(label)))
    return ops


def grid_op(prog, h, k, u, digests):
    """gw_pairs_check(h, k, u): both sides must agree through u^u."""
    def check(rep):
        gw, pairs = rep.gw_side, rep.pairs_side
        window_ok = gw.order >= u and pairs.order >= u
        agree = all(gw.coeff(j) == pairs.coeff(j)
                    for j in range(min(gw.min_exp, pairs.min_exp), u + 1))
        return window_ok and agree and rep.numerator_symmetric

    label = f"gw_pairs_check({h},{k},{u})"
    return Op("gw_pairs_check", label, lambda: prog.kkv.gw_pairs_check(h, k, u),
              check=check, render=lambda rep: prog.series.series_to_text(rep.gw_side),
              digest=digests.get(label))


def _render_signed_z(out):
    numerator, rep = out
    return repr(sorted(numerator.terms.items())) + "\n" + repr(sorted(rep.items()))


def _csv(table):
    return table.to_csv()


# -- recognize-cold ----------------------------------------------------------

RECOGNIZE = {12: 4, 16: 1}  # weight -> seeded elements per pass
DELTA_POLE = 3              # seeded 1/Delta multiples at weight 12 per pass
WINDOW_SLACK = 8            # rows past dim(basis) in a good window


def _element(rng, weight):
    out = {}
    for key in qexp.weight_basis(weight):
        v = Fraction(0)
        while not v:
            v = _rational(rng)
        out[key] = v
    return out


def _write(tmp, name, body):
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        fh.write(body)
    return path


def build_recognize_cold(prog, rng, tmp, digests):
    groups = []

    def element_check(want):
        def check(out):
            code, stdout = out
            got = prog.modforms.qmod_from_text(stdout)
            return code == 0 and got == prog.modforms.QModElement(want)
        return check

    def exit_check(want_code):
        return lambda out: out[0] == want_code and out[1] == ""

    for weight, count in sorted(RECOGNIZE.items()):
        dim = len(qexp.weight_basis(weight))
        order = dim + WINDOW_SLACK
        argv_tail = ["--weight-max", str(weight)]
        for i in range(count):
            elem = _element(rng, weight)
            coeffs = qexp.expand(elem, order)
            good = _write(tmp, f"w{weight}_{i}.txt", qexp.text("q", 0, coeffs))
            groups.append([Op(f"recognize_w{weight}", f"recognize(w{weight},#{i})",
                              lambda p=good, t=argv_tail: run_cli(prog, ["recognize", p] + t),
                              check=element_check(elem))])
            bad = list(coeffs)
            # not q^0: the constant 1 is itself a basis element
            bad[rng.randrange(1, order + 1)] += 1
            bad_path = _write(tmp, f"w{weight}_{i}_perturbed.txt", qexp.text("q", 0, bad))
            groups.append([Op(f"recognize_w{weight}_reject", f"recognize(w{weight},#{i},perturbed)",
                              lambda p=bad_path, t=argv_tail: run_cli(prog, ["recognize", p] + t),
                              check=exit_check(4))])
        for i in range(2):
            short = qexp.expand(_element(rng, weight), dim + 3)
            path = _write(tmp, f"w{weight}_short{i}.txt", qexp.text("q", 0, short))
            groups.append([Op("recognize_short", f"recognize(w{weight},short#{i})",
                              lambda p=path, t=argv_tail: run_cli(prog, ["recognize", p] + t),
                              check=exit_check(5))])
    dim = len(qexp.weight_basis(12))
    order = dim + WINDOW_SLACK
    inv_delta = qexp.inv_unit(qexp.eta_power(24, order + 1), order + 1)
    for i in range(DELTA_POLE):
        elem = _element(rng, 12)
        coeffs = qexp.mul(qexp.expand(elem, order + 1), inv_delta, order + 1)
        path = _write(tmp, f"delta_pole_{i}.txt", qexp.text("q", -1, coeffs))
        groups.append([Op("recognize_delta_pole", f"recognize(w12,#{i},delta-pole)",
                          lambda p=path: run_cli(prog, ["recognize", p, "--weight-max", "12",
                                                         "--delta-pole"]),
                          check=element_check(elem))])
    return _shuffled(groups, rng)


# -- cli-readme --------------------------------------------------------------

README_COMMANDS = [
    "table --kind r --gmax 4 --hmax 6 --format csv",
    "table --kind euler --nmax 10 --hmax 4 --format json",
    "table --kind C --k 1 --nmax 8 --hmax 3",
    "table --kind euler_pk --k 2 --nmax 6 --hmax 2 --format text",
    "verify --suite kkv --gmax 8 --hmax 8",
    "verify --suite points --nmax 8 --hmax 3",
    "verify --suite gwpt --hmax 4 --kmax 2 --uorder 12",
    "verify --suite appendixB --hmax 10 --qorder 24",
    "verify --suite vertex --mu 2,1 --excess 3",
    "vertex --mu 3,1 --excess 2 --format text",
    "vertex --mu 2,2 --excess 4 --audit",
]


def build_cli_readme(prog, rng, tmp, digests):
    groups = []
    for command in README_COMMANDS:
        argv = command.split()
        groups.append([Op(f"cli_{argv[0]}", command,
                          lambda argv=argv: run_cli(prog, argv),
                          render=render_cli, digest=digests.get(command))])
    return _shuffled(groups, rng)


def _shuffled(groups, rng):
    """Shuffle op groups by the seed; ops inside a group keep their order."""
    rng.shuffle(groups)
    return [op for group in groups for op in group]


WORKLOADS = {w.name: w for w in [
    Workload("qseries-cold", "op", build_qseries_cold),
    Workload("yq-session", "pass", build_yq_session),
    Workload("recognize-cold", "op", build_recognize_cold),
    Workload("cli-readme", "op", build_cli_readme),
]}


def build(name, prog, seed, tmp, digests):
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name].build(prog, rng, tmp, digests.get(name, {}))
