"""Command line interface: tables, verification suites, recognition, vertex.

Exit codes: 0 success, 1 internal error, 2 argument or parse error,
3 verification failure, 4 not quasimodular, 5 insufficient precision.
All output is deterministic: rows are sorted and rationals are exact.
"""

from __future__ import annotations

import argparse
import json
import sys

from .series import PrecisionError, first_mismatch, series_from_text
from .modforms import (
    InsufficientPrecision,
    NotQuasimodular,
    discriminant_q,
    qmod_expand,
    qmod_to_text,
    qmod_recognize,
)
from . import kkv, lowgenus, vertex
from .kkv import format_rational


def _size(text):
    """argparse type for the size flags: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _parser(argv=()):
    """The argparse tree: only the subparser argv[0] names, if any, else all four (help,
    typos); the one-command usage line still lists all four, so its errors read the same."""
    p = argparse.ArgumentParser(
        prog="k3series",
        description="Exact BPS, Hodge, and stable-pairs series for K3 fibers.")
    commands = ("table", "verify", "recognize", "vertex")
    named = argv[:1] if argv[:1] and argv[0] in commands else commands
    metavar = "{" + ",".join(commands) + "}" if len(named) == 1 else None
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    if "table" in named:
        t = sub.add_parser("table", help="emit an invariant table")
        t.add_argument("--kind", required=True,
                       choices=["r", "R", "euler", "C", "euler_pk"])
        t.add_argument("--gmax", type=_size, default=6)
        t.add_argument("--hmax", type=_size, default=6)
        t.add_argument("--nmax", type=_size, default=10)
        t.add_argument("--k", type=_size, default=1, help="point insertions")
        t.add_argument("--format", default="json", choices=["json", "csv", "text"])
        t.add_argument("--output", default="-")
    if "verify" in named:
        v = sub.add_parser("verify", help="run a verification suite")
        v.add_argument("--suite", required=True,
                       choices=["kkv", "points", "gwpt", "appendixB", "vertex"])
        v.add_argument("--gmax", type=_size, default=6)
        v.add_argument("--hmax", type=_size, default=6)
        v.add_argument("--nmax", type=_size, default=10)
        v.add_argument("--kmax", type=_size, default=2)
        v.add_argument("--qorder", type=_size, default=20)
        v.add_argument("--uorder", type=_size, default=12)
        v.add_argument("--mu", default="1", help="partition, comma separated")
        v.add_argument("--excess", type=_size, default=2)
        v.add_argument("--output", default="-")
    if "recognize" in named:
        r = sub.add_parser("recognize", help="recognize a q-series as quasimodular")
        r.add_argument("input", help="series file in the text format, or - for stdin")
        r.add_argument("--weight-max", type=_size, default=12)
        r.add_argument("--delta-pole", action="store_true",
                       help="multiply by Delta(q) first (input has a q^-1 pole)")
        r.add_argument("--output", default="-")
    if "vertex" in named:
        x = sub.add_parser("vertex", help="box configuration audit for a partition")
        x.add_argument("--mu", required=True, help="partition, comma separated")
        x.add_argument("--excess", type=_size, default=2)
        x.add_argument("--audit", action="store_true",
                       help="fail (exit 3) when a sign bound is violated")
        x.add_argument("--format", default="json", choices=["json", "csv", "text"])
        x.add_argument("--output", default="-")
    return p


def _emit(text, output):
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _parse_mu(text):
    try:
        parts = tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ValueError(f"bad partition {text!r}")
    return vertex.normalize_partition(parts)


def _build_table(args):
    if args.kind == "r":
        return kkv.bps_r_table(args.gmax, args.hmax)
    if args.kind == "R":
        return kkv.hodge_r_table(args.gmax, args.hmax)
    if args.kind == "euler":
        return kkv.ky_euler_table(args.nmax, args.hmax)
    if args.kind == "C":
        return kkv.point_series_pairs(args.k, args.nmax, args.hmax)
    # euler_pk: Euler characteristics with args.k point constraints
    top = args.nmax + 2 * args.hmax - 1
    c_table = kkv.point_series_pairs_upto(top, args.nmax, args.hmax)
    entries = {}
    for h in range(0, args.hmax + 1):
        for n in range(1 - h, args.nmax + 1):
            entries[(args.k, n, h)] = kkv.euler_pk(c_table, args.k, n, h)
    return kkv.InvariantTable("euler_pk", entries, meta={"points": args.k})


def _render_table(table, fmt):
    if fmt == "json":
        return json.dumps(table.to_json_obj(), indent=2) + "\n"
    if fmt == "csv":
        return table.to_csv()
    return table.to_text()


def _suite_kkv(args, lines):
    ok = True
    report = kkv.bps_transform_check(args.gmax, args.hmax)
    detail = f"first mismatch at h={report.mismatches[0]}" if report.mismatches else None
    ok &= _note(lines, "bps_transform", report.equal, detail)
    r_tab = kkv.bps_r_table(0, args.hmax)
    inv = kkv.inv_discriminant_q(max(args.hmax - 1, 0))
    bad = [h for h in range(0, args.hmax + 1)
           if r_tab.value(0, h) != inv.coeff(h - 1)]
    detail = f"first mismatch at h={bad[0]}" if bad else None
    ok &= _note(lines, "genus0_row_inv_delta", not bad, detail)
    return ok


def _suite_points(args, lines):
    ok = True
    euler = kkv.ky_euler_table(args.nmax, args.hmax)
    signed = kkv.signed_euler_table(euler)
    c0 = kkv.point_series_pairs(0, args.nmax, args.hmax)
    bad = sorted((n, h) for (n, h), v in signed.entries.items()
                 if c0.value(0, n, h) != v)
    detail = f"first mismatch at (n,h)={bad[0]}" if bad else None
    ok &= _note(lines, "C0_equals_signed_euler", not bad, detail)

    for h in range(0, args.hmax + 1):
        _, rep = kkv.pairs_signed_Z(h, args.nmax)
        detail = None
        if rep["mismatches"]:
            detail = f"first mismatch at n={rep['mismatches'][0]}"
        elif not rep["symmetric"]:
            detail = "numerator not symmetric"
        ok &= _note(lines, f"signed_Z_h{h}",
                    rep["symmetric"] and rep["matches_signed_euler"], detail)

    top = args.nmax + 2 * args.hmax - 1
    c_table = kkv.point_series_pairs_upto(top, args.nmax, args.hmax)
    round_bad = None
    for h in range(0, args.hmax + 1):
        for n in range(max(1 - h, 0), args.nmax + 1, 3):
            m_top = n + 2 * h - 1
            if m_top < 0:
                continue
            e_vals = {(j, n, h): kkv.euler_pk(c_table, j, n, h)
                      for j in range(0, m_top + 1)}
            for k in range(0, min(m_top, 3) + 1):
                got = kkv.inverse_euler_pk(e_vals, k, n, h)
                if got != c_table.value(k, n, h) and round_bad is None:
                    round_bad = (k, n, h)
    detail = f"first mismatch at (k,n,h)={round_bad}" if round_bad else None
    ok &= _note(lines, "euler_pk_round_trip", round_bad is None, detail)

    t0 = lowgenus.t_form(0)
    for g in range(1, min(3, args.hmax, args.gmax) + 1):
        biv, _ = kkv.point_series_gw(g, g, args.hmax)
        row = kkv.q_coeff(biv, 2 * g - 2)
        want = (qmod_expand(t0 ** g, args.hmax + 2)
                * kkv.inv_discriminant_q(args.hmax + 1))
        bad_q = first_mismatch(row, want)
        detail = f"first mismatch at q^{bad_q}" if bad_q is not None else None
        ok &= _note(lines, f"stationary_row_k{g}", bad_q is None, detail)
    return ok


def _suite_gwpt(args, lines):
    ok = True
    for (h, k), rep in kkv.gw_pairs_grid(args.hmax, args.kmax, args.uorder).items():
        detail = None
        bad_u = first_mismatch(rep.gw_side, rep.pairs_side)
        if bad_u is not None:
            detail = f"first mismatch at u^{bad_u}"
        elif not rep.numerator_symmetric:
            detail = "numerator not symmetric"
        ok &= _note(lines, f"gw_pairs_h{h}_k{k}", rep.equal and rep.numerator_symmetric, detail)
    return ok


def _suite_appendixB(args, lines):
    ok = True
    for name, good, bad_q in lowgenus.identity_details(args.qorder):
        detail = None
        if not good:
            detail = (f"first mismatch at q^{bad_q}" if bad_q is not None
                      else "ring elements differ")
        ok &= _note(lines, name, good, detail)
    for genus in (1, 2, 3):
        rep = lowgenus.boundary_R(genus, args.hmax, args.qorder)
        failed = [name for name, flag in rep.intermediate_checks if not flag]
        detail = None
        if failed:
            detail = f"first failing identity: {failed[0]}"
        elif not rep.matches_kkv:
            detail = "closed form disagrees with the direct table"
        ok &= _note(lines, f"boundary_R_genus{genus}",
                    rep.matches_kkv and not failed, detail)
    return ok


def _suite_vertex(args, lines):
    mu = _parse_mu(args.mu)
    report = vertex.divisibility_audit(mu, args.excess)
    ok = report["violations"] == 0
    detail = None
    if not ok:
        row = next(r for r in report["rows"]
                   if not (r["match"] and r["nonpositive"] and r["strict_ok"]))
        detail = "first violating chain: " + "|".join(
            ".".join(map(str, nu)) for nu in row["chain"])
    _note(lines, f"vertex_mu{'_'.join(map(str, mu))}_excess{args.excess}", ok, detail)
    lines.append(f"configs checked: {report['configs']}")
    return ok


def _note(lines, name, good, detail=None):
    line = ("ok   " if good else "FAIL ") + name
    if not good and detail:
        line += f" ({detail})"
    lines.append(line)
    return bool(good)


def _run_verify(args):
    lines = []
    suites = {"kkv": _suite_kkv, "points": _suite_points, "gwpt": _suite_gwpt,
              "appendixB": _suite_appendixB, "vertex": _suite_vertex}
    ok = suites[args.suite](args, lines)
    lines.append(f"suite {args.suite}: " + ("all checks passed" if ok else "FAILED"))
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if ok else 3


def _run_recognize(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    f = series_from_text(text)
    if args.delta_pole:
        # a header-only file of order <= -2 reaches no Delta coefficient; it stays too short
        f = f * discriminant_q(max(f.order + 2, 1))
    elem = qmod_recognize(f, args.weight_max)
    _emit(qmod_to_text(elem) if elem.terms else "0\n", args.output)
    return 0


def _render_vertex(report, fmt):
    if fmt == "json":
        rows = [{k: format_rational(v) if k in ("direct", "formula") else v
                 for k, v in row.items() if k != "mu"} for row in report["rows"]]
        obj = {"mu": report["mu"], "excess": report["excess"],
               "configs": report["configs"], "violations": report["violations"],
               "rows": rows}
        return json.dumps(obj, indent=2) + "\n"
    if fmt == "csv":
        lines = ["chain,size,direct,formula,match,nonpositive,strict_ok"]
        for row in report["rows"]:
            chain = "|".join(".".join(map(str, nu)) for nu in row["chain"])
            lines.append(",".join([
                chain, str(row["size"]),
                format_rational(row["direct"]), format_rational(row["formula"]),
                str(row["match"]).lower(), str(row["nonpositive"]).lower(),
                str(row["strict_ok"]).lower(),
            ]))
        return "\n".join(lines) + "\n"
    lines = [f"mu={report['mu']} excess={report['excess']} "
             f"configs={report['configs']} violations={report['violations']}"]
    for row in report["rows"]:
        chain = " > ".join("(" + ",".join(map(str, nu)) + ")" for nu in row["chain"])
        flags = "ok" if (row["match"] and row["nonpositive"] and row["strict_ok"]) else "FAIL"
        lines.append(f"{flags} size={row['size']} H0={format_rational(row['direct'])} "
                     f"formula={format_rational(row['formula'])} chain {chain}")
    return "\n".join(lines) + "\n"


def _run(args):
    if args.command == "table":
        table = _build_table(args)
        _emit(_render_table(table, args.format), args.output)
        return 0
    if args.command == "verify":
        return _run_verify(args)
    if args.command == "recognize":
        return _run_recognize(args)
    if args.command == "vertex":
        mu = _parse_mu(args.mu)
        report = vertex.divisibility_audit(mu, args.excess)
        _emit(_render_vertex(report, args.format), args.output)
        return 3 if args.audit and report["violations"] else 0
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser(argv).parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return _run(args)
    except NotQuasimodular as exc:
        print(f"not quasimodular: {exc}", file=sys.stderr)
        return 4
    except InsufficientPrecision as exc:
        print(f"insufficient precision: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionError, AssertionError, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("internal error: out of memory (too large an order or size)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
