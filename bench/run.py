"""Benchmark for k3series, standard library only.

    python3 bench/run.py --workload qseries-cold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one child each
    python3 bench/run.py --self-test                  # a corrupted digest must fail
    python3 bench/run.py --probe [--probe-large]      # one-shot scaling probe

Run from the root of a checkout.  The package is imported from ./src; the
benchmark writes only under ./.bench_out.  One process, one thread, closed
loop: each op starts when the previous one returns.  A pass is one run over
the workload's fixed op list; passes repeat until the time is up.

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 the time is split between untraced passes (the base for the
overhead ratio) and traced passes, followed by one tracemalloc pass, and
the last line carries the per-layer metrics.  Every op's output is checked;
the exit code is 1 when any op failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "k3series"
MODULES = ("series", "modforms", "kkv", "vertex", "lowgenus", "cli")
SETUPS = 11
MIN_PASSES = 5
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
DEFAULT_SECONDS = 30

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402


# -- program under test ------------------------------------------------------

def import_program():
    """Import k3series afresh from ./src (module state and caches included)."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise RuntimeError(f"imported {PACKAGE} from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def find_caches(prog):
    """Every lru_cache reachable from the package modules: (module, name, cache)."""
    found = {}
    for mod in vars(prog).values():
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)) and callable(
                    getattr(obj, "cache_info", None)):
                home = getattr(obj, "__module__", mod.__name__).rsplit(".", 1)[-1]
                found[id(obj)] = (home, getattr(obj, "__qualname__", attr), obj)
    return sorted(found.values(), key=lambda t: (t[0], t[1]))


def clear_caches(caches, stats):
    """Add each cache's hits and misses to stats[module], then clear it."""
    for home, _, cache in caches:
        info = cache.cache_info()
        tot = stats.setdefault(home, [0, 0])
        tot[0] += info.hits
        tot[1] += info.misses
        cache.cache_clear()


def load_digests():
    with open(BENCH / "digests.json") as fh:
        return json.load(fh)


# -- one pass ----------------------------------------------------------------

def run_pass(ops, policy, caches, tracer=None, memory=None, on_output=None):
    """Run every op once; returns (op latencies, failed labels, cache stats)."""
    stats = {}
    latencies = []
    failed = []
    clear_caches(caches, stats)
    stats.clear()
    if tracer is not None:
        tracer.begin_pass()
    for op_id, op in enumerate(ops):
        if policy == "op":
            clear_caches(caches, stats)
        if memory is not None:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        if tracer is not None:
            tracer.begin_op(op_id, op.family)
        t0 = perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, error = None, exc
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if memory is not None:
            peak = tracemalloc.get_traced_memory()[1] - base
            memory[op.family] = max(memory.get(op.family, 0), peak)
        latencies.append(dt)
        ok = False
        if error is None:
            try:
                ok = op.verify(out)
            except Exception:
                ok = False
        if not ok:
            failed.append(op.label)
        if on_output is not None and error is None:
            on_output(out)
    if tracer is not None:
        tracer.end_pass()
    clear_caches(caches, stats)
    return latencies, failed, stats


def run_for(seconds, ops, policy, caches, min_passes=1, **kw):
    """Closed-loop passes until the next pass would overrun `seconds`."""
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(ops, policy, caches, **kw))
        took = perf_counter() - t0
        if len(passes) >= min_passes and perf_counter() - start + took > seconds:
            return passes


# -- statistics --------------------------------------------------------------

def nearest_rank(sorted_values, pct):
    idx = max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)
    return sorted_values[idx]


def tail_percentile(n):
    """Highest ladder percentile with at least ten samples beyond it in n."""
    best = None
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100 * n) >= 10:
            best = pct
    return best


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(passes):
    """Pass and op statistics.  The tail percentile is fixed by the op count
    of a MIN_PASSES run, so every run of a workload reports the same one."""
    walls = [sum(lat) for lat, _, _ in passes]
    samples = sorted(x for lat, _, _ in passes for x in lat)
    pct = tail_percentile(len(passes[0][0]) * MIN_PASSES)
    q1, q3 = quartiles(walls)
    return {
        "wall_s": statistics.median(walls), "wall_q1": q1, "wall_q3": q3,
        "passes": len(walls), "pass_walls": walls, "samples": len(samples),
        "op_p50_ms": nearest_rank(samples, 50) * 1e3,
        "op_tail_ms": nearest_rank(samples, pct or 50) * 1e3,
        "tail_pct": pct,
        "attempted": len(samples),
        "failed": [label for _, bad, _ in passes for label in bad],
    }


def coeff_bits(obj):
    """Largest numerator or denominator bit length inside an op output."""
    if isinstance(obj, bool) or obj is None:
        return 0
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, Fraction):
        return max(abs(obj.numerator).bit_length(), obj.denominator.bit_length())
    if isinstance(obj, str):
        return max((int(tok).bit_length() for tok in
                    "".join(c if c.isdigit() else " " for c in obj).split()), default=0)
    if isinstance(obj, (list, tuple)):
        return max((coeff_bits(x) for x in obj), default=0)
    if isinstance(obj, dict):
        return max((coeff_bits(x) for x in obj.values()), default=0)
    for attr in ("coeffs", "terms", "entries"):
        if hasattr(obj, attr):
            return coeff_bits(getattr(obj, attr))
    if hasattr(obj, "gw_side"):
        return max(coeff_bits(obj.gw_side), coeff_bits(obj.pairs_side))
    return 0


# -- a workload run ----------------------------------------------------------

def environment(args, load_start):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": nproc,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup(name, seed, digests):
    """Import, build the seeded inputs and write the input files, SETUPS times."""
    times = []
    tmp = None
    for _ in range(SETUPS):
        if tmp is not None:
            shutil.rmtree(tmp)
        t0 = perf_counter()
        prog = import_program()
        tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
        ops = workloads.build(name, prog, seed, tmp, digests)
        times.append(perf_counter() - t0)
    return statistics.median(times), prog, tmp, ops


def run_workload(args):
    load_start = list(os.getloadavg())
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    setup_s, prog, tmp, ops = setup(wl.name, args.seed, load_digests())
    try:
        caches = find_caches(prog)
        if args.trace:
            result, metrics = traced_run(args, wl, prog, ops, caches)
        else:
            result = summarize(run_for(args.seconds, ops, wl.cache_policy, caches,
                                       min_passes=MIN_PASSES))
            metrics = {
                "wall_s": (result["wall_s"], "s"),
                "op_p50_ms": (result["op_p50_ms"], "ms"),
                "op_tail_ms": (result["op_tail_ms"], "ms"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                 "MiB"),
                "setup_s": (setup_s, "s"),
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = result["attempted"]
    failed = result["failed"]
    env = environment(args, load_start)
    report(args, env, result, metrics, caches, setup_s)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failed else 1


def report(args, env, result, metrics, caches, setup_s):
    """Human-readable lines on stdout, and the full record under .bench_out."""
    attempted, failed = result["attempted"], result["failed"]
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {result['passes']} "
          f"{'traced ' if args.trace else ''}passes, {result['samples']} op samples, "
          f"setup median of {SETUPS}")
    if not args.trace:
        print(f"  wall_s quartiles {result['wall_q1']:.4f} .. {result['wall_q3']:.4f} s")
        print(f"  op_tail_ms is p{result['tail_pct']} "
              f"(ten or more samples beyond it in a {MIN_PASSES}-pass run)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed {len(failed)} of {attempted} ops")
    for label in sorted(set(failed)):
        print(f"  FAILED {label}")
    print(f"  caches found: {len(caches)} "
          f"({', '.join(f'{home}.{name}' for home, name, _ in caches)})")
    record = {"env": env, "result": result,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "caches": [f"{home}.{name}" for home, name, _ in caches],
              "setup_s": setup_s}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)


def traced_run(args, wl, prog, ops, caches):
    """Untraced half, traced half, then one tracemalloc pass; per-layer table."""
    half = args.seconds / 2
    base = summarize(run_for(half, ops, wl.cache_policy, caches))

    tracer = spans.Tracer()
    bits = [0]

    def on_output(out):
        bits[0] = max(bits[0], coeff_bits(out))

    tracer.install(PACKAGE)
    try:
        passes = run_for(half, ops, wl.cache_policy, caches, tracer=tracer,
                         on_output=on_output)
    finally:
        tracer.uninstall()
    traced = summarize(passes)

    memory = {}
    tracemalloc.start()
    try:
        mem_pass = run_pass(ops, wl.cache_policy, caches, memory=memory)
    finally:
        tracemalloc.stop()

    exact = [(calls, counts, p[2]) for p, (_, calls, counts) in zip(passes, tracer.passes)]
    if any(e != exact[0] for e in exact):
        print("warning: exact counts differ between traced passes", file=sys.stderr)
    self_s = {name: statistics.median(p[0][name] for p in tracer.passes)
              for name in spans.SELF_NAMES}
    calls, counts, cstats = exact[0]
    m = {}
    m["series.mul.calls"] = (calls["series.mul"], "count")
    m["series.mul.coeff_products"] = (counts["series.mul.coeff_products"], "count")
    m["series.ylaurent_mul.calls"] = (calls["series.ylaurent_mul"], "count")
    m["series.max_coeff_bits"] = (bits[0], "bits")
    for name in spans.SELF_NAMES:
        m[f"{name}.self_s"] = (self_s[name], "s")
    for home in ("modforms", "kkv"):
        hits, misses = cstats.get(home, [0, 0])
        m[f"{home}.cache.hits"] = (hits, "count")
        m[f"{home}.cache.misses"] = (misses, "count")
        m[f"{home}.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                        "ratio")
    m["cache.count"] = (len(caches), "count")
    m["vertex.configs"] = (counts["vertex.configs"], "count")
    m["op.peak_kib"] = (max(memory.values()) / 1024, "KiB")
    m["trace.untraced_wall_s"] = (base["wall_s"], "s")
    m["trace.traced_wall_s"] = (traced["wall_s"], "s")
    m["trace.overhead_ratio"] = (traced["wall_s"] / base["wall_s"], "ratio")
    failed = base["failed"] + traced["failed"] + mem_pass[1]
    attempted = base["attempted"] + traced["attempted"] + len(mem_pass[0])
    m["fail_ratio"] = (len(failed) / attempted, "ratio")

    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for span in tracer.spans:
            name, start, end, parent, op_id = span
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op_id": op_id}) + "\n")
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print("op.peak_kib by family: " + ", ".join(
        f"{fam}={peak / 1024:.1f}" for fam, peak in sorted(memory.items())))
    result = dict(traced, attempted=attempted, failed=failed,
                  peak_kib_by_family={k: v / 1024 for k, v in memory.items()},
                  calls_by_span=calls)
    return result, {k: m[k] for k in per_layer_names()}


def per_layer_names():
    with open(ROOT / "BENCHMARK.json") as fh:
        return [entry["name"] for entry in json.load(fh)["per_layer"]]


# -- several workloads, self-test, probe -------------------------------------

def run_many(args, names):
    """Each workload in its own child process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] &= res["correct"] and proc.returncode == 0
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def self_test():
    """A corrupted expected digest must count as a failed op, not be skipped."""
    prog = import_program()
    caches = find_caches(prog)
    digests = load_digests()
    victim = workloads.README_COMMANDS[0]
    bad = json.loads(json.dumps(digests))
    want = bad["cli-readme"][victim]
    bad["cli-readme"][victim] = ("0" if want[0] != "0" else "1") + want[1:]
    OUT.mkdir(exist_ok=True)
    results = {}
    for label, table in (("intact", digests), ("corrupted", bad)):
        ops = workloads.build("cli-readme", prog, 0, str(OUT), table)
        _, failed, _ = run_pass(ops, "op", caches)
        results[label] = failed
        print(f"self-test {label} digests: {len(ops)} ops, failed {failed}")
    ok = results["intact"] == [] and results["corrupted"] == [victim]
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def probe(large):
    """Time the scaling kernels at the baseline sizes; print log-log slopes."""
    import qexp
    prog = import_program()
    caches = find_caches(prog)
    sizes = (100, 200, 400) if large else (100, 200)
    rows = []

    def timed(kernel, size, fn, check):
        clear_caches(caches, {})
        t0 = perf_counter()
        out = fn()
        dt = perf_counter() - t0
        ok = check(out)
        rows.append({"kernel": kernel, "size": size, "seconds": dt, "ok": ok})
        print(f"{kernel:22s} size {size:4d}  {dt:9.3f} s  {'ok' if ok else 'FAILED'}",
              flush=True)

    for n in sizes:
        eta = qexp.eta_power(24, n)
        timed("discriminant_q", n, lambda: prog.modforms.discriminant_q(n),
              lambda d: d.min_exp == 1 and [d.coeff(k) for k in range(1, n + 1)] == eta[:n])
    for n in sizes:
        inv = qexp.inv_unit(qexp.eta_power(24, n + 1), n + 1)
        timed("inv_discriminant_q", n, lambda: prog.kkv.inv_discriminant_q(n),
              lambda d: [d.coeff(k) for k in range(-1, n + 1)] == inv)
    for h in (20, 30, 40):
        inv = qexp.inv_unit(qexp.eta_power(24, h), h)
        timed("bps_r_table", h, lambda: prog.kkv.bps_r_table(h, h),
              lambda t: [t.value(0, j) for j in range(h + 1)] == inv)
    rng = __import__("random").Random("probe")
    for weight in (12, 16, 20):
        dim = len(qexp.weight_basis(weight))
        elem = workloads._element(rng, weight)
        coeffs = qexp.expand(elem, dim + workloads.WINDOW_SLACK)
        f = prog.series.Series("q", 0, coeffs, len(coeffs) - 1)
        timed("qmod_recognize", dim, lambda: prog.modforms.qmod_recognize(f, weight),
              lambda e: e == prog.modforms.QModElement(elem))
    slopes = {}
    for kernel in dict.fromkeys(r["kernel"] for r in rows):
        pts = [(math.log(r["size"]), math.log(r["seconds"])) for r in rows
               if r["kernel"] == kernel]
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        slopes[kernel] = (sum((x - mx) * (y - my) for x, y in pts)
                          / sum((x - mx) ** 2 for x, _ in pts))
        print(f"{kernel:22s} log-log slope {slopes[kernel]:.2f}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / "probe.json", "w") as fh:
        json.dump({"rows": rows, "slopes": slopes}, fh, indent=1)
    return 0 if all(r["ok"] for r in rows) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="a workload name, a comma list, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--probe", action="store_true")
    p.add_argument("--probe-large", action="store_true",
                   help="add the N=400 sizes to the probe (minutes)")
    args = p.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.probe or args.probe_large:
        return probe(args.probe_large)
    if not args.workload:
        p.error("--workload is required")
    names = list(workloads.WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        p.error(f"unknown workload(s): {', '.join(unknown)}")
    if len(names) > 1:
        return run_many(args, names)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
