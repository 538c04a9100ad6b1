"""Closed-loop benchmark of scanex: one client, one process, whole passes.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and README.md): chain-large, paper-sweep,
mc-validate, cli-cold.  Run from the repository root; scanex is imported
from ./src.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: setup_s, queries_per_s,
latency_p50_ms, latency_tail_ms and peak_rss_mib.  --trace 1 reports the
per-layer metrics instead: it runs untraced passes, then the same passes
with spans installed around scanex's public functions, and writes the
spans to perfbench/out/.  --quick shrinks every query list for smoke tests.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("chain-large", "paper-sweep", "mc-validate", "cli-cold")
# fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 7
# fresh `import scanex` processes timed for cli.import_ms
IMPORT_PROBES = 5
# samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10
# latencies per block of passes: the fewest that leave a tail
BLOCK_SAMPLES = 40


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="small query lists")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def setup(args):
    """Import scanex, build the inputs and run one untimed warm-up query."""
    sys.path[:0] = [SRC, HERE]
    import scanex
    from workloads import BUILDERS

    if os.path.dirname(os.path.abspath(scanex.__file__)) != os.path.join(SRC, "scanex"):
        raise SystemExit(f"scanex imported from {scanex.__file__}, not from {SRC}")
    wl = BUILDERS[args.workload](args.seed, args.quick, ROOT)
    wl.warmup.call()
    return wl


def probe_setup_seconds(args) -> float:
    """Median time from starting a fresh interpreter to the end of setup()."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--quick"] if args.quick else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        times.append(t1 - t0)
    return statistics.median(times)


class Failure:
    """What a query that raised returns in place of a result."""

    def __init__(self, exc: Exception) -> None:
        self.text = "".join(traceback.format_exception_only(exc)).strip()


def attempt(q):
    try:
        return q.call()
    except Exception as exc:  # a failing query is counted, and the run goes on
        return Failure(exc)


def run_passes(queries, seconds):
    """Whole passes over ``queries``; another pass starts while the passes so
    far hold fewer than BLOCK_SAMPLES latencies, or while the time so far
    plus one mean pass stays within ``seconds``.

    Returns (pass durations, per-pass query latencies, per-pass results).
    """
    passes, latencies, results = [], [], []
    clock = time.perf_counter
    while True:
        lat, out = [], []
        start = clock()
        for q in queries:
            t0 = clock()
            out.append(attempt(q))
            lat.append(clock() - t0)
        passes.append(clock() - start)
        latencies.append(lat)
        results.append(out)
        spent = sum(passes)
        if (len(passes) * len(queries) >= BLOCK_SAMPLES
                and spent + spent / len(passes) > seconds):
            return passes, latencies, results


def run_paired(queries, seconds, tracer):
    """Whole passes in which every query runs twice, once with the tracer's
    wrappers installed and once without, alternating which goes first.

    Returns (untraced seconds, traced seconds, passes, results of both).
    """
    seconds_by_mode = {False: 0.0, True: 0.0}
    passes, results = 0, []
    clock = time.perf_counter
    while True:
        out = []
        for i, q in enumerate(queries):
            for traced in ((False, True) if (i + passes) % 2 else (True, False)):
                with tracer.installed(traced):
                    t0 = clock()
                    with tracer.span("query", {"key": repr(q.key)}) if traced else nullcontext():
                        out.append(attempt(q))
                    seconds_by_mode[traced] += clock() - t0
        passes += 1
        results += [out[0::2], out[1::2]]
        plain, spanned = seconds_by_mode[False], seconds_by_mode[True]
        if (plain + spanned) * (passes + 1) / passes > seconds:
            return plain, spanned, passes, results


def check_results(wl, queries, results_per_pass):
    """Returns (attempted, failed, unexpected failure messages)."""
    attempted = failed = 0
    problems = []
    for results in results_per_pass:
        for q, r in zip(queries, results):
            attempted += 1
            msgs = [r.text] if isinstance(r, Failure) else q.check(r)
            if msgs:
                failed += 1
                if q.known_fault is None:
                    problems.append(f"{q.key}: {'; '.join(msgs)}")
        problems += wl.cross_check({q.key: r for q, r in zip(queries, results)
                                    if not isinstance(r, Failure)})
    return attempted, failed, problems


def blocks(passes, latencies):
    """Consecutive whole passes grouped so that each block holds at least
    BLOCK_SAMPLES latencies; a short remainder joins the last block.

    Returns [(block seconds, sorted block latencies)].
    """
    out, t, lat = [], 0.0, []
    for dt, pass_lat in zip(passes, latencies):
        t += dt
        lat += pass_lat
        if len(lat) >= BLOCK_SAMPLES:
            out.append((t, sorted(lat)))
            t, lat = 0.0, []
    if lat:
        if out:
            t0, lat0 = out.pop()
            t, lat = t + t0, lat + lat0
        out.append((t, sorted(lat)))
    return out


def tail_index(n: int) -> int:
    """Index of the highest order statistic with TAIL_BEYOND values above it."""
    return max(0, n - 1 - TAIL_BEYOND)


def end_to_end(args):
    setup_s = probe_setup_seconds(args)
    wl = setup(args)
    try:
        passes, lat, results = run_passes(wl.queries, args.seconds)
        attempted, failed, problems = check_results(wl, wl.queries, results)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if wl.name == "cli-cold":
            rss_kib = max(getattr(r, "maxrss_kib", 0) for rs in results for r in rs)
    finally:
        wl.cleanup()
    bl = blocks(passes, lat)
    med = statistics.median
    n0 = len(bl[0][1])
    metrics = {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (med(len(b) / t for t, b in bl), "1/s"),
        "latency_p50_ms": (1e3 * med(med(b) for _, b in bl), "ms"),
        "latency_tail_ms": (1e3 * med(b[tail_index(len(b))] for _, b in bl), "ms"),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
    }
    sizes = {}
    for pass_lat in lat:
        for q, t in zip(wl.queries, pass_lat):
            sizes.setdefault(q.size, []).append(t)
    notes = [f"{len(passes)} passes of {len(wl.queries)} queries in {len(bl)} blocks of "
             f">= {BLOCK_SAMPLES} latencies; timings are medians over blocks; "
             f"latency_tail_ms is p{100.0 * (tail_index(n0) + 1) / n0:.1f} of a "
             f"{n0}-sample block ({n0 - 1 - tail_index(n0)} samples beyond it)",
             f"peak_rss_mib: {'largest child process' if wl.name == 'cli-cold' else 'this process'}",
             "median ms by size class: " + ", ".join(
                 f"{c} x{len(v) // len(passes)} {1e3 * med(v):.4g}"
                 for c, v in sorted(sizes.items(), key=lambda kv: med(kv[1])))]
    return attempted, failed, problems, metrics, notes


def traced(args):
    from spans import SpanStats, Tracer

    wl = setup(args)
    import scanex

    queries = wl.in_process or wl.queries
    seconds = args.seconds / 2.0 if wl.in_process else args.seconds
    tracer = Tracer(scanex)
    try:
        plain, spanned, P, res = run_paired(queries, seconds, tracer)
        attempted, failed, problems = check_results(wl, queries, res)
        process_ms = import_ms = 0.0
        if wl.in_process:
            child, _, res_child = run_passes(wl.queries, seconds)
            a, f, p = check_results(wl, wl.queries, res_child)
            attempted, failed, problems = attempted + a, failed + f, problems + p
            process_ms = 1e3 * sum(child) / (len(child) * len(wl.queries))
            import_ms = 1e3 * import_probe_median()
    finally:
        wl.cleanup()
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.jsonl")
    tracer.write(trace_path)

    st = SpanStats(tracer.spans)

    def per_pass(d, *names):
        return 1e3 * sum(d.get(n, 0.0) for n in names) / P

    def rate(name, key):
        busy = st.busy.get(name, 0.0)
        return st.attr_sum(name, key) / busy if busy else 0.0

    draws = st.attr_sum("montecarlo.simulate_scan_cdf", "draws")
    sims = st.calls.get("montecarlo.simulate_scan_cdf", 0)
    main_calls = st.calls.get("cli.main", 0)
    metrics = {
        "scan_exact.exact_scan_cdf.calls":
            (st.calls.get("scan_exact.exact_scan_cdf", 0) / P, "count"),
        "scan_exact.exact_scan_cdf.busy_ms": (per_pass(st.busy, "scan_exact.exact_scan_cdf"), "ms"),
        "scan_exact.trials_per_s": (rate("scan_exact.exact_scan_cdf", "N"), "1/s"),
        "scan_exact.block_q_sequence.busy_ms": (per_pass(st.busy, "scan_exact.block_q_sequence"), "ms"),
        "scan_exact.block_p_sequence.busy_ms": (per_pass(st.busy, "scan_exact.block_p_sequence"), "ms"),
        "pipeline.scan_approximation.busy_ms": (per_pass(st.busy, "pipeline.scan_approximation"), "ms"),
        "pipeline.scan_approximation.self_ms":
            (per_pass(st.self_time, "pipeline.scan_approximation"), "ms"),
        "pipeline.chain_calls_per_approx": (st.children_per_parent(
            "scan_exact.exact_scan_cdf", "pipeline.scan_approximation", "query"), "count"),
        "pipeline.sandwich.busy_ms": (per_pass(st.busy, "pipeline.sandwich"), "ms"),
        "pipeline.sandwich.self_ms": (per_pass(st.self_time, "pipeline.sandwich"), "ms"),
        "pipeline.reproduce_table.busy_ms": (per_pass(st.busy, "pipeline.reproduce_table"), "ms"),
        "pipeline.reproduce_table.self_ms": (per_pass(st.self_time, "pipeline.reproduce_table"), "ms"),
        "extremes.solve_lambda.busy_ms": (per_pass(st.busy, "extremes.solve_lambda"), "ms"),
        "extremes.solve_lambda.self_ms": (per_pass(st.self_time, "extremes.solve_lambda"), "ms"),
        "extremes.c_series_evals_per_solve": (st.children_per_parent(
            "extremes.c_series_eval", "extremes.solve_lambda"), "count"),
        "extremes.error_coefficients.calls":
            (st.calls.get("extremes.error_coefficients", 0) / P, "count"),
        "extremes.error_coefficients.busy_ms": (per_pass(st.busy, "extremes.error_coefficients"), "ms"),
        "extremes.approx.busy_ms":
            (per_pass(st.busy, "extremes.approx_qn_T4", "extremes.approx_qn_T3"), "ms"),
        "extremes.approx.self_ms":
            (per_pass(st.self_time, "extremes.approx_qn_T4", "extremes.approx_qn_T3"), "ms"),
        "montecarlo.simulate_scan_cdf.busy_ms": (per_pass(st.busy, "montecarlo.simulate_scan_cdf"), "ms"),
        "montecarlo.trials_per_s": (rate("montecarlo.simulate_scan_cdf", "draws"), "1/s"),
        "montecarlo.uniform_mib": (draws * 8 / 2**20 / sims if sims else 0.0, "MiB"),
        "montecarlo.simulate_block_sequence.busy_ms":
            (per_pass(st.busy, "montecarlo.simulate_block_sequence"), "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main_ms": (1e3 * st.busy.get("cli.main", 0.0) / main_calls if main_calls else 0.0, "ms"),
        "cli.process_ms": (process_ms, "ms"),
        "trace.overhead_pct": (100.0 * spanned / plain - 100.0, "%"),
        "trace.spans_per_pass": (len(tracer.spans) / P, "count"),
    }
    notes = [f"{P} passes of {len(queries)} queries"
             + (" through cli.main in this process" if wl.in_process else "")
             + f", each query run untraced ({plain:.3f} s in all) and traced ({spanned:.3f} s)",
             "busy/self times and calls are per traced pass; spans in "
             + os.path.relpath(trace_path, ROOT),
             "montecarlo.uniform_mib is reps*N*8 bytes per simulate_scan_cdf call, "
             "computed from the arguments"]
    return attempted, failed, problems, metrics, notes


def import_probe_median() -> float:
    """Median seconds of `import scanex` in fresh interpreters."""
    from workloads import child_env

    code = ("import time; t = time.perf_counter(); import scanex; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(ROOT), cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout
        times.append(float(out))
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "scanex", "__init__.py")):
        print(f"error: no scanex sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        setup(args).cleanup()
        print("ready", flush=True)
        return 0
    attempted, failed, problems, metrics, notes = (traced if args.trace else end_to_end)(args)
    for line in notes:
        print(f"# {line}")
    for p in problems:
        print(f"# WRONG: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}, "
          f"unexpected failures = {len(problems)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
