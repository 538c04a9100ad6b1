"""The four workloads: a fixed query list per seed, and the checks on it.

A pass runs every query of the list once, in the seeded order.  Every
query calls scanex through an attribute of the ``scanex`` package (or of
``scanex.cli``) at call time, so wrappers installed by the traced run see
the call.  Checks run after the timed passes and compare each result with
the independent computations in ``reference.py`` or with a property that
scanex must satisfy; a query whose check fails counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import scanex
import scanex.cli

from reference import (
    EPS,
    cdf_no_full_run,
    cdf_no_two_close,
    chain_allow,
    table_mismatches,
    window_bounds,
)

# solve_lambda stops bisecting once its interval is narrower than this.
LAMBDA_WIDTH = 1e-13
# Monte Carlo estimates must lie within this many 95% half-widths (taken at
# the exact value) of it: 7.8 standard deviations.
MC_HALF_WIDTHS = 4.0


@dataclass
class Query:
    key: tuple
    size: str                      # size class, for composing the list
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    known_fault: str | None = None  # a program fault that fails it every run


@dataclass
class Workload:
    name: str
    queries: list[Query]           # one pass, in run order
    warmup: Query
    cross_check: Callable[[dict], list[str]] = lambda results: []
    # cli-cold only: the same commands through cli.main, in this process
    in_process: list[Query] = field(default_factory=list)
    cleanup: Callable[[], None] = lambda: None


def _spec(m, p, N, n):
    return scanex.BernoulliScanSpec(m=m, p=p, N=N, n=n)


def _closed_form_msgs(v, m, p, N, n, what):
    """Binomial bounds at every n, and the closed forms at n = 1, m - 1."""
    a = chain_allow(N)
    lo, hi = window_bounds(m, p, N, n)
    msgs = []
    if not (lo - a <= v <= hi + a):
        msgs.append(f"{what}={v!r} outside binomial bounds [{lo!r}, {hi!r}]")
    if n == 1 and abs(v - cdf_no_two_close(m, p, N)) > a:
        msgs.append(f"{what}={v!r} != closed form {cdf_no_two_close(m, p, N)!r}")
    if n == m - 1 and abs(v - cdf_no_full_run(m, p, N)) > a:
        msgs.append(f"{what}={v!r} != no-run recursion {cdf_no_full_run(m, p, N)!r}")
    return msgs


# ---------------------------------------------------------------- chain-large

def chain_large(seed: int, quick: bool, root: str) -> Workload:
    """exact_scan_cdf and sandwich at N = 10m + r, 0 < r < m.

    Per m: n in {1, 2, 3} at p in {0.02, 0.05}, plus the dense n = m - 1 at
    p = 0.05, for both functions.  The smallest m gets a second N draw for
    exact_scan_cdf, which makes its class 14 queries long: of 49 queries the
    median then falls mid-way in the exact class of the middle m and the
    tail (39th value) mid-way in the exact class of the largest m.
    """
    ms = (8, 9, 10) if quick else (16, 18, 20)
    rng = random.Random(seed)
    queries = []
    for m in ms:
        draws = 2 if m == ms[0] else 1
        for p in (0.02, 0.05):
            Ns = sorted(rng.sample(range(10 * m + 1, 11 * m), draws))
            for i, N in enumerate(Ns):
                for n in (1, 2, 3) + ((m - 1,) if p == 0.05 else ()):
                    queries.append(_exact_query(m, p, N, n))
                    if i == 0:
                        queries.append(_sandwich_query(m, p, N, n))
    rng.shuffle(queries)
    m0 = ms[0]
    return Workload("chain-large", queries, _exact_query(m0, 0.05, 10 * m0 + 1, 2),
                    cross_check=_chain_cross_check)


def _exact_query(m, p, N, n):
    spec = _spec(m, p, N, n)

    def check(v):
        return _closed_form_msgs(v, m, p, N, n, "cdf")

    return Query(("exact", m, p, N, n), f"exact m={m}",
                 lambda: scanex.exact_scan_cdf(spec), check)


def _sandwich_query(m, p, N, n):
    def check(s):
        L = N // m
        if s.L != L:
            return [f"L={s.L}, want {L}"]
        msgs = _closed_form_msgs(s.upper, m, p, L * m, n, "upper")
        msgs += _closed_form_msgs(s.lower, m, p, (L + 1) * m, n, "lower")
        if s.lower > s.upper + chain_allow((L + 1) * m):
            msgs.append(f"lower {s.lower!r} > upper {s.upper!r}")
        return msgs

    return Query(("sandwich", m, p, N, n), f"sandwich m={m}",
                 lambda: scanex.sandwich(m, p, N, n), check)


def _chain_cross_check(results: dict) -> list[str]:
    """Monotonicity in n and in N, and exact values inside their sandwich."""
    msgs = []
    exact = {k[1:]: v for k, v in results.items() if k[0] == "exact"}
    for (m, p, N, n), v in exact.items():
        a = chain_allow((N // m + 1) * m)
        s = results.get(("sandwich", m, p, N, n))
        if s is not None and not (s.lower - a <= v <= s.upper + a):
            msgs.append(f"exact {(m, p, N, n)} = {v!r} outside sandwich")
        for (m2, p2, N2, n2), v2 in exact.items():
            if (m2, p2) != (m, p):
                continue
            if N2 == N and n2 > n and v > v2 + a:
                msgs.append(f"not monotone in n at {(m, p, N)}: {n}->{n2}")
            if n2 == n and N2 > N and v2 > v + a:
                msgs.append(f"not monotone in N at {(m, p, n)}: {N}->{N2}")
    return msgs


# ---------------------------------------------------------------- paper-sweep

TABLE_GRIDS = ((9, 0.05, 10, range(2, 8)), (10, 0.0165, 15, range(1, 6)))
SWEEP = [(m, p, L) for m in (8, 10, 12) for p in (0.01, 0.03) for L in (10, 20)]


def paper_sweep(seed: int, quick: bool, root: str) -> Workload:
    """scan_approximation on the two table grids and the m x p x L sweep,
    the block sequences -> lambda -> centers chain, and the four tables.

    The approximation, lambda and table queries are fixed by the paper; the
    seed draws each lambda query's threshold and the run order.
    """
    rng = random.Random(seed)
    queries = []
    for m, p, L, ns in TABLE_GRIDS:
        queries += [_approx_query(m, p, L, n) for n in ns]
    sweep = SWEEP[:2] if quick else SWEEP
    queries += [_approx_query(m, p, L, n) for m, p, L in sweep
                for n in range(2, 7)]
    lam_specs = [(m, p) for m, p, L in sweep if L == 10]
    lam_specs += [(m, p) for m, p, _, _ in TABLE_GRIDS]
    queries += [_lambda_query(m, p, rng.choice((2, 3, 4))) for m, p in lam_specs]
    queries += [_table_query(w) for w in (1, 2, 3, 4)]
    rng.shuffle(queries)
    return Workload("paper-sweep", queries, _approx_query(8, 0.01, 10, 3))


def _approx_query(m, p, L, n):
    def check(r):
        msgs = []
        if r.exact is None or r.q4 is None:
            return ["exact value or q4 missing"]
        msgs += _closed_form_msgs(r.q1, m, p, 2 * m, n, "q1")
        msgs += _closed_form_msgs(r.exact, m, p, L * m, n, "exact")
        if not (0.0 <= r.q2 <= r.q1 <= 1.0):
            msgs.append(f"need 0 <= q2 <= q1 <= 1, got {r.q1!r}, {r.q2!r}")
        if r.range_exceeded:
            return msgs + ["range exceeded on the paper grid"]
        # the chain on L*m trials and the approximant's power L - 1 each
        # carry about one ulp of 1 per step or factor
        a = (L * m + L) * EPS
        if abs(r.approx_T4 - r.exact) > r.E + a:
            msgs.append(f"|T4 - exact| = {abs(r.approx_T4 - r.exact):.3g} > E {r.E:.3g}")
        if abs(r.approx_T3 - r.exact) > r.E_T3 + a:
            msgs.append(f"|T3 - exact| = {abs(r.approx_T3 - r.exact):.3g} > E_T3 {r.E_T3:.3g}")
        return msgs

    return Query(("approx", m, p, L, n), f"approx m={m} L={L}",
                 lambda: scanex.scan_approximation(m, p, L, n, want_exact=True,
                                                   want_T3=True), check)


def _lambda_query(m, p, n):
    def call():
        ps = scanex.block_p_sequence(m, p, n, 8)
        qs = scanex.block_q_sequence(m, p, n, 8)
        alpha = 0.05 if ps.p1 <= 0.05 else 0.1
        return (ps, qs, alpha, scanex.solve_lambda(ps, alpha),
                scanex.approx_qnlambda_centers(ps))

    def check(res):
        ps, qs, alpha, lam, centers = res
        q1, q2 = qs.q(1), qs.q(2)
        msgs = []
        # one ulp per step of every chain the identity combines
        if abs(ps.p1 - (1.0 - q1)) > chain_allow(4 * m):
            msgs.append(f"p1 {ps.p1!r} != 1 - q1 {1.0 - q1!r}")
        if abs(ps.p(2) - (1.0 - 2.0 * q1 + q2)) > chain_allow(10 * m):
            msgs.append(f"p2 {ps.p(2)!r} != 1 - 2q1 + q2 {1.0 - 2.0 * q1 + q2!r}")
        if not (lam.bracket_low <= lam.lam <= lam.bracket_high):
            msgs.append(f"lambda {lam.lam!r} outside its bracket")
        # the root is known only to the bisection width
        if abs(lam.lam - lam.center_T1) > lam.bound_T1 + LAMBDA_WIDTH:
            msgs.append(f"|lambda - center_T1| > bound_T1 at {(m, p, n)}")
        if abs(lam.lam - lam.center_C1) > lam.bound_C1 + LAMBDA_WIDTH:
            msgs.append(f"|lambda - center_C1| > bound_C1 at {(m, p, n)}")
        # mu1 and nu1 certify the same limit, so they are within both bounds
        g = scanex.error_coefficients(alpha).Gamma
        p1 = ps.p1
        if abs(centers.mu1 - centers.nu1) > g * p1**3 + (3.0 + alpha * g) * p1**2:
            msgs.append("centers mu1 and nu1 further apart than their bounds")
        return msgs

    return Query(("lambda", m, p, n), "lambda", call, check)


def _table_query(which):
    return Query(("table", which), f"table {which}",
                 lambda: scanex.reproduce_table(which),
                 lambda t: table_mismatches(which, t.rows))


# ---------------------------------------------------------------- mc-validate

def mc_validate(seed: int, quick: bool, root: str) -> Workload:
    """simulate_scan_cdf with 4 streams at threads 1 and 2 on two specs, and
    simulate_block_sequence on the first spec with L = 10.

    Each simulation draws 4 streams x 4e6 uniforms, one full chunk per
    stream; each block query draws 5 chunks on its single stream.  Per
    pass: two threads-2 queries (fastest), two threads-1 and two block
    queries (slowest), so the median falls mid-way in the threads-1 class
    and the tail in the block class.  The seed draws the plan seeds.
    """
    scale = 40 if quick else 1
    spec1 = (10, 0.05, 100, 3)
    spec2 = (12, 0.02, 120, 3) if quick else (20, 0.02, 200, 3)
    reps = {spec1: 160_000 // scale, spec2: 80_000 // scale}
    block_reps = 200_000 // scale
    rng = random.Random(seed)
    queries = []
    for spec in (spec1, spec2):
        plan = scanex.SimulationPlan(spec=_spec(*spec), reps=reps[spec],
                                     seed=rng.randrange(1, 2**31), stream_count=4)
        for threads in (1, 2):
            queries.append(_simulate_query(spec, plan, threads))
    for _ in range(2):
        queries.append(_block_query(spec1, 10, block_reps, rng.randrange(1, 2**31)))
    rng.shuffle(queries)
    warm = scanex.SimulationPlan(spec=_spec(*spec1), reps=4000, seed=1, stream_count=4)
    return Workload("mc-validate", queries, _simulate_query(spec1, warm, 2),
                    cross_check=_mc_cross_check)


@cache
def _exact_value(m, p, N, n):
    return scanex.exact_scan_cdf(_spec(m, p, N, n))


def _within(est, exact, reps):
    """|est - exact| within MC_HALF_WIDTHS 95% half-widths, plus 1/reps."""
    hw = 1.96 * math.sqrt(exact * (1.0 - exact) / reps)
    return abs(est - exact) <= MC_HALF_WIDTHS * hw + 1.0 / reps


def _simulate_query(spec, plan, threads):
    def check(r):
        exact = _exact_value(*spec)
        if r.reps != plan.reps:
            return [f"reps {r.reps} != {plan.reps}"]
        if not _within(r.estimate, exact, r.reps):
            return [f"estimate {r.estimate!r} too far from exact {exact!r}"]
        return []

    return Query(("simulate", spec, plan.seed, threads), f"simulate threads={threads}",
                 lambda: scanex.simulate_scan_cdf(plan, threads=threads), check)


@cache
def _block_sequences(m, p, n, K):
    return (scanex.block_q_sequence(m, p, n, K),
            scanex.block_p_sequence(m, p, n, min(K, 8)))


def _block_query(spec, L, reps, seed):
    m, p, _, n = spec

    def check(b):
        q, ps = _block_sequences(m, p, n, L - 1)
        msgs = []
        for k, est in enumerate(b.q_hat, start=1):
            if not _within(est, q.q(k), reps):
                msgs.append(f"q_hat[{k}] {est!r} too far from q_{k} {q.q(k)!r}")
        # the exact joint block law stops at k = 8
        for k, est in enumerate(b.p_hat[:ps.order], start=1):
            if not _within(est, ps.p(k), reps):
                msgs.append(f"p_hat[{k}] {est!r} too far from p_{k} {ps.p(k)!r}")
        return msgs

    return Query(("block", spec, L, seed), "block",
                 lambda: scanex.simulate_block_sequence(_spec(*spec), L, reps, seed),
                 check)


def _mc_cross_check(results: dict) -> list[str]:
    """Results do not depend on the thread count."""
    by_plan = {}
    for k, v in results.items():
        if k[0] == "simulate":
            by_plan.setdefault(k[1:3], []).append(v)
    return [f"threads 1 and 2 differ for {key}" for key, vs in by_plan.items()
            if any(v != vs[0] for v in vs)]


# ---------------------------------------------------------------- cli-cold

@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    maxrss_kib: int = 0


def cli_cold(seed: int, quick: bool, root: str) -> Workload:
    """Fresh ``python -m scanex`` processes, one per command.

    The seed draws the coefficient level, the p-file's scan spec and the
    exact-CDF spec.  The json approximation query is fixed: it fails its
    full-precision check on every run while the CLI prints display strings.
    """
    rng = random.Random(seed)
    alpha = rng.randrange(5, 101) / 1000.0
    lam_spec = (rng.choice((8, 9, 10)), rng.choice((0.01, 0.02, 0.03)), rng.choice((2, 3)))
    ps = scanex.block_p_sequence(*lam_spec, 8)
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    pfile = os.path.join(out_dir, f"pfile-{os.getpid()}.txt")
    with open(pfile, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{ps.p(k)!r}\n" for k in range(1, ps.order + 1)))
    m = rng.randrange(8, 13)
    ex = (m, rng.choice((0.01, 0.02, 0.03, 0.05)), rng.randrange(5 * m, 10 * m + 1),
          rng.choice((1, 2, 3)))

    commands = [
        (["coeffs", "--alpha", f"{alpha:.3f}"], lambda r: _check_coeffs(r, alpha), None),
        (["lambda", "--pfile", pfile, "--alpha", "0.1"],
         lambda r: _check_lambda(r, pfile), None),
        (["scan", "exact", "--m", str(ex[0]), "--p", repr(ex[1]), "--N", str(ex[2]),
          "--n", str(ex[3])], lambda r: _check_exact(r, ex), None),
        (["scan", "approx", "--m", "9", "--p", "0.05", "--L", "10", "--n", "6",
          "--with-exact", "--t3", "--format", "json"],
         lambda r: _check_approx_json(r, (9, 0.05, 10, 6)),
         "json output carries display-rounded values (cli._json_value)"),
        (["scan", "tables", "--which", "3"], _check_tables, None),
    ]
    env = child_env(root)

    def spawn(argv):
        return lambda: _run_child([sys.executable, "-m", "scanex", *argv], env, root)

    def in_process(argv):
        return lambda: _run_main(argv)

    def size(argv):
        return " ".join(argv[:2] if argv[0] == "scan" else argv[:1])

    queries = [Query(("cli", i), size(argv), spawn(argv), check, fault)
               for i, (argv, check, fault) in enumerate(commands)]
    inproc = [Query(("cli", i), size(argv), in_process(argv), check, fault)
              for i, (argv, check, fault) in enumerate(commands)]
    return Workload("cli-cold", queries, queries[0], in_process=inproc,
                    cleanup=lambda: os.remove(pfile))


def child_env(root) -> dict:
    """This process's environment, with ``root``/src first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(cmd, env, cwd) -> CliResult:
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    # outputs are a few hundred bytes, far below the pipe buffer
    out = proc.stdout.read()
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out, err, usage.ru_maxrss)


def _run_main(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = scanex.cli.main(argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


def _csv_record(r: CliResult) -> dict:
    header, row = list(csv.reader(io.StringIO(r.stdout)))
    return dict(zip(header, row))


def _compare(got: dict, want: dict, tol: Callable[[str], float]) -> list[str]:
    msgs = []
    for k, w in want.items():
        g = got.get(k)
        if w is None or isinstance(w, str):
            ok = g == w
        else:
            ok = isinstance(g, (int, float)) and abs(g - w) <= tol(k)
        if not ok:
            msgs.append(f"{k}: printed {g!r}, API {w!r}")
    return msgs


def _cli_run_msgs(r: CliResult) -> list[str]:
    return [] if r.returncode == 0 else [f"exit {r.returncode}: {r.stderr.strip()}"]


def _last_digit(s: str) -> float:
    """One unit in the last printed decimal place of a fixed-point string."""
    return 10.0 ** -len(s.split(".")[1]) if "." in s else 1.0


def _check_coeffs(r: CliResult, alpha: float) -> list[str]:
    if _cli_run_msgs(r):
        return _cli_run_msgs(r)
    rec = _csv_record(r)
    c = scanex.error_coefficients(alpha)
    want = {"alpha": alpha, "t2": c.t2, "l": c.l, "eta": c.eta, "K": c.K,
            "L": c.Lcoef, "E": c.Ecoef, "Gamma": c.Gamma,
            "1+alpha*K": 1.0 + alpha * c.K, "3+alpha*Gamma": 3.0 + alpha * c.Gamma}
    got = {k: float(v) for k, v in rec.items()}
    # display fields: rounded or truncated, and the two sums are formed from
    # the rounded K and Gamma, so allow two units of the last printed digit
    return _compare(got, want, lambda k: 2.0 * _last_digit(rec[k]))


def _check_lambda(r: CliResult, pfile: str) -> list[str]:
    if _cli_run_msgs(r):
        return _cli_run_msgs(r)
    with open(pfile, encoding="utf-8") as fh:
        ps = scanex.PSequence((1.0, *(float(s) for s in fh.read().split())))
    lam = scanex.solve_lambda(ps, 0.1)
    want = {"alpha": 0.1, "p1": ps.p1, "lambda": lam.lam,
            "bracket_low": lam.bracket_low, "bracket_high": lam.bracket_high,
            "center_T1": lam.center_T1, "bound_T1": lam.bound_T1,
            "center_C1": lam.center_C1, "bound_C1": lam.bound_C1,
            "residual_bound": lam.residual_bound}
    got = {k: float(v) for k, v in _csv_record(r).items()}
    return _compare(got, want, lambda k: 0.0)


def _check_exact(r: CliResult, ex) -> list[str]:
    if _cli_run_msgs(r):
        return _cli_run_msgs(r)
    m, p, N, n = ex
    rec = _csv_record(r)
    want = {"m": m, "p": p, "N": N, "n": n, "value": _exact_value(m, p, N, n)}
    got = {k: float(rec[k]) for k in want}
    return _compare(got, want, lambda k: 0.0) + (
        [] if rec.get("engine") == "chain" else [f"engine {rec.get('engine')!r}"])


def _check_approx_json(r: CliResult, spec) -> list[str]:
    if _cli_run_msgs(r):
        return _cli_run_msgs(r)
    got = json.loads(r.stdout)
    rep = scanex.scan_approximation(*spec, want_exact=True, want_T3=True)
    want = {"m": rep.m, "p": rep.p, "L": rep.L, "n": rep.n, "q1": rep.q1,
            "q2": rep.q2, "approx": rep.approx_T4, "exact": rep.exact,
            "EH": rep.EH, "E": rep.E, "alpha": rep.alpha_used,
            "range_exceeded": int(rep.range_exceeded), "q3": rep.q3, "q4": rep.q4,
            "approx_T3": rep.approx_T3, "E_T3": rep.E_T3}
    # machine output must carry every value at full precision
    return _compare(got, want, lambda k: 0.0)


def _check_tables(r: CliResult) -> list[str]:
    if _cli_run_msgs(r):
        return _cli_run_msgs(r)
    t = scanex.reproduce_table(3)
    rows = list(csv.reader(io.StringIO(r.stdout)))
    want = [list(t.headers)] + [["" if c is None else c for c in row] for row in t.rows]
    return [] if rows == want else ["table 3 csv differs from reproduce_table(3)"]


BUILDERS = {
    "chain-large": chain_large,
    "paper-sweep": paper_sweep,
    "mc-validate": mc_validate,
    "cli-cold": cli_cold,
}
