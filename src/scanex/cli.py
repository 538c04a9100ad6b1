"""Command line front end.

Subcommands:

* ``coeffs``        error coefficients K, L, E, Gamma at a level alpha
* ``lambda``        certified root of the q-generating series from a p-file
* ``scan approx``   two-term approximation of P(S_m(Lm) <= n) with bounds
* ``scan exact``    exact CDF value (chain embedding or enumeration)
* ``scan sandwich`` exact bracket for trial counts between multiples of m
* ``scan simulate`` Monte Carlo estimate with reproducible streams
* ``scan tables``   regenerate the reference tables

Data goes to stdout in csv (default), json or md; diagnostics go to
stderr.  csv and json carry every value at full precision; md shows the
paper's digits.  ``scan tables`` is display-only in every format, so its
json cells are strings.  Missing values (inapplicable bounds) render as an
empty csv field, a json null, and a minus sign in md.  Exit codes: 0
success, 1 stdout closed by its reader, 2 invalid input, 3 resource cap
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import __version__
from .extremes import (
    CapacityError,
    PSequence,
    error_coefficients,
    solve_lambda,
)
from .montecarlo import SimulationPlan, simulate_scan_cdf
from .pipeline import (
    _coeff_cells,
    _report_cells,
    reproduce_table,
    sandwich,
    scan_approximation,
)
from .scan_exact import (
    BernoulliScanSpec,
    brute_force_scan_cdf,
    exact_scan_cdf,
)

_MD_DASH = "−"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(headers, rows, fmt: str) -> None:
    if fmt == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(headers)
        for row in rows:
            w.writerow([_cell(v) for v in row])
    elif fmt == "json":
        payload = [dict(zip(headers, row)) for row in rows]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    else:  # md
        print("| " + " | ".join(headers) + " |")
        print("|" + "|".join(" ---: " for _ in headers) + "|")
        for row in rows:
            cells = [_MD_DASH if v is None else _cell(v) for v in row]
            print("| " + " | ".join(cells) + " |")


def _emit_record(pairs: list[tuple[str, object]], fmt: str) -> None:
    headers = tuple(k for k, _ in pairs)
    _emit(headers, [tuple(v for _, v in pairs)], fmt)


def _cmd_coeffs(args) -> int:
    cells = _coeff_cells(error_coefficients(args.alpha), args.format == "md")
    _emit_record(list(cells.items()), args.format)
    return 0


def _read_p_file(path: str) -> PSequence:
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            try:
                values.append(float(s))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {s!r}")
    if not values:
        raise ValueError(f"{path}: no p-values found")
    return PSequence((1.0, *values))


def _cmd_lambda(args) -> int:
    p = _read_p_file(args.pfile)
    r = solve_lambda(p, args.alpha)
    _emit_record(
        [
            ("alpha", args.alpha),
            ("p1", p.p1),
            ("lambda", r.lam),
            ("bracket_low", r.bracket_low),
            ("bracket_high", r.bracket_high),
            ("center_T1", r.center_T1),
            ("bound_T1", r.bound_T1),
            ("center_C1", r.center_C1),
            ("bound_C1", r.bound_C1),
            ("residual_bound", r.residual_bound),
        ],
        args.format,
    )
    return 0


def _cmd_scan_approx(args) -> int:
    r = scan_approximation(
        args.m, args.p, args.L, args.n,
        want_exact=args.with_exact, want_T3=args.t3,
    )
    cells = _report_cells(r, args.format == "md")
    pairs: list[tuple[str, object]] = [
        ("m", r.m), ("p", r.p), ("L", r.L), ("n", r.n),
        *((k, cells[k]) for k in ("q1", "q2", "approx", "exact", "EH", "E")),
        ("alpha", r.alpha_used), ("range_exceeded", int(r.range_exceeded)),
    ]
    if args.t3:
        pairs += [(k, cells[k]) for k in ("q3", "q4", "approx_T3", "E_T3")]
    _emit_record(pairs, args.format)
    if r.range_exceeded:
        print("note: 1-q1 exceeds 0.1; approximation not applicable", file=sys.stderr)
    return 0


def _cmd_scan_exact(args) -> int:
    spec = BernoulliScanSpec(m=args.m, p=args.p, N=args.N, n=args.n)
    fn = brute_force_scan_cdf if args.engine == "brute" else exact_scan_cdf
    value = fn(spec)
    _emit_record(
        [("m", args.m), ("p", args.p), ("N", args.N), ("n", args.n),
         ("engine", args.engine), ("value", value),
         ("degenerate", int(args.N < args.m))],
        args.format,
    )
    return 0


def _cmd_scan_sandwich(args) -> int:
    r = sandwich(args.m, args.p, args.N, args.n)
    _emit_record(
        [("m", args.m), ("p", args.p), ("N", args.N), ("n", args.n),
         ("L", r.L), ("lower", r.lower), ("upper", r.upper)],
        args.format,
    )
    return 0


def _cmd_scan_simulate(args) -> int:
    plan = SimulationPlan(
        spec=BernoulliScanSpec(m=args.m, p=args.p, N=args.N, n=args.n),
        reps=args.reps, seed=args.seed, stream_count=args.streams,
    )
    r = simulate_scan_cdf(plan, threads=args.threads)
    _emit_record(
        [("m", args.m), ("p", args.p), ("N", args.N), ("n", args.n),
         ("reps", args.reps), ("seed", args.seed), ("streams", args.streams),
         ("estimate", r.estimate), ("half_width_95", r.half_width_95)],
        args.format,
    )
    return 0


def _cmd_scan_tables(args) -> int:
    t = reproduce_table(args.which)
    _emit(t.headers, list(t.rows), args.format)
    return 0


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json", "md"), default="csv")


def _default_threads() -> int:
    raw = os.environ.get("SCANEX_THREADS", "1")
    try:
        v = int(raw)
    except ValueError:
        raise ValueError(f"SCANEX_THREADS must be an integer, got {raw!r}")
    if v < 1:
        raise ValueError("SCANEX_THREADS must be at least 1")
    return v


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scanex",
        description="Scan statistic distributions via 1-dependent extremes",
    )
    ap.add_argument("--version", action="version", version=f"scanex {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("coeffs", help="error coefficients at a level alpha")
    pc.add_argument("--alpha", type=float, required=True)
    _add_format(pc)
    pc.set_defaults(fn=_cmd_coeffs)

    pl = sub.add_parser("lambda", help="certified series root from a p-file")
    pl.add_argument("--pfile", required=True,
                    help="text file, one p_k per line for k = 1..K")
    pl.add_argument("--alpha", type=float, required=True)
    _add_format(pl)
    pl.set_defaults(fn=_cmd_lambda)

    ps = sub.add_parser("scan", help="scan statistic computations")
    ssub = ps.add_subparsers(dest="scan_command", required=True)

    pa = ssub.add_parser("approx", help="two-term approximation with bounds")
    for name, typ in (("--m", int), ("--p", float), ("--L", int), ("--n", int)):
        pa.add_argument(name, type=typ, required=True)
    pa.add_argument("--with-exact", action="store_true",
                    help="also run the exact chain on L*m trials")
    pa.add_argument("--t3", action="store_true",
                    help="also compute the four-term approximation")
    _add_format(pa)
    pa.set_defaults(fn=_cmd_scan_approx)

    pe = ssub.add_parser("exact", help="exact CDF value")
    for name, typ in (("--m", int), ("--p", float), ("--N", int), ("--n", int)):
        pe.add_argument(name, type=typ, required=True)
    pe.add_argument("--engine", choices=("chain", "brute"), default="chain")
    _add_format(pe)
    pe.set_defaults(fn=_cmd_scan_exact)

    pw = ssub.add_parser("sandwich", help="exact bracket for general N")
    for name, typ in (("--m", int), ("--p", float), ("--N", int), ("--n", int)):
        pw.add_argument(name, type=typ, required=True)
    _add_format(pw)
    pw.set_defaults(fn=_cmd_scan_sandwich)

    pm = ssub.add_parser("simulate", help="Monte Carlo estimate")
    for name, typ in (("--m", int), ("--p", float), ("--N", int), ("--n", int)):
        pm.add_argument(name, type=typ, required=True)
    pm.add_argument("--reps", type=int, required=True)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--streams", type=int, default=4)
    pm.add_argument("--threads", type=int, default=None,
                    help="worker threads (default: SCANEX_THREADS or 1)")
    _add_format(pm)
    pm.set_defaults(fn=_cmd_scan_simulate)

    pt = ssub.add_parser("tables", help="regenerate a reference table")
    pt.add_argument("--which", type=int, required=True, choices=(1, 2, 3, 4))
    _add_format(pt)
    pt.set_defaults(fn=_cmd_scan_tables)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if hasattr(args, "threads"):
            if args.threads is None:
                args.threads = _default_threads()
            elif args.threads < 1:
                raise ValueError("--threads must be at least 1")
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader is gone: let the shutdown flush write to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as e:  # OSError: the --pfile could not be read
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
