"""Command line front end.

Subcommands:

* ``coeffs``        error coefficients K, L, E, Gamma at a level alpha
* ``lambda``        certified root of the q-generating series from a p-file
* ``scan approx``   two-term approximation of P(S_m(Lm) <= n) with bounds
* ``scan exact``    exact CDF value (chain embedding or enumeration)
* ``scan sandwich`` exact bracket for trial counts between multiples of m
* ``scan simulate`` Monte Carlo estimate with reproducible streams
* ``scan tables``   regenerate the reference tables

Each command is one row of ``_COMMANDS`` and returns its record: a dict
from column name to value, or a list of such dicts for ``scan tables``.
``main`` writes the records to stdout in csv (default), json or md;
diagnostics go to stderr.  csv and json carry every value at full
precision; md shows the paper's digits.  ``scan tables`` is display-only
in every format, so its json cells are strings.  Missing values
(inapplicable bounds) render as an empty csv field, a json null, and a
minus sign in md.  Exit codes: 0 success, 1 stdout closed by its reader,
2 invalid input, 3 resource cap exceeded.

numpy loads only in the commands that run the chain or the sampler:
``scan exact``, ``approx``, ``sandwich``, ``simulate`` and ``tables 3|4``.
The commands import ``scan_exact`` and ``montecarlo`` where they call them,
so ``coeffs``, ``lambda``, ``tables 1|2`` and ``--version`` start without it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict

from . import __version__
from .extremes import CapacityError, PSequence, error_coefficients, solve_lambda
from .pipeline import (
    _coeff_cells,
    _report_cells,
    reproduce_table,
    sandwich,
    scan_approximation,
)

_MD_DASH = "−"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(records: dict | list[dict], fmt: str) -> None:
    """Write one record, or a list of records sharing their columns."""
    rows = [records] if isinstance(records, dict) else records
    headers = list(rows[0])
    if fmt == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(headers)
        for row in rows:
            w.writerow([_cell(v) for v in row.values()])
    elif fmt == "json":
        print(json.dumps(rows[0] if len(rows) == 1 else rows, indent=2))
    else:  # md
        print("| " + " | ".join(headers) + " |")
        print("|" + "|".join(" ---: " for _ in headers) + "|")
        for row in rows:
            cells = [_MD_DASH if v is None else _cell(v) for v in row.values()]
            print("| " + " | ".join(cells) + " |")


def _given(args, names: str) -> dict:
    """The named options as given, keyed by their names."""
    return {k: getattr(args, k) for k in names.split()}


def _cmd_coeffs(args) -> dict:
    return _coeff_cells(error_coefficients(args.alpha), args.format == "md")


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


def _cmd_lambda(args) -> dict:
    p = _read_p_file(args.pfile)
    fields = asdict(solve_lambda(p, args.alpha))
    return {"alpha": args.alpha, "p1": p.p1, "lambda": fields.pop("lam"), **fields}


def _cmd_scan_approx(args) -> dict:
    r = scan_approximation(
        args.m, args.p, args.L, args.n,
        want_exact=args.with_exact, want_T3=args.t3,
    )
    if r.range_exceeded:
        print("note: 1-q1 exceeds 0.1; approximation not applicable", file=sys.stderr)
    cells = _report_cells(r, args.format == "md")
    record = {
        **_given(args, "m p L n"),
        **{k: cells[k] for k in ("q1", "q2", "approx", "exact", "EH", "E")},
        "alpha": r.alpha_used, "range_exceeded": int(r.range_exceeded),
    }
    if args.t3:
        record.update((k, cells[k]) for k in ("q3", "q4", "approx_T3", "E_T3"))
    return record


def _cmd_scan_exact(args) -> dict:
    from .scan_exact import BernoulliScanSpec, brute_force_scan_cdf, exact_scan_cdf

    spec = BernoulliScanSpec(**_given(args, "m p N n"))
    fn = brute_force_scan_cdf if args.engine == "brute" else exact_scan_cdf
    return {**_given(args, "m p N n engine"), "value": fn(spec),
            "degenerate": int(args.N < args.m)}


def _cmd_scan_sandwich(args) -> dict:
    r = sandwich(args.m, args.p, args.N, args.n)
    return {**_given(args, "m p N n"), "L": r.L, "lower": r.lower, "upper": r.upper}


def _threads(flag: int | None) -> int:
    """``--threads``, else ``SCANEX_THREADS``, else 1."""
    if flag is not None:
        if flag < 1:
            raise ValueError("--threads must be at least 1")
        return flag
    raw = os.environ.get("SCANEX_THREADS", "1")
    try:
        v = int(raw)
    except ValueError:
        raise ValueError(f"SCANEX_THREADS must be an integer, got {raw!r}")
    if v < 1:
        raise ValueError("SCANEX_THREADS must be at least 1")
    return v


def _cmd_scan_simulate(args) -> dict:
    from .montecarlo import SimulationPlan, simulate_scan_cdf
    from .scan_exact import BernoulliScanSpec

    threads = _threads(args.threads)
    plan = SimulationPlan(
        spec=BernoulliScanSpec(**_given(args, "m p N n")),
        reps=args.reps, seed=args.seed, stream_count=args.streams,
    )
    r = simulate_scan_cdf(plan, threads=threads)
    return {**_given(args, "m p N n reps seed streams"),
            "estimate": r.estimate, "half_width_95": r.half_width_95}


def _cmd_scan_tables(args) -> list[dict]:
    t = reproduce_table(args.which)
    return [dict(zip(t.headers, row)) for row in t.rows]


def _required(name: str, typ: type) -> tuple[str, dict]:
    return name, {"type": typ, "required": True}


def _spec(count: str) -> list[tuple[str, dict]]:
    """The problem options --m --p --n around the trial count --N or --L."""
    return [_required("--m", int), _required("--p", float), _required(count, int),
            _required("--n", int)]


# (command path, help, function, options); every command also takes --format
_COMMANDS = (
    (("coeffs",), "error coefficients at a level alpha", _cmd_coeffs,
     [_required("--alpha", float)]),
    (("lambda",), "certified series root from a p-file", _cmd_lambda, [
        ("--pfile", {"required": True,
                     "help": "text file, one p_k per line for k = 1..K"}),
        _required("--alpha", float)]),
    (("scan", "approx"), "two-term approximation with bounds", _cmd_scan_approx, [
        *_spec("--L"),
        ("--with-exact", {"action": "store_true",
                          "help": "also run the exact chain on L*m trials"}),
        ("--t3", {"action": "store_true",
                  "help": "also compute the four-term approximation"})]),
    (("scan", "exact"), "exact CDF value", _cmd_scan_exact, [
        *_spec("--N"),
        ("--engine", {"choices": ("chain", "brute"), "default": "chain"})]),
    (("scan", "sandwich"), "exact bracket for general N", _cmd_scan_sandwich,
     _spec("--N")),
    (("scan", "simulate"), "Monte Carlo estimate", _cmd_scan_simulate, [
        *_spec("--N"),
        _required("--reps", int),
        ("--seed", {"type": int, "default": 0}),
        ("--streams", {"type": int, "default": 4}),
        ("--threads", {"type": int, "default": None,
                       "help": "worker threads (default: SCANEX_THREADS or 1)"})]),
    (("scan", "tables"), "regenerate a reference table", _cmd_scan_tables,
     [("--which", {"type": int, "required": True, "choices": (1, 2, 3, 4)})]),
)
_GROUP_HELP = {"scan": "scan statistic computations"}
_FORMAT = ("--format", {"choices": ("csv", "json", "md"), "default": "csv"})


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="scanex",
        description="Scan statistic distributions via 1-dependent extremes",
    )
    ap.add_argument("--version", action="version", version=f"scanex {__version__}")
    subparsers = {(): ap.add_subparsers(dest="command", required=True)}
    for path, help_text, fn, options in _COMMANDS:
        group = path[:-1]
        if group not in subparsers:
            pg = subparsers[()].add_parser(group[0], help=_GROUP_HELP[group[0]])
            subparsers[group] = pg.add_subparsers(
                dest=f"{group[0]}_command", required=True)
        pc = subparsers[group].add_parser(path[-1], help=help_text)
        for name, kwargs in (*options, _FORMAT):
            pc.add_argument(name, **kwargs)
        pc.set_defaults(fn=fn)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _emit(args.fn(args), args.format)
        sys.stdout.flush()  # a closed pipe surfaces here, not at shutdown
        return 0
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
