"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 perfbench/steady.py                       # 2 sets x 10 seeds, every workload
    python3 perfbench/steady.py --runs 5 --workloads paper-sweep

Runs perfbench/run.py once per (set, seed, workload), workloads interleaved.
Set 1 uses seeds 1..runs and set 2 seeds runs+1..2*runs.  For every
end-to-end metric in BENCHMARK.json it prints each set's median and
quartiles and the spread (q3 - q1) / median, and the step between the two
set medians, |m2 - m1| / min(m1, m2): how much worse either set is than the
other.  Both must stay within the metric's bound, setup_s included, and
the share of failed operations must be identical in every run; the exit
status is 1 otherwise.  A spread at or above a third of the bound is the
goal missed and is flagged, but does not fail the check.  Raw results go to
perfbench/out/steady.json (--out).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(workload, seed, seconds, quick):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def judge(bench, results):
    """Print the verdict on ``results`` ({workload: [set 1 runs, set 2 runs]});
    return (ok, report)."""
    ok = True
    report = {}
    for w, sets_runs in results.items():
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets_runs for r in runs}
        same_share = len(shares) == 1
        ok &= same_share
        print(f"{w}: failed share {'identical' if same_share else 'DIFFERS'}: "
              + ", ".join(str(f) for f in sorted(shares)))
        report[w] = {"failed_shares": sorted(str(f) for f in shares), "metrics": {}}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in sets_runs]
            cells = []
            for st in sets:
                ok &= st["spread"] <= bound
                flag = (" TOO WIDE" if st["spread"] > bound
                        else " above goal" if st["spread"] >= bound / 3 else "")
                cells.append(f"median {st['median']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}] "
                             f"spread {st['spread']:.3f}{flag}")
            a, b = sets[0]["median"], sets[1]["median"]
            step = abs(b - a) / min(a, b)
            ok &= step <= bound
            cells.append(f"step {step:.3f}{'' if step <= bound else ' OVER BOUND'}")
            print(f"  {name} (bound {bound}, goal spread < {bound / 3:.3f}): " + "; ".join(cells))
            report[w]["metrics"][name] = {"bound": bound, "sets": sets, "step": step}
    print("steady" if ok else "NOT steady")
    return ok, report


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--quick", action="store_true", help="pass --quick to run.py")
    ap.add_argument("--out", default=os.path.join(HERE, "out", "steady.json"))
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    results = {w: [[] for _ in range(SETS)] for w in args.workloads}
    for s in range(SETS):
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for w in args.workloads:
                r = run_once(w, seed, args.seconds, args.quick)
                results[w][s].append({"seed": seed, **r})
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                    flush=True)

    print()
    ok, report = judge(bench, results)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"seconds": args.seconds, "report": report, "runs": results}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
