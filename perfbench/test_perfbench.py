"""Smoke tests for the benchmark harness, in quick mode.

    python3 -m pytest perfbench
"""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reference import binom_cdf, cdf_no_full_run, cdf_no_two_close, window_bounds  # noqa: E402
from spans import SpanStats  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_quick_run_reports_every_end_to_end_metric(workload):
    r = last_json(run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                      "--trace", "0", "--quick"))
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] is True
    # the json approximation query fails on every run, and nothing else does
    assert r["failed"] * 5 == r["attempted"] if workload == "cli-cold" else r["failed"] == 0
    assert {k: v["unit"] for k, v in r["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in r["metrics"].values())


def test_quick_traced_run_reports_every_per_layer_metric():
    r = last_json(run("--workload", "paper-sweep", "--seed", "3", "--seconds", "0.5",
                      "--trace", "1", "--quick"))
    assert r["correct"] is True
    got = {k: v["unit"] for k, v in r["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert r["metrics"]["pipeline.chain_calls_per_approx"]["value"] == 5.0
    assert r["metrics"]["pipeline.scan_approximation.self_ms"]["value"] > 0


def test_same_seed_same_inputs():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import BUILDERS

    for name in ("chain-large", "paper-sweep", "mc-validate"):
        a = BUILDERS[name](7, True, ROOT)
        b = BUILDERS[name](7, True, ROOT)
        assert [q.key for q in a.queries] == [q.key for q in b.queries]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "paper-sweep", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_steady_quick(tmp_path):
    out = tmp_path / "steady.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "steady.py"), "--quick", "--runs", "2",
         "--seconds", "0.3", "--workloads", "mc-validate", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode in (0, 1), proc.stderr
    report = json.loads(out.read_text())["report"]["mc-validate"]
    assert report["failed_shares"] == ["0"]
    assert set(report["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(len(row["sets"]) == 2 and row["step"] >= 0 for row in report["metrics"].values())


def _enumerate_cdf(m, p, N, n):
    return math.fsum(p ** sum(bits) * (1 - p) ** (N - sum(bits))
                     for bits in itertools.product((0, 1), repeat=N)
                     if max(sum(bits[i:i + m]) for i in range(N - m + 1)) <= n)


@pytest.mark.parametrize("m,p,N", [(3, 0.3, 9), (4, 0.2, 12), (5, 0.45, 13)])
def test_reference_forms_match_enumeration(m, p, N):
    assert cdf_no_two_close(m, p, N) == pytest.approx(_enumerate_cdf(m, p, N, 1), abs=1e-14)
    assert cdf_no_full_run(m, p, N) == pytest.approx(_enumerate_cdf(m, p, N, m - 1), abs=1e-14)
    for n in range(m):
        lo, hi = window_bounds(m, p, N, n)
        assert lo - 1e-14 <= _enumerate_cdf(m, p, N, n) <= hi + 1e-14
    assert binom_cdf(m, m, p) == pytest.approx(1.0)


def test_self_time_subtracts_direct_children():
    # query [0, 10] > approx [1, 9] > chain [2, 5] and chain [6, 8]
    spans = [["query", -1, 0.0, 10.0, None], ["approx", 0, 1.0, 9.0, None],
             ["chain", 1, 2.0, 5.0, None], ["chain", 1, 6.0, 8.0, None]]
    st = SpanStats(spans)
    assert st.self_time == {"query": 2.0, "approx": 3.0, "chain": 5.0}
    assert st.busy == {"query": 10.0, "approx": 8.0, "chain": 5.0}
    assert st.children_per_parent("chain", "approx", "query") == 2.0
