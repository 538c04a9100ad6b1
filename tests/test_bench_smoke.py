"""The chain-large, paper-sweep and mc-validate benchmarks in quick mode,
against their own checks.

chain-large checks every chain value against formulas computed without
scanex (the n = 1 closed form, the no-run recursion at n = m - 1, window
bounds, monotonicity).  paper-sweep checks the published table digits and
the approximation certificates.  Both run the chain engine.  mc-validate
checks each Monte Carlo estimate against the exact value and block law, and
that threads 1 and 2 give identical results; its specs run the sparse
sampler.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["chain-large", "paper-sweep", "mc-validate"])
def test_quick_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--quick", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    r = json.loads(proc.stdout.strip().splitlines()[-1])
    assert r["correct"] is True
    assert r["attempted"] > 0 and r["failed"] == 0
