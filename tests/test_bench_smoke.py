"""The chain-large benchmark in quick mode, against its own closed forms.

The benchmark checks every chain value against formulas computed without
scanex (the n = 1 closed form, the no-run recursion at n = m - 1, window
bounds, monotonicity), so this puts those checks on the chain engine.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_chain_large_quick_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "chain-large",
         "--seed", "1", "--quick", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    r = json.loads(proc.stdout.strip().splitlines()[-1])
    assert r["correct"] is True
    assert r["attempted"] > 0 and r["failed"] == 0
