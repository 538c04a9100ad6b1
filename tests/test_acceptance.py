"""Acceptance gate: one test per shipped claim, at the stated tolerance.

Each test prints one CRITERION line (visible with -s, or in the -v test
listing).  Three printed cells of the published originals disagree with
their own defining formulas by amounts far beyond float noise; those three
are split out as strict xfails so the gate stays honest in both
directions.  The analysis lives in the README ("Known discrepancies") and
in the project notes.
"""

import time

import numpy as np
import pytest
from oracles import joint_block_p

from scanex.extremes import (
    PSequence,
    QSequence,
    approx_qn_T3,
    approx_qn_T4,
    approx_qnlambda_centers,
    error_coefficients,
    p_from_q,
    qn_from_p,
    solve_lambda,
)
from scanex.montecarlo import SimulationPlan, simulate_scan_cdf
from scanex.pipeline import reproduce_table, sandwich
from scanex.scan_exact import (
    BernoulliScanSpec,
    block_q_sequence,
    brute_force_scan_cdf,
    exact_scan_cdf,
)

# Published tables, cell by cell, in the renderer's own notation.
PRINTED_TABLE1 = (
    ("0.100", "1.5347", "38.6302", "4.8630"),
    ("0.050", "1.1893", "21.2853", "2.0642"),
    ("0.025", "1.0835", "17.5663", "1.4391"),
    ("0.010", "1.0313", "15.9265", "1.1592"),
)
PRINTED_TABLE2 = (
    ("0.100", "480.696", "51.0696"),
    ("0.050", "180.532", "12.0266"),
    ("0.025", "145.202", "6.6300"),
    ("0.010", "131.438", "4.3143"),
)
PRINTED_TABLE3 = (
    ("2", "0.97131", "0.95181", "0.82715", "0.82582", None, "0.01712"),
    ("3", "0.99716", "0.99500", "0.98001", "0.98000", "0.00032", "0.00010"),
    ("4", "0.99982", "0.99967", "0.99865", "0.99865", "1e-06", "3e-07"),
    ("5", "0.99999", "0.99998", "0.99994", "0.99994", "2e-09", "6e-10"),
    ("6", "1.", "1.", "0.99999", "0.99999", "1e-12", "4e-13"),
    ("7", "1.", "1.", "1.", "1.", "3e-16", "9e-17"),
)
PRINTED_TABLE4 = (
    ("1", "0.96860", "0.94910", "0.74617", "0.74353", None, "0.02927"),
    ("2", "0.99813", "0.99677", "0.98061", "0.98060", "0.00019", "0.00006"),
    ("3", "0.99993", "0.99987", "0.99922", "0.99922", "2e-07", "8e-08"),
    ("4", "0.99999", "0.99999", "0.99998", "0.99998", "1e-10", "4e-11"),
    ("5", "1.", "1.", "1.", "1.", "4e-14", "1e-14"),
)


def assert_cells(got_rows, want_rows, skip=()):
    """Cell-by-cell comparison, with (row, col) positions to skip."""
    assert len(got_rows) == len(want_rows)
    mismatched = []
    for i, (got, want) in enumerate(zip(got_rows, want_rows)):
        assert len(got) == len(want)
        for j, (g, w) in enumerate(zip(got, want)):
            if (i, j) in skip:
                continue
            if g != w:
                mismatched.append(((i, j), g, w))
    assert not mismatched, f"cells differ (got vs printed): {mismatched}"


def test_criterion_1_coefficient_table():
    start = time.perf_counter()
    t = reproduce_table(1)
    elapsed = time.perf_counter() - start
    # the l cell at alpha = 0.050 is the known irreproducible one
    assert_cells(t.rows, PRINTED_TABLE1, skip={(1, 1)})
    assert elapsed < 0.1
    print("CRITERION 1: PASS - Table 1 matches at printed precision "
          "(11/12 cells; the twelfth is covered by the xfail record)")


@pytest.mark.xfail(
    strict=True,
    reason="printed l at alpha=0.050 is 1.1893 but the cube of the cubic "
    "root plus any margin consistent with the other 19 coefficient cells "
    "renders 1.1892; no single rendering reproduces all printed cells",
)
def test_criterion_1_l_cell_at_alpha_005():
    assert reproduce_table(1).rows[1][1] == "1.1893"


def test_criterion_2_gamma_table():
    start = time.perf_counter()
    t = reproduce_table(2)
    elapsed = time.perf_counter() - start
    assert_cells(t.rows, PRINTED_TABLE2)
    assert elapsed < 0.1
    print("CRITERION 2: PASS - Table 2 matches at printed precision (8/8 cells)")


def test_criterion_3_scan_table_m9():
    start = time.perf_counter()
    t = reproduce_table(3)
    elapsed = time.perf_counter() - start
    # the E cell at n = 2 is the known irreproducible one
    assert_cells(t.rows, PRINTED_TABLE3, skip={(0, 6)})
    assert t.rows[0][5] is None  # the "-" for EH at n = 2
    assert elapsed < 5.0
    print("CRITERION 3: PASS - Table 3 (m=9, p=0.05, L=10) matches at "
          "printed precision (41/42 cells; E at n=2 covered by the xfail record)")


@pytest.mark.xfail(
    strict=True,
    reason="printed E at n=2 is 0.01712 but the bound formula with the "
    "coefficients of Tables 1-2 gives 0.01722 at full precision; "
    "reproducing 0.01712 needs Gamma + 9K near 306.9, which no admissible "
    "coefficient evaluation reaches",
)
def test_criterion_3_E_cell_at_n2():
    assert reproduce_table(3).rows[0][6] == "0.01712"


def test_criterion_4_scan_table_m10():
    start = time.perf_counter()
    t = reproduce_table(4)
    elapsed = time.perf_counter() - start
    # the E cell at n = 1 is the known irreproducible one
    assert_cells(t.rows, PRINTED_TABLE4, skip={(0, 6)})
    assert t.rows[0][5] is None
    assert elapsed < 5.0
    print("CRITERION 4: PASS - Table 4 (m=10, p=0.0165, L=15) matches at "
          "printed precision (34/35 cells; E at n=1 covered by the xfail record)")


@pytest.mark.xfail(
    strict=True,
    reason="printed E at n=1 is 0.02927 but the bound formula with the "
    "coefficients of Tables 1-2 gives 0.02942 at full precision",
)
def test_criterion_4_E_cell_at_n1():
    assert reproduce_table(4).rows[0][6] == "0.02927"


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    cases = 0
    for m in range(1, 6):
        for N in range(m, 17):
            for p in (0.2, 0.5, 0.8):
                for n in range(0, m + 1):
                    spec = BernoulliScanSpec(m, p, N, n)
                    a = exact_scan_cdf(spec)
                    b = brute_force_scan_cdf(spec)
                    assert abs(a - b) < 1e-12, spec
                    cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"CRITERION 5: PASS - chain and enumeration agree to 1e-12 on "
          f"{cases} specs in {elapsed:.1f} s")


def test_criterion_6_bound_envelopes():
    start = time.perf_counter()
    checks = 0
    for p1 in (0.01, 0.025, 0.05, 0.1):
        p = PSequence(tuple(p1**k for k in range(15)))
        co = error_coefficients(p1)
        r = solve_lambda(p, p1)
        lam = 1.0 / (1.0 - p1)
        cen = approx_qnlambda_centers(p)
        assert abs(r.lam - lam) < 1e-9
        # root bounds: T1 against mu2, C1 against the quadratic center
        assert abs(lam - r.center_T1) <= co.K * p1**3
        assert abs(lam - r.center_C1) <= (1.0 + p1 * co.K) * p1**2
        # q_n * lam**n == 1 exactly on this family, for every n at once
        assert abs(1.0 - cen.mu1) <= co.Gamma * p1**3
        assert abs(1.0 - cen.nu1) <= (3.0 + p1 * co.Gamma) * p1**2
        q = [qn_from_p(p, k) for k in range(1, 5)]
        for n in range(4, 13):
            qn = (1.0 - p1) ** n
            t4 = approx_qn_T4(q[0], q[1], n, p1)
            t3 = approx_qn_T3(*q, n, p1)
            assert abs(t4.value - qn) <= t4.delta2
            assert abs(t3.value - qn) <= t3.delta1
            checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"CRITERION 6: PASS - T1/C1/T2/C2 and both approximant bounds "
          f"hold on the geometric family ({checks} threshold cases)")


def test_criterion_7_recursion_identities():
    rng = np.random.default_rng(20240813)
    for _ in range(1000):
        p1 = float(rng.uniform(0.001, 0.1))
        c = np.cumprod(rng.uniform(0.2, 1.0, size=5))
        p = PSequence(
            (1.0, p1, *(p1 ** (k + 2) * float(c[k]) for k in range(5)))
        )
        v1, v2, v3 = p.p(1), p.p(2), p.p(3)
        assert abs(qn_from_p(p, 1) - (1 - v1)) < 1e-14
        assert abs(qn_from_p(p, 2) - (1 - 2 * v1 + v2)) < 1e-14
        assert abs(qn_from_p(p, 3) - (1 - 3 * v1 + 2 * v2 + v1 * v1 - v3)) < 1e-14
        q = QSequence.from_tail([qn_from_p(p, k) for k in range(1, 5)])
        back = p_from_q(q)
        for k in range(4):
            assert abs(back[k] - p.p(k + 1)) < 1e-14
    # block_p_sequence derives its p's from the q's, so the block law comes
    # from the joint mask DP here
    for m, pp, n in ((3, 0.5, 2), (2, 0.3, 1), (4, 0.6, 3), (9, 0.05, 3)):
        ps = joint_block_p(m, pp, n, kmax=4)
        qs = block_q_sequence(m, pp, n, kmax=4)
        for k in range(1, 5):
            assert abs(qn_from_p(ps, k) - qs.q(k)) < 1e-12
    print("CRITERION 7: PASS - closed forms, q->p inversion and block "
          "consistency hold (1000 random vectors, 4 block specs)")


def test_criterion_8_sandwich_property():
    rng = np.random.default_rng(424242)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        N = int(rng.integers(m, 17))
        p = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(0, m))
        s = sandwich(m, p, N, n)
        ref = brute_force_scan_cdf(BernoulliScanSpec(m, p, N, n))
        assert s.lower - 1e-13 <= ref <= s.upper + 1e-13, (m, p, N, n)
    s = sandwich(9, 0.05, 93, 3)
    ref = exact_scan_cdf(BernoulliScanSpec(9, 0.05, 93, 3))
    assert s.lower - 1e-13 <= ref <= s.upper + 1e-13
    print("CRITERION 8: PASS - block sandwich brackets the exact CDF "
          "(50 random specs vs enumeration, plus N=93 vs the chain)")


def test_criterion_9_monte_carlo_consistency():
    start = time.perf_counter()
    reps = 1_000_000

    plan_small = SimulationPlan(BernoulliScanSpec(3, 0.5, 8, 2), reps=reps,
                                seed=20240812, stream_count=4)
    est_small = simulate_scan_cdf(plan_small, threads=2)
    truth_small = 149 / 256
    se = np.sqrt(truth_small * (1 - truth_small) / reps)
    assert abs(est_small.estimate - truth_small) <= 4 * se

    spec_table = BernoulliScanSpec(9, 0.05, 90, 3)  # the L=10, n=3 cell
    plan_table = SimulationPlan(spec_table, reps=reps, seed=20240812,
                                stream_count=4)
    est_table = simulate_scan_cdf(plan_table, threads=2)
    truth_table = exact_scan_cdf(spec_table)
    se = np.sqrt(truth_table * (1 - truth_table) / reps)
    assert abs(est_table.estimate - truth_table) <= 4 * se

    assert simulate_scan_cdf(plan_small, threads=2) == est_small  # bit-identical

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"CRITERION 9: PASS - 1e6-rep estimates within 4 s.e. of exact "
          f"values and bit-identical on re-run ({elapsed:.1f} s)")
