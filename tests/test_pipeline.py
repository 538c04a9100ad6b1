"""Formatting rules, end-to-end approximation reports, table regeneration."""

import copy
import dataclasses
import pickle

import pytest

from scanex.pipeline import (
    SCAN_TABLE_PARAMS,
    format_bound,
    format_probability,
    reproduce_table,
    sandwich,
    scan_approximation,
    truncate,
)
from scanex.scan_exact import BernoulliScanSpec, brute_force_scan_cdf, exact_scan_cdf

# ---------------------------------------------------------------- rendering


def test_truncate_respects_decimal_repr():
    # floor(0.99999 * 1e5) / 1e5 would lose an ulp; repr-based truncation
    # must keep printable boundaries intact
    assert truncate(0.99999, 5) == 0.99999
    assert truncate(0.829999, 5) == 0.82999
    assert truncate(1.53477305, 4) == 1.5347
    assert truncate(0.0, 5) == 0.0


def test_format_probability():
    assert format_probability(0.9800192489826609) == "0.98001"
    assert format_probability(0.5) == "0.50000"
    assert format_probability(0.999997) == "0.99999"
    assert format_probability(0.99999976) == "1."  # rounds to 1 at 6 decimals
    assert format_probability(1.0) == "1."
    assert format_probability(0.0) == "0.00000"


def test_format_bound():
    assert format_bound(0.0) == "0.00000"
    assert format_bound(3.2456e-4) == "0.00032"
    assert format_bound(1.9578e-4) == "0.00019"
    assert format_bound(6.3e-5) == "0.00006"
    assert format_bound(1e-5) == "0.00001"
    assert format_bound(9.99e-6) == "0.00001"  # the 6-decimal pre-round lifts it
    assert format_bound(9.4e-6) == "9e-06"
    assert format_bound(2.7e-7) == "2e-07"
    assert format_bound(9.4e-17) == "9e-17"
    assert format_bound(0.017223) == "0.01722"
    # the float nearest k * 10**e may lie just below it, as 3e-08 does; its
    # mantissa still reads k
    for k in range(1, 10):
        for e in range(-300, -5):
            assert format_bound(float(f"{k}e{e}")) == f"{k}e{e:+03d}", (k, e)


# ------------------------------------------------------------------ reports


def test_report_published_row():
    r = scan_approximation(9, 0.05, 10, 3, want_exact=True)
    assert format_probability(r.q1) == "0.99716"
    assert format_probability(r.q2) == "0.99500"
    assert format_probability(r.approx_T4) == "0.98001"
    assert format_probability(r.exact) == "0.98000"
    assert format_bound(r.EH) == "0.00032"
    assert format_bound(r.E) == "0.00010"
    assert not r.range_exceeded
    assert r.alpha_used == pytest.approx(1.0 - r.q1, abs=1e-15)


def test_report_bound_validity_on_table_grids():
    for m, p, L, thresholds in SCAN_TABLE_PARAMS.values():
        for n in thresholds:
            r = scan_approximation(m, p, L, n, want_exact=True, want_T3=True)
            # both certified bounds sink below double precision dust at
            # the largest thresholds (E ~ 1e-16 while the two compared
            # values carry ~1e-15 of accumulated roundoff each), so the
            # checks allow machine noise on top of the analytic bound
            assert abs(r.approx_T4 - r.exact) <= r.E + 5e-14
            assert abs(r.approx_T3 - r.exact) <= r.E_T3 + 5e-14
            if r.EH is not None:
                assert r.E < r.EH  # the parametric bound must win
                assert abs(r.approx_T4 - r.exact) <= r.EH + 5e-14


def test_report_legacy_bound_gating():
    # EH needs 1 - q1 <= 0.025, E needs 1 - q1 <= 0.1
    r = scan_approximation(9, 0.05, 10, 2, want_exact=False)
    assert r.EH is None and r.E is not None
    r = scan_approximation(9, 0.05, 10, 3)
    assert r.EH is not None


def test_report_trivial_threshold():
    # n >= m: every q is 1 and the approximation is exact with zero bound
    r = scan_approximation(9, 0.05, 10, 9, want_exact=True)
    assert r.q1 == 1.0 and r.q2 == 1.0
    assert r.approx_T4 == 1.0 and r.exact == 1.0
    assert r.E == 0.0


def test_report_range_exceeded():
    for want_T3 in (False, True):
        r = scan_approximation(9, 0.3, 5, 2, want_exact=True, want_T3=want_T3)
        assert r.range_exceeded
        assert r.approx_T4 is None and r.E is None and r.EH is None
        assert r.approx_T3 is None and r.E_T3 is None
        assert r.exact is not None  # exact engine still works out of range
    assert r.q3 is not None and r.q4 is not None


def test_report_rejects_short_runs():
    with pytest.raises(ValueError):
        scan_approximation(9, 0.05, 1, 3)


def test_t3_report_fields():
    r = scan_approximation(9, 0.05, 10, 3, want_T3=True)
    assert r.q3 is not None and r.q4 is not None
    assert r.q2 > r.q3 > r.q4
    assert abs(r.approx_T3 - r.approx_T4) <= r.E_T3 + r.E


# ----------------------------------------------------------------- sandwich


def test_sandwich_brackets_brute_force():
    s = sandwich(3, 0.5, 10, 2)
    assert s.L == 3
    ref = brute_force_scan_cdf(BernoulliScanSpec(3, 0.5, 10, 2))
    assert s.lower <= ref + 1e-15
    assert s.upper >= ref - 1e-15


def test_sandwich_exact_at_multiples():
    s = sandwich(9, 0.05, 90, 3)
    assert s.upper == exact_scan_cdf(BernoulliScanSpec(9, 0.05, 90, 3))
    assert s.lower == exact_scan_cdf(BernoulliScanSpec(9, 0.05, 99, 3))
    assert s.lower <= s.upper


def test_sandwich_degenerate():
    s = sandwich(9, 0.05, 5, 3)  # N < m: no window exists
    assert (s.lower, s.upper, s.L) == (1.0, 1.0, 0)


# ------------------------------------------------------------------- tables


def test_tables_deterministic():
    for which in (1, 2, 3, 4):
        assert reproduce_table(which) == reproduce_table(which)
    with pytest.raises(ValueError):
        reproduce_table(5)


def test_coefficient_table_spot_row():
    t = reproduce_table(1)
    assert t.headers == ("alpha", "l", "K", "1+alpha*K")
    assert ("0.025", "1.0835", "17.5663", "1.4391") in t.rows


def test_gamma_table_spot_row():
    t = reproduce_table(2)
    assert ("0.025", "145.202", "6.6300") in t.rows


def test_scan_table_spot_rows():
    t3 = reproduce_table(3)
    assert t3.headers == ("n", "q1", "q2", "approx", "exact", "EH", "E")
    assert ("3", "0.99716", "0.99500", "0.98001", "0.98000", "0.00032", "0.00010") in t3.rows
    # EH is blank where its applicability condition fails
    assert t3.rows[0][5] is None
    t4 = reproduce_table(4)
    assert ("2", "0.99813", "0.99677", "0.98061", "0.98060", "0.00019", "0.00006") in t4.rows
    assert ("5", "1.", "1.", "1.", "1.", "4e-14", "1e-14") in t4.rows


def test_records_have_slots_and_round_trip():
    # one record per query: no per-instance __dict__
    records = (scan_approximation(9, 0.05, 10, 3, want_exact=True, want_T3=True),
               scan_approximation(9, 0.3, 4, 3), sandwich(9, 0.05, 93, 3))
    for r in records:
        assert not hasattr(r, "__dict__")
        assert pickle.loads(pickle.dumps(r)) == r
        assert copy.deepcopy(r) == r
        assert dataclasses.replace(r) == r
        assert type(r)(**dataclasses.asdict(r)) == r
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.L = 1
