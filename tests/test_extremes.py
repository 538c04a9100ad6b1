"""Coefficient, series and recursion machinery.

Oracle layout: closed forms of the geometric family p_k = p1**k (where
lambda = 1/(1-p1) and q_n = (1-p1)**n exactly), hand-evaluated centers, and
the published 4/3-decimal coefficient table values as regression anchors.
"""

import math

import mpmath
import numpy as np
import pytest

from scanex.extremes import (
    ALPHA_MAX,
    L_MARGIN,
    Inapplicable,
    LegacyBounds,
    PSequence,
    QSequence,
    T3Approx,
    T4Approx,
    approx_qn_T3,
    approx_qn_T4,
    approx_qnlambda_centers,
    c_series_eval,
    error_coefficients,
    legacy_bounds,
    legacy_scan_bound,
    p_from_q,
    qn_from_p,
    solve_cubic_t2,
    solve_lambda,
)
from scanex.scan_exact import block_p_sequence, block_q_sequence

# Published coefficient values (4 d.p. for l and K, 3 d.p. for Gamma).
TABLE_COEFFS = {
    0.100: (1.5347, 38.6302, 480.696),
    0.050: (1.1893, 21.2853, 180.532),
    0.025: (1.0835, 17.5663, 145.202),
    0.010: (1.0313, 15.9265, 131.438),
}


def geometric_p(p1: float, order: int = 10) -> PSequence:
    return PSequence(tuple(p1**k for k in range(order + 1)))


def random_p_sequence(rng: np.random.Generator, order: int = 6) -> PSequence:
    # p_k = p1**k * c_k with c_k a nonincreasing [0,1] chain satisfies both
    # the monotonicity and the p_k <= p1**floor((k+1)/2) envelope.
    p1 = float(rng.uniform(0.001, 0.1))
    c = np.cumprod(rng.uniform(0.2, 1.0, size=order - 1))
    values = [1.0, p1] + [p1 ** (k + 2) * float(c[k]) for k in range(order - 1)]
    return PSequence(tuple(values))


# ---------------------------------------------------------------- cubic root


def test_cubic_root_residual_and_bracket_on_grid():
    for alpha in np.linspace(0.001, 0.1, 1000):
        r = solve_cubic_t2(float(alpha))
        assert abs(alpha * r.t2**3 - r.t2 + 1.0) < 1e-12
        assert 1.0 < r.t2 < 1.0 / math.sqrt(3.0 * alpha)
        assert r.l == pytest.approx(r.t2**3, rel=1e-15)


def test_cubic_root_small_alpha_expansion():
    # t2 = 1 + alpha + O(alpha**2), so the cube is 1 + 3*alpha + O(alpha**2)
    r = solve_cubic_t2(1e-8)
    assert abs(r.t2 - (1.0 + 1e-8)) < 1e-15
    assert abs(r.l - (1.0 + 3e-8)) < 1e-14


def test_cubic_root_domain():
    for bad in (0.0, -0.05, 0.1000001, 1.0):
        with pytest.raises(ValueError):
            solve_cubic_t2(bad)


# ------------------------------------------------------- error coefficients


def test_coefficients_match_published_tables():
    for alpha, (l4, k4, g3) in TABLE_COEFFS.items():
        c = error_coefficients(alpha)
        assert abs(c.l - l4) <= 1e-4
        assert abs(c.K - k4) <= 1e-3
        assert abs(c.Gamma - g3) <= 1e-2


def test_coefficients_structure():
    c = error_coefficients(0.05)
    assert c.l == pytest.approx(c.t2**3 + L_MARGIN, abs=1e-15)
    assert c.eta == pytest.approx(1.0 + c.l * c.alpha, abs=1e-15)
    assert c.Gamma == c.Lcoef + c.Ecoef


def test_coefficients_small_alpha_limits():
    # At alpha -> 0 the closed forms give K -> 11 + 4*l and Gamma -> 3K + 55
    # + 24.1; with the working margin on l that is 15.0004 and 124.1024.
    c = error_coefficients(1e-8)
    assert abs(c.K - 15.0) < 1e-3
    assert abs(c.Gamma - 124.1) < 5e-3


def test_coefficients_monotone_and_denominators():
    grid = np.linspace(1e-4, 0.1, 80)
    prev = None
    for alpha in grid:
        c = error_coefficients(float(alpha))
        assert alpha * c.eta**2 < 1.0
        if prev is not None:
            assert c.K >= prev.K
            assert c.Lcoef >= prev.Lcoef
            assert c.Ecoef >= prev.Ecoef
        prev = c


def test_coefficients_domain():
    with pytest.raises(ValueError, match="alpha out of range"):
        error_coefficients(0.11)
    with pytest.raises(ValueError):
        error_coefficients(0.0)


def test_new_coefficients_beat_fixed_constants():
    # the whole point of the parametric bounds: K < 87 and Gamma < 561 on
    # the range where the fixed constants apply
    for alpha in np.linspace(1e-4, 0.025, 40):
        c = error_coefficients(float(alpha))
        assert c.K < 87.0
        assert c.Gamma < 561.0


# ------------------------------------------------------------ legacy bounds


def test_legacy_bounds_values_and_marker():
    b = legacy_bounds(0.025)
    assert isinstance(b, LegacyBounds)
    assert b.bound_th1 == pytest.approx(87.0 * 0.025**3, rel=1e-15)
    assert b.bound_th1 == pytest.approx(1.359375e-3, rel=1e-12)
    assert legacy_bounds(0.01).bound_th2 == pytest.approx(5.61e-4, rel=1e-12)
    assert isinstance(legacy_bounds(0.03), Inapplicable)
    with pytest.raises(ValueError):
        legacy_bounds(-0.01)


def test_legacy_scan_bound():
    # (9 + 561a + 3.3*9*(1 + 4.7*9*a^2))*a^2 at a = 0.01, L = 10
    got = legacy_scan_bound(0.99, 10)
    assert got == pytest.approx(4.4435631e-3, rel=1e-12)
    assert isinstance(legacy_scan_bound(0.97, 10), Inapplicable)
    assert legacy_scan_bound(1.0, 10) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_legacy_bounds_reject_non_finite_arguments(bad):
    # a NaN fails every comparison, so the range checks alone let it through
    with pytest.raises(ValueError):
        legacy_bounds(bad)
    with pytest.raises(ValueError):
        legacy_scan_bound(bad, 10)
    with pytest.raises(ValueError):
        legacy_scan_bound(0.99, bad)


# ------------------------------------------------------------ type checking


def test_p_sequence_validation():
    with pytest.raises(ValueError):
        PSequence((0.9, 0.1))  # p_0 != 1
    with pytest.raises(ValueError):
        PSequence((1.0, 0.05, 0.06))  # not monotone
    with pytest.raises(ValueError):
        PSequence((1.0, 0.05, 0.05, 0.05))  # violates p_3 <= p_1**2
    p = PSequence((1.0, 0.05, 0.0025))
    assert p.order == 2 and p.p1 == 0.05 and p.p(2) == 0.0025


def test_q_sequence_validation_and_accessors():
    q = QSequence.from_tail([0.95, 0.91])
    assert q.q(-1) == 1.0 and q.q(0) == 1.0
    assert q.q(1) == 0.95 and q.q(2) == 0.91
    assert q.order == 2
    with pytest.raises(ValueError):
        QSequence((1.0, 0.9, 0.8))  # q_0 must be 1
    with pytest.raises(ValueError):
        QSequence.from_tail([0.9, 0.95])  # not monotone


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sequences_reject_non_finite_values(bad):
    # a NaN fails every comparison, so the range checks alone let it through
    for values in ((1.0, 0.05, bad, 1e-4), (1.0, bad), (bad, 0.05)):
        with pytest.raises(ValueError):
            PSequence(values)
    for values in ((1.0, 1.0, bad), (1.0, 1.0, 0.95, bad), (1.0, bad, 0.9)):
        with pytest.raises(ValueError):
            QSequence(values)


# ------------------------------------------------------------------- series


def test_series_all_zero_tail_is_linear():
    p = PSequence((1.0, 0.0, 0.0, 0.0, 0.0))
    r = c_series_eval(p, 1.0)
    assert r.value == pytest.approx(0.0, abs=1e-15)
    assert r.tail_bound == 0.0
    assert c_series_eval(p, 0.5).value == pytest.approx(0.5, abs=1e-15)


def test_series_geometric_closed_form():
    # sum of the alternating series collapses to 1 - z/(1 + p1*z)
    p1 = 0.05
    p = geometric_p(p1, order=12)
    for z in (0.6, 1.0, 1.02, 1.0 / (1.0 - p1)):
        r = c_series_eval(p, z)
        assert abs(r.value - (1.0 - z / (1.0 + p1 * z))) <= r.tail_bound + 1e-15


def test_series_tolerance_controls_truncation():
    p = geometric_p(0.05, order=12)
    loose = c_series_eval(p, 1.05, tol=1e-6)
    tight = c_series_eval(p, 1.05, tol=1e-20)
    assert loose.tail_bound < 1e-6
    assert tight.tail_bound < loose.tail_bound
    assert abs(loose.value - tight.value) <= loose.tail_bound


def test_series_domain():
    p = geometric_p(0.25)
    with pytest.raises(ValueError):
        c_series_eval(p, 2.0)  # z*sqrt(p1) = 1
    with pytest.raises(ValueError):
        c_series_eval(p, -0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_series_rejects_non_finite_z(bad):
    # p_1 = 0 leaves z*sqrt(p_1) < 1 for every finite z
    for p in (geometric_p(0.25), PSequence((1.0, 0.0, 0.0))):
        with pytest.raises(ValueError):
            c_series_eval(p, bad)


# -------------------------------------------------------------- root solver


def test_lambda_geometric_family():
    p1 = 0.05
    r = solve_lambda(geometric_p(p1, order=14), 0.05)
    lam_true = 1.0 / (1.0 - p1)
    assert abs(r.lam - lam_true) < 1e-10
    assert r.bracket_low == 1.0 and 1.0 < r.lam < r.bracket_high
    # center mu2 = 1 + p1 - p2 + p3 - p4 + 2p1^2 + 3p2^2 - 5p1p2, evaluated
    # by hand at p_k = 0.05**k
    assert r.center_T1 == pytest.approx(1.0520125, abs=1e-12)
    assert abs(lam_true - r.center_T1) == pytest.approx(6.190789e-4, abs=1e-9)
    assert abs(r.lam - r.center_T1) <= r.bound_T1
    assert abs(r.lam - r.center_C1) <= r.bound_C1


def test_lambda_certificate():
    for p1 in (0.01, 0.05, 0.1):
        p = geometric_p(p1, order=14)
        r = solve_lambda(p, p1)
        chk = c_series_eval(p, r.lam)
        assert abs(chk.value) <= r.residual_bound + 1e-12


def test_lambda_within_t1_bound_of_center():
    # the scan block law at m=9, p=0.05, n=5 has a T1 bound near 1e-14, which
    # a bisection stopped at a fixed width of 1e-13 overshot
    p = block_p_sequence(9, 0.05, 5, 8)
    for alpha in (0.1, 0.05):
        r = solve_lambda(p, alpha)
        assert abs(r.lam - r.center_T1) <= r.bound_T1


def test_lambda_degenerate_and_domain():
    p = PSequence((1.0, 0.0, 0.0, 0.0, 0.0))
    r = solve_lambda(p, 0.05)
    assert r.lam == 1.0 and r.bound_C1 == 0.0
    with pytest.raises(ValueError):
        solve_lambda(geometric_p(0.05, order=3), 0.05)  # too short
    with pytest.raises(ValueError):
        solve_lambda(geometric_p(0.05), 0.01)  # alpha below p1
    with pytest.raises(ValueError):
        solve_lambda(geometric_p(0.05), 0.2)


# --------------------------------------------------------------- recursions


def test_qn_closed_forms_random():
    rng = np.random.default_rng(20240811)
    for _ in range(300):
        p = random_p_sequence(rng)
        p1, p2, p3 = p.p(1), p.p(2), p.p(3)
        assert abs(qn_from_p(p, 1) - (1.0 - p1)) < 1e-14
        assert abs(qn_from_p(p, 2) - (1.0 - 2.0 * p1 + p2)) < 1e-14
        assert abs(
            qn_from_p(p, 3) - (1.0 - 3.0 * p1 + 2.0 * p2 + p1 * p1 - p3)
        ) < 1e-14


def test_qn_geometric_is_power():
    p1 = 0.07
    p = geometric_p(p1, order=10)
    for n in range(11):
        assert qn_from_p(p, n) == pytest.approx((1.0 - p1) ** n, abs=1e-13)


def test_qn_length_error():
    with pytest.raises(ValueError):
        qn_from_p(geometric_p(0.05, order=3), 4)


def test_p_from_q_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = random_p_sequence(rng)
        q = QSequence.from_tail([qn_from_p(p, k) for k in range(1, 5)])
        back = p_from_q(q)
        for k in range(4):
            assert abs(back[k] - p.p(k + 1)) < 1e-14


def test_p_from_q_degenerate():
    assert p_from_q(QSequence.from_tail([1.0] * 4)) == (0.0, 0.0, 0.0, 0.0)


# ------------------------------------------------------------- approximants


def test_t4_trivial_and_marker():
    r = approx_qn_T4(1.0, 1.0, 5, 0.0)
    assert isinstance(r, T4Approx)
    assert r.value == 1.0 and r.delta2 == 0.0
    assert isinstance(approx_qn_T4(0.85, 0.80, 3, 0.1), Inapplicable)
    with pytest.raises(ValueError):
        approx_qn_T4(0.99, 0.95, 3, 0.005)  # alpha below 1-q1
    with pytest.raises(ValueError):
        approx_qn_T4(0.99, 0.97, 0, 0.05)  # n must be positive


def test_t4_published_cell_from_rounded_inputs():
    # the printed q1/q2 of one scan table row, fed back through the formula
    r = approx_qn_T4(0.99716, 0.99500, 9, 0.00284)
    assert isinstance(r, T4Approx)
    assert r.value == pytest.approx(0.98001924898, abs=1e-9)
    # against the full bound: the scan table's exact value is 0.98000...
    assert abs(r.value - 0.98000) < r.delta2


def test_t3_trivial_and_triangle():
    r = approx_qn_T3(1.0, 1.0, 1.0, 1.0, 4, 0.0)
    assert isinstance(r, T3Approx)
    assert r.value == 1.0 and r.delta1 == 0.0

    # both approximants target the same q_n, so they sit within the sum of
    # their bounds of each other
    p1 = 1e-3
    p = geometric_p(p1, order=6)
    q = [qn_from_p(p, k) for k in range(1, 5)]
    for n in (1, 3, 8):
        t3 = approx_qn_T3(*q, n, 2e-3)
        t4 = approx_qn_T4(q[0], q[1], n, 2e-3)
        assert isinstance(t3, T3Approx) and isinstance(t4, T4Approx)
        assert abs(t3.value - t4.value) <= t3.delta1 + t4.delta2


def test_t3_validation():
    assert isinstance(approx_qn_T3(0.85, 0.8, 0.7, 0.6, 2, 0.1), Inapplicable)
    with pytest.raises(ValueError):
        approx_qn_T3(0.99, 0.98, 0.985, 0.97, 2, 0.05)  # q3 > q2


def test_centers_trivial_and_geometric():
    zero = PSequence((1.0, 0.0, 0.0, 0.0, 0.0))
    c = approx_qnlambda_centers(zero)
    assert c.mu1 == 1.0 and c.nu1 == 1.0

    p1 = 0.05
    c = approx_qnlambda_centers(geometric_p(p1))
    # hand evaluation of the third-order center at p_k = 0.05**k
    assert c.mu1 == pytest.approx(0.99951875, abs=1e-12)
    assert c.nu1 == pytest.approx(1.0 - p1**2, abs=1e-15)
    # geometric family has q_n * lambda**n = 1 exactly, so the centers must
    # sit within the stated radii of 1
    co = error_coefficients(p1)
    assert abs(1.0 - c.mu1) <= co.Gamma * p1**3
    assert abs(1.0 - c.nu1) <= (3.0 + p1 * co.Gamma) * p1**2


# ---------------------------------------------------------- accuracy oracle

ULP = 2.0**-52  # ulp(1): every approximant and center here lies near 1

# the table grids and the m x p x L sweep of the paper, 71 points (m, p, L, n)
PAPER_GRID = (
    [(9, 0.05, 10, n) for n in range(2, 8)]
    + [(10, 0.0165, 15, n) for n in range(1, 6)]
    + [(m, p, L, n) for m in (8, 10, 12) for p in (0.01, 0.03) for L in (10, 20)
       for n in range(2, 7)]
)


def paper_grid_q():
    """(q_1 .. q_4, L - 1) at every paper grid point, from the exact chain."""
    for m, p, L, n in PAPER_GRID:
        q = block_q_sequence(m, p, n, kmax=4)
        yield tuple(q.q(k) for k in range(1, 5)), L - 1


def test_t4_is_the_printed_q_form_bit_for_bit():
    assert len(PAPER_GRID) == 71
    for (q1, q2, _, _), n in paper_grid_q():
        d = q1 - q2
        r = approx_qn_T4(q1, q2, n, min(1.0 - q1, ALPHA_MAX))
        assert r.value == (2.0 * q1 - q2) / (1.0 + d + 2.0 * d * d) ** n


def test_t3_within_64_ulp_of_the_printed_q_form():
    # T3 is mu1 / T1**n on p = p_from_q(q); the reference is the printed
    # q-form evaluated in 60 digits on the same float q's
    with mpmath.workdps(60):
        for q, n in paper_grid_q():
            r = approx_qn_T3(*q, n, 1.0 - q[0])
            q1, q2, q3, q4 = map(mpmath.mpf, q)
            num = 6 * (q1 - q2) ** 2 + 4 * q3 - 3 * q4
            den = 1 + q1 - q2 + q3 - q4 + 2 * q1 * q1 + 3 * q2 * q2 - 5 * q1 * q2
            assert abs(r.value - num / den**n) <= 64 * ULP


def test_lambda_centers_within_one_ulp():
    checked = 0
    for m in (6, 8, 9, 10, 12):
        for p in (0.01, 0.0165, 0.03, 0.05, 0.08):
            for n in (1, 2, 3, 4):
                ps = block_p_sequence(m, p, n, kmax=4)
                if not 0.0 < ps.p1 <= ALPHA_MAX:
                    continue
                r = solve_lambda(ps, ALPHA_MAX)
                with mpmath.workdps(60):
                    p1, p2, p3, p4 = (mpmath.mpf(ps.p(k)) for k in range(1, 5))
                    t1 = 1 + p1 - p2 + p3 - p4 + 2 * p1 * p1 + 3 * p2 * p2 - 5 * p1 * p2
                    c1 = 1 + p1 - p2 + 2 * (p1 - p2) ** 2
                    assert abs(r.center_T1 - t1) <= ULP
                    assert abs(r.center_C1 - c1) <= ULP
                checked += 1
    assert checked == 88
