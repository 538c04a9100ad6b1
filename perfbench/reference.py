"""Values the benchmark checks scanex against, computed without scanex.

Closed forms for the scan CDF at the two ends of the threshold range,
binomial bounds that hold for every threshold, and the published digits
of the four reference tables.
"""

from __future__ import annotations

import math

EPS = 2.0 ** -52


def chain_allow(trials: int) -> float:
    """Float allowance for a probability built over ``trials`` chain steps:
    one ulp of 1 per step.  Each step rounds every state's mass once, and
    the first-failure recursion below rounds once per trial as well."""
    return trials * EPS


def cdf_no_two_close(m: int, p: float, N: int) -> float:
    """P(S_m(N) <= 1): no two successes within m consecutive trials.

    k successes pairwise at least m apart fit in N trials in
    C(N - (k-1)(m-1), k) ways.
    """
    q = 1.0 - p
    terms = []
    k = 0
    while N - (k - 1) * (m - 1) >= k:
        terms.append(math.comb(N - (k - 1) * (m - 1), k) * p**k * q ** (N - k))
        k += 1
    return math.fsum(terms)


def cdf_no_full_run(m: int, p: float, N: int) -> float:
    """P(S_m(N) <= m - 1): no run of m successes, by first-failure recursion.

    f(j) = 1 for j < m and f(j) = sum_{i<m} p**i q f(j-i-1) otherwise.
    """
    q = 1.0 - p
    f = [1.0] * m
    for j in range(m, N + 1):
        f.append(math.fsum(p**i * q * f[j - i - 1] for i in range(m)))
    return f[N]


def binom_cdf(n: int, m: int, p: float) -> float:
    """P(Bin(m, p) <= n)."""
    return math.fsum(math.comb(m, k) * p**k * (1.0 - p) ** (m - k)
                     for k in range(min(n, m) + 1))


def window_bounds(m: int, p: float, N: int, n: int) -> tuple[float, float]:
    """(union lower bound, one-window upper bound) for P(S_m(N) <= n), N >= m."""
    one = binom_cdf(n, m, p)
    exceed = math.fsum(math.comb(m, k) * p**k * (1.0 - p) ** (m - k)
                       for k in range(n + 1, m + 1))
    return max(0.0, 1.0 - (N - m + 1) * exceed), one


# Published tables, cell by cell, in the renderer's notation (None = dash).
PUBLISHED = {
    1: (
        ("0.100", "1.5347", "38.6302", "4.8630"),
        ("0.050", "1.1893", "21.2853", "2.0642"),
        ("0.025", "1.0835", "17.5663", "1.4391"),
        ("0.010", "1.0313", "15.9265", "1.1592"),
    ),
    2: (
        ("0.100", "480.696", "51.0696"),
        ("0.050", "180.532", "12.0266"),
        ("0.025", "145.202", "6.6300"),
        ("0.010", "131.438", "4.3143"),
    ),
    3: (
        ("2", "0.97131", "0.95181", "0.82715", "0.82582", None, "0.01712"),
        ("3", "0.99716", "0.99500", "0.98001", "0.98000", "0.00032", "0.00010"),
        ("4", "0.99982", "0.99967", "0.99865", "0.99865", "1e-06", "3e-07"),
        ("5", "0.99999", "0.99998", "0.99994", "0.99994", "2e-09", "6e-10"),
        ("6", "1.", "1.", "0.99999", "0.99999", "1e-12", "4e-13"),
        ("7", "1.", "1.", "1.", "1.", "3e-16", "9e-17"),
    ),
    4: (
        ("1", "0.96860", "0.94910", "0.74617", "0.74353", None, "0.02927"),
        ("2", "0.99813", "0.99677", "0.98061", "0.98060", "0.00019", "0.00006"),
        ("3", "0.99993", "0.99987", "0.99922", "0.99922", "2e-07", "8e-08"),
        ("4", "0.99999", "0.99999", "0.99998", "0.99998", "1e-10", "4e-11"),
        ("5", "1.", "1.", "1.", "1.", "4e-14", "1e-14"),
    ),
}

# (table, row, column) of the three published cells that their own defining
# formulas do not reproduce (README, "Known discrepancies").
NOT_REPRODUCIBLE = {(1, 1, 1), (3, 0, 6), (4, 0, 6)}


def table_mismatches(which: int, rows) -> list[str]:
    want = PUBLISHED[which]
    if len(rows) != len(want):
        return [f"table {which}: {len(rows)} rows, published {len(want)}"]
    bad = []
    for i, (got, exp) in enumerate(zip(rows, want)):
        if len(got) != len(exp):
            bad.append(f"table {which} row {i}: {len(got)} cells")
            continue
        for j, (g, w) in enumerate(zip(got, exp)):
            if (which, i, j) not in NOT_REPRODUCIBLE and g != w:
                bad.append(f"table {which} cell ({i},{j}): {g!r} != {w!r}")
    return bad
