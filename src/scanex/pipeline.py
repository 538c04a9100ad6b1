"""End-to-end approximation of the scan statistic CDF with error bounds.

Ties the exact block computations to the 1-dependent approximation theory:
``scan_approximation`` produces the two-term (and optionally four-term)
approximation of ``P(S_m(Lm) <= n)`` together with the new error bound ``E``
and the older fixed-constant bound ``EH``; ``sandwich`` brackets a general
trial count between two exactly computed multiples of ``m``.  Those two
import the chain of ``scan_exact`` when they run, so the rest of this
module, tables 1 and 2 included, loads without numpy.

``reproduce_table`` regenerates the four reference tables shipped with the
package documentation.  ``_coeff_cells`` and ``_report_cells`` give a
record's raw values or its display cells under the same column names.  The
display follows the tables' own conventions, which truncate rather than
round at the last kept digit:

* probabilities: round to 6 decimals first (collapsing float dust), print
  "1." for anything reaching 1, otherwise truncate to 5 decimals;
* error bounds: same 6-then-5 treatment while at least 1e-5 survives,
  otherwise scientific notation with a truncated single-digit mantissa;
* coefficient tables: l and the derived columns 1 + alpha*K, 3 +
  alpha*Gamma truncate to 4 decimals, K rounds to 4, Gamma rounds to 3,
  and the printed derived columns are computed from the printed (rounded)
  K and Gamma; the raw ones from the full-precision K and Gamma.

Three cells of the published originals cannot be regenerated from their
own defining formulas; the renderer stays with the formulas.  See the
"Known discrepancies" section of the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_DOWN, Decimal

from .extremes import (
    ErrorCoefficients,
    Inapplicable,
    approx_qn_T3,
    approx_qn_T4,
    error_coefficients,
    legacy_scan_bound,
)

__all__ = [
    "COEFF_TABLE_ALPHAS",
    "SCAN_TABLE_PARAMS",
    "ScanReport",
    "SandwichResult",
    "TableResult",
    "truncate",
    "format_probability",
    "format_bound",
    "scan_approximation",
    "sandwich",
    "reproduce_table",
]

COEFF_TABLE_ALPHAS = (0.100, 0.050, 0.025, 0.010)

# (m, p, L, thresholds) for the two scan tables
SCAN_TABLE_PARAMS = {
    3: (9, 0.05, 10, tuple(range(2, 8))),
    4: (10, 0.0165, 15, tuple(range(1, 6))),
}


def truncate(x: float, digits: int) -> float:
    """Truncate toward zero at the given decimal place.

    Works on the shortest decimal representation of the float, so values
    that print as an exact boundary (say 0.99999) truncate to themselves
    rather than falling one ulp short.
    """
    q = Decimal(1).scaleb(-digits)
    return float(Decimal(repr(x)).quantize(q, rounding=ROUND_DOWN))


def format_probability(x: float) -> str:
    """Probability cell: 5 truncated decimals, or "1." once rounding reaches 1."""
    r = round(x, 6)
    if r >= 1.0:
        return "1."
    return f"{truncate(r, 5):.5f}"


def format_bound(x: float) -> str:
    """Bound cell: fixed 5 decimals while anything survives truncation,
    otherwise single-digit scientific notation, mantissa truncated."""
    if x < 0.0:
        raise ValueError("bounds are nonnegative")
    if x == 0.0:
        return "0.00000"
    t = truncate(round(x, 6), 5)
    if t >= 1e-5:
        return f"{t:.5f}"
    d = Decimal(repr(x))  # the shortest decimal, as in ``truncate``
    return f"{d.as_tuple().digits[0]}e{d.adjusted():+03d}"


@dataclass(frozen=True, slots=True)
class ScanReport:
    """Approximation summary for P(S_m(Lm) <= n).

    ``alpha_used`` is 1 - q1 exactly.  When it exceeds the supported range
    the approximation fields are None and ``range_exceeded`` is set; the
    block probabilities (and the exact value, if requested) are still
    reported.  ``EH`` is None whenever 1 - q1 > 0.025, the older bound's
    range.  ``E`` and ``E_T3`` are complete bounds: |approx - exact| <= E.
    """

    m: int
    p: float
    L: int
    n: int
    q1: float
    q2: float
    alpha_used: float
    approx_T4: float | None
    E: float | None
    EH: float | None
    exact: float | None = None
    q3: float | None = None
    q4: float | None = None
    approx_T3: float | None = None
    E_T3: float | None = None
    range_exceeded: bool = False


@dataclass(frozen=True, slots=True)
class SandwichResult:
    lower: float
    upper: float
    L: int


@dataclass(frozen=True)
class TableResult:
    """Rendered table: header names plus rows of cell strings (None = dash)."""

    headers: tuple[str, ...]
    rows: tuple[tuple[str | None, ...], ...]


def scan_approximation(
    m: int,
    p: float,
    L: int,
    n: int,
    want_exact: bool = False,
    want_T3: bool = False,
) -> ScanReport:
    """Approximate P(S_m(Lm) <= n) from q1 and q2 alone.

    q1 and q2 are computed exactly (2m and 3m trials), the level is set to
    alpha = 1 - q1, and the two-term approximation is raised to the power
    L - 1, the number of blocks.  ``want_T3`` additionally computes q3, q4
    and the four-term approximation; ``want_exact`` also reads the exact
    value at L*m trials.  One chain pass yields every block count needed.
    """
    from .scan_exact import BernoulliScanSpec, _chain_survival

    if L < 2:
        raise ValueError("need L >= 2 (at least one complete block)")
    BernoulliScanSpec(m=m, p=p, N=L * m, n=n)  # validates the inputs
    blocks = [2, 3] + ([L] if want_exact else []) + ([4, 5] if want_T3 else [])
    cdf = dict(zip(blocks, _chain_survival(m, p, n, [k * m for k in blocks])))
    q1, q2 = cdf[2], cdf[3]
    alpha = 1.0 - q1
    exact = cdf[L] if want_exact else None
    q3 = q4 = None
    if want_T3:
        q3, q4 = cdf[4], cdf[5]

    # beyond 1 - q1 = 0.1 both approximants are Inapplicable, and so is the
    # older bound, whose range ends at 0.025
    t4 = approx_qn_T4(q1, q2, L - 1, alpha)
    fits = not isinstance(t4, Inapplicable)
    t3 = approx_qn_T3(q1, q2, q3, q4, L - 1, alpha) if fits and want_T3 else None
    eh = legacy_scan_bound(q1, L)
    return ScanReport(
        m=m, p=p, L=L, n=n, q1=q1, q2=q2, alpha_used=alpha,
        approx_T4=t4.value if fits else None, E=t4.delta2 if fits else None,
        EH=None if isinstance(eh, Inapplicable) else eh,
        exact=exact, q3=q3, q4=q4,
        approx_T3=t3.value if t3 else None, E_T3=t3.delta1 if t3 else None,
        range_exceeded=not fits,
    )


def sandwich(m: int, p: float, N: int, n: int) -> SandwichResult:
    """Exact bracket for P(S_m(N) <= n) when N is not a multiple of m.

    With L = N // m, the CDF is nonincreasing in the trial count, so the
    exact values at (L+1)m and Lm trials enclose it.  Both ends come from
    one chain pass; they are exact values, not approximations.  N < m is
    degenerate (no window): both ends are 1.
    """
    from .scan_exact import BernoulliScanSpec, _chain_survival

    spec = BernoulliScanSpec(m=m, p=p, N=N, n=n)  # validates the inputs
    L = spec.N // spec.m
    if L == 0:
        return SandwichResult(lower=1.0, upper=1.0, L=0)
    lower, upper = _chain_survival(m, p, n, ((L + 1) * m, L * m))
    return SandwichResult(lower=lower, upper=upper, L=L)


def _truncate4(x: float) -> str:
    return f"{truncate(x, 4):.4f}"


def _coeff_cells(c: ErrorCoefficients, display: bool) -> dict[str, float | str]:
    """The coefficients at one level keyed by column name: the raw values,
    or with ``display`` the cells under the coefficient-table rules of the
    module docstring."""
    K, Gamma = (round(c.K, 4), round(c.Gamma, 3)) if display else (c.K, c.Gamma)
    columns = (
        ("alpha", c.alpha, "{:.3f}".format),
        ("t2", c.t2, "{:.6f}".format),
        ("l", c.l, _truncate4),
        ("eta", c.eta, "{:.6f}".format),
        ("K", K, "{:.4f}".format),
        ("L", c.Lcoef, "{:.3f}".format),
        ("E", c.Ecoef, "{:.3f}".format),
        ("Gamma", Gamma, "{:.3f}".format),
        ("1+alpha*K", 1.0 + c.alpha * K, _truncate4),
        ("3+alpha*Gamma", 3.0 + c.alpha * Gamma, _truncate4),
    )
    return {name: rule(v) if display else v for name, v, rule in columns}


def _coeff_table(which: int) -> TableResult:
    headers = ("alpha", "l", "K", "1+alpha*K") if which == 1 else (
        "alpha", "Gamma", "3+alpha*Gamma")
    cells = [_coeff_cells(error_coefficients(a), True) for a in COEFF_TABLE_ALPHAS]
    return TableResult(
        headers=headers, rows=tuple(tuple(c[h] for h in headers) for c in cells)
    )


# (column, ScanReport field, display rule)
_REPORT_COLUMNS = (
    ("q1", "q1", format_probability),
    ("q2", "q2", format_probability),
    ("approx", "approx_T4", format_probability),
    ("exact", "exact", format_probability),
    ("EH", "EH", format_bound),
    ("E", "E", format_bound),
    ("q3", "q3", format_probability),
    ("q4", "q4", format_probability),
    ("approx_T3", "approx_T3", format_probability),
    ("E_T3", "E_T3", format_bound),
)


def _report_cells(r: ScanReport, display: bool) -> dict[str, float | str | None]:
    """The probabilities and bounds of a report keyed by column name: the
    raw values, or with ``display`` the cells under the probability and
    bound rules of the module docstring.  A missing value is None either
    way."""
    cells = {}
    for name, field, rule in _REPORT_COLUMNS:
        v = getattr(r, field)
        cells[name] = rule(v) if display and v is not None else v
    return cells


def _scan_table(which: int) -> TableResult:
    m, p, L, thresholds = SCAN_TABLE_PARAMS[which]
    headers = ("n", "q1", "q2", "approx", "exact", "EH", "E")
    rows = []
    for n in thresholds:
        cells = _report_cells(scan_approximation(m, p, L, n, want_exact=True), True)
        rows.append((str(n), *(cells[h] for h in headers[1:])))
    return TableResult(headers=headers, rows=tuple(rows))


def reproduce_table(which: int) -> TableResult:
    """Regenerate reference table 1, 2, 3 or 4 as rendered cell strings."""
    if which in (1, 2):
        return _coeff_table(which)
    if which in (3, 4):
        return _scan_table(which)
    raise ValueError("table number must be 1, 2, 3 or 4")
