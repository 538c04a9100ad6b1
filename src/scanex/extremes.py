"""Distribution of the maximum of a stationary 1-dependent sequence.

Throughout, ``p_n`` denotes the probability that the first ``n`` variables
of the sequence all exceed a fixed level, and ``q_n`` the probability that
they all stay at or below it (so ``p_1 + q_1 = 1``, and ``p_0 = q_0 = 1``
by convention).  For a 1-dependent sequence the two families determine one
another through an inclusion-exclusion recursion, and ``q_n`` behaves like
``mu * lam**-n`` where ``lam`` is the unique small root of the power series

    C(z) = 1 - p_0 z + p_1 z**2 - p_2 z**3 + ...

This module provides:

* the cubic auxiliary root used to confine ``lam`` and the explicit error
  coefficients ``K(alpha)`` and ``Gamma(alpha)`` that make the geometric
  picture quantitative, with third-order accuracy in ``p_1``;
* evaluation of ``C`` with a certified truncation tail, and a bisection
  solver for ``lam`` with explicit bracket and proximity bounds;
* the recursions between the ``p`` and ``q`` families;
* closed-form approximations for ``q_n`` built from ``q_1 .. q_4`` alone,
  with fully explicit error terms (``approx_qn_T3``, ``approx_qn_T4``):
  T4 = nu1 / C1**n and T3 = mu1 / T1**n, the centers at p = p_from_q(q);
* the older third-order bounds with fixed constants 87 and 561, kept for
  comparison on their narrower range ``p_1 <= 0.025``.

Everything is plain-float arithmetic; no state, no caching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ALPHA_MAX",
    "L_MARGIN",
    "Inapplicable",
    "CapacityError",
    "CubicRoot",
    "ErrorCoefficients",
    "PSequence",
    "QSequence",
    "CSeriesValue",
    "LambdaResult",
    "Centers",
    "LegacyBounds",
    "T3Approx",
    "T4Approx",
    "solve_cubic_t2",
    "error_coefficients",
    "legacy_bounds",
    "legacy_scan_bound",
    "c_series_eval",
    "solve_lambda",
    "qn_from_p",
    "p_from_q",
    "approx_qn_T4",
    "approx_qn_T3",
    "approx_qnlambda_centers",
]

# The coefficient formulas hold for any l > t2(alpha)**3 and degrade as l
# grows; one unit in the fourth decimal place (the working precision of the
# reference tables) keeps every strict inequality strict and fixes the
# published coefficient values.
L_MARGIN = 1e-4

# All quantitative statements require alpha = p_1 <= 0.1.
ALPHA_MAX = 0.1

_SLACK = 1e-12  # tolerance for float noise in monotonicity / range checks


class CapacityError(Exception):
    """Raised when an exact computation would exceed its resource cap."""


@dataclass(frozen=True)
class Inapplicable:
    """Marker for a result whose hypotheses are not met (not an error)."""

    reason: str


@dataclass(frozen=True)
class CubicRoot:
    """Root of alpha*t**3 - t + 1 = 0 in (1, 1/sqrt(3*alpha))."""

    t2: float
    l: float  # t2**3, without margin


@dataclass(frozen=True)
class ErrorCoefficients:
    """Coefficients of the third-order error bounds at level alpha.

    ``K`` controls the distance from ``lam`` to its rational center and
    ``Gamma = Lcoef + Ecoef`` the distance from ``q_n * lam**n`` to its
    center; both multiply ``p_1**3``.  ``l`` here includes the working
    margin above the cubic root's cube, and ``eta = 1 + l*alpha``.
    """

    alpha: float
    t2: float
    l: float
    eta: float
    K: float
    Lcoef: float
    Ecoef: float
    Gamma: float


@dataclass(frozen=True)
class PSequence:
    """Exceedance run probabilities p_0 = 1 >= p_1 >= ... >= p_K >= 0.

    ``values[k]`` is ``p_k``.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        v = self.values
        if len(v) < 2:
            raise ValueError("need at least p_0 and p_1")
        if not all(map(math.isfinite, v)):
            raise ValueError("p-sequence values must be finite")
        if abs(v[0] - 1.0) > _SLACK:
            raise ValueError("p_0 must equal 1")
        for k in range(1, len(v)):
            if v[k] < -_SLACK or v[k] > v[k - 1] + _SLACK:
                raise ValueError(f"p-sequence not monotone at index {k}")
        p1 = v[1]
        for k in range(2, len(v)):
            if v[k] > p1 ** ((k + 1) // 2) + _SLACK:
                raise ValueError(f"p_{k} violates the 1-dependent envelope")

    @property
    def order(self) -> int:
        return len(self.values) - 1

    @property
    def p1(self) -> float:
        return self.values[1]

    def p(self, k: int) -> float:
        """p_k, defined for 0 <= k <= order."""
        return self.values[k]


@dataclass(frozen=True)
class QSequence:
    """Partial-maximum CDF values q_{-1} = q_0 = 1 >= q_1 >= ... >= 0.

    Stored with offset: ``values[i]`` is ``q_{i-1}``.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        v = self.values
        if not all(map(math.isfinite, v)):
            raise ValueError("q-sequence values must be finite")
        if len(v) < 2 or abs(v[0] - 1.0) > _SLACK or abs(v[1] - 1.0) > _SLACK:
            raise ValueError("q_{-1} and q_0 must both equal 1")
        for i in range(2, len(v)):
            if v[i] < -_SLACK or v[i] > v[i - 1] + _SLACK:
                raise ValueError(f"q-sequence not monotone at index {i - 1}")

    @classmethod
    def from_tail(cls, tail: "list[float] | tuple[float, ...]") -> "QSequence":
        """Build from (q_1, ..., q_K), prepending the conventional ones."""
        return cls((1.0, 1.0, *map(float, tail)))

    @property
    def order(self) -> int:
        return len(self.values) - 2

    def q(self, n: int) -> float:
        """q_n, defined for -1 <= n <= order."""
        return self.values[n + 1]


@dataclass(frozen=True)
class CSeriesValue:
    value: float
    tail_bound: float


@dataclass(frozen=True)
class LambdaResult:
    """Certified localisation of the root lam of C.

    ``lam`` lies in ``[bracket_low, bracket_high]`` and within ``bound_T1``
    of ``center_T1`` (third order) and ``bound_C1`` of ``center_C1``
    (second order).  ``residual_bound`` certifies ``|C(lam)|`` up to series
    truncation.
    """

    lam: float
    bracket_low: float
    bracket_high: float
    center_T1: float
    bound_T1: float
    center_C1: float
    bound_C1: float
    residual_bound: float


@dataclass(frozen=True)
class Centers:
    """Rational centers for q_n * lam**n: mu1 (third order), nu1 (second)."""

    mu1: float
    nu1: float


@dataclass(frozen=True)
class LegacyBounds:
    bound_th1: float
    bound_th2: float


@dataclass(frozen=True)
class T4Approx:
    value: float
    delta2: float


@dataclass(frozen=True)
class T3Approx:
    value: float
    delta1: float


def solve_cubic_t2(alpha: float) -> CubicRoot:
    """Root of alpha*t**3 - t + 1 in (1, 1/sqrt(3*alpha)), and its cube.

    Newton from t = 1, safeguarded by bisection on the bracket.  The
    polynomial is positive at the left end and negative at the right end
    for every alpha in (0, 0.1], and strictly decreasing between, so the
    root is simple and the iteration cannot stall.
    """
    if not (0.0 < alpha <= ALPHA_MAX):
        raise ValueError("alpha out of range (0, 0.1]")
    lo, hi = 1.0, 1.0 / math.sqrt(3.0 * alpha)
    t = 1.0
    for _ in range(200):
        f = alpha * t * t * t - t + 1.0
        if f > 0.0:
            lo = t
        else:
            hi = t
        fp = 3.0 * alpha * t * t - 1.0
        step = f / fp
        t_new = t - step
        if not (lo < t_new < hi):
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) < 1e-16 * t:
            t = t_new
            break
        t = t_new
    return CubicRoot(t2=t, l=t * t * t)


def error_coefficients(alpha: float) -> ErrorCoefficients:
    """K, L, E and Gamma = L + E at the level alpha, with the working margin.

    Valid for 0 < alpha <= 0.1.  All three coefficients are nondecreasing in
    alpha; K tends to 15 and Gamma to 124.1 as alpha -> 0.
    """
    root = solve_cubic_t2(alpha)
    l = root.l + L_MARGIN
    a = alpha
    eta = 1.0 + l * a

    # K: numerator has a smooth part and an l-dependent part; denominator
    # stays positive because a*eta**2 < 1 on the whole range.
    d = 1.0 - a * eta * eta
    k_num = (11.0 - 3.0 * a) / (1.0 - a) ** 2 + (
        2.0 * l * (1.0 + 3.0 * a)
        * (2.0 + 3.0 * l * a - a * (2.0 - l * a) * eta * eta)
        / d**3
    )
    k_den = 1.0 - 2.0 * a * eta / d**2
    K = k_num / k_den

    Lcoef = (
        3.0 * K * (1.0 + a + 3.0 * a * a) * (1.0 + a + 3.0 * a * a + K * a**3)
        + a**6 * K**3
        + 9.0 * a * (4.0 + 3.0 * a + 3.0 * a * a)
        + 55.0
    )

    e_num = (
        eta**5
        * (1.0 + (1.0 - 2.0 * a) * eta) ** 4
        * (1.0 + a * (eta - 2.0))
        * (1.0 + eta + (1.0 - 3.0 * a) * eta * eta)
    )
    e_den = 2.0 * (1.0 - a * eta * eta) ** 4 * (
        (1.0 - a * eta * eta) ** 2 - a * eta * eta * (1.0 + eta - 2.0 * a * eta) ** 2
    )
    Ecoef = 0.1 + e_num / e_den

    return ErrorCoefficients(
        alpha=a, t2=root.t2, l=l, eta=eta,
        K=K, Lcoef=Lcoef, Ecoef=Ecoef, Gamma=Lcoef + Ecoef,
    )


def legacy_bounds(p1: float) -> LegacyBounds | Inapplicable:
    """Older fixed-constant bounds 87*p1**3 and 561*p1**3.

    Only valid for p1 <= 0.025; beyond that an Inapplicable marker is
    returned rather than an extrapolated number.
    """
    if not (math.isfinite(p1) and p1 >= 0.0):
        raise ValueError("p1 must be finite and nonnegative")
    if p1 > 0.025:
        return Inapplicable("fixed-constant bounds require p1 <= 0.025")
    return LegacyBounds(bound_th1=87.0 * p1**3, bound_th2=561.0 * p1**3)


def legacy_scan_bound(q1: float, L: int) -> float | Inapplicable:
    """Older scan error bound built from the fixed constants, at 1-q1 <= 0.025."""
    a = 1.0 - q1
    if not (math.isfinite(q1) and a >= -_SLACK and math.isfinite(L) and L >= 1):
        raise ValueError("need finite q1 <= 1 and finite L >= 1")
    if a > 0.025:
        return Inapplicable("fixed-constant scan bound requires 1-q1 <= 0.025")
    n = L - 1
    return (9.0 + 561.0 * a + 3.3 * n * (1.0 + 4.7 * n * a * a)) * a * a


def c_series_eval(p: PSequence, z: float, tol: float = 1e-14) -> CSeriesValue:
    """Evaluate C(z) = 1 - p_0 z + p_1 z**2 - ... from the available terms.

    The truncation tail after series index k is dominated term by term via
    p_n <= p_1**floor((n+1)/2), which sums in closed form; summation stops
    as soon as that majorant drops below ``tol``, or when the sequence runs
    out, in which case the achievable ``tail_bound`` is reported instead.
    Requires z*sqrt(p_1) < 1 so the majorant converges (and z >= 0).
    """
    p1 = p.p1
    # stated as what must hold, so a NaN (or inf * inf * 0) fails it
    if not (z >= 0.0 and z * z * p1 < 1.0):
        raise ValueError("need finite 0 <= z and z*sqrt(p_1) < 1")

    def tail_after(k: int) -> float:
        # sum_{j > k} p1**floor(j/2) z**j, exactly
        return (
            p1 ** ((k + 1) // 2) * z ** (k + 1)
            + p1 ** ((k + 2) // 2) * z ** (k + 2)
        ) / (1.0 - p1 * z * z)

    total = 1.0
    sign = -1.0
    zk = 1.0
    tail = tail_after(0)
    for k in range(1, p.order + 2):
        zk *= z
        total += sign * p.p(k - 1) * zk
        sign = -sign
        tail = tail_after(k)
        if tail < tol:
            break
    return CSeriesValue(value=total, tail_bound=tail)


def solve_lambda(p: PSequence, alpha: float) -> LambdaResult:
    """Locate the root lam of C in (1, 1 + l*p_1) by bisection.

    Needs p_1 <= alpha <= 0.1 and at least p_0 .. p_4 to form the centers.
    The bisection runs until the midpoint of the bracket equals one of its
    ends, so lam lies within one ulp of the sign change of the evaluated
    series; ``residual_bound`` is the series tail at the returned point, so
    ``|C(lam)| <= residual_bound`` up to that ulp.
    """
    if not (0.0 < alpha <= ALPHA_MAX):
        raise ValueError("alpha out of range (0, 0.1]")
    if p.order < 4:
        raise ValueError("need p_0 .. p_4")
    p1 = p.p1
    if p1 > alpha + _SLACK:
        raise ValueError("p_1 must not exceed alpha")

    c1, t1, _, _ = _centers(p1, p.p(2), p.p(3), p.p(4))
    coeffs = error_coefficients(alpha)
    bound_t1 = coeffs.K * p1**3
    bound_c1 = (1.0 + alpha * coeffs.K) * p1 * p1
    # p_1 = 0 (every p_k = 0) gives lo = hi = lam = 1 and a zero tail
    lo, hi = 1.0, 1.0 + coeffs.l * p1
    flo = c_series_eval(p, lo)
    fhi = c_series_eval(p, hi)
    # C(1) = q_inf >= 0 and C decreases through the root before hi; equal
    # signs here would mean the input is not a genuine 1-dependent p-sequence.
    if flo.value < -flo.tail_bound - _SLACK or fhi.value > fhi.tail_bound + _SLACK:
        raise RuntimeError("series has no sign change on the root bracket")
    lam = 0.5 * (lo + hi)
    while lo < lam < hi:
        if c_series_eval(p, lam).value > 0.0:
            lo = lam
        else:
            hi = lam
        lam = 0.5 * (lo + hi)
    return LambdaResult(
        lam=lam, bracket_low=1.0, bracket_high=1.0 + coeffs.l * p1,
        center_T1=t1, bound_T1=bound_t1,
        center_C1=c1, bound_C1=bound_c1,
        residual_bound=c_series_eval(p, lam).tail_bound,
    )


def qn_from_p(p: PSequence, n: int) -> float:
    """q_n via the inclusion-exclusion recursion; needs p_0 .. p_n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > p.order:
        raise ValueError("p-sequence too short for requested n")
    q = [1.0, 1.0]  # q_{-1}, q_0
    for i in range(1, n + 1):
        acc = 0.0
        sign = 1.0 if i % 2 == 0 else -1.0  # sign of (-1)**(i-k) at k = 0
        for k in range(0, i + 1):
            acc += sign * p.p(i - k) * q[k]
            sign = -sign
        q.append(acc)
    return q[n + 1]


def _centers(p1: float, p2: float, p3: float, p4: float) -> tuple[float, ...]:
    """The rational centers (C1, T1, nu1, mu1) at (p_1, .., p_4).

    C1 and T1 center lam to second and third order, nu1 and mu1 center
    q_n * lam**n.  T1 and mu1 sum their small terms before adding 1.  C1
    keeps the order 1 + d + 2 d**2 of the printed two-term approximant, so
    that nu1 / C1**n is that approximant bit for bit.
    """
    d = p1 - p2
    c1 = 1.0 + d + 2.0 * d * d
    t1 = 1.0 + (d + p3 - p4 + 2.0 * p1 * p1 + 3.0 * p2 * p2 - 5.0 * p1 * p2)
    mu1 = 1.0 - (p2 - 2.0 * p3 + 3.0 * p4 - p1 * p1 - 6.0 * p2 * p2 + 6.0 * p1 * p2)
    return c1, t1, 1.0 - p2, mu1


def _p_from_complements(a) -> tuple[float, ...]:
    """(p_1, .., p_K) from the complements (a_1, .., a_K), a_k = 1 - q_k.

    The recursion of ``qn_from_p`` run backward, with a_0 = 0:

        (-1)**(i+1) p_i = a_i + sum_{1<=j<i} (-1)**j p_j
                              - sum_{0<=j<=i-2} (-1)**j p_j a_{i-1-j}.

    No term carries a 1, so small p's keep the accuracy of the a's.  The
    correction terms are summed first and a_i added last, which makes
    p_2 = fl(2 a_1 - a_2) exactly.
    """
    p = [1.0]
    for i, ai in enumerate(a, start=1):
        acc = 0.0
        for j in range(i - 1):  # the j+1 term of the first sum, the j term of the second
            acc += (p[j + 1] + p[j] * a[i - 2 - j]) * (1.0 if j % 2 else -1.0)
        s = ai + acc
        p.append(s if i % 2 else 0.0 - s)  # 0 - s keeps a zero p_i positive
    return tuple(p[1:])


def p_from_q(q: QSequence) -> tuple[float, float, float, float]:
    """Invert the recursion for the first four terms: (p_1, p_2, p_3, p_4)."""
    if q.order < 4:
        raise ValueError("need q_1 .. q_4")
    return _p_from_complements([1.0 - q.q(k) for k in range(1, 5)])


def _approximant(q: tuple, n: int, alpha: float, third_order: bool,
                 coeffs: ErrorCoefficients | None = None):
    """Check (q_1, .., q_4) and return (value, bound) of the four-term
    approximant mu1 / T1**n or the two-term nu1 / C1**n, the centers at
    p = p_from_q(q); or Inapplicable when 1 - q1 > 0.1.  ``coeffs`` are
    ``error_coefficients(alpha)``, computed here when not given."""
    q1, q2, q3, q4 = q
    if not (0.0 <= q2 <= q1 + _SLACK and q1 <= 1.0 + _SLACK):
        raise ValueError("need 0 <= q2 <= q1 <= 1")
    if not (third_order or 2.0 * q1 - q2 <= 1.0 + _SLACK):
        raise ValueError("need 2*q1 - q2 <= 1 (equivalently p_2 >= 0)")
    if not (0.0 <= q4 <= q3 + _SLACK and q3 <= q2 + _SLACK):
        raise ValueError("need 0 <= q4 <= q3 <= q2")
    if n < 1:
        raise ValueError("n must be positive")
    a1 = 1.0 - q1
    if a1 > ALPHA_MAX:
        kind = "four-term" if third_order else "two-term"
        return Inapplicable(f"{kind} approximation requires 1-q1 <= 0.1")
    if not (a1 <= alpha + _SLACK and alpha <= ALPHA_MAX + _SLACK):
        raise ValueError("alpha must lie in [1-q1, 0.1]")
    if alpha <= 0.0:
        # q1 = 1 forces q2 = 1 for a valid q-sequence: degenerate exact case.
        return 1.0, 0.0
    if coeffs is None:
        coeffs = error_coefficients(alpha)
    c1, t1, nu1, mu1 = _centers(*_p_from_complements([1.0 - qk for qk in q]))
    if third_order:
        return mu1 / t1**n, (coeffs.Gamma + n * coeffs.K) * a1**3
    return nu1 / c1**n, (3.0 + coeffs.Gamma * a1 + n * (1.0 + coeffs.K * a1)) * a1 * a1


def approx_qn_T4(q1: float, q2: float, n: int, alpha: float) -> T4Approx | Inapplicable:
    """Two-term approximation of q_n with full error bound delta2.

        q_n ~ (2 q1 - q2) / (1 + q1 - q2 + 2 (q1 - q2)**2)**n

    Uses only q_1 and q_2.  Requires 1 - q1 <= alpha <= 0.1; when
    1 - q1 > 0.1 the result is Inapplicable.  ``delta2`` already includes
    the (1 - q1)**2 factor, so |q_n - value| <= delta2.
    """
    # q_3 = q_4 = q_2 only fill the third-order slots, which T4 leaves unread
    r = _approximant((q1, q2, q2, q2), n, alpha, third_order=False)
    return r if isinstance(r, Inapplicable) else T4Approx(*r)


def approx_qn_T3(
    q1: float, q2: float, q3: float, q4: float, n: int, alpha: float
) -> T3Approx | Inapplicable:
    """Four-term approximation of q_n with full error bound delta1.

    Third-order accurate in 1 - q1: |q_n - value| <= delta1 with delta1
    proportional to (1 - q1)**3.  Same applicability range as the two-term
    form.
    """
    r = _approximant((q1, q2, q3, q4), n, alpha, third_order=True)
    return r if isinstance(r, Inapplicable) else T3Approx(*r)


def approx_qnlambda_centers(p: PSequence) -> Centers:
    """Centers for the limit of q_n * lam**n: third order mu1, second order nu1.

    |q_n lam**n - mu1| <= Gamma p_1**3 and |q_n lam**n - nu1| <= (3 + alpha
    Gamma) p_1**2 for all n >= 1, with Gamma at any alpha >= p_1 in range.
    """
    if p.order < 4:
        raise ValueError("need p_0 .. p_4")
    _, _, nu1, mu1 = _centers(p.p(1), p.p(2), p.p(3), p.p(4))
    return Centers(mu1=mu1, nu1=nu1)
