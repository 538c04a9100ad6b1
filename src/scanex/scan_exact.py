"""Exact distribution of the discrete scan statistic over Bernoulli trials.

``S_m(N)`` is the largest number of successes in any window of ``m``
consecutive trials among ``N``.  The central object is the CDF value
``P(S_m(N) <= n)``, computed exactly by evolving the occupancy of the last
``m - 1`` trials as a Markov chain with one absorbing failure state.  One
pass of the chain answers every requested trial count on the way.  A
direct enumeration over all ``2**N`` outcomes is included as an independent
cross-check for small ``N``.

The block view groups the trials into stretches of length ``m`` and looks
at ``W_k``, the largest window sum among windows starting inside block
``k`` (adjacent blocks share exactly one window).  The ``W_k`` form a
stationary 1-dependent sequence, which is what connects the scan statistic
to the approximation machinery in :mod:`scanex.extremes`:

* ``block_q_sequence``  ->  q_k = P(max(W_1..W_k) <= n) = P(S_m((k+1)m) <= n)
* ``block_p_sequence``  ->  p_k = P(min(W_1..W_k) > n)

Exact computations refuse to run past hard resource caps (a chain holding
more than ``MAX_CHAIN_STATES = 2**24`` states or masks wider than 63 bits,
``N <= 22`` for enumeration, ``kmax <= 8`` for the joint block law) instead
of silently thrashing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extremes import CapacityError, PSequence, QSequence

__all__ = [
    "MAX_CHAIN_STATES",
    "MAX_BRUTE_N",
    "MAX_BLOCK_K",
    "BernoulliScanSpec",
    "exact_scan_cdf",
    "brute_force_scan_cdf",
    "block_q_sequence",
    "block_p_sequence",
]

MAX_CHAIN_STATES = 1 << 24  # the 2**(m-1) masks of m = 25
MAX_BRUTE_N = 22   # enumeration touches 2**N outcomes
MAX_BLOCK_K = 8    # joint block law: (kmax+1)*m chain steps with flag doubling


@dataclass(frozen=True)
class BernoulliScanSpec:
    """Problem instance: window length m, success probability p, N trials,
    threshold n (the CDF is evaluated at n, i.e. P(S <= n))."""

    m: int
    p: float
    N: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError("p must lie in [0, 1]")


def _popcount_u32(codes: np.ndarray) -> np.ndarray:
    """Per-element bit count of a uint32 array (classic SWAR reduction)."""
    s = codes.astype(np.uint32)
    s = s - ((s >> 1) & np.uint32(0x55555555))
    s = (s & np.uint32(0x33333333)) + ((s >> 2) & np.uint32(0x33333333))
    s = (s + (s >> 4)) & np.uint32(0x0F0F0F0F)
    return ((s * np.uint32(0x01010101)) >> 24).astype(np.int64)


def _live_masks(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks over m - 1 bits with at most n set bits, ascending, and their
    bit counts.  Built bit by bit, so its cost follows the live count, not
    2**(m-1)."""
    masks = np.zeros(1, dtype=np.int64)
    pc = np.zeros(1, dtype=np.int64)
    for bit in range(m - 1):
        grow = pc < n
        masks = np.concatenate((masks, masks[grow] | (1 << bit)))
        pc = np.concatenate((pc, pc[grow] + 1))
    return masks, pc


def _fold(a0: np.ndarray, a1: np.ndarray, q: float, p: float, out: np.ndarray) -> None:
    """Push one trial into every mask, s -> ((s << 1) | bit) mod M, into ``out``.

    ``a0`` holds the mass that may append a failure and ``a1`` the mass that
    may append a success (pass the same array when neither is masked).
    Masks s and s + M/2 merge into 2s and 2s + 1; the merged sums are then
    scaled by q and p.
    """
    M = a0.shape[0]
    if M == 1:
        out[0] = a0[0] * q + a1[0] * p
        return
    half = M >> 1
    merged = a0[:half] + a0[half:]
    np.multiply(merged, q, out=out[0::2])
    if a1 is not a0:
        merged = a1[:half] + a1[half:]
    np.multiply(merged, p, out=out[1::2])


# The chain holds the masks of the last m - 1 trials.  A mask with more than
# n set bits lies inside a window still to be completed (N >= m), so its
# mass dies anyway and is dropped at once.  Then a predecessor s may append
# bit b exactly when popcount(s) + b <= n, at every step.  For a live mask
# s' the predecessor s' >> 1 always may; the one that also holds the oldest
# bit, (s' >> 1) | M/2, may only when popcount(s') < n.  Pruned mass would
# only change the survival before trial m, which callers never read.
#
# Two layouts hold the same chain and give the same per-state values:
#
# * ranked: only the K live masks, stepped by gathering each mask's two
#   predecessors (a dead one reads a zero slot);
# * full: all M = 2**(m-1) masks, folded into a second buffer each step.
#
# The layout follows from K alone: ranked when K < M/2.  Measured at m = 20,
# N = 205 on one core, the ranked gather costs 4.5-7.4 ns per live state
# and step, the fold 1.8-2.7 ns per mask and step, and the chain before
# pruning took 4.9-5.7 ns per mask and step.  Below M/2 the ranked layout
# thus costs under 3.7 ns per mask, and at the largest live count below
# M/2 (K = 0.32 M at m = 20) both layouts cost about the same; above it
# the fold is cheaper.  Neither layout is slower than the unpruned chain.


def _ranked_survival(m: int, p: float, n: int, stops: list[int]) -> list[float]:
    """Pruned chain on the live masks only; total live mass at each stop.

    ``stops`` ascend; the totals equal P(S_m(t) <= n) for stops t >= m.
    """
    masks, pc = _live_masks(m, n)
    K = masks.shape[0]
    low = np.searchsorted(masks, masks >> 1)
    high = np.searchsorted(masks, (masks >> 1) | (1 << (m - 2)))
    high[pc >= n] = K
    weight = np.where(masks & 1, p, 1.0 - p)
    v = np.zeros(K + 1)  # slot K stays zero
    v[0] = 1.0
    live = v[:K]
    a = np.empty(K)
    b = np.empty(K)
    out = []
    t = 0
    for stop in stops:
        for _ in range(stop - t):
            np.take(v, low, out=a)
            np.take(v, high, out=b)
            np.add(a, b, out=a)
            np.multiply(a, weight, out=live)
        t = stop
        out.append(float(live.sum()))
    return out


def _full_survival(m: int, p: float, n: int, stops: list[int]) -> list[float]:
    """Pruned chain on all 2**(m-1) masks; total mass at each stop.

    Dead masks hold zero.  After the fold, a success appended to merged
    mask j is wrong only where j holds n set bits (then 2j + 1 is dead) or
    n - 1 (then only the predecessor without the oldest bit may append it).
    """
    M = 1 << (m - 1)
    q = 1.0 - p
    pc = _live_masks(m - 1, m - 2)[1]  # bit counts of the merged masks j < M/2
    full = 2 * np.flatnonzero(pc == n) + 1
    edge = np.flatnonzero(pc == n - 1)
    edge_odd = 2 * edge + 1
    v = np.zeros(M)
    v[0] = 1.0
    nv = np.empty(M)
    out = []
    t = 0
    for stop in stops:
        for _ in range(stop - t):
            _fold(v, v, q, p, nv)
            nv[full] = 0.0
            nv[edge_odd] = v[edge] * p
            v, nv = nv, v
        t = stop
        out.append(float(v.sum()))
    return out


def _chain_survival(m: int, p: float, n: int, trials) -> tuple[float, ...]:
    """P(S_m(N) <= n) for every N in ``trials``, from one pass of the chain.

    The pass runs to the largest N; runtime is O(N * K) for the K states the
    chosen layout holds.  Raises CapacityError past ``MAX_CHAIN_STATES`` or
    for masks wider than 63 bits.
    """
    if n >= m:
        return tuple(1.0 for _ in trials)
    if m == 1:
        # n = 0 here: every trial is its own window.
        return tuple((1.0 - p) ** N for N in trials)
    stops = sorted({N for N in trials if N >= m})
    at = {}
    if stops:
        if m - 1 > 63:
            raise CapacityError("chain masks limited to 63 bits (m <= 64)")
        M = 1 << (m - 1)
        K = sum(math.comb(m - 1, k) for k in range(n + 1))
        ranked = 2 * K < M
        states = K if ranked else M
        if states > MAX_CHAIN_STATES:
            raise CapacityError(
                f"chain limited to {MAX_CHAIN_STATES} states; m={m}, n={n} needs {states}"
            )
        layout = _ranked_survival if ranked else _full_survival
        at = dict(zip(stops, layout(m, p, n, stops)))
    return tuple(at.get(N, 1.0) for N in trials)


def exact_scan_cdf(spec: BernoulliScanSpec) -> float:
    """P(S_m(N) <= n), exact.

    Degenerate inputs resolve to certainty: n >= m (no window can exceed)
    and N < m (no window exists) both give 1.  Runtime is O(N * K), where K
    is the number of masks of m - 1 bits with at most n set bits, or
    2**(m-1) when that is at least half of them.  A chain of more than
    ``MAX_CHAIN_STATES`` states raises CapacityError.
    """
    return _chain_survival(spec.m, spec.p, spec.n, (spec.N,))[0]


def brute_force_scan_cdf(spec: BernoulliScanSpec) -> float:
    """P(S_m(N) <= n) by summing over all 2**N outcomes.  Oracle use only."""
    m, p, N, n = spec.m, spec.p, spec.N, spec.n
    if N > MAX_BRUTE_N:
        raise CapacityError(f"enumeration limited to N <= {MAX_BRUTE_N}")
    if n >= m or N < m:
        return 1.0
    codes = np.arange(1 << N, dtype=np.uint32)
    total = _popcount_u32(codes)
    weights = np.power(p, total) * np.power(1.0 - p, N - total)
    mask = np.uint32((1 << m) - 1)
    ok = np.ones(codes.shape, dtype=bool)
    for s in range(N - m + 1):
        ok &= _popcount_u32((codes >> np.uint32(s)) & mask) <= n
    return float(weights[ok].sum())


def block_q_sequence(m: int, p: float, n: int, kmax: int) -> QSequence:
    """q_k = P(max(W_1..W_k) <= n) for k = 1..kmax.

    Because the first k blocks span exactly (k+1)*m trials, each term is a
    plain scan CDF value, and one chain pass of (kmax+1)*m trials yields
    them all.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    BernoulliScanSpec(m=m, p=p, N=(kmax + 1) * m, n=n)  # validates the inputs
    return QSequence.from_tail(
        _chain_survival(m, p, n, [(k + 1) * m for k in range(1, kmax + 1)])
    )


def block_p_sequence(m: int, p: float, n: int, kmax: int) -> PSequence:
    """p_k = P(min(W_1..W_k) > n) for k = 1..kmax, by joint dynamic program.

    Unlike the q side this is not a single scan CDF (all blocks must
    exceed), so the chain keeps every mask and is augmented with one flag:
    whether the block currently being filled has already produced a window
    above n.  At each shared window (trial (j+1)*m, j >= 1) block j is
    settled: mass survives only if its flag is set or the shared window
    exceeds, and the flag restarts as the shared window's own exceedance.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    if kmax > MAX_BLOCK_K:
        raise CapacityError(f"joint block law limited to kmax <= {MAX_BLOCK_K}")
    M = 1 << (m - 1) if m > 1 else 1
    if M > MAX_CHAIN_STATES:
        raise CapacityError(f"joint block law limited to {MAX_CHAIN_STATES} masks (m <= 25)")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")

    pc = _live_masks(m, m - 1)[1]
    # does the window completed by appending bit b stay at or below n
    keep0 = (pc <= n).astype(float)
    keep1 = (pc < n).astype(float)
    drop0 = 1.0 - keep0
    drop1 = 1.0 - keep1
    q = 1.0 - p

    v0 = np.zeros(M)  # flag clear
    v0[0] = 1.0
    v1 = np.zeros(M)  # flag set
    nv0 = np.empty(M)
    nv1 = np.empty(M)
    out: list[float] = []
    for t in range(1, (kmax + 1) * m + 1):
        if t < m:
            _fold(v0, v0, q, p, nv0)
            v0, nv0 = nv0, v0
            continue
        settle = t >= 2 * m and t % m == 0
        if settle:
            # settle block t/m - 1 on the shared window
            both = v1 + v0
            _fold(v1 * keep0, v1 * keep1, q, p, nv0)
            _fold(both * drop0, both * drop1, q, p, nv1)
        else:
            _fold(v0 * keep0, v0 * keep1, q, p, nv0)
            _fold(v1 + v0 * drop0, v1 + v0 * drop1, q, p, nv1)
        v0, nv0, v1, nv1 = nv0, v0, nv1, v1
        if settle:
            out.append(float(v0.sum() + v1.sum()))
    return PSequence((1.0, *out))
