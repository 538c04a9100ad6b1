"""Exact distribution of the discrete scan statistic over Bernoulli trials.

``S_m(N)`` is the largest number of successes in any window of ``m``
consecutive trials among ``N``.  The central object is the CDF value
``P(S_m(N) <= n)``, computed exactly by a Markov chain over the C(m, n)
ways the next m trials can still spend a budget of n successes (the
minimal automaton of the question), run backward from the end.  One pass
answers every requested trial count on the way.  A direct enumeration
over all ``2**N`` outcomes is included as an independent cross-check for
small ``N``.

Which engine evaluates the chain, its proven and measured error, its
caps and the memory it takes are stated once, in ``_chain_survival``;
the public functions below refer to it.

The block view groups the trials into stretches of length ``m`` and looks
at ``W_k``, the largest window sum among windows starting inside block
``k`` (adjacent blocks share exactly one window).  The ``W_k`` form a
stationary 1-dependent sequence, which is what connects the scan statistic
to the approximation machinery in :mod:`scanex.extremes`:

* ``block_q_sequence``  ->  q_k = P(max(W_1..W_k) <= n) = P(S_m((k+1)m) <= n)
* ``block_p_sequence``  ->  p_k = P(min(W_1..W_k) > n), from the same chain's
  tails through the inverse of the q recursion

Exact computations refuse to run past hard resource caps instead of
silently thrashing; enumeration stops at ``N <= 22``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .extremes import CapacityError, PSequence, QSequence, _p_from_complements

__all__ = [
    "MAX_CHAIN_STATES",
    "MAX_STATE_STEPS",
    "MAX_BRUTE_N",
    "BernoulliScanSpec",
    "exact_scan_cdf",
    "brute_force_scan_cdf",
    "block_q_sequence",
    "block_p_sequence",
]

# C(m, n) chain states, at a peak of 32 (1 + n/m) bytes each (two vectors,
# the weights and the successor index; the index build peaks near 27 bytes):
# every n fits up to m = 26, where C(26, 13) = 10 400 600 states take 0.5 GB.
# The successor index of a chain of at most 2**14 states (at most 256 KiB)
# is kept across calls, 64 of them at most: 16 MiB retained in all.  Its
# split index holds two positions of at most 16 bits for each of at most
# 2 S blocks (at most 128 KiB), 64 of them at most: 8 MiB.
# A chain of S <= 256 states takes binary powers of its dense tail operator
# when S**2 * N.bit_length() <= 400 * N.  Measured with numpy 2.4.6 and
# OpenBLAS on 2 CPUs: a step of a small chain costs 1.5-5 us of numpy
# dispatch whatever S is, and powers win from about 1000 * N at S <= 84 and
# 400 * N at S = 210, so 400 keeps them to the inputs where they win.  Past
# 256 states the squarings' S**3 arithmetic, not dispatch, sets their cost,
# and the powers' 2 (S + 1)**2 doubles would grow with N without bound.
MAX_CHAIN_STATES = 1 << 24
# A stepped pass costs about 3.5 ns per state and step at C(20, 10) states,
# so 2**36 state-steps is about 4 minutes.  Powers are exempt: S <= 256 and
# log N squarings bound their work.
MAX_STATE_STEPS = 1 << 36
_CACHED_CHAIN_STATES = 1 << 14
_POWER_CHAIN_STATES = 1 << 8
_POWER_COST = 400
MAX_BRUTE_N = 22   # enumeration touches 2**N outcomes


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


# The chain is the minimal automaton of the question "has any window of m
# trials held more than n successes?".  Given the past, let cap(k) be the
# largest number of successes the next k trials may hold without any window
# exceeding n.  The window that ends at future trial k allows n minus the
# successes among the last m - k past trials, a bound that never falls as k
# grows; closing it under cap(k) <= cap(k - 1) + 1 gives a path from
# cap(0) = 0 to cap(m) = n in steps of 0 or 1.  Pasts with the same path have
# the same future, so they merge into one state: the word w whose bit k - 1
# is d_k = cap(k) - cap(k - 1), m bits with exactly n ones.  Moore refinement
# of the mask chain finds exactly these C(m, n) classes for every m <= 10
# (tests/test_scan_exact.py), against up to 2**(m-1) masks: n = m - 1 needs
# only m states.
#
# With y = w >> 1, the next trial maps w to
#
# * success (needs d_1 = 1, w odd): y | 1 << (m - 1), every cap drops by one
#   and the window ending m trials ahead gets its full n;
# * failure: y if w is even; if w is odd, the unit d_1 held is free again and
#   moves to the lowest zero bit, y | (y + 1).
#
# The empty past, cap(k) = min(k, n), is w0 = (1 << n) - 1.  The chain runs
# backward: u_0 = 1 and u_{t+1}(w) = q u_t(fail(w)) + p [w odd] u_t(succ(w))
# is the chance that t more trials from w keep every window at or below n.
# So P(S_m(N) <= n) = u_N(w0) for N >= m, and one pass reads every stop.
# Before trial m, u_N(w0) also counts the windows cut short by the start,
# which callers never read.
#
# The tail v_t = 1 - u_t obeys the same recursion plus p on every even word,
# whose success exceeds n: v_0 = 0 and v_{t+1}(w) = q v_t(fail(w))
# + p [w odd] v_t(succ(w)) + p [w even].  Run directly, it gives
# P(S_m(N) > n) to its own relative precision, where 1 - u_N(w0) keeps only
# the absolute precision of a number near 1.


def _budget_words(m: int, n: int) -> np.ndarray:
    """The C(m, n) words of m bits with n ones: even words, then odd words,
    each block ascending.  Bits are placed from bit 1 up and bit 0 last, and
    a prefix is kept only while it can still reach n ones, so the cost
    follows C(m, n), not 2**m."""
    words = np.zeros(1, dtype=np.int64)
    ones = np.zeros(1, dtype=np.int8)  # counts stay below 64; a byte keeps the build small
    for i, bit in enumerate((*range(1, m), 0)):
        zero = ones >= n - (m - 1 - i)
        one = ones < n
        words = np.concatenate((words[zero], words[one] | (1 << bit)))
        ones = np.concatenate((ones[zero], ones[one] + 1))
    return words


_INDEX_CHUNK = 1 << 14  # successors placed per binary search


def _successor_index(m: int, n: int) -> np.ndarray:
    """Positions, in ``_budget_words(m, n)`` order, of every word's failure
    successor and then of every odd word's success successor.

    Rotating a word right by one bit maps the state order onto ascending
    keys, so a position is a binary search among the keys.  Successors are
    placed a chunk at a time, so the build needs little beyond the keys and
    the index itself.
    """
    S, E = math.comb(m, n), math.comb(m - 1, n)
    top = 1 << (m - 1)
    keys = _budget_words(m, n)
    keys >>= 1  # rotate right in place: y = w >> 1,
    keys[E:] |= top  # and bit 0 of the odd words moves to the top
    idx = np.empty(2 * S - E, dtype=np.int64)
    at = 0
    for lo, hi, step in ((0, E, lambda y: y),             # failure, even word
                         (E, S, lambda y: y | (y + 1)),   # failure, odd word
                         (E, S, lambda y: y | top)):      # success, odd word
        for a in range(lo, hi, _INDEX_CHUNK):
            w = step(keys[a:min(hi, a + _INDEX_CHUNK)] & (top - 1))
            idx[at:at + w.shape[0]] = np.searchsorted(keys, (w >> 1) | ((w & 1) << (m - 1)))
            at += w.shape[0]
    return idx


@functools.lru_cache(maxsize=64)
def _cached_successor_index(m: int, n: int) -> np.ndarray:
    """``_successor_index(m, n)``, built once per (m, n) for small chains
    and read-only, so callers may share it."""
    idx = _successor_index(m, n)
    idx.flags.writeable = False
    return idx


def _chain(m: int, p: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The successor index of ``_successor_index(m, n)`` and the weight of
    each entry: q for a failure successor, p for a success successor."""
    S, E = math.comb(m, n), math.comb(m - 1, n)
    build = _cached_successor_index if S <= _CACHED_CHAIN_STATES else _successor_index
    return build(m, n), np.concatenate((np.full(S, 1.0 - p), np.full(S - E, p)))


def _survival_vectors(m: int, p: float, n: int, stops, tail: bool = False):
    """Yield u_t over the words of ``_budget_words(m, n)`` at each of the
    ascending ``stops``, as a view of a buffer the next step overwrites;
    with ``tail``, yield v_t = 1 - u_t instead.

    A step is one gather of the S = C(m, n) failure successors and the
    C(m - 1, n - 1) success successors, one scaling by q or p and one add
    into the odd block; the tail form adds p to the even block as well.
    """
    S, E = math.comb(m, n), math.comb(m - 1, n)
    idx, weight = _chain(m, p, n)
    # take copies a read-only index on every call; copy a shared one once
    idx = np.require(idx, requirements="W")
    size = idx.shape[0]
    start = np.zeros(size) if tail else np.ones(size)
    cur, nxt = ((u, u[:E], u[E:S], u[S:]) for u in (start, np.empty(size)))
    t = 0
    for stop in stops:
        for _ in range(stop - t):
            u, even, odd, succ = nxt
            # every index is in range; "clip" skips a buffered bounds check
            cur[0].take(idx, out=u, mode="clip")
            np.multiply(u, weight, out=u)
            np.add(odd, succ, out=odd)
            if tail:
                np.add(even, p, out=even)
            cur, nxt = nxt, cur
        t = stop
        yield cur[0][:S]


def _start(m: int, n: int) -> int:
    """Position of the empty past w0 = (1 << n) - 1, the first odd word."""
    return math.comb(m - 1, n) if n else 0


@functools.lru_cache(maxsize=64)
def _split_index(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The states sigma and tau reached by reading each block of m - 1
    trials with at most n successes forward and backward from w0.

    Blocks are grouped by their number of successes j, ascending, so the
    C(m - 1, j) blocks of each j are contiguous.  A block never exceeds the
    budget on the way, so every success lands on an odd word, whose success
    successor sits S - E entries after its failure successor in the index.
    Positions are stored in the narrowest unsigned type that holds S - 1.
    Built once per (m, n), for chains that ``_chain_survival`` splits.
    """
    S, E = math.comb(m, n), math.comb(m - 1, n)
    idx = _cached_successor_index(m, n)
    codes = np.zeros(1, dtype=np.int64)  # bit i - 1 is trial i of the block
    ones = np.zeros(1, dtype=np.int8)
    for i in range(m - 1):
        one = ones < n
        codes = np.concatenate((codes, codes[one] | (1 << i)))
        ones = np.concatenate((ones, ones[one] + 1))
    codes = codes[np.argsort(ones, kind="stable")]
    out = []
    for order in (range(m - 1), range(m - 2, -1, -1)):
        at = np.full(codes.shape, _start(m, n), dtype=np.int64)
        for i in order:
            at = idx.take(at + ((codes >> i) & 1) * (S - E))
        at = at.astype(np.min_scalar_type(S - 1))
        at.flags.writeable = False
        out.append(at)
    return tuple(out)


def _split_survival(m: int, p: float, n: int, stops, tail: bool) -> dict[int, float]:
    """P(S_m(N) <= n), or with ``tail`` P(S_m(N) > n), for each of the
    ascending ``stops`` N >= m, from u (or v) at about (N - m + 1) / 2.

    No window of m trials meets both sides of a block beta of m - 1 trials,
    so given beta the two sides stay at or below n independently.  Read
    backward, the left side of l trials is a chain run from tau(beta); the
    right side of r trials is one run from sigma(beta).  With
    l = (N - m + 1) // 2 and r = N - m + 1 - l:

        P(S_m(N) <= n) = sum_beta P(beta) u_l(tau beta) u_r(sigma beta)
        P(S_m(N) > n)  = P(Bin(m - 1, p) > n)
                         + sum_beta P(beta) [a + (1 - a) v_r(sigma beta)],
                         a = v_l(tau beta)

    over the blocks with at most n successes, P(beta) = p**j q**(m - 1 - j).
    Every term is non-negative.  A pass steps to the largest r and gathers
    u at each l and r it reaches; r - l is 0 or 1, so it holds at most two
    gathered left sides, whatever the number of stops.
    """
    sigma, tau = _split_index(m, n)
    q = 1.0 - p
    weight = np.repeat([p**j * q**(m - 1 - j) for j in range(n + 1)],
                       [math.comb(m - 1, j) for j in range(n + 1)])
    rest = math.fsum(math.comb(m - 1, j) * p**j * q**(m - 1 - j)
                     for j in range(n + 1, m)) if tail else 0.0
    lefts, rights = set(), {}
    for N in stops:
        k = N - m + 1
        lefts.add(k // 2)
        rights.setdefault(k - k // 2, []).append((N, k // 2))
    steps = sorted(lefts | rights.keys())
    out, kept = {}, {}
    for t, u in zip(steps, _survival_vectors(m, p, n, steps, tail)):
        kept = {t - 1: kept[t - 1]} if t - 1 in kept else {}  # all a right side can need
        if t in lefts:
            kept[t] = u.take(tau)
        if t in rights:
            b = u.take(sigma)
            for N, l in rights[t]:
                a = kept[l]
                terms = a + (1.0 - a) * b if tail else a * b
                out[N] = rest + float((weight * terms).sum())
    return out


def _chain_powers(m: int, p: float, n: int, stops) -> list[tuple[float, float]]:
    """(P(S_m(N) <= n), P(S_m(N) > n)) for each of the ascending ``stops``,
    from binary powers of the tail operator.

    A is the (S + 1) x (S + 1) matrix of the tail recursion, built from
    ``_chain``: row w holds q at fail(w), p at succ(w) if w is odd, and p in
    the last column if w is even; the last row keeps the constant, A[S, S] = 1.
    Row w0 of A**N then holds v_N(w0) in its last column and the survival
    operator's row, whose sum is u_N(w0), in the others.  Each stop starts
    from row w0 of the identity and takes the powers A**(2**j) of its set
    bits, lowest first, so its value does not depend on the other stops.
    Every entry is non-negative, so nothing cancels: the survival is
    1 - v_N(w0) while the tail is at most 1/2, and the row sum beyond.
    """
    S, E = math.comb(m, n), math.comb(m - 1, n)
    idx, weight = _chain(m, p, n)
    A = np.zeros((S + 1, S + 1))
    A[np.concatenate((np.arange(S), np.arange(E, S))), idx] = weight
    A[:E, S] = p
    A[S, S] = 1.0
    start = np.zeros(S + 1)
    start[_start(m, n)] = 1.0
    rows = [start] * len(stops)
    for j in range(stops[-1].bit_length()):
        if j:
            A = A @ A
        for i, N in enumerate(stops):
            if N >> j & 1:
                rows[i] = rows[i] @ A
    out = []
    for r in rows:
        t = float(r[S])
        out.append((1.0 - t if t <= 0.5 else float(r[:S].sum()), t))
    return out


def _chain_survival(m: int, p: float, n: int, trials, tail: bool = False) -> tuple[float, ...]:
    """P(S_m(N) <= n) for every N in ``trials``, from one pass of the chain;
    with ``tail``, P(S_m(N) > n), accurate relative to its own size.

    This is the whole contract of the chain, which every exact value in
    the package comes from.

    Engine.  The pass runs over the S = C(m, n) states of the minimal
    chain, and the largest N of the call picks one engine for every N of
    the call:

    * powers, if S <= 256 and S**2 * N.bit_length() <= 400 * N
      (``_POWER_CHAIN_STATES``, ``_POWER_COST``): ``_chain_powers``
      squares the dense (S + 1) x (S + 1) tail operator, in
      O(S**3 * log N) time;
    * split, otherwise if S <= 2**14 and at most 2 S blocks of m - 1
      trials hold at most n successes (every n <= m / 2 among them):
      ``_split_survival`` steps to r = ceil((N - m + 1) / 2) and joins the
      vectors at l = N - m + 1 - r and r over the middle blocks, in
      O(r * S) time;
    * stepping, for any other chain: ``_survival_vectors`` steps to N and
      reads u_N(w0), in O(N * S) time.

    Each N's value depends only on (m, p, n, N) and the engine.  So the
    value at one N can differ in its last bits, within the bounds below,
    between calls whose largest N pick different engines:
    ``block_q_sequence(8, 0.05, 3, 9)`` takes powers and gives
    q_1 = 0.9983299964985859, while N = 16 alone is split and gives
    0.9983299964985856.

    Error.  Every engine sums non-negative terms, so P(S_m(N) > n) and, in
    the form asked for, P(S_m(N) <= n) keep their own relative precision.
    With u = 2**-53, a step adds at most 3 roundings, so stepping is proven
    within about 3 N u.  The split's two vectors are within 3 (N - m + 1) u
    together; forming each term adds at most 3 roundings for its weight
    p**j * q**(m - 1 - j) and 4 for the product (a * b, or a + (1 - a) * b
    with the weight), the binomial remainder of the tail 1 more, and numpy's
    pairwise sum of at most 2**15 terms at most 33.  That stays within
    3 N u for every split chain with m >= 11, and within 3 N u + 9 u below.
    Each squaring of an order S + 1 matrix doubles the error of its factor
    and adds (S + 1) u, so powers are proven only within about (S + 2) N u.
    Measured against 60-digit mpmath (tests/oracles.py) at m in
    {5, 7, 9, 10}, p in {0.01, 0.05, 0.3, 0.7}, every n < m and N in
    {m, 3m + 1, 10m, 30m}, powers were within 0.72 N u, stepping within
    0.36 N u and the split within 0.47 N u; at p near 1e-4 powers reach
    1.4 N u.  Survivals above 1e-30 on that grid were within 0.98 N u split
    and 0.96 N u stepped.

    Caps.  Raises CapacityError past ``MAX_CHAIN_STATES`` states, for words
    wider than 63 bits, or when S times the steps a split or stepped pass
    would take exceeds ``MAX_STATE_STEPS``; powers are exempt.  All three
    are checked before anything is built.

    Memory.  Stepping peaks at 32 (1 + n/m) bytes per state, at most 64:
    two vectors, the weights and the successor index.  Powers hold two
    (S + 1)**2 matrices; the split adds O(blocks) per call, whatever the
    number of stops.  The successor and split indexes of chains of at most
    2**14 states are kept across calls, the 64 most recently used of each,
    at most 16 MiB and 8 MiB; a larger chain builds its successor index on
    every call.
    """
    certain = 0.0 if tail else 1.0  # the value where no window can exceed n
    if n >= m:
        return tuple(certain for _ in trials)
    stops = sorted({N for N in trials if N >= m})
    at = {}
    if stops:
        if m > 63:
            raise CapacityError("chain words limited to 63 bits (m <= 63)")
        states = math.comb(m, n)
        if states > MAX_CHAIN_STATES:
            raise CapacityError(
                f"chain limited to {MAX_CHAIN_STATES} states; m={m}, n={n} needs {states}"
            )
        last = stops[-1]
        if states <= _POWER_CHAIN_STATES and states**2 * last.bit_length() <= _POWER_COST * last:
            pairs = _chain_powers(m, p, n, stops)  # (survival, tail) at each stop
            at = {N: pair[tail] for N, pair in zip(stops, pairs)}
        else:
            blocks = sum(math.comb(m - 1, j) for j in range(n + 1))  # middle blocks to join
            split = states <= _CACHED_CHAIN_STATES and blocks <= 2 * states
            steps = (last - m + 2) // 2 if split else last
            if states * steps > MAX_STATE_STEPS:
                raise CapacityError(
                    f"chain stepping limited to {MAX_STATE_STEPS} state-steps; S={states} "
                    f"states (m={m}, n={n}) over N={last} trials need {states * steps}"
                )
            if split:
                at = _split_survival(m, p, n, stops, tail)
            else:
                w0 = _start(m, n)
                vectors = _survival_vectors(m, p, n, stops, tail)
                at = {N: float(u[w0]) for N, u in zip(stops, vectors)}
    return tuple(at.get(N, certain) for N in trials)


def exact_scan_cdf(spec: BernoulliScanSpec) -> float:
    """P(S_m(N) <= n), exact.

    Degenerate inputs resolve to certainty: n >= m (no window can exceed)
    and N < m (no window exists) both give 1.  The engine, its error, time
    and memory, and the caps past which CapacityError is raised, are those
    of ``_chain_survival``.
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
    plain scan CDF value, and one chain pass over (kmax+1)*m trials yields
    them all, under the contract of ``_chain_survival``.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    BernoulliScanSpec(m=m, p=p, N=(kmax + 1) * m, n=n)  # validates the inputs
    return QSequence.from_tail(
        _chain_survival(m, p, n, [(k + 1) * m for k in range(1, kmax + 1)])
    )


def block_p_sequence(m: int, p: float, n: int, kmax: int) -> PSequence:
    """p_k = P(min(W_1..W_k) > n) for k = 1..kmax.

    The W_k are stationary and 1-dependent, so the p's follow from the
    q's by inverting the inclusion-exclusion recursion of ``qn_from_p``.
    One tail pass of the chain over (kmax+1)*m trials gives every
    a_k = 1 - q_k = P(S_m((k+1)m) > n) to its own relative precision, under
    the contract of ``_chain_survival``, and the inverse recursion, run in
    those complements, turns them into p_k.  The p_k are accurate in
    absolute terms, to some ulp of a_kmax; high-k terms below that keep
    only rounding noise and may come out as tiny negative values.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    BernoulliScanSpec(m=m, p=p, N=(kmax + 1) * m, n=n)  # validates the inputs
    a = _chain_survival(m, p, n, [(k + 1) * m for k in range(1, kmax + 1)], tail=True)
    return PSequence((1.0, *_p_from_complements(a)))
