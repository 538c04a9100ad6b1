"""Reference implementations the tests compare the engine against.

Each one works from the definitions over all 2**(m-1) masks of the last
m - 1 trials, not from the budget-word chain, so it is slow and meant for
small m only.

* ``joint_block_p``: the block law p_k = P(min(W_1..W_k) > n) by a joint
  dynamic program over masks and one flag, with no use of the 1-dependent
  q -> p identity.
* ``mp_scan_tails``: P(S_m(N) > n) in 60-digit mpmath arithmetic.
"""

import mpmath
import numpy as np

from scanex.extremes import PSequence
from scanex.scan_exact import _popcount_u32


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


def joint_block_p(m: int, p: float, n: int, kmax: int) -> PSequence:
    """p_k = P(min(W_1..W_k) > n) for k = 1..kmax, by joint dynamic program.

    The chain keeps every mask and is augmented with one flag: whether the
    block currently being filled has already produced a window above n.  At
    each shared window (trial (j+1)*m, j >= 1) block j is settled: mass
    survives only if its flag is set or the shared window exceeds, and the
    flag restarts as the shared window's own exceedance.
    """
    M = 1 << (m - 1) if m > 1 else 1
    pc = _popcount_u32(np.arange(M))
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


def mp_scan_tails(m: int, p, n: int, trials) -> list:
    """P(S_m(N) > n) for every N in ``trials``, as 60-digit mpmath numbers.

    A forward pass over the masks of the last m - 1 trials drops the mass
    whose newest full window holds more than n successes; the tail is one
    minus the mass left, which loses nothing at 60 digits.  Cost grows as
    2**m, so keep m <= 10.
    """
    with mpmath.workdps(60):
        p = mpmath.mpf(p)
        q = 1 - p
        M = 1 << (m - 1) if m > 1 else 1
        ones = [bin(s).count("1") for s in range(2 * M)]
        mass = [mpmath.mpf(0)] * M
        mass[0] = mpmath.mpf(1)
        tails = {}
        for t in range(1, max(trials) + 1):
            nxt = [mpmath.mpf(0)] * M
            for s, v in enumerate(mass):
                if not v:
                    continue
                for bit, w in ((0, q), (1, p)):
                    full = (s << 1) | bit  # the window of m trials ending at t
                    if t >= m and ones[full] > n:
                        continue
                    nxt[full & (M - 1)] += v * w
            mass = nxt
            if t in trials:
                tails[t] = 1 - mpmath.fsum(mass)
        return [tails[N] for N in trials]
