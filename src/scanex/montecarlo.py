"""Monte Carlo checks for the scan statistic and its block decomposition.

Counter-based RNG (Philox) keyed by (seed, stream index): every stream is
an independent, reproducible substream, and replicates are partitioned
across streams deterministically.  Results therefore depend only on the
plan, never on how much parallelism executes it.

Two samplers draw the trials, chosen by p alone.  At p >= _SPARSE_BELOW a
chunk is a 0/1 matrix of replicates x trials and the window sums are
counted directly.  Below it, a chunk of R replicates x N trials is one
Bernoulli sequence of R*N trials, drawn as its sorted success times from
exponential gaps, so a chunk costs about R*N*p draws instead of R*N.  The
spacing form of the scan statistic (Naus 1982; Glaz, Naus & Wallenstein
2001) counts from those times alone: a window of m trials holds more than
n successes exactly when some n+1 consecutive successes span fewer than m
trials.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .scan_exact import BernoulliScanSpec

__all__ = [
    "SimulationPlan",
    "MCEstimate",
    "BlockSample",
    "simulate_scan_cdf",
    "simulate_block_sequence",
]

# rows per chunk are sized so one chunk holds about this many trials: a
# 32 MB uniform draw on the dense path, about 4e6*p draws on the sparse one
_CHUNK_BUDGET = 4_000_000

# p below this draws success times.  Both samplers cost in proportion to
# reps * N.  Sparse time over dense time with 40 000 reps, on the scan specs
# (m, N, n) = (4, 40, 0), (4, 40, 2), (10, 100, 0), (10, 100, 5), (20, 200, 3)
# and on their block maxima at L = 10 (best of 11, three runs):
#   p = 0.2: 0.31-0.98 (scan), 0.25-1.04 (block; 1.0 at m = 10, n = 0)
#   p = 0.3: 0.58-1.20 and 0.47-1.56; dense wins at m = 10, n = 0 and m = 20
#   p = 0.5: 1.21-2.28 and 1.08-2.78; dense wins everywhere
# So the crossover lies between 0.2 and 0.5, lower where n is small.  Moving
# the threshold changes which sampler runs, and so the estimates there.
_SPARSE_BELOW = 0.2


@dataclass(frozen=True)
class SimulationPlan:
    spec: BernoulliScanSpec
    reps: int
    seed: int
    stream_count: int = 1

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must lie in [0, 2**64)")
        if self.stream_count < 1:
            raise ValueError("stream_count must be at least 1")


@dataclass(frozen=True)
class MCEstimate:
    """Bernoulli proportion with a normal-approximation 95% half width."""

    estimate: float
    half_width_95: float
    reps: int


@dataclass(frozen=True)
class BlockSample:
    """Empirical block-maximum tails: q_hat[k-1] ~ P(max(W_1..W_k) <= n)
    and p_hat[k-1] ~ P(min(W_1..W_k) > n), for k = 1..L-1."""

    q_hat: tuple[float, ...]
    p_hat: tuple[float, ...]
    reps: int


def _stream_reps(reps: int, streams: int) -> list[int]:
    """Replicates per stream, the first ones taking one more; only the
    min(streams, reps) streams that draw are listed."""
    base, rem = divmod(reps, streams)
    return [base + (1 if i < rem else 0) for i in range(min(streams, reps))]


def _rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _window_sums(bits: np.ndarray, m: int) -> np.ndarray:
    """All length-m window sums along the rows of a 0/1 matrix.

    Rows shorter than 2**15 accumulate in int16, which cannot overflow
    there, so a chunk's counts take a quarter of the int64 memory.
    """
    dtype = np.int16 if bits.shape[1] < 1 << 15 else np.int64
    cs = np.cumsum(bits, axis=1, dtype=dtype)
    wins = cs[:, m - 1:].copy()
    wins[:, 1:] -= cs[:, :-m]
    return wins


class _Workspace:
    """One worker's buffers for the sparse sampler, reused by every chunk,
    round and stream it draws: the float64 draws, which end as the success
    positions, and the float64 gaps and bool mask of ``_runs``, 17 bytes
    per draw.  The three share one capacity, which only grows: to the first
    chunk's draws, and again on a rare extra round.  A workspace lives for
    one call and serves one thread."""

    def __init__(self) -> None:
        self.draws = np.empty(0)
        self.gaps = np.empty(0)
        self.close = np.empty(0, dtype=bool)

    def reserve(self, size: int, keep: int = 0) -> None:
        """Room for ``size`` items in every buffer, keeping the first
        ``keep`` draws."""
        if size <= len(self.draws):
            return
        draws = np.empty(size)
        draws[:keep] = self.draws[:keep]
        self.draws = draws
        self.gaps = np.empty(size)
        self.close = np.empty(size, dtype=bool)


def _success_times(rng: np.random.Generator, trials: int, p: float,
                   ws: _Workspace) -> np.ndarray:
    """Sorted 0-based success positions among ``trials`` Bernoulli(p) trials,
    as float64 integers (exact below 2**53).

    The gap to the next success, floor(E / -log1p(-p)) + 1 for a standard
    exponential E, is geometric on 1, 2, ...  Each round draws the expected
    number of remaining successes plus a margin, until the positions pass
    the end.  The rounds fill ``ws.draws`` one after another, and the
    positions are the head of it, a view valid until the workspace's next
    use.  So the buffers hold one chunk's draws, about 4e6*p floats plus
    the margin, and grow only on an extra round.
    """
    if p == 0.0:
        return np.empty(0)
    scale = -1.0 / np.log1p(-p)
    used, last = 0, -1.0
    while last < trials:
        need = (trials - last) * p
        size = int(need + 4.0 * need ** 0.5) + 16
        ws.reserve(used + size, keep=used)
        t = rng.standard_exponential(out=ws.draws[used:used + size])
        t *= scale
        np.floor(t, out=t)
        t += 1.0
        np.cumsum(t, out=t)
        t += last
        used += size
        last = t[-1]
    t = ws.draws[:used]
    return t[:np.searchsorted(t, trials)]


def _sum_over_chunks(rng: np.random.Generator, reps: int, N: int, p: float,
                     ws: _Workspace, dense, sparse):
    """Sum over the chunks of ``reps`` replicates of N trials, drawn in order
    in chunks of at most ``_CHUNK_BUDGET`` trials, of ``dense(bits)`` on the
    chunk's 0/1 matrix, or below ``_SPARSE_BELOW`` of ``sparse(t, rows)`` on
    its row-major success positions.  Sparse chunks draw into ``ws``: its
    caller's worker holds one chunk's buffers, about 4e6*p floats plus the
    margin, for all its chunks and streams, and drops them when the call
    returns.  A fresh start at each chunk is exact, as the gaps are
    memoryless."""
    rows_cap = max(1, _CHUNK_BUDGET // N)
    total = 0
    for done in range(0, reps, rows_cap):
        rows = min(rows_cap, reps - done)
        if p < _SPARSE_BELOW:
            total += sparse(_success_times(rng, rows * N, p, ws), rows)
        else:
            total += dense(rng.random((rows, N)) < p)
    return total


def _runs(t: np.ndarray, N: int, m: int, n: int,
          ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Positions a = t[i], b = t[i+n], as int64, of every n+1 consecutive
    successes that span fewer than m trials inside one replicate of N
    trials (the one at row b // N); windows of m trials start in that row
    at [max(b-m+1, 0), min(a, N-m)], local positions.  b - a, exact in
    float64 for integer positions, and its test against m go into the
    buffers of ``ws``; only the close pairs are cast."""
    ws.reserve(len(t))
    a, b = t[:max(len(t) - n, 0)], t[n:]
    gaps = np.subtract(b, a, out=ws.gaps[:len(a)])
    close = np.less(gaps, m, out=ws.close[:len(a)])
    a, b = a[close].astype(np.int64), b[close].astype(np.int64)
    within = b - a <= b % N
    return a[within], b[within]


def _scan_hits_dense(bits: np.ndarray, m: int, n: int) -> int:
    """Rows whose window sums all stay at or below n."""
    return int((_window_sums(bits, m).max(axis=1) <= n).sum())


def _scan_hits_sparse(t: np.ndarray, rows: int, N: int, m: int, n: int,
                      ws: _Workspace) -> int:
    """Rows holding no run of n+1 successes within m trials."""
    row = _runs(t, N, m, n, ws)[1] // N
    return rows - (int(np.count_nonzero(np.diff(row))) + 1 if len(row) else 0)


def _block_above_dense(bits: np.ndarray, m: int, n: int, K: int) -> np.ndarray:
    """K x rows: W_k > n, W_k the largest window sum over window starts
    (k-1)m .. km (0-based), k = 1..K."""
    wins = _window_sums(bits, m)
    W = np.stack([wins[:, (k - 1) * m: k * m + 1].max(axis=1) for k in range(1, K + 1)])
    return W > n


def _block_above_sparse(t: np.ndarray, rows: int, m: int, n: int, K: int,
                        ws: _Workspace) -> np.ndarray:
    """``_block_above_dense`` from the success positions of rows of (K+1)m
    trials.  The window starts of one run span at most m positions, so they
    meet at most two blocks: the first and the last block they reach."""
    N = (K + 1) * m
    a, b = _runs(t, N, m, n, ws)
    row = b // N
    lo = np.maximum(b - row * N - m + 1, 0)
    hi = np.minimum(a - row * N, N - m)
    above = np.zeros((K, rows), dtype=bool)
    above[np.maximum((lo + m - 1) // m, 1) - 1, row] = True
    above[np.minimum(hi // m, K - 1), row] = True
    return above


def _block_tails(above: np.ndarray) -> np.ndarray:
    """Rows with max(W_1..W_k) <= n and with min(W_1..W_k) > n, k = 1..K,
    from the K x rows exceedances, one block at a time."""
    hits = np.empty((2, len(above)), dtype=np.int64)
    for side, blocks in enumerate((~above, above)):
        run = np.ones(above.shape[1], dtype=bool)
        for k, block in enumerate(blocks):
            run &= block
            hits[side, k] = np.count_nonzero(run)
    return hits


def _count_streams(spec: BernoulliScanSpec, seed: int,
                   group: list[tuple[int, int]]) -> int:
    """Rows with S <= n over the (stream, reps) pairs of ``group``, drawn in
    turn by one worker into one workspace."""
    m, n, N = spec.m, spec.n, spec.N
    ws = _Workspace()
    return sum(_sum_over_chunks(
        _rng(seed, stream), reps, N, spec.p, ws,
        lambda bits: _scan_hits_dense(bits, m, n),
        lambda t, rows: _scan_hits_sparse(t, rows, N, m, n, ws),
    ) for stream, reps in group)


def simulate_scan_cdf(plan: SimulationPlan, threads: int = 1) -> MCEstimate:
    """Estimate P(S_m(N) <= n) by direct simulation.

    ``threads`` only parallelises the streams; outputs are identical for
    any thread count, and the pool never exceeds the streams or the CPUs.
    Each worker runs a contiguous group of streams with one workspace.
    Degenerate specs (no window, or threshold at or above m) short-circuit
    to certainty.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    spec = plan.spec
    if spec.n >= spec.m or spec.N < spec.m:
        return MCEstimate(estimate=1.0, half_width_95=0.0, reps=plan.reps)
    jobs = list(enumerate(_stream_reps(plan.reps, plan.stream_count)))
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    sizes = _stream_reps(len(jobs), workers)
    groups = [jobs[end - size:end] for size, end in zip(sizes, accumulate(sizes))]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(lambda g: _count_streams(spec, plan.seed, g), groups))
    else:
        hits = _count_streams(spec, plan.seed, jobs)
    est = hits / plan.reps
    half = 1.96 * np.sqrt(est * (1.0 - est) / plan.reps)
    return MCEstimate(estimate=est, half_width_95=float(half), reps=plan.reps)


def simulate_block_sequence(
    spec: BernoulliScanSpec, L: int, reps: int, seed: int
) -> BlockSample:
    """Sample the block maxima W_1..W_{L-1} and return both empirical tails.

    Each replicate draws L*m trials (the spec's own N plays no role here);
    W_k is the largest window sum among windows starting in block k.  The
    window straddling two blocks counts for both, which is what makes the
    sequence 1-dependent rather than independent.
    """
    if L < 2:
        raise ValueError("need L >= 2 for at least one block maximum")
    SimulationPlan(spec, reps, seed)  # checks reps and seed
    m, n, K = spec.m, spec.n, L - 1
    ws = _Workspace()
    q_hits, p_hits = _sum_over_chunks(
        _rng(seed, 0), reps, L * m, spec.p, ws,
        lambda bits: _block_tails(_block_above_dense(bits, m, n, K)),
        lambda t, rows: _block_tails(_block_above_sparse(t, rows, m, n, K, ws)),
    )
    return BlockSample(
        q_hat=tuple(float(h) / reps for h in q_hits),
        p_hat=tuple(float(h) / reps for h in p_hits),
        reps=reps,
    )
