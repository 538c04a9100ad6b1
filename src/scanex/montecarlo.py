"""Monte Carlo checks for the scan statistic and its block decomposition.

Counter-based RNG (Philox) keyed by (seed, stream index): every stream is
an independent, reproducible substream, and replicates are partitioned
across streams deterministically.  Results therefore depend only on the
plan, never on how much parallelism executes it.

These estimators exist to validate the exact engines and the approximation
bounds on specs too large to enumerate; they are not meant to be fast
samplers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .scan_exact import BernoulliScanSpec

__all__ = [
    "SimulationPlan",
    "MCEstimate",
    "BlockSample",
    "simulate_scan_cdf",
    "simulate_block_sequence",
]

# rows per chunk are sized so one uniform draw stays around 32 MB
_CHUNK_BUDGET = 4_000_000


@dataclass(frozen=True)
class SimulationPlan:
    spec: BernoulliScanSpec
    reps: int
    seed: int
    stream_count: int = 1

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
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
    base, rem = divmod(reps, streams)
    return [base + (1 if i < rem else 0) for i in range(streams)]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


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


def _sum_over_chunks(rng: np.random.Generator, reps: int, N: int, p: float, count):
    """Sum of ``count(bits)`` over the 0/1 trial matrices of ``reps``
    replicates of N trials, drawn in order in chunks of at most
    ``_CHUNK_BUDGET`` uniforms.  Each chunk is dropped before the next is
    drawn."""
    rows_cap = max(1, _CHUNK_BUDGET // N)
    total = 0
    for done in range(0, reps, rows_cap):
        total += count(rng.random((min(rows_cap, reps - done), N)) < p)
    return total


def _count_stream(spec: BernoulliScanSpec, reps: int, seed: int, stream: int) -> int:
    def count(bits):
        return int((_window_sums(bits, spec.m).max(axis=1) <= spec.n).sum())

    return _sum_over_chunks(_rng(seed, stream), reps, spec.N, spec.p, count)


def simulate_scan_cdf(plan: SimulationPlan, threads: int = 1) -> MCEstimate:
    """Estimate P(S_m(N) <= n) by direct simulation.

    ``threads`` only parallelises the streams; outputs are identical for
    any thread count.  Degenerate specs (no window, or threshold at or
    above m) short-circuit to certainty.
    """
    spec = plan.spec
    if spec.n >= spec.m or spec.N < spec.m:
        return MCEstimate(estimate=1.0, half_width_95=0.0, reps=plan.reps)
    parts = _stream_reps(plan.reps, plan.stream_count)
    jobs = [(spec, r, plan.seed, i) for i, r in enumerate(parts) if r > 0]
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = sum(pool.map(lambda j: _count_stream(*j), jobs))
    else:
        hits = sum(_count_stream(*j) for j in jobs)
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
    if reps < 1:
        raise ValueError("reps must be at least 1")
    m, p, n = spec.m, spec.p, spec.n
    N = L * m
    K = L - 1

    def count(bits):
        wins = _window_sums(bits, m)
        # W_k = max over window starts (k-1)m .. km (0-based), k = 1..K
        W = np.stack(
            [wins[:, (k - 1) * m: k * m + 1].max(axis=1) for k in range(1, K + 1)],
            axis=1,
        )
        below = W <= n
        return np.stack([np.logical_and.accumulate(b, axis=1).sum(axis=0)
                         for b in (below, ~below)])

    q_hits, p_hits = _sum_over_chunks(_rng(seed, 0), reps, N, p, count)
    return BlockSample(
        q_hat=tuple(float(h) / reps for h in q_hits),
        p_hat=tuple(float(h) / reps for h in p_hits),
        reps=reps,
    )
