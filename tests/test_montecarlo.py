"""Monte Carlo estimators: reproducibility, correctness, block law.

Inputs with p >= 0.2 run the dense sampler and inputs below it the sparse
one; tests that pin determinism or a law take one input of each.
"""

import gc
import threading
import weakref

import numpy as np
import pytest

from scanex import montecarlo
from scanex.montecarlo import (
    BlockSample,
    SimulationPlan,
    simulate_block_sequence,
    simulate_scan_cdf,
)
from scanex.scan_exact import (
    BernoulliScanSpec,
    block_p_sequence,
    block_q_sequence,
    exact_scan_cdf,
)

SPARSE_P = 0.03
assert SPARSE_P < montecarlo._SPARSE_BELOW <= 0.3


def test_plan_validation():
    spec = BernoulliScanSpec(3, 0.5, 8, 2)
    with pytest.raises(ValueError):
        SimulationPlan(spec, reps=0, seed=1)
    with pytest.raises(ValueError):
        SimulationPlan(spec, reps=10, seed=-1)
    with pytest.raises(ValueError):
        SimulationPlan(spec, reps=10, seed=1, stream_count=0)
    with pytest.raises(ValueError, match="seed"):
        SimulationPlan(spec, reps=10, seed=2**64)
    SimulationPlan(spec, reps=10, seed=2**64 - 1)


def test_seed_keys_are_exact():
    # the Philox key holds the seed as an exact 64-bit word: seeds that a
    # float64 round trip would merge get their own streams
    def key(seed):
        return montecarlo._rng(seed, 1).bit_generator.state["state"]["key"].tolist()

    for seed in (0, 1, 2**53 + 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1):
        assert key(seed) == [seed, 1]
    spec = BernoulliScanSpec(4, SPARSE_P, 40, 1)
    top, zero = (simulate_scan_cdf(SimulationPlan(spec, reps=20_000, seed=s))
                 for s in (2**64 - 1, 0))
    assert top != zero


def test_thread_pool_is_bounded(monkeypatch):
    # outputs do not depend on the pool, so it never exceeds the jobs or the
    # CPUs; a recording executor runs the jobs inline, starting no thread
    sizes = []

    class Inline:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Inline)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    spec = BernoulliScanSpec(3, SPARSE_P, 12, 1)
    base = simulate_scan_cdf(SimulationPlan(spec, reps=20, seed=1, stream_count=10))
    # (threads, streams, reps, pool size or None for no pool)
    for threads, streams, reps, size in ((100_000, 10, 20, 4), (3, 10, 20, 3),
                                         (1, 10, 20, None), (100_000, 1, 20, None),
                                         (100_000, 100_000, 2, 2)):
        sizes.clear()
        est = simulate_scan_cdf(
            SimulationPlan(spec, reps=reps, seed=1, stream_count=streams), threads=threads)
        assert sizes == ([] if size is None else [size])
        if streams == 10:
            assert est == base


def test_only_streams_that_draw_are_listed():
    # streams beyond reps draw nothing, so they are not listed, and a plan
    # with more of them than any loop could visit runs as fast as its reps
    assert montecarlo._stream_reps(10, 10**6) == [1] * 10
    assert montecarlo._stream_reps(10, 4) == [3, 3, 2, 2]
    spec = BernoulliScanSpec(5, SPARSE_P, 20, 1)
    many, few = (simulate_scan_cdf(SimulationPlan(spec, reps=10, seed=1, stream_count=s),
                                   threads=2) for s in (10**12, 10))
    assert many == few


def test_bit_identical_reruns():
    for p in (0.5, SPARSE_P):
        plan = SimulationPlan(BernoulliScanSpec(3, p, 20, 2), reps=50_000, seed=42,
                              stream_count=4)
        a = simulate_scan_cdf(plan)
        b = simulate_scan_cdf(plan)
        assert a == b


def test_thread_count_does_not_change_output():
    for p in (0.3, SPARSE_P):
        plan = SimulationPlan(BernoulliScanSpec(4, p, 30, 2), reps=40_000, seed=7,
                              stream_count=4)
        assert simulate_scan_cdf(plan, threads=1) == simulate_scan_cdf(plan, threads=3)


def test_threads_below_one_rejected():
    # checked ahead of the degenerate short cut (n >= m) as well
    for spec in (BernoulliScanSpec(4, 0.3, 30, 2), BernoulliScanSpec(4, 0.3, 30, 4)):
        plan = SimulationPlan(spec, reps=100, seed=1)
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads must be at least 1"):
                simulate_scan_cdf(plan, threads=threads)


def test_chunking_does_not_change_stream():
    # two plans differing only in how replicates split across streams give
    # different results, but the same plan re-chunked internally does not;
    # exercised by a reps count far above the per-chunk row cap for this N
    spec = BernoulliScanSpec(2, 0.5, 5, 1)
    one = simulate_scan_cdf(SimulationPlan(spec, reps=60_000, seed=3))
    again = simulate_scan_cdf(SimulationPlan(spec, reps=60_000, seed=3))
    assert one == again


def test_degenerate_specs():
    est = simulate_scan_cdf(SimulationPlan(BernoulliScanSpec(3, 0.9, 10, 3), 100, 0))
    assert (est.estimate, est.half_width_95) == (1.0, 0.0)
    est = simulate_scan_cdf(SimulationPlan(BernoulliScanSpec(9, 0.9, 5, 2), 100, 0))
    assert est.estimate == 1.0
    est = simulate_scan_cdf(SimulationPlan(BernoulliScanSpec(3, 0.0, 10, 1), 500, 1))
    assert est.estimate == 1.0


def test_estimate_matches_exact_value():
    sparse = BernoulliScanSpec(10, SPARSE_P, 100, 1)
    for spec, truth in ((BernoulliScanSpec(3, 0.5, 8, 2), 149 / 256),
                        (sparse, exact_scan_cdf(sparse))):
        plan = SimulationPlan(spec, reps=200_000, seed=11, stream_count=2)
        est = simulate_scan_cdf(plan, threads=2)
        assert abs(est.estimate - truth) <= 2.5 * est.half_width_95
        assert 0.0 < est.half_width_95 < 0.01


@pytest.mark.parametrize("m, p, N, n", [
    (1, 0.005, 1, 0), (4, 0.01, 4, 1), (5, 0.008, 60, 0), (9, 0.05, 90, 3),
    (10, 0.05, 100, 2), (7, 0.15, 50, 3), (20, 0.02, 200, 3), (6, 0.1, 6, 5),
])
def test_sparse_estimates_match_exact(m, p, N, n):
    # below the sampler switch, within 4 standard errors of the chain
    reps = 400_000
    assert p < montecarlo._SPARSE_BELOW
    truth = exact_scan_cdf(BernoulliScanSpec(m, p, N, n))
    est = simulate_scan_cdf(SimulationPlan(BernoulliScanSpec(m, p, N, n), reps=reps,
                                           seed=m * 1000 + n, stream_count=3))
    se = np.sqrt(truth * (1.0 - truth) / reps)
    assert abs(est.estimate - truth) <= 4 * se + 1.0 / reps


def test_confidence_interval_coverage():
    # the reported half width is the normal-approximation one, so coverage
    # is only meaningful with the truth away from 0 and 1; the seeds are
    # fixed, making the observed count reproducible
    rng = np.random.default_rng(987)
    covered = total = 0
    i = 0
    while total < 200:
        i += 1
        m = int(rng.integers(2, 5))
        N = int(rng.integers(m, 15))
        p = float(rng.uniform(0.1, 0.9))
        n = int(rng.integers(0, m))
        spec = BernoulliScanSpec(m, p, N, n)
        truth = exact_scan_cdf(spec)
        if not 0.05 <= truth <= 0.95:
            continue
        total += 1
        est = simulate_scan_cdf(SimulationPlan(spec, reps=4000, seed=1000 + i))
        if abs(est.estimate - truth) <= est.half_width_95:
            covered += 1
    assert covered >= 180


def test_block_sample_shapes_and_validation():
    spec = BernoulliScanSpec(3, 0.5, 15, 2)
    s = simulate_block_sequence(spec, L=5, reps=1000, seed=5)
    assert isinstance(s, BlockSample)
    assert len(s.q_hat) == 4 and len(s.p_hat) == 4
    with pytest.raises(ValueError):
        simulate_block_sequence(spec, L=1, reps=100, seed=0)
    with pytest.raises(ValueError):
        simulate_block_sequence(spec, L=5, reps=0, seed=0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            simulate_block_sequence(spec, L=5, reps=10, seed=seed)
    # no success, so no block maximum exceeds n
    s = simulate_block_sequence(BernoulliScanSpec(3, 0.0, 15, 0), L=5, reps=1000, seed=5)
    assert s.q_hat == (1.0,) * 4 and s.p_hat == (0.0,) * 4


def test_block_sample_head_identity_and_monotonicity():
    for spec in (BernoulliScanSpec(3, 0.5, 15, 2), BernoulliScanSpec(3, SPARSE_P, 15, 0)):
        s = simulate_block_sequence(spec, L=5, reps=50_000, seed=17)
        # P(W_1 <= n) + P(W_1 > n) = 1 holds replicate by replicate
        assert s.q_hat[0] + s.p_hat[0] == pytest.approx(1.0, abs=1e-12)
        assert all(a >= b for a, b in zip(s.q_hat, s.q_hat[1:]))
        assert all(a >= b for a, b in zip(s.p_hat, s.p_hat[1:]))


def test_block_sample_tracks_exact_law():
    for m, p, n in ((3, 0.5, 2), (3, SPARSE_P, 0)):
        L, reps = 5, 100_000
        s = simulate_block_sequence(BernoulliScanSpec(m, p, 15, n), L=L, reps=reps,
                                    seed=23)
        for k in range(1, L):
            truth = exact_scan_cdf(BernoulliScanSpec(m, p, (k + 1) * m, n))
            se = np.sqrt(truth * (1.0 - truth) / reps)
            assert abs(s.q_hat[k - 1] - truth) <= 5 * se + 1e-9


@pytest.mark.parametrize("m, p, n, L", [
    (10, 0.05, 3, 10), (9, SPARSE_P, 2, 6), (4, 0.01, 0, 9), (5, 0.1, 1, 4),
    (6, 0.15, 5, 3),
])
def test_sparse_block_law_matches_exact_sequences(m, p, n, L):
    # both tails within 4 standard errors of the exact q and p sequences
    reps = 200_000
    assert p < montecarlo._SPARSE_BELOW
    s = simulate_block_sequence(BernoulliScanSpec(m, p, L * m, n), L=L, reps=reps,
                                seed=L * 100 + m)
    q, ps = block_q_sequence(m, p, n, L - 1), block_p_sequence(m, p, n, L - 1)
    for est, truth in [(s.q_hat[k - 1], q.q(k)) for k in range(1, L)] + \
                      [(s.p_hat[k - 1], ps.p(k)) for k in range(1, ps.order + 1)]:
        se = np.sqrt(truth * (1.0 - truth) / reps)
        assert abs(est - truth) <= 4 * se + 1.0 / reps


def _oracle_matrices(rng, N):
    # seeded 0/1 rows, with successes forced at both row ends in some rows so
    # that a run counted across two replicates would show
    for p in (0.1, 0.35, 0.7):
        bits = rng.random((200, N)) < p
        bits[::3, 0] = True
        bits[::4, -1] = True
        bits[1::5] = False
        yield bits


@pytest.mark.parametrize("m", range(1, 7))
def test_sparse_counters_equal_dense_counters(m):
    rng = np.random.default_rng(2024 + m)
    ws = montecarlo._Workspace()
    # positions as int64 and as the float64 integers that the sampler draws
    for N in sorted({m, m + 1, 3 * m + 2}):
        for bits in _oracle_matrices(rng, N):
            for t in (np.flatnonzero(bits), np.flatnonzero(bits).astype(float)):
                for n in range(m + 2):
                    assert (montecarlo._scan_hits_sparse(t, len(bits), N, m, n, ws)
                            == montecarlo._scan_hits_dense(bits, m, n))
    for L in (2, 3, 5):
        for bits in _oracle_matrices(rng, L * m):
            for t in (np.flatnonzero(bits), np.flatnonzero(bits).astype(float)):
                for n in range(m + 2):
                    sparse = montecarlo._block_above_sparse(t, len(bits), m, n, L - 1, ws)
                    dense = montecarlo._block_above_dense(bits, m, n, L - 1)
                    assert (sparse == dense).all()
                    tails = [np.logical_and.accumulate(b, axis=0).sum(axis=1)
                             for b in (~dense, dense)]
                    assert (montecarlo._block_tails(dense) == tails).all()


def test_success_times_are_bernoulli_trials():
    # positions are sorted, distinct and inside the trials, and their count
    # and spacing match Bernoulli(p) trials
    rng, ws = montecarlo._rng(77, 0), montecarlo._Workspace()
    trials, p = 2_000_000, 0.01
    t = montecarlo._success_times(rng, trials, p, ws)
    assert _float_integers(t) and t[0] >= 0 and t[-1] < trials
    assert (np.diff(t) > 0).all()
    assert abs(len(t) - trials * p) <= 4 * np.sqrt(trials * p * (1 - p))
    # P(gap = 1) = p and P(gap > 100) = (1 - p)^100
    gaps = np.diff(t)
    for share, prob in (((gaps == 1).mean(), p), ((gaps > 100).mean(), (1 - p) ** 100)):
        assert abs(share - prob) <= 4 * np.sqrt(prob * (1 - prob) / len(gaps))
    assert len(montecarlo._success_times(rng, trials, 0.0, ws)) == 0


def _float_integers(t):
    return t.dtype == np.float64 and (t == np.floor(t)).all()


def _unbuffered_success_times(rng, trials, p):
    # the sampler before it drew into a workspace: fresh arrays every round,
    # joined and cast by copy
    if p == 0.0:
        return np.empty(0, dtype=np.int64)
    scale = -1.0 / np.log1p(-p)
    parts, last = [], -1.0
    while last < trials:
        need = (trials - last) * p
        t = rng.standard_exponential(int(need + 4.0 * need ** 0.5) + 16)
        t *= scale
        np.floor(t, out=t)
        t += 1.0
        np.cumsum(t, out=t)
        t += last
        parts.append(t)
        last = t[-1]
    t = np.concatenate(parts)
    return t[:np.searchsorted(t, trials)].astype(np.int64)


def _unbuffered_runs(t, N, m, n):
    a, b = t[:max(len(t) - n, 0)], t[n:]
    close = b - a < m
    a, b = a[close], b[close]
    within = b - a <= b % N
    return a[within], b[within]


def _unbuffered_chunks(spec, reps, N, seed, stream):
    # (positions, run starts, run ends) of each chunk of one stream
    rng = montecarlo._rng(seed, stream)
    rows_cap = max(1, montecarlo._CHUNK_BUDGET // N)
    for done in range(0, reps, rows_cap):
        t = _unbuffered_success_times(rng, min(rows_cap, reps - done) * N, spec.p)
        yield (t, *_unbuffered_runs(t, N, spec.m, spec.n))


def _record_runs(monkeypatch):
    # keep a copy of each chunk's positions and of the run pairs that the
    # sampler finds in them with its workspace
    seen, runs = [], montecarlo._runs

    def record(t, N, m, n, ws):
        assert isinstance(ws, montecarlo._Workspace) and _float_integers(t)
        a, b = runs(t, N, m, n, ws)
        seen.append((t.astype(np.int64), a.copy(), b.copy()))
        return a, b

    monkeypatch.setattr(montecarlo, "_runs", record)
    return seen


def _chunk_keys(chunks):
    # equal keys of int64 vectors mean equal elements
    assert all(x.dtype == np.int64 for chunk in chunks for x in chunk)
    return [tuple(x.tobytes() for x in chunk) for chunk in chunks]


def test_buffered_sampler_equals_unbuffered(monkeypatch):
    # positions, cast to int64, and run pairs equal, element for element,
    # those of fresh arrays joined by concatenate and cast by astype: over several chunks
    # of one stream, several streams at 1, 2 and 3 threads, and the chunks
    # of a block sample; the reference lives here, so this holds at any numpy
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    spec = BernoulliScanSpec(4, SPARSE_P, 50, 1)
    cap = montecarlo._CHUNK_BUDGET // spec.N
    for streams, reps in ((1, 3 * cap + 17), (5, 2 * cap * 5 + 3)):
        plan = SimulationPlan(spec, reps=reps, seed=9, stream_count=streams)
        want = [chunk for stream, r in enumerate(montecarlo._stream_reps(reps, streams))
                for chunk in _unbuffered_chunks(spec, r, spec.N, 9, stream)]
        assert len(want) >= 2 * streams + 1
        for threads in (1, 2, 3):
            with monkeypatch.context() as patch:
                seen = _record_runs(patch)
                simulate_scan_cdf(plan, threads=threads)
            assert sorted(_chunk_keys(seen)) == sorted(_chunk_keys(want))
    m, n, L = 3, 0, 5
    spec = BernoulliScanSpec(m, SPARSE_P, L * m, n)
    reps = 2 * (montecarlo._CHUNK_BUDGET // (L * m)) + 5
    with monkeypatch.context() as patch:
        seen = _record_runs(patch)
        simulate_block_sequence(spec, L=L, reps=reps, seed=31)
    want = list(_unbuffered_chunks(spec, reps, L * m, 31, 0))
    assert len(want) == 3
    assert _chunk_keys(seen) == _chunk_keys(want)


class _ShortFirstRound:
    """A Philox stream whose first round of draws is halved, so that its
    positions fall short of the end and the sampler needs a second round."""

    def __init__(self, seed):
        self.rng, self.rounds = montecarlo._rng(seed, 0), 0

    def standard_exponential(self, size=None, out=None):
        t = self.rng.standard_exponential(size, out=out)
        if self.rounds == 0:
            t *= 0.5
        self.rounds += 1
        return t


def test_workspace_grows_on_an_extra_round():
    # an undersized workspace and a forced extra round: the buffers grow,
    # keep the first round's draws, and serve a smaller chunk after
    ws = montecarlo._Workspace()
    ws.reserve(5)
    for trials, p in ((10_000, 0.05), (400_000, SPARSE_P), (1_000, 0.15)):
        got_rng, want_rng = _ShortFirstRound(trials), _ShortFirstRound(trials)
        t = montecarlo._success_times(got_rng, trials, p, ws)
        want = _unbuffered_success_times(want_rng, trials, p)
        assert got_rng.rounds == want_rng.rounds >= 2
        assert _float_integers(t) and len(t) == len(want)
        assert (t.astype(np.int64) == want).all()
        for m, n in ((5, 1), (20, 2)):
            for got, ref in zip(montecarlo._runs(t, 100, m, n, ws),
                                _unbuffered_runs(want, 100, m, n)):
                assert got.dtype == np.int64 and len(got) == len(ref)
                assert (got == ref).all()
    assert len(ws.draws) >= 400_000 * SPARSE_P


def test_workspace_lives_for_one_call(monkeypatch):
    # each worker makes one workspace, uses it in one thread only, and none
    # outlives the call
    made, users = [], {}

    class Recorded(montecarlo._Workspace):
        def __init__(self):
            super().__init__()
            self.index = len(made)
            made.append(weakref.ref(self))

        def reserve(self, size, keep=0):
            users.setdefault(self.index, set()).add(threading.get_ident())
            super().reserve(size, keep)

    per_worker = []

    class Inline:
        def __init__(self, max_workers):
            self.size = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, groups):
            groups = list(groups)
            assert len(groups) == self.size
            hits = []
            for group in groups:
                before = len(made)
                hits.append(fn(group))
                per_worker.append(len(made) - before)
            return hits

    monkeypatch.setattr(montecarlo, "_Workspace", Recorded)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    spec = BernoulliScanSpec(4, SPARSE_P, 50, 1)
    plan = SimulationPlan(spec, reps=200_000, seed=3, stream_count=7)
    base = simulate_scan_cdf(plan)
    assert len(made) == 1
    for threads in (2, 3):
        made.clear()
        users.clear()
        est = simulate_scan_cdf(plan, threads=threads)
        assert est == base and len(made) == len(users) == threads
        assert all(len(u) == 1 for u in users.values())
        gc.collect()
        assert all(ref() is None for ref in made)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Inline)
    made.clear()
    assert simulate_scan_cdf(plan, threads=3) == base
    assert per_worker == [1, 1, 1] and len(made) == 3
    assert all(ref() is None for ref in made)
    made.clear()
    simulate_block_sequence(BernoulliScanSpec(3, SPARSE_P, 15, 0), L=5, reps=600_000,
                            seed=2)
    assert len(made) == 1 and made[0]() is None


def test_blocks_separated_by_one_are_uncorrelated():
    # 1-dependence: W_1 and W_3 share no trials, so their exceedance
    # indicators are independent; estimate the correlation directly from a
    # test-local simulation and require it to vanish at Monte Carlo scale
    m, p, n, reps = 3, 0.5, 2, 200_000
    rng = np.random.default_rng(314159)
    bits = rng.random((reps, 4 * m)) < p
    cs = np.cumsum(bits, axis=1, dtype=np.int64)
    wins = cs[:, m - 1:].copy()
    wins[:, 1:] -= cs[:, :-m]
    w1 = wins[:, 0 : m + 1].max(axis=1) > n
    w3 = wins[:, 2 * m : 3 * m + 1].max(axis=1) > n
    corr = np.corrcoef(w1, w3)[0, 1]
    assert abs(corr) <= 4.0 / np.sqrt(reps)
    # adjacent blocks share one window and must correlate positively
    w2 = wins[:, m : 2 * m + 1].max(axis=1) > n
    assert np.corrcoef(w1, w2)[0, 1] > 4.0 / np.sqrt(reps)
