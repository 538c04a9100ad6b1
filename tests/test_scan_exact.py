"""Exact scan engines against closed forms and a test-local enumerator."""

import dataclasses
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import joint_block_p, mp_scan_tails

from scanex import scan_exact
from scanex.extremes import CapacityError, PSequence, qn_from_p
from scanex.pipeline import format_probability, sandwich, scan_approximation
from scanex.scan_exact import (
    MAX_CHAIN_STATES,
    MAX_STATE_STEPS,
    BernoulliScanSpec,
    _budget_words,
    _build_plan,
    _cached_plan,
    _chain_powers,
    _chain_survival,
    _plan,
    _split_index,
    _split_survival,
    _start,
    _successor_index,
    _survival_vectors,
    block_p_sequence,
    block_q_sequence,
    brute_force_scan_cdf,
    exact_scan_cdf,
)


def enumerate_block_joint(m: int, p: float, n: int, kmax: int):
    """Independent oracle for the block maxima W_1..W_kmax.

    Enumerates every outcome of the (kmax+1)*m trials that the first kmax
    blocks depend on and reads the joint events straight off the definition
    (W_k = largest window sum among windows starting in block k).

    Returns (q, pr) with q[k-1] = P(W_1<=n,..,W_k<=n) and
    pr[k-1] = P(W_1>n,..,W_k>n).
    """
    length = (kmax + 1) * m
    idx = np.arange(1 << length, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(length)) & 1
    ones = bits.sum(axis=1)
    weights = np.power(p, ones) * np.power(1.0 - p, length - ones)
    wins = np.lib.stride_tricks.sliding_window_view(bits, m, axis=1).sum(axis=2)
    exceed = []
    for k in range(1, kmax + 1):
        w_k = wins[:, (k - 1) * m : k * m + 1].max(axis=1)
        exceed.append(w_k > n)
    q, pr = [], []
    all_low = np.ones(idx.shape, dtype=bool)
    all_high = np.ones(idx.shape, dtype=bool)
    for e in exceed:
        all_low &= ~e
        all_high &= e
        q.append(float(weights[all_low].sum()))
        pr.append(float(weights[all_high].sum()))
    return q, pr


# ------------------------------------------------------------- closed forms


@pytest.mark.parametrize("engine", [exact_scan_cdf, brute_force_scan_cdf])
def test_hand_counted_cases(engine):
    # 2 successes in a row among 3 trials of a fair coin: the three failing
    # outcomes are 110, 011, 111, so the CDF at n = 1 is 5/8
    assert engine(BernoulliScanSpec(2, 0.5, 3, 1)) == pytest.approx(5 / 8, abs=1e-15)
    assert engine(BernoulliScanSpec(3, 0.5, 8, 2)) == pytest.approx(
        149 / 256, abs=1e-13
    )


@pytest.mark.parametrize("engine", [exact_scan_cdf, brute_force_scan_cdf])
def test_degenerate_cases(engine):
    assert engine(BernoulliScanSpec(3, 0.7, 10, 3)) == 1.0  # n >= m
    assert engine(BernoulliScanSpec(7, 0.7, 5, 2)) == 1.0  # N < m
    assert engine(BernoulliScanSpec(3, 0.0, 12, 0)) == 1.0
    # p = 1 with n < m forces every window above threshold
    assert engine(BernoulliScanSpec(3, 1.0, 12, 2)) == 0.0


def test_single_trial_window():
    # m = 1, n = 0: no success allowed anywhere
    for p in (0.0, 0.3, 1.0):
        assert exact_scan_cdf(BernoulliScanSpec(1, p, 9, 0)) == pytest.approx(
            (1.0 - p) ** 9, abs=1e-15
        )


def test_spec_validation():
    with pytest.raises(ValueError):
        BernoulliScanSpec(0, 0.5, 5, 1)
    with pytest.raises(ValueError):
        BernoulliScanSpec(2, 0.5, 0, 1)
    with pytest.raises(ValueError):
        BernoulliScanSpec(2, 1.5, 5, 1)
    with pytest.raises(ValueError):
        BernoulliScanSpec(2, 0.5, 5, -1)


# ------------------------------------------------------ engines cross-check


def test_chain_matches_enumeration_on_grid():
    for m in (2, 3, 4):
        for N in range(m, 13):
            for p in (0.2, 0.8):
                for n in range(0, m + 1):
                    spec = BernoulliScanSpec(m, p, N, n)
                    a = exact_scan_cdf(spec)
                    b = brute_force_scan_cdf(spec)
                    assert abs(a - b) < 1e-12, spec


def test_engine_matches_enumeration_every_threshold():
    for m in range(1, 7):
        stops = list(range(m, 17))
        for p in (0.0, 0.2, 0.8, 1.0):
            for n in range(m):
                got = _chain_survival(m, p, n, stops)
                for N, a in zip(stops, got):
                    b = brute_force_scan_cdf(BernoulliScanSpec(m, p, N, n))
                    assert abs(a - b) < 1e-12, (m, p, N, n)


def mask_automaton_classes(m: int, n: int) -> int:
    """Moore refinement of the mask chain: the live masks of the last m - 1
    trials (at most n set bits) plus one dead state, with "alive" as output.
    Returns the number of classes of live masks."""
    M = 1 << (m - 1)
    live = [s for s in range(M) if bin(s).count("1") <= n]
    dead = M

    def step(s, b):
        ok = s != dead and bin(s).count("1") + b <= n
        return ((s << 1) | b) % M if ok else dead

    cls = {s: 0 for s in live} | {dead: 1}
    while True:
        sig = {s: (cls[s], cls[step(s, 0)], cls[step(s, 1)]) for s in cls}
        names = {v: i for i, v in enumerate(sorted(set(sig.values())))}
        new = {s: names[v] for s, v in sig.items()}
        if len(names) == len(set(cls.values())):
            return len({new[s] for s in live})
        cls = new


def test_state_count_is_binomial_and_minimal():
    for m in range(1, 11):
        for n in range(m):
            words = _budget_words(m, n)
            assert words.shape[0] == math.comb(m, n) == mask_automaton_classes(m, n)
            assert all(bin(int(w)).count("1") == n for w in words)
            # even words first, each block ascending
            E = math.comb(m - 1, n)
            assert not (words[:E] & 1).any() and (words[E:] & 1).all()
            assert (np.diff(words[:E]) > 0).all() and (np.diff(words[E:]) > 0).all()


def test_one_pass_equals_separate_runs():
    for m, p, n in ((9, 0.05, 2), (9, 0.05, 3), (9, 0.05, 4), (9, 0.3, 8), (12, 0.1, 3)):
        trials = [5 * m, 2 * m, m - 1, 3 * m + 4, 2 * m, 10 * m + 1]
        got = _chain_survival(m, p, n, trials)
        assert got == tuple(exact_scan_cdf(BernoulliScanSpec(m, p, N, n)) for N in trials)
        assert got[2] == 1.0


def no_run_cdf(m, p, N):
    """P(no m successes in a row among N trials), by the first failure."""
    a = [1.0] * m
    for t in range(m, N + 1):
        a.append(sum(p**j * (1.0 - p) * a[t - 1 - j] for j in range(m)))
    return a[N]


def test_dense_threshold_matches_no_run_recursion():
    # n = m - 1 needs only m states
    for m, p, N in (
        (6, 0.7, 61), (9, 0.5, 95), (12, 0.6, 130), (20, 0.8, 400), (40, 0.95, 600),
        (62, 0.97, 700),
    ):
        got = exact_scan_cdf(BernoulliScanSpec(m, p, N, m - 1))
        assert 0.0 < got < 1.0
        assert got == pytest.approx(no_run_cdf(m, p, N), rel=N * 2.0**-52)


def test_wide_dense_threshold_runs():
    # 40 successes in a row at p = 0.05 is below 1e-51: the value rounds to 1
    assert exact_scan_cdf(BernoulliScanSpec(40, 0.05, 400, 39)) == 1.0


def test_wide_window_single_success_closed_form():
    # n = 1: every two successes at least m apart
    m, p, N = 40, 0.01, 400
    want = sum(
        math.comb(N - (k - 1) * (m - 1), k) * p**k * (1.0 - p) ** (N - k)
        for k in range(N // (m - 1) + 2)
        if N - (k - 1) * (m - 1) >= k
    )
    got = exact_scan_cdf(BernoulliScanSpec(m, p, N, 1))
    assert got == pytest.approx(want, rel=N * 2.0**-52)


def test_each_question_is_one_engine_pass(monkeypatch):
    calls = []
    real = scan_exact._chain_survival

    def counting(m, p, n, trials):
        calls.append(max(trials))
        return real(m, p, n, trials)

    monkeypatch.setattr(scan_exact, "_chain_survival", counting)
    scan_approximation(9, 0.05, 10, 3, want_exact=True, want_T3=True)
    assert calls == [10 * 9]
    calls.clear()
    scan_approximation(9, 0.05, 3, 3, want_T3=True)
    assert calls == [5 * 9]
    calls.clear()
    sandwich(9, 0.05, 93, 3)
    assert calls == [11 * 9]
    calls.clear()
    block_q_sequence(9, 0.05, 3, kmax=8)
    assert calls == [9 * 9]


def test_published_q1_value():
    got = exact_scan_cdf(BernoulliScanSpec(9, 0.05, 18, 2))
    assert format_probability(got) == "0.97131"
    assert abs(got - brute_force_scan_cdf(BernoulliScanSpec(9, 0.05, 18, 2))) < 1e-13


def test_monotonicity():
    # CDF rises in n, falls in N, falls in p
    vals_n = [exact_scan_cdf(BernoulliScanSpec(4, 0.4, 20, n)) for n in range(5)]
    assert all(a <= b + 1e-15 for a, b in zip(vals_n, vals_n[1:]))
    vals_N = [exact_scan_cdf(BernoulliScanSpec(4, 0.4, N, 2)) for N in range(4, 30)]
    assert all(a >= b - 1e-15 for a, b in zip(vals_N, vals_N[1:]))
    vals_p = [
        exact_scan_cdf(BernoulliScanSpec(4, p, 20, 2))
        for p in np.linspace(0.05, 0.95, 10)
    ]
    assert all(a >= b - 1e-15 for a, b in zip(vals_p, vals_p[1:]))


def test_chain_mass_conservation():
    # u_t(w) is the chance that t more trials from w stay at or below n:
    # a probability, and one that can only fall as t grows
    for m in (4, 7):
        for p in (0.05, 0.35, 0.9):
            for n in range(m):
                u = [v.copy() for v in _survival_vectors(m, p, n, range(26))]
                assert (u[0] == 1.0).all()
                for a, b in zip(u, u[1:]):
                    assert ((0.0 <= b) & (b <= a)).all(), (m, p, n)


def test_capacity_limits():
    # the budget counts the C(m, n) states, not m
    assert 0.0 < exact_scan_cdf(BernoulliScanSpec(26, 0.5, 60, 2)) < 1.0
    got = exact_scan_cdf(BernoulliScanSpec(26, 0.5, 60, 25))  # 26 states
    assert got == pytest.approx(no_run_cdf(26, 0.5, 60), rel=60 * 2.0**-52)
    with pytest.raises(CapacityError, match="states"):
        exact_scan_cdf(BernoulliScanSpec(27, 0.5, 60, 13))  # C(27, 13) = 20 058 300
    with pytest.raises(CapacityError, match="63 bits"):
        exact_scan_cdf(BernoulliScanSpec(64, 0.5, 100, 1))
    assert MAX_CHAIN_STATES == 1 << 24
    with pytest.raises(CapacityError):
        brute_force_scan_cdf(BernoulliScanSpec(3, 0.5, 23, 1))


def test_work_cap(monkeypatch):
    # C(20, 10) = 184 756 states over 10**9 trials would step for days
    with pytest.raises(CapacityError, match=r"S=184756 .* N=1000000000 "):
        exact_scan_cdf(BernoulliScanSpec(20, 0.05, 10**9, 10))
    assert MAX_STATE_STEPS == 1 << 36
    # a split chain counts its longer half: C(20, 3) = 1140 states step to
    # r = 93 at N = 205 and to 94 at N = 207; the refusal builds nothing
    monkeypatch.setattr(scan_exact, "MAX_STATE_STEPS", 1140 * 93)
    assert 0.0 < exact_scan_cdf(BernoulliScanSpec(20, 0.05, 205, 3)) < 1.0
    before = _cached_plan.cache_info()
    with pytest.raises(CapacityError, match="state-steps"):
        exact_scan_cdf(BernoulliScanSpec(20, 0.05, 207, 3))
    assert _cached_plan.cache_info() == before
    # an unsplit chain counts every trial: C(18, 6) = 18 564 states
    monkeypatch.setattr(scan_exact, "MAX_STATE_STEPS", 18_564 * 40)
    assert 0.0 < exact_scan_cdf(BernoulliScanSpec(18, 0.05, 40, 6)) < 1.0
    with pytest.raises(CapacityError, match="state-steps"):
        exact_scan_cdf(BernoulliScanSpec(18, 0.05, 41, 6))
    # powers are exempt: 20 states over 10**18 trials take 60 squarings
    monkeypatch.setattr(scan_exact, "MAX_STATE_STEPS", 1)
    assert 0.0 < exact_scan_cdf(BernoulliScanSpec(20, 0.05, 10**18, 19)) < 1.0


# ------------------------------------------------------------ block q and p


def test_block_q_published_values():
    q = block_q_sequence(9, 0.05, 3, kmax=2)
    assert format_probability(q.q(1)) == "0.99716"
    assert format_probability(q.q(2)) == "0.99500"
    q = block_q_sequence(10, 0.0165, 1, kmax=2)
    assert format_probability(q.q(1)) == "0.96860"
    assert format_probability(q.q(2)) == "0.94910"


def test_block_q_degenerate():
    q = block_q_sequence(5, 0.0, 0, kmax=4)
    assert all(q.q(k) == 1.0 for k in range(1, 5))


def test_block_p_head_matches_q():
    # P(W_1 > n) = 1 - P(W_1 <= n) always
    for m, p, n in ((3, 0.5, 2), (9, 0.05, 3), (10, 0.0165, 1), (2, 0.3, 0)):
        ps = block_p_sequence(m, p, n, kmax=3)
        qs = block_q_sequence(m, p, n, kmax=1)
        assert abs(ps.p1 - (1.0 - qs.q(1))) < 5e-15


@pytest.mark.parametrize(
    "m,p,n,kmax",
    [(2, 0.5, 1, 2), (2, 0.3, 0, 2), (3, 0.5, 2, 2), (2, 0.7, 1, 3)],
)
def test_block_joint_law_against_enumeration(m, p, n, kmax):
    q_ref, p_ref = enumerate_block_joint(m, p, n, kmax)
    ps = block_p_sequence(m, p, n, kmax=kmax)
    qs = block_q_sequence(m, p, n, kmax=kmax)
    for k in range(1, kmax + 1):
        assert abs(ps.p(k) - p_ref[k - 1]) < 1e-12
        assert abs(qs.q(k) - q_ref[k - 1]) < 1e-12


def test_block_p_and_q_are_dual():
    # the q-recursion applied to the joint p law must reproduce the plain
    # scan CDF values: both describe the same 1-dependent sequence.  The p's
    # come from the mask DP, since block_p_sequence derives them from the q's
    for m, p, n in ((3, 0.5, 2), (2, 0.4, 1), (4, 0.6, 3)):
        ps = joint_block_p(m, p, n, kmax=4)
        qs = block_q_sequence(m, p, n, kmax=4)
        for k in range(1, 5):
            assert abs(qn_from_p(ps, k) - qs.q(k)) < 1e-12


def test_block_p_envelope():
    ps = block_p_sequence(9, 0.05, 3, kmax=6)
    for k in range(1, 7):
        assert ps.p(k) <= ps.p1 ** math.floor((k + 1) / 2) + 1e-15


@pytest.mark.parametrize("p", [0.01, 0.05, 0.3, 0.9])
def test_block_p_matches_joint_dp(p):
    # the p's derived from one tail pass agree with the joint mask DP to
    # within a rounding per chain step
    kmax = 8
    for m in range(1, 13):
        for n in range(m):
            ps = block_p_sequence(m, p, n, kmax)
            ref = joint_block_p(m, p, n, kmax)
            for k in range(1, kmax + 1):
                assert abs(ps.p(k) - ref.p(k)) <= (kmax + 1) * m * 2.0**-52, (m, n, k)


def test_tail_form_is_relatively_accurate():
    # 1 - exact_scan_cdf loses 6e-11 to 4e-7 of these tails to cancellation
    ref = {n: mp_scan_tails(9, 0.05, n, [90])[0] for n in (5, 6, 7)}
    for n, want in ref.items():
        got = _chain_survival(9, 0.05, n, (90,), tail=True)[0]
        assert abs(got - want) <= 1e-14 * want, n


@pytest.mark.parametrize("m, p, n", [(9, 0.05, 3), (9, 0.05, 5), (10, 0.0165, 1),
                                     (10, 0.05, 7)])
def test_block_p_against_60_digit_reference(m, p, n):
    kmax = 8
    a = mp_scan_tails(m, p, n, [(k + 1) * m for k in range(1, kmax + 1)])
    with mpmath.workdps(60):
        # the inverse recursion as printed, with a_0 = 0
        ref = [mpmath.mpf(1)]
        for i in range(1, kmax + 1):
            s = (a[i - 1] + sum((-1) ** j * ref[j] for j in range(1, i))
                 - sum((-1) ** j * ref[j] * a[i - 2 - j] for j in range(i - 1)))
            ref.append((-1) ** (i + 1) * s)
    ps = block_p_sequence(m, p, n, kmax)
    for k in range(1, kmax + 1):
        assert abs(ps.p(k) - ref[k]) <= 1e-16, k


def test_block_capacity():
    # the block laws share the chain's caps: the state count, not kmax
    with pytest.raises(CapacityError, match="states"):
        block_p_sequence(27, 0.5, 13, kmax=2)
    ps = block_p_sequence(40, 0.01, 3, 30)
    assert isinstance(ps, PSequence) and ps.order == 30
    # both block laws validate their inputs as one scan spec
    for block_sequence in (block_p_sequence, block_q_sequence):
        with pytest.raises(ValueError, match="m must be at least 1"):
            block_sequence(0, 0.05, 1, 2)
        with pytest.raises(ValueError, match="p must lie"):
            block_sequence(3, 1.5, 1, 2)


# ------------------------------------------------------------ plan cache


PLAN_ARRAYS = ("index", "counts", "sigma", "tau", "cells", "origin")


def test_cached_index_is_a_read_only_fresh_build():
    # every array of a cached plan equals a fresh build and is read-only
    for m in range(1, 15):
        for n in range(m):
            cached, fresh = _cached_plan(m, n), _build_plan(m, n)
            assert np.array_equal(cached.index, _successor_index(m, n)), (m, n)
            assert _cached_plan(m, n) is cached
            for name in PLAN_ARRAYS:
                a, b = getattr(cached, name), getattr(fresh, name)
                assert (a is None) == (b is None), (m, n, name)
                if a is not None:
                    assert np.array_equal(a, b) and a.dtype == b.dtype, (m, n, name)
                    assert not a.flags.writeable and b.flags.writeable
                    with pytest.raises(ValueError):
                        a[0] = 0


def test_one_index_build_per_chain():
    _cached_plan.cache_clear()
    scan_approximation(9, 0.05, 10, 3, want_exact=True, want_T3=True)
    scan_approximation(9, 0.3, 4, 3)
    block_q_sequence(9, 0.05, 3, kmax=8)
    block_p_sequence(9, 0.05, 3, kmax=8)
    info = _cached_plan.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def counting_builds(monkeypatch):
    """The (m, n) of every plan built from here on, cached or not."""
    built = []
    real = scan_exact._build_plan

    def spy(m, n):
        built.append((m, n))
        return real(m, n)

    monkeypatch.setattr(scan_exact, "_build_plan", spy)
    return built


def test_one_plan_per_chain_whichever_engine_reads_it(monkeypatch):
    # C(9, 3) = 84 states split at N = 90 and square at N = 1000; C(9, 6) =
    # 84 states have 247 middle blocks, so they step at 90 and square at 1000
    assert scan_exact._splits(9, 3) and not scan_exact._splits(9, 6)
    for n in (3, 6):
        assert engines_run(monkeypatch, 9, 0.05, 90, n) == ["_survival_vectors"]
        assert engines_run(monkeypatch, 9, 0.05, 1000, n) == ["_chain_powers"]
    _cached_plan.cache_clear()
    built = counting_builds(monkeypatch)
    for m, n in ((9, 3), (9, 6)):
        for tail in (False, True):
            for trials in ((9,), (90,), (1000,), (20, 90, 1000)):
                _chain_survival(m, 0.05, n, trials, tail)
        block_q_sequence(m, 0.05, n, kmax=8)
        block_p_sequence(m, 0.05, n, kmax=8)
        sandwich(m, 0.05, 100, n)
    assert built == [(9, 3), (9, 6)]
    assert _cached_plan.cache_info().currsize == 2


def test_capacity_errors_build_no_plan(monkeypatch):
    built = counting_builds(monkeypatch)
    with pytest.raises(CapacityError, match="states"):
        exact_scan_cdf(BernoulliScanSpec(27, 0.5, 60, 13))
    with pytest.raises(CapacityError, match="63 bits"):
        exact_scan_cdf(BernoulliScanSpec(64, 0.5, 100, 1))
    with pytest.raises(CapacityError, match="state-steps"):
        exact_scan_cdf(BernoulliScanSpec(20, 0.05, 10**9, 10))  # not cached
    monkeypatch.setattr(scan_exact, "MAX_STATE_STEPS", 1140 * 93)
    _cached_plan.cache_clear()
    with pytest.raises(CapacityError, match="state-steps"):
        exact_scan_cdf(BernoulliScanSpec(20, 0.05, 207, 3))  # cached, split
    assert built == []
    assert _cached_plan.cache_info().currsize == 0


def test_at_most_64_plans_are_kept():
    _cached_plan.cache_clear()
    chains = [(m, n) for m in range(1, 15) for n in range(m)]  # 105 cached chains
    for m, n in chains:
        exact_scan_cdf(BernoulliScanSpec(m, 0.05, m, n))
    info = _cached_plan.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (64, 64, len(chains))
    # the least recently used went first
    _cached_plan(*chains[-1])
    assert _cached_plan.cache_info().hits == info.hits + 1


def test_large_chains_are_not_cached(monkeypatch):
    # C(18, 6) = 18 564 states, above the 2**14 kept across calls, build
    # their plan, the successor index alone, on every call
    before = _cached_plan.cache_info()
    built = counting_builds(monkeypatch)
    for _ in range(2):
        assert 0.0 < exact_scan_cdf(BernoulliScanSpec(18, 0.05, 40, 6)) < 1.0
    assert _cached_plan.cache_info() == before
    assert built == [(18, 6)] * 2
    plan = _plan(18, 6)
    assert plan.index.flags.writeable
    assert all(getattr(plan, name) is None for name in PLAN_ARRAYS[1:])


def test_uncached_chain_steps_within_its_memory():
    # C(18, 6) = 18 564 states build a fresh index and step on it without a
    # copy: two vectors, the weights and the index, 32 (1 + n/m) B/state
    m, n = 18, 6
    tracemalloc.start()
    try:
        exact_scan_cdf(BernoulliScanSpec(m, 0.05, m + 3, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.02 * 32 * (1 + n / m) * math.comb(m, n)


def test_shared_index_is_thread_safe():
    specs = [BernoulliScanSpec(m, p, N, n)
             for m, n in ((12, 5), (10, 3), (12, 11))
             for p, N in ((0.05, 200), (0.3, 41), (0.6, 120), (0.9, 15))]
    serial = [exact_scan_cdf(s) for s in specs]
    _cached_plan.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so misses overlap
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(exact_scan_cdf, specs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert _cached_plan.cache_info().currsize == 3


# ------------------------------------------------------ stepping and powers

U = 2.0**-53


def reference_vectors(m, p, n, stops, tail):
    """u_t, or v_t with ``tail``, at each of the ascending ``stops``, by the
    recursion of the module comment: one take, one multiply and one add per
    step (and p added to every even word for the tail)."""
    S, E = math.comb(m, n), math.comb(m - 1, n)
    idx = _successor_index(m, n)
    weight = np.concatenate((np.full(S, 1.0 - p), np.full(S - E, p)))
    u = np.full(idx.shape[0], 0.0 if tail else 1.0)
    out, t = [], 0
    for stop in stops:
        for _ in range(stop - t):
            u = u.take(idx) * weight
            u[E:S] += u[S:]
            if tail:
                u[:E] += p
        t = stop
        out.append(u[:S].copy())
    return out


@pytest.mark.parametrize("p", [0.0, 1e-4, 0.3, 1.0])
def test_step_loop_equals_reference_steps(p):
    # the stepping loop takes two steps per turn and an odd remaining step
    # once per stop; every element equals the plain recursion's
    for m in (1, 2, 3, 6, 9, 12):
        last = 2 * m + 3
        stop_lists = (list(range(last + 1)),       # every t from 0, gaps of 1
                      [0, 0, 2, 5, 5, last, last],  # repeats, even and odd gaps
                      [last], [last - 1], [1, last], [0, 3, last - 1])
        for n in sorted({0, 1, m // 2, m - 1} & set(range(m))):
            for tail in (False, True):
                for stops in stop_lists:
                    got = [u.copy() for u in _survival_vectors(m, p, n, stops, tail)]
                    want = reference_vectors(m, p, n, stops, tail)
                    assert len(got) == len(want) == len(stops)
                    for t, a, b in zip(stops, got, want):
                        assert (a == b).all(), (m, n, tail, stops, t)


def stepped(m, p, n, stops, tail):
    w0 = _start(m, n)
    return [float(v[w0]) for v in _survival_vectors(m, p, n, stops, tail)]


def powered(m, p, n, stops, tail):
    return [v[tail] for v in _chain_powers(m, p, n, stops)]


def split(m, p, n, stops, tail):
    """The split on any chain, also one that ``_chain_survival`` steps
    because it has more than 2 S middle blocks."""
    plan = _plan(m, n)
    if plan.sigma is None:
        sigma, tau = _split_index(m, n, plan.index)
        counts = np.array([math.comb(m - 1, j) for j in range(n + 1)])
        plan = dataclasses.replace(plan, counts=counts, sigma=sigma, tau=tau)
    with mock.patch.object(scan_exact, "_plan", lambda m, n: plan):
        got = _split_survival(m, p, n, stops, tail)
    return [got[N] for N in stops]


@st.composite
def power_chains(draw):
    m = draw(st.integers(1, 14))
    n = draw(st.sampled_from([n for n in range(m)
                              if math.comb(m, n) <= scan_exact._POWER_CHAIN_STATES]))
    p = draw(st.one_of(st.floats(0.0, 1.0), st.floats(1e-4, 1e-2), st.floats(0.99, 1.0)))
    return m, p, n, draw(st.integers(m, 600))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(power_chains())
def test_stepping_and_powers_agree(chain):
    # both engines sum non-negative terms, so each value, in either form,
    # keeps its own relative precision down to the smallest normal number
    m, p, n, N = chain
    for tail in (True, False):
        a, = powered(m, p, n, [N], tail)
        b, = stepped(m, p, n, [N], tail)
        assert abs(a - b) <= 3 * N * U * b + sys.float_info.min, (tail, a, b)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(power_chains())
def test_split_agrees_with_stepping(chain):
    # the split sums non-negative products of two vectors of about N / 2
    # steps each, so it keeps stepping's relative precision in both forms
    m, p, n, N = chain
    for tail in (True, False):
        a, = split(m, p, n, [N], tail)
        b, = stepped(m, p, n, [N], tail)
        assert abs(a - b) <= 3 * N * U * b + sys.float_info.min, (tail, a, b)


@pytest.mark.parametrize("p", [0.0, 1e-4, 1.3e-4, 0.5, 1.0])
def test_split_edges_agree_with_stepping(p):
    # n = 0, and N = m and m + 1, where the left side is empty (l = 0)
    for m in range(1, 12):
        stops = [m, m + 1, 2 * m + 3]
        for n in range(m):
            for tail in (True, False):
                got = split(m, p, n, stops, tail)
                for N, a, b in zip(stops, got, stepped(m, p, n, stops, tail)):
                    assert abs(a - b) <= 3 * N * U * b + sys.float_info.min, (m, n, N, tail)


def test_split_matches_enumeration():
    cases = [(m, p, n, (m, m + 1, 2 * m + 1, 16)) for m in (1, 2, 3, 5, 7)
             for p in (0.2, 0.8) for n in range(m)]
    cases += [(7, 0.3, 2, (22,)), (8, 0.6, 5, (22,))]  # enumeration's largest N
    for m, p, n, Ns in cases:
        for N, a in zip(Ns, split(m, p, n, Ns, False)):
            b = brute_force_scan_cdf(BernoulliScanSpec(m, p, N, n))
            assert abs(a - b) <= 1e-13, (m, p, N, n)


def test_split_steps_half_the_trials(monkeypatch):
    # C(20, 3) = 1140 states: N - m + 1 = 186 trials outside the middle
    # block, split into two halves of 93
    reached = []
    real = scan_exact._survival_vectors

    def spy(m, p, n, stops, tail=False):
        reached.extend(stops)
        return real(m, p, n, stops, tail)

    monkeypatch.setattr(scan_exact, "_survival_vectors", spy)
    assert 0.0 < exact_scan_cdf(BernoulliScanSpec(20, 0.05, 205, 3)) < 1.0
    assert reached == [93]


def budget_word(past, m, n):
    """The word of the state after the trials ``past`` (0 or 1 each, at most
    m - 1 of them), from its definition: the window ending at future trial i
    allows n minus the successes among the last m - i past trials, and
    cap(k) = min(k, allow(i) + k - i for i <= k)."""
    word = prev = 0
    for k in range(1, m + 1):
        cap = min([k] + [n - sum(past[len(past) - (m - i):]) + k - i for i in range(1, k + 1)])
        word |= (cap - prev) << (k - 1)
        prev = cap
    return word


def test_split_index_reads_every_block():
    # (j, sigma, tau) of every block with at most n successes, against the
    # states its forward and backward readings reach by definition; a chain
    # that splits keeps them, read-only, in its plan
    for m in range(1, 9):
        for n in range(m):
            at = {w: i for i, w in enumerate(_budget_words(m, n).tolist())}
            sigma, tau = _split_index(m, n, _successor_index(m, n))
            counts = [math.comb(m - 1, j) for j in range(n + 1)]
            plan = _plan(m, n)
            if scan_exact._splits(m, n):
                assert plan.counts.tolist() == counts
                assert np.array_equal(plan.sigma, sigma) and np.array_equal(plan.tau, tau)
                sigma = plan.sigma
            else:
                assert plan.sigma is None and plan.tau is None and plan.counts is None
            got = sorted(zip(np.repeat(range(n + 1), counts).tolist(), sigma.tolist(),
                             tau.tolist()))
            want = sorted((sum(b), at[budget_word(b, m, n)], at[budget_word(b[::-1], m, n)])
                          for b in itertools.product((0, 1), repeat=m - 1) if sum(b) <= n)
            assert got == want, (m, n)
            if plan.sigma is not None:
                with pytest.raises(ValueError):
                    sigma[0] = 0


@pytest.mark.parametrize("m, trials", [(5, (5, 16, 50, 150)), (7, (7, 22, 70, 210)),
                                       (9, (9, 28)), (10, (10, 31))])
def test_both_engines_against_60_digit_tails(m, trials):
    # 30m at m = 9 and 10 would take the mpmath oracle half a minute
    for p in (0.01, 0.05, 0.3, 0.7):
        for n in range(m):
            ref = mp_scan_tails(m, p, n, trials)
            for engine in (stepped, powered, split):
                got = engine(m, p, n, trials, True)
                for N, a, want in zip(trials, got, ref):
                    assert abs(a - want) <= 3 * N * U * want, (engine.__name__, p, n, N)


def engines_run(monkeypatch, m, p, N, n):
    """Names of the engines that ``exact_scan_cdf`` calls for one spec."""
    ran = []
    for name in ("_chain_powers", "_survival_vectors"):
        def spy(*args, real=getattr(scan_exact, name), name=name):
            ran.append(name)
            return real(*args)

        monkeypatch.setattr(scan_exact, name, spy)
    exact_scan_cdf(BernoulliScanSpec(m, p, N, n))
    monkeypatch.undo()
    return ran


def test_engine_selection(monkeypatch):
    # S = 20 over 205 trials squares; C(20, 3) = 1140 states step
    for n in (1, 19):
        assert engines_run(monkeypatch, 20, 0.05, 205, n) == ["_chain_powers"]
    assert engines_run(monkeypatch, 20, 0.05, 205, 3) == ["_survival_vectors"]
    # S**2 * N.bit_length() against 400 N: 56 states over 80 trials square,
    # 120 over 160 step; C(10, 5) = 252 and C(8, 4) = 70 step at N = m
    assert engines_run(monkeypatch, 8, 0.05, 80, 3) == ["_chain_powers"]
    assert engines_run(monkeypatch, 10, 0.05, 160, 3) == ["_survival_vectors"]
    assert engines_run(monkeypatch, 10, 0.05, 10, 5) == ["_survival_vectors"]
    assert engines_run(monkeypatch, 8, 0.05, 8, 4) == ["_survival_vectors"]
    # C(12, 4) = 495 states step even where the rule alone would square
    assert 495**2 * (12_000).bit_length() <= scan_exact._POWER_COST * 12_000
    assert engines_run(monkeypatch, 12, 0.05, 12_000, 4) == ["_survival_vectors"]


def test_engine_is_picked_per_call():
    # the largest N of a call picks the engine for every N of it: q_1 of
    # these block sequences takes powers, while N = 2m alone does not, and
    # the two agree within the proven 3 N u
    for m, p, n, kmax in ((8, 0.05, 3, 9), (9, 0.05, 3, 20), (10, 0.03, 3, 40),
                          (12, 0.03, 2, 9), (9, 0.3, 4, 40), (10, 0.05, 2, 9)):
        alone = exact_scan_cdf(BernoulliScanSpec(m, p, 2 * m, n))
        q1 = block_q_sequence(m, p, n, kmax).q(1)
        assert abs(q1 - alone) <= 3 * 2 * m * U * alone, (m, p, n, kmax)
    alone = exact_scan_cdf(BernoulliScanSpec(8, 0.03, 16, 3))
    assert abs(scan_approximation(8, 0.03, 20, 3).q1 - alone) <= 3 * 16 * U * alone
