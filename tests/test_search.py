import dataclasses
import functools
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigmapairs import arith, chains, search
from sigmapairs.arith import (
    DEFAULT_ROUNDS,
    TRIAL_DIVISION_BOUND,
    Primality,
    decimal_digits,
    is_prime,
    sigma_power,
    small_primes,
)
from sigmapairs.chains import (
    ChainState,
    NonIntegralStep,
    chain_next,
    chain_terms,
    is_quasisolution,
)
from sigmapairs.search import (
    CheckpointFormatError,
    CheckpointMismatch,
    PairRecord,
    SearchCheckpoint,
    SquareProbeRow,
    enumerate_seeds,
    heuristic_tail_parts,
    load_checkpoint,
    locate_pair_index,
    search_pairs,
    square_divisor_probe,
    write_checkpoint,
)

from conftest import KNOWN_PAIRS, UNUSABLE_CHECKPOINTS, reference_square_part


class TestSearchPairs:
    def test_twenty_digits_finds_exactly_the_three_known_pairs(self):
        records = search_pairs(2, digits_limit=20)
        assert [(r.index, r.p, r.q) for r in records] == list(KNOWN_PAIRS)

    def test_all_records_carry_prime_verdicts_and_digit_counts(self):
        for record in search_pairs(2, digits_limit=20):
            assert record.p_verdict.is_probable_prime
            assert record.q_verdict.is_probable_prime
            assert record.digits_q == len(str(record.q))
            assert record.m == 2

    def test_one_digit_limit_admits_nothing(self):
        # (3, 13) does not fit: both members must stay within the limit
        assert search_pairs(2, digits_limit=1) == []

    def test_two_digit_limit_admits_first_two_pairs(self):
        records = search_pairs(2, digits_limit=2)
        assert [(r.p, r.q) for r in records] == [(3, 13), (13, 61)]

    def test_pairs_are_quasisolutions_congruent_one_mod_four_and_three(self):
        for record in search_pairs(2, digits_limit=20):
            if record.p > 3:
                assert record.p % 4 == 1 and record.p % 3 == 1
                assert record.q % 4 == 1 and record.q % 3 == 1

    def test_linked_pair_scarcity(self):
        records = search_pairs(2, digits_limit=20)
        primes = [r.p for r in records] + [r.q for r in records]
        shared = {p for p in primes if primes.count(p) > 1}
        assert shared == {13}

    def test_m4_chain_pair_search(self):
        records = search_pairs(4, seed=(5, 11), digits_limit=4)
        assert [(r.index, r.p, r.q) for r in records] == [(1, 5, 11), (2, 11, 3221)]

    def test_rejects_invalid_seed(self):
        with pytest.raises(NonIntegralStep):
            search_pairs(2, seed=(2, 5), digits_limit=5)

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            search_pairs(2, digits_limit=0)
        with pytest.raises(ValueError):
            search_pairs(2, digits_limit=5, checkpoint_every=0)
        with pytest.raises(ValueError):
            search_pairs(2, digits_limit=5, max_steps=-1)

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            search_pairs(2, digits_limit=5, rounds=0)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_step_from_every_small_quasisolution_is_integral(self, m):
        # the walk divides without a remainder check: from a quasisolution
        # (p, q), sigma(q^m) / p is an integer that pairs with q again
        bound = 600
        sigmas = [0] + [sigma_power(x, m) for x in range(1, bound + 1)]
        pairs = [
            (p, q)
            for q in range(1, bound + 1)
            for p in range(1, bound + 1)
            if sigmas[q] % p == 0 and sigmas[p] % q == 0
        ]
        assert len(pairs) > 2
        for p, q in pairs:
            nxt, remainder = divmod(sigmas[q], p)
            assert remainder == 0, (m, p, q)
            assert is_quasisolution(q, nxt, m), (m, p, q)


@functools.cache
def _plain_primes(bound):
    """The primes up to ``bound`` by a plain sieve of Eratosthenes."""
    flags = bytearray(b"\x01") * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    return tuple(p for p, flag in enumerate(flags) if flag)


# Above the tier bound of every value the tier tests below check.
_TIER_REFERENCE_BOUND = 2 * 10**6


@functools.cache
def _admissible_primes(m):
    """The primes up to the reference bound that can divide a chain term."""
    return tuple(
        p for p in _plain_primes(_TIER_REFERENCE_BOUND)
        if (m + 1) % p == 0 or math.gcd(p - 1, m + 1) > 1
    )


def _tier_reference(m, x):
    """Whether an admissible prime in (TRIAL_DIVISION_BOUND, B(x)] divides
    x, by one remainder per prime."""
    bound = search._tier_bound(x)
    assert bound <= _TIER_REFERENCE_BOUND
    return any(
        x % p == 0 for p in _admissible_primes(m) if TRIAL_DIVISION_BOUND < p <= bound
    )


def _reference_search(m, seed, digits_limit, rounds=DEFAULT_ROUNDS):
    """Full primality test on both terms of every consecutive pair."""
    overflow = 10**digits_limit
    state = ChainState(m=m, n=2, prev=seed[0], curr=seed[1])
    records = []
    while state.curr < overflow:
        p_verdict = is_prime(state.prev, rounds)
        q_verdict = is_prime(state.curr, rounds)
        if p_verdict.is_probable_prime and q_verdict.is_probable_prime:
            records.append(
                PairRecord(
                    m=m,
                    index=state.n - 1,
                    p=state.prev,
                    q=state.curr,
                    p_verdict=p_verdict,
                    q_verdict=q_verdict,
                    digits_q=decimal_digits(state.curr),
                )
            )
        state = chain_next(state)
    return records


class TestCandidatePipeline:
    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_every_small_prime_factor_of_a_neighbour_sum_is_tried(self, m):
        # a chain term divides sigma(y^m) for its neighbour y, so every
        # prime that can divide a term must be in the restricted list
        tried = set(search._trial_primes(m))
        primes = small_primes(1000)
        for x in range(1, 2001):
            value = sigma_power(x, m)
            for p in primes:
                if value % p == 0:
                    assert p in tried, (m, x, p)

    def test_restricted_list_for_m2_is_three_and_one_mod_three(self):
        assert search._trial_primes(2) == tuple(
            p for p in small_primes() if p == 3 or p % 3 == 1
        )

    @pytest.mark.parametrize(
        "digits, rounds",
        [(1, 40), (2, 40), (20, 40), (60, 2), (100, 40), (300, 40), (400, 40)],
    )
    def test_m2_matches_full_test_of_every_pair(self, digits, rounds):
        assert search_pairs(2, digits_limit=digits, rounds=rounds) == _reference_search(
            2, (1, 1), digits, rounds
        )

    @pytest.mark.parametrize("seed", [(5, 11), (61, 131), (101, 491)])
    def test_m4_seeds_match_full_test_of_every_pair(self, seed):
        assert search_pairs(4, seed=seed, digits_limit=1000) == _reference_search(
            4, seed, 1000
        )

    @pytest.mark.parametrize("m, seed, digits", [
        (2, (1, 1), 1000), (4, (5, 11), 1000), (4, (61, 131), 1000),
        (4, (101, 491), 1000), (3, (1, 1), 1000), (6, (1, 1), 1000),
    ])
    def test_survival_equals_the_per_prime_rule(self, m, seed, digits):
        # stage (a) by block gcd against one remainder per admissible prime,
        # on every term of the chain: a term survives when no admissible
        # prime below it divides it
        primes = search._trial_primes(m)
        overflow = 10**digits
        state = ChainState(m=m, n=2, prev=seed[0], curr=seed[1])
        while state.curr < overflow:
            x = state.curr
            survives = search._survives(m, x)
            assert survives == all(x % p for p in primes if p < x), (m, seed, state.n)
            state = chain_next(state)

    @given(
        m=st.sampled_from([2, 3, 4, 6]),
        picks=st.lists(st.integers(0, 10**6), max_size=3),
        cofactor=st.integers(2**64, 2**200),
    )
    @settings(max_examples=200)
    def test_survival_equals_the_per_prime_rule_off_the_chain(self, m, picks, cofactor):
        # the chains for m > 2 pass 2**64 in a few steps, so the rule is
        # also checked on values built from the admissible primes
        primes = search._trial_primes(m)
        x = cofactor
        for pick in picks:
            x *= primes[pick % len(primes)]
        survives = search._survives(m, x)
        assert survives == all(x % p for p in primes)

    @pytest.mark.parametrize("m, seed, digits", [
        (2, (1, 1), 1000), (3, (1, 1), 1000), (4, (1, 1), 1000),
        (4, (5, 11), 1000), (4, (61, 131), 1000), (4, (101, 491), 1000),
        (6, (1, 1), 2000),
    ])
    def test_tier_equals_the_per_prime_rule(self, m, seed, digits):
        # stage (c) by segment gcd against one remainder per admissible
        # prime in (10**5, B(x)], on the terms of candidate pairs; no pair
        # of an m > 2 chain above the tier's start is a candidate, and
        # those chains pass these sizes in a few steps, so all their
        # terms are checked
        state = ChainState(m=m, n=2, prev=seed[0], curr=seed[1])
        terms = [state.prev]
        while state.curr < 10**digits:
            terms.append(state.curr)
            state = chain_next(state)
        survives = [search._survives(m, x) for x in terms]
        checked = set()
        for i in range(1, len(terms)):
            if m > 2 or (survives[i - 1] and survives[i]):
                checked.update(terms[i - 1 : i + 1])
        checked = sorted(
            x for x in checked if search._tier_bound(x) > TRIAL_DIVISION_BOUND
        )
        assert checked
        search._segment_product.cache_clear()  # built from nothing, segment by segment
        for x in checked:
            assert search._tier_finds_factor(m, x) == _tier_reference(m, x), (m, seed, x)

    @given(
        m=st.sampled_from([2, 3, 4, 6]),
        picks=st.lists(st.integers(0, 10**6), max_size=3),
        cofactor=st.integers(10**180, 10**500),
    )
    @settings(max_examples=100, deadline=None)
    def test_tier_equals_the_per_prime_rule_off_the_chain(self, m, picks, cofactor):
        # built values: the picked admissible primes lie below, inside and
        # above the tier's range (10**5, B(x)]
        primes = _admissible_primes(m)
        x = cofactor
        for pick in picks:
            x *= primes[pick % len(primes)]
        assert search._tier_finds_factor(m, x) == _tier_reference(m, x)

    def test_tier_bound_grows_with_the_term_and_stays_below_it(self):
        # B depends on the bit length alone, so the least x of each bit
        # length is the one B comes closest to
        smallest = [1 << (bits - 1) for bits in range(1, 40_001)]
        bounds = [search._tier_bound(x) for x in smallest]
        assert bounds == sorted(bounds)
        assert bounds[-1] > TRIAL_DIVISION_BOUND
        for x, bound in zip(smallest, bounds):
            assert bound == TRIAL_DIVISION_BOUND or bound < x

    def test_tier_runs_at_most_once_per_term(self, monkeypatch, tmp_path):
        # the walk passes two pairs with 500 digits, whose tier runs in a
        # worker; a term shared by two candidate pairs runs the tier in
        # each, and no term past the tier's start is shared
        _forced_pool(monkeypatch, 2)
        calls = _logged_tier(monkeypatch, tmp_path / "tier.log")
        search_pairs(2, digits_limit=600)
        tiered = [x for _, x in calls() if search._tier_bound(x) > TRIAL_DIVISION_BOUND]
        assert tiered
        assert {pid for pid, _ in calls()} - {os.getpid()}
        assert len(tiered) == len(set(tiered))

    def test_stage_a_divides_only_terms_of_possible_candidates(self, monkeypatch):
        # a term is divided while a pair it belongs to can still be a
        # candidate, so a skipped term has two rejected neighbours; the
        # last term walked belongs to one pair only
        divided = []
        survives = search._survives
        monkeypatch.setattr(search, "_survives", lambda m, x: (
            divided.append(x), survives(m, x))[1])
        search_pairs(2, digits_limit=1000)
        terms = [1, 1]
        while terms[-1] < 10**1000:
            terms.append(sigma_power(terms[-1], 2) // terms[-2])
        walked = terms[:-1]  # the walk stops at the first term past the limit
        assert len(divided) == len(set(divided)) + 1  # t_1 = t_2 = 1
        assert set(divided) <= set(walked)
        skipped = [k for k, x in enumerate(walked) if x not in divided]
        assert 0 < len(skipped) < len(walked)
        primes = search._trial_primes(2)
        for k in skipped:
            for x in walked[k - 1 : k + 2 : 2]:
                assert any(x % p == 0 for p in primes if p < x), k

    def test_no_term_is_tested_twice(self, monkeypatch):
        # each candidate pair is confirmed on its own, so a term of two
        # candidate pairs can be tested twice; past t_2 = 1, only t_4 = 13 is
        calls = []

        def counting(x, rounds=DEFAULT_ROUNDS):
            if x > 1:  # t_1 = t_2 = 1; every later term is new
                calls.append(x)
            return is_prime(x, rounds)

        monkeypatch.setattr(search, "is_prime", counting)
        search_pairs(2, digits_limit=300)
        assert {3, 13, 61, 22419767768701, 107419560853453} <= set(calls)
        above = [x for x in calls if x > 13]
        assert len(above) == len(set(above))


# Probable primes above the pool gate, built as Mersenne primes, and
# composites of the same size: one with a factor below 10**5 and one
# that only Miller-Rabin rejects.
_P1 = 2**2203 - 1  # 664 digits
_P2 = 2**2281 - 1  # 687 digits
_TD_COMPOSITE = 3 * _P1
_MR_COMPOSITE = (2**607 - 1) * (2**1279 - 1)  # 569 digits
# 669 digits, no factor below 10**5; the tier finds 100003 = 1 (mod 3)
_TIER_COMPOSITE = 100003 * _P1
_FEW_ROUNDS = 3


def _forced_pool(monkeypatch, workers):
    """Give stage (d) ``workers`` processes (0: none), whatever the CPUs;
    returns the list that records each time the pool size is asked for."""
    asked = []
    monkeypatch.setattr(search, "_pool_size", lambda: asked.append(workers) or workers)
    return asked


def _pid_log(log_path):
    """A function that appends 'pid value' to a file, from this process
    and from the workers it forks afterwards, and one that reads the
    (pid, value) pairs back."""

    def log(x):
        with open(log_path, "a", encoding="ascii") as handle:
            handle.write(f"{os.getpid()} {x}\n")

    def calls():
        if not os.path.exists(log_path):
            return []
        with open(log_path, encoding="ascii") as handle:
            return [tuple(map(int, line.split())) for line in handle]

    return log, calls


def _logged_is_prime(monkeypatch, log_path):
    """Log each stage (d) call of the search (see ``_pid_log``)."""
    log, calls = _pid_log(log_path)

    def logged(x, rounds=DEFAULT_ROUNDS):
        log(x)
        return is_prime(x, rounds)

    monkeypatch.setattr(search, "is_prime", logged)
    return calls


def _logged_tier(monkeypatch, log_path):
    """Log each stage (c) call of the search (see ``_pid_log``)."""
    log, calls = _pid_log(log_path)
    finds_factor = search._tier_finds_factor

    def logged(m, x):
        log(x)
        return finds_factor(m, x)

    monkeypatch.setattr(search, "_tier_finds_factor", logged)
    return calls


def _logged_sieve(monkeypatch, log_path):
    """Empty the cache of ``search._segment_product`` and log the segment
    k of each of its misses, each a sieve (see ``_pid_log``)."""
    log, calls = _pid_log(log_path)
    sieve = search._sieve

    def logged(limit, start):
        log((start - 1 - TRIAL_DIVISION_BOUND) // search._TIER_SEGMENT)
        return sieve(limit, start)

    monkeypatch.setattr(search, "_sieve", logged)
    search._segment_product.cache_clear()
    return calls


def _confirm_walk(monkeypatch, terms, indices, states=None):
    """Stages (c) and (d) of the pairs (terms[i], terms[i + 1]) for i in
    ``indices``, at chain index i + 1, as a walk queues them: the state at
    n = i + 2 before each pair, and one more state at the end.  Returns
    the records and the states written, which also go to ``states`` as
    they are written when it is given."""
    states = [] if states is None else states
    monkeypatch.setattr(search, "write_checkpoint", lambda _, state: states.append(state))
    confirmer = search._Confirmer(2, _FEW_ROUNDS, "unused", [], max(terms))
    try:
        for i in indices:
            confirmer.save(i + 2, terms[i], terms[i + 1])
            confirmer.add_pair(i + 1, terms[i], terms[i + 1])
            confirmer.settle(wait=False)
        confirmer.save(indices[-1] + 3, terms[-2], terms[-1])
        confirmer.settle(wait=True)
    finally:
        confirmer.close()
    return confirmer.found, states


@functools.cache
def _cached_is_prime(x, rounds=DEFAULT_ROUNDS):
    return is_prime(x, rounds)


class _WorkerFailure(Exception):
    """An error raised by the job a worker runs."""


class _ScheduledJob:
    def __init__(self, result, delay):
        self._result = result
        self._delay = delay

    def ready(self):
        self._delay -= 1
        return self._delay < 0

    def get(self):
        if isinstance(self._result, _WorkerFailure):
            raise self._result
        return self._result


class _ScheduledPool:
    """The fork pool's stand-in, in this process: ``apply_async`` checks
    that a job is a call on plain ints, runs it at once on pickled copies
    of them and returns a pickled copy of its result, as the pipes to a
    worker would.  The k-th job answers ``ready()`` with False the first
    ``delays[k]`` times (none once the delays run out), so the jobs finish
    in the order they give.  A job numbered in ``failing`` (from 0) is not
    run, and its ``get()`` raises :class:`_WorkerFailure`, as the job of
    a worker that raised does."""

    def __init__(self, delays, failing=()):
        self._delays = iter(delays)
        self._failing = failing
        self._jobs = 0

    def apply_async(self, func, args):
        assert all(type(arg) is int for arg in args), args
        k, self._jobs = self._jobs, self._jobs + 1
        if k in self._failing:
            result = _WorkerFailure(f"job {k}")
        else:
            result = func(*pickle.loads(pickle.dumps(args)))
        return _ScheduledJob(pickle.loads(pickle.dumps(result)), next(self._delays, 0))

    def terminate(self):
        pass

    def join(self):
        pass


_POOLED_TERMS = (_P1, _P2, _TD_COMPOSITE, _MR_COMPOSITE, _TIER_COMPOSITE)


@st.composite
def _scheduled_walks(draw):
    """The terms of ``_POOLED_TERMS`` in some order, the indices of the
    pairs among them that the walk confirms (consecutive indices share a
    term) and the delays of the pooled jobs."""
    terms = draw(st.permutations(_POOLED_TERMS))
    indices = sorted(draw(st.sets(st.integers(0, len(terms) - 2), min_size=1)))
    return terms, indices, draw(st.lists(st.integers(0, 3), max_size=4))


class TestPooledConfirmation:
    @pytest.mark.parametrize("terms, indices", [
        # (composite, .), then (prime, prime) sharing its first term, then
        # (prime, composite) sharing its first term
        ([_MR_COMPOSITE, _P1, _P2, _TD_COMPOSITE], [0, 1, 2]),
        # pairs apart from each other: (prime, composite) and (composite, .)
        ([_P1, _MR_COMPOSITE, 7, _TD_COMPOSITE, _P2], [0, 3]),
        ([_P2, _TD_COMPOSITE, 7, _MR_COMPOSITE, _P1], [0, 3]),
        # (prime, prime), then (prime, composite) that the tier rejects,
        # then (composite, .) sharing that composite
        ([_P2, _P1, _TIER_COMPOSITE, _MR_COMPOSITE], [0, 1, 2]),
    ])
    def test_pooled_pairs_equal_in_process_pairs(
        self, monkeypatch, tmp_path, terms, indices
    ):
        _forced_pool(monkeypatch, 0)
        serial_calls = _logged_is_prime(monkeypatch, tmp_path / "serial.log")
        serial, serial_states = _confirm_walk(monkeypatch, terms, indices)

        asked = _forced_pool(monkeypatch, 2)
        pooled_calls = _logged_is_prime(monkeypatch, tmp_path / "pooled.log")
        pooled, states = _confirm_walk(monkeypatch, terms, indices)

        assert asked == [2]
        assert {pid for pid, _ in pooled_calls()} - {os.getpid()}
        assert pooled == serial
        assert states == serial_states
        # the same values are tested
        values = [x for _, x in pooled_calls()]
        assert sorted(values) == sorted(x for _, x in serial_calls())
        expected = [
            (i + 1, terms[i], terms[i + 1]) for i in indices
            if terms[i] in (_P1, _P2) and terms[i + 1] in (_P1, _P2)
        ]
        assert [(r.index, r.p, r.q) for r in pooled] == expected
        for record in pooled:
            assert record.p_verdict == is_prime(record.p, _FEW_ROUNDS)
            assert record.q_verdict == is_prime(record.q, _FEW_ROUNDS)

    def test_a_worker_rejects_at_the_tier(self, monkeypatch, tmp_path):
        # the first pair starts the pool; each pair goes to a worker, which
        # finds the tier factor of the second pair's second term and then
        # of the third pair's first term, the same term
        asked = _forced_pool(monkeypatch, 2)
        tier_calls = _logged_tier(monkeypatch, tmp_path / "tier.log")
        prime_calls = _logged_is_prime(monkeypatch, tmp_path / "prime.log")
        terms = [_P2, _P1, _TIER_COMPOSITE, _MR_COMPOSITE]
        found, _ = _confirm_walk(monkeypatch, terms, [0, 1, 2])
        assert asked == [2]
        assert [(r.index, r.p, r.q) for r in found] == [(1, _P2, _P1)]
        me = os.getpid()
        assert [x for pid, x in tier_calls() if pid == me] == []
        assert sorted(x for pid, x in tier_calls() if pid != me) == sorted(
            [_P2, _P1, _P1, _TIER_COMPOSITE, _TIER_COMPOSITE]
        )
        assert sorted(x for _, x in prime_calls()) == sorted([_P1, _P2])

    def test_states_wait_for_the_pairs_before_them(self, monkeypatch):
        # a record found by a worker lands in every state after its pair
        # and in none before it
        _forced_pool(monkeypatch, 2)
        terms = [_MR_COMPOSITE, _P1, _P2, _TD_COMPOSITE]
        found, states = _confirm_walk(monkeypatch, terms, [0, 1, 2])
        assert [(r.index, r.p, r.q) for r in found] == [(2, _P1, _P2)]
        assert [(s.n, len(s.found)) for s in states] == [(2, 0), (3, 0), (4, 1), (5, 1)]

    @settings(max_examples=50, deadline=None)
    @given(walk=_scheduled_walks())
    @example(walk=(list(_POOLED_TERMS), [0, 1, 2, 3], [3, 3, 3, 3]))
    @example(walk=([_P2, _P1, _TIER_COMPOSITE, _MR_COMPOSITE, _TD_COMPOSITE],
                   [0, 1, 2], []))
    # the record of the first pair arrives after the second pair starts
    @example(walk=([_P1, _P2, _MR_COMPOSITE, _TD_COMPOSITE, _TIER_COMPOSITE], [0, 2], [3]))
    # two records share a term, and the later one arrives first
    @example(walk=([_P2, _P1, _P2, _TD_COMPOSITE], [0, 1], [3]))
    def test_any_finish_order_settles_in_walk_order(self, walk):
        terms, indices, delays = walk

        def run(workers, pool):
            # each _confirm call; each is_prime call
            calls = {"confirm": [], "is_prime": []}
            with pytest.MonkeyPatch.context() as mp:
                _forced_pool(mp, workers)
                mp.setattr(multiprocessing, "get_context", lambda method: (
                    types.SimpleNamespace(Pool=lambda processes, initializer: pool)))
                mp.setattr(search, "is_prime", lambda x, rounds=DEFAULT_ROUNDS: (
                    calls["is_prime"].append(x), _cached_is_prime(x, rounds))[1])
                confirm = search._confirm
                mp.setattr(search, "_confirm", lambda m, rounds, p, q: (
                    calls["confirm"].append((p, q)), confirm(m, rounds, p, q))[1])
                found, states = _confirm_walk(mp, terms, indices)
            return found, states, calls

        serial, serial_states, serial_calls = run(0, None)
        pooled, states, calls = run(2, _ScheduledPool(delays))
        assert pooled == serial
        assert states == serial_states
        assert calls == serial_calls
        assert calls["confirm"] == [(terms[i], terms[i + 1]) for i in indices]

    def test_a_failed_job_ends_the_queue_at_its_pair(self, monkeypatch):
        # the second pair's job fails after the walk has queued the next
        # state and pair: the states before that pair are written, and
        # none after it
        _forced_pool(monkeypatch, 2)
        pool = _ScheduledPool([0, 2], failing={1})
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: (
            types.SimpleNamespace(Pool=lambda processes, initializer: pool)))
        states = []
        terms = [_MR_COMPOSITE, _P1, _P2, _TD_COMPOSITE]
        with pytest.raises(_WorkerFailure, match="job 1"):
            _confirm_walk(monkeypatch, terms, [0, 1, 2], states)
        assert [(s.n, s.found) for s in states] == [(2, ()), (3, ())]

    def test_small_searches_import_no_process_modules(self):
        # the pool's modules are imported with the pool, and these
        # searches have no candidate pair with 500 digits
        script = (
            "import io, json, sys, contextlib\n"
            "modules = ('multiprocessing', 'concurrent.futures')\n"
            "seen = []\n"
            "import sigmapairs\n"
            "from sigmapairs.cli import main\n"
            "seen.append([m in sys.modules for m in modules])\n"
            "for argv in (['search', '--m', '2', '--digits', '300'],\n"
            "             ['search', '--m', '4', '--seed', '5,11', '--digits', '1000']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0\n"
            "    seen.append([m in sys.modules for m in modules])\n"
            "print(json.dumps(seen))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[False, False]] * 3

    def test_pool_ends_when_the_search_raises(self, monkeypatch, tmp_path):
        asked = _forced_pool(monkeypatch, 2)

        def failing_write(path, state):
            if state.n > 741:  # after the first pair with 500 digits
                raise OSError("disk full")

        monkeypatch.setattr(search, "write_checkpoint", failing_write)
        with pytest.raises(OSError) as raised:
            search_pairs(2, digits_limit=700, checkpoint_path=str(tmp_path / "walk.ck"))
        assert asked == [2]
        # the traceback still holds the search's frame, and the pool with it
        assert raised.traceback
        assert multiprocessing.active_children() == []

    def test_pool_gives_sigterm_back_its_handler(self, monkeypatch):
        asked = _forced_pool(monkeypatch, 2)

        def own(signum, frame):
            pass

        previous = signal.signal(signal.SIGTERM, own)
        try:
            search_pairs(2, digits_limit=600)
            assert signal.getsignal(signal.SIGTERM) is own
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert asked == [2]

    def test_a_worker_takes_sigterm_as_default(self):
        # also a worker forked after the search set its SIGTERM handler,
        # as one that replaces a dead worker is, dies of terminate() at once
        saved = signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)
        try:
            signal.signal(signal.SIGTERM, search._exit_on_sigterm)
            search._ignore_interrupts()
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        finally:
            signal.signal(signal.SIGINT, saved[0])
            signal.signal(signal.SIGTERM, saved[1])

    def test_no_workers_while_other_threads_run(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert search._pool_size() == 0
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()

    def test_no_pool_below_the_gate(self, monkeypatch):
        asked = _forced_pool(monkeypatch, 2)
        search_pairs(2, digits_limit=500)
        assert asked == []

    def test_the_pool_starts_at_the_first_large_candidate_pair(
        self, monkeypatch, tmp_path
    ):
        # from n = 1000 (t_1000 has 679 digits) to 800 digits the only
        # candidate pair is at index 1066: it starts the pool, and a
        # worker finds the tier factor of its second term
        asked = _forced_pool(monkeypatch, 2)
        calls = _logged_tier(monkeypatch, tmp_path / "tier.log")
        terms = chain_terms(2, 1067)
        start = SearchCheckpoint(m=2, n=1000, prev=terms[998], curr=terms[999], found=())
        assert search_pairs(2, checkpoint=start, digits_limit=800) == []
        assert asked == [2]
        me = os.getpid()
        assert [x for pid, x in calls() if pid != me] == terms[1065:]
        assert [x for pid, x in calls() if pid == me] == []
        assert terms[1065] >= search._POOL_MIN
        assert search._tier_finds_factor(2, terms[1066])

    def test_the_searching_process_sieves_each_segment_once(
        self, monkeypatch, tmp_path
    ):
        # the workers inherit every segment the walk can need
        asked = _forced_pool(monkeypatch, 2)
        sieved = _logged_sieve(monkeypatch, tmp_path / "sieve.log")
        search_pairs(2, digits_limit=700)
        assert asked == [2]
        assert {pid for pid, _ in sieved()} == {os.getpid()}
        segments = [k for _, k in sieved()]
        assert len(segments) == len(set(segments))
        assert max(segments) + 1 == search._tier_segments(10**700) == 27

    def test_a_slice_of_max_steps_sieves_only_what_it_reaches(
        self, monkeypatch, tmp_path
    ):
        # from n = 741 (t_741 has 503 digits) 150 steps stay below
        # t_741 * 5**150, whose bound needs 21 segments; 10**4000 needs 577
        asked = _forced_pool(monkeypatch, 2)
        sieved = _logged_sieve(monkeypatch, tmp_path / "sieve.log")
        terms = chain_terms(2, 741)
        start = SearchCheckpoint(m=2, n=741, prev=terms[739], curr=terms[740], found=())
        search_pairs(2, checkpoint=start, digits_limit=4000, max_steps=150)
        assert asked == [2]
        reach = search._tier_segments(terms[740] * 5**150)
        assert (reach, search._tier_segments(10**4000)) == (21, 577)
        assert sorted(k for _, k in sieved()) == list(range(reach))


# A 700-digit walk sends the pairs at these indices to the pool (their
# first terms have 502 to 639 digits) and confirms all others in process.
_POOLED_700 = (739, 862, 901, 910, 940)


class TestResumeAcrossThePool:
    @pytest.fixture(scope="class")
    def serial_walk(self, tmp_path_factory):
        """The states written by the 700-digit walk with stage (d) in
        process, and its records."""
        mp = pytest.MonkeyPatch()
        try:
            _forced_pool(mp, 0)
            states = []
            write = search.write_checkpoint
            mp.setattr(search, "write_checkpoint", lambda path, state: (
                states.append(state), write(path, state)))
            path = str(tmp_path_factory.mktemp("serial") / "walk.ck")
            records = search_pairs(
                2, digits_limit=700, checkpoint_path=path, checkpoint_every=5
            )
        finally:
            mp.undo()
        with open(path, "rb") as handle:
            return states, records, handle.read()

    def test_pooled_walk_writes_the_serial_states(
        self, monkeypatch, tmp_path, serial_walk
    ):
        serial_states, serial_records, serial_file = serial_walk
        asked = _forced_pool(monkeypatch, 2)
        pairs = []
        add_pair = search._Confirmer.add_pair
        monkeypatch.setattr(search._Confirmer, "add_pair", lambda self, i, p, q: (
            pairs.append((i, p)), add_pair(self, i, p, q)))
        states = []
        write = search.write_checkpoint
        monkeypatch.setattr(search, "write_checkpoint", lambda path, state: (
            states.append(state), write(path, state)))
        path = str(tmp_path / "walk.ck")
        records = search_pairs(2, digits_limit=700, checkpoint_path=path, checkpoint_every=5)
        assert asked == [2]
        assert [i for i, x in pairs if x >= search._POOL_MIN] == list(_POOLED_700)
        # 3 | t_n exactly when 3 | n, and 3 is in _trial_primes(2), so of
        # three consecutive terms past t_3 = 3 one fails stage (a): no
        # two candidate pairs after index 4 share a term
        late = [i for i, _ in pairs if i > 4]
        assert all(j - i > 1 for i, j in zip(late, late[1:]))
        assert records == serial_records
        assert states == serial_states
        assert [s.n for s in states] == sorted({s.n for s in states})
        for state in states:
            assert state.found == tuple(r for r in records if r.index <= state.n - 2)
        with open(path, "rb") as handle:
            assert handle.read() == serial_file

    @pytest.mark.parametrize("interrupt_at", [700, 880, 905, 990])
    def test_resume_reproduces_the_uninterrupted_walk(
        self, monkeypatch, tmp_path, serial_walk, interrupt_at
    ):
        # interrupted before, between and after the pooled pairs: the
        # state at n holds (t_{n-1}, t_n), so a walk from n = 2 stopped
        # after n - 2 steps has confirmed the pairs below index n - 1
        _, serial_records, serial_file = serial_walk
        _forced_pool(monkeypatch, 2)
        path = str(tmp_path / "walk.ck")
        search_pairs(
            2, digits_limit=700, checkpoint_path=path, checkpoint_every=5,
            max_steps=interrupt_at - 2,
        )
        assert load_checkpoint(path).n == interrupt_at
        resumed = search_pairs(
            2, digits_limit=700, checkpoint=load_checkpoint(path),
            checkpoint_path=path, checkpoint_every=5,
        )
        assert resumed == serial_records
        with open(path, "rb") as handle:
            assert handle.read() == serial_file


    def test_a_failing_worker_ends_the_search_at_its_last_checkpoint(
        self, monkeypatch, tmp_path, serial_walk
    ):
        # stage (d) raises in a worker on the first pooled pair: the
        # search raises it and ends the pool, and the last file written,
        # at n = 737 before that pair, resumes to the uninterrupted walk
        _, serial_records, serial_file = serial_walk
        _forced_pool(monkeypatch, 2)

        def failing(x, rounds=DEFAULT_ROUNDS):
            if x >= 10**499:
                raise _WorkerFailure(os.getpid())
            return is_prime(x, rounds)

        monkeypatch.setattr(search, "is_prime", failing)
        path = str(tmp_path / "walk.ck")
        with pytest.raises(_WorkerFailure) as raised:
            search_pairs(2, digits_limit=700, checkpoint_path=path, checkpoint_every=5)
        assert raised.value.args[0] != os.getpid()
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(search, "is_prime", is_prime)
        checkpoint = load_checkpoint(path)
        assert checkpoint.n == 737
        resumed = search_pairs(
            2, digits_limit=700, checkpoint=checkpoint,
            checkpoint_path=path, checkpoint_every=5,
        )
        assert resumed == serial_records
        with open(path, "rb") as handle:
            assert handle.read() == serial_file


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        records = search_pairs(2, digits_limit=10, checkpoint_path=path)
        loaded = load_checkpoint(path)
        assert loaded.m == 2
        assert tuple(records) == loaded.found
        assert not os.path.exists(path + ".tmp")
        # chains with no pair: the walk's inline step ends where chain_next does
        for m, steps in ((3, 8), (6, 5)):
            path = str(tmp_path / f"walk{m}.ck")
            assert search_pairs(
                m, digits_limit=10**4, checkpoint_path=path, max_steps=steps
            ) == []
            loaded = load_checkpoint(path)
            assert (loaded.n, loaded.prev, loaded.curr) == (
                steps + 2, *chain_terms(m, steps + 2)[-2:]
            )

    def test_round_trip_with_huge_terms(self, tmp_path):
        # m = 3 reaches tens of thousands of digits within a dozen
        # steps; checkpoint IO must survive the interpreter's default
        # int/str conversion guard
        terms = chain_terms(3, 12)
        state = SearchCheckpoint(
            m=3, n=12, prev=terms[-2], curr=terms[-1], found=()
        )
        path = str(tmp_path / "huge.ck")
        write_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert (loaded.prev, loaded.curr, loaded.n) == (terms[-2], terms[-1], 12)

    @pytest.mark.parametrize(
        "max_steps, every, saved_at", [(6, 3, [5, 8]), (5, 3, [5, 7]), (0, 1, [2])]
    )
    def test_each_state_is_saved_once(
        self, tmp_path, monkeypatch, max_steps, every, saved_at
    ):
        saved = []
        monkeypatch.setattr(
            search, "write_checkpoint", lambda _, state: saved.append(state.n)
        )
        search_pairs(
            2, digits_limit=20, checkpoint_path=str(tmp_path / "walk.ck"),
            checkpoint_every=every, max_steps=max_steps,
        )
        assert saved == saved_at

    def test_each_term_is_rendered_once(self, tmp_path, monkeypatch):
        # every state after the first takes its prev from the state before
        saved = []
        write = search.write_checkpoint
        monkeypatch.setattr(search, "write_checkpoint", lambda path, state: (
            saved.append(state), write(path, state)))
        search._decimal.cache_clear()
        path = str(tmp_path / "walk.ck")
        search_pairs(2, digits_limit=300, checkpoint_path=path, checkpoint_every=1)
        terms = {x for state in saved for x in (state.prev, state.curr)}
        assert len(terms) == len(saved) + 1 > 400
        assert search._decimal.cache_info().misses == len(terms)
        assert load_checkpoint(path) == saved[-1]

    def test_file_format(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        write_checkpoint(
            path,
            SearchCheckpoint(m=2, n=5, prev=13, curr=61, found=()),
        )
        content = Path(path).read_text(encoding="ascii")
        assert content == "sigma-chain-checkpoint v1\nm=2\nn=5\nprev=13\ncurr=61\n"

    def test_pair_lines_rehydrate_verdicts(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        path_text = (
            "sigma-chain-checkpoint v1\nm=2\nn=5\nprev=13\ncurr=61\npair 3 3 13\n"
        )
        Path(path).write_text(path_text, encoding="ascii")
        loaded = load_checkpoint(path)
        (record,) = loaded.found
        assert (record.index, record.p, record.q) == (3, 3, 13)
        assert record.p_verdict.status is Primality.PRIME
        assert record.q_verdict.status is Primality.PRIME
        assert record.digits_q == 2

    def test_rejects_unknown_version(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        Path(path).write_text("sigma-chain-checkpoint v2\nm=2\n")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_rejects_garbled_fields(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        Path(path).write_text("sigma-chain-checkpoint v1\nm=2\nn=x\n")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_rejects_invariant_violation(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        Path(path).write_text(
            "sigma-chain-checkpoint v1\nm=2\nn=5\nprev=14\ncurr=61\n"
        )
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path)

    def test_rejects_composite_recorded_pair(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        Path(path).write_text(
            "sigma-chain-checkpoint v1\nm=2\nn=6\nprev=61\ncurr=291\npair 4 61 291\n"
        )
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path)

    def test_rejects_duplicated_pair_line(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        Path(path).write_text(
            "sigma-chain-checkpoint v1\nm=2\nn=6\nprev=61\ncurr=291\n"
            "pair 3 3 13\npair 3 3 13\n"
        )
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path)

    @pytest.mark.parametrize("index", [0, 4, 5])
    def test_rejects_pair_index_outside_the_walk(self, tmp_path, index):
        # at n = 5 the walk has recorded at most the pair at index 3
        path = str(tmp_path / "walk.ck")
        Path(path).write_text(
            f"sigma-chain-checkpoint v1\nm=2\nn=5\nprev=13\ncurr=61\npair {index} 3 13\n"
        )
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path)

    def test_bare_file_name_is_written_in_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        records = search_pairs(2, digits_limit=5, checkpoint_path="walk.ck")
        assert load_checkpoint("walk.ck").found == tuple(records)

    def test_mismatched_m_on_resume(self, tmp_path):
        checkpoint = SearchCheckpoint(m=4, n=2, prev=5, curr=11, found=())
        with pytest.raises(CheckpointMismatch):
            search_pairs(2, digits_limit=10, checkpoint=checkpoint)

    def test_validates_each_checkpoint_it_did_not_load(self, tmp_path, monkeypatch):
        path = str(tmp_path / "walk.ck")
        records = search_pairs(2, digits_limit=20, checkpoint_path=path)
        loaded = load_checkpoint(path)
        checked = []
        is_quasisolution = search.is_quasisolution
        monkeypatch.setattr(search, "is_quasisolution", lambda p, q, m: (
            checked.append((p, q)) or is_quasisolution(p, q, m)))
        # the loaded state was validated by load_checkpoint; an equal copy
        # of it is checked again: the state and its three pairs
        for state, checks in ((loaded, 0), (dataclasses.replace(loaded), 4)):
            checked.clear()
            assert search_pairs(2, digits_limit=20, checkpoint=state) == records
            assert len(checked) == checks
        first = loaded.found[0]
        for invalid in (
            dataclasses.replace(loaded, prev=loaded.prev + 1),
            dataclasses.replace(loaded, found=loaded.found[::-1]),
            dataclasses.replace(loaded, found=(
                dataclasses.replace(first, p_verdict=is_prime(291)),)),
        ):
            with pytest.raises(CheckpointMismatch):
                search_pairs(2, digits_limit=20, checkpoint=invalid)

    @pytest.mark.parametrize("interrupt_after", [1, 2, 3, 5, 8, 13, 21])
    def test_resume_reproduces_uninterrupted_run(self, tmp_path, interrupt_after):
        base = search_pairs(2, digits_limit=20)
        path = str(tmp_path / f"walk{interrupt_after}.ck")
        search_pairs(
            2, digits_limit=20, checkpoint_path=path, max_steps=interrupt_after
        )
        resumed = search_pairs(
            2, digits_limit=20, checkpoint=load_checkpoint(path)
        )
        assert resumed == base

    @pytest.mark.parametrize("text, error", UNUSABLE_CHECKPOINTS)
    def test_rejects_each_unusable_file(self, tmp_path, text, error):
        path = tmp_path / "walk.ck"
        path.write_text(text, encoding="ascii")
        with pytest.raises(error):
            load_checkpoint(str(path))

    def test_rejects_a_pair_member_below_1_before_any_arithmetic(self):
        # is_prime and is_quasisolution raise ValueError on such a term
        record = search_pairs(2, digits_limit=2)[0]
        for p, q in ((-3, 13), (0, 13), (3, -13)):
            checkpoint = SearchCheckpoint(m=2, n=5, prev=13, curr=61, found=(
                dataclasses.replace(record, p=p, q=q),
            ))
            with pytest.raises(CheckpointMismatch):
                search_pairs(2, digits_limit=20, checkpoint=checkpoint)

    def test_checks_the_pairs_before_any_primality_test(
        self, monkeypatch, tmp_path, run_cli
    ):
        # 2**4423 - 1 is a prime of 1332 digits, but no quasisolution with 13
        path = tmp_path / "walk.ck"
        path.write_text(
            "sigma-chain-checkpoint v1\nm=2\nn=5\nprev=13\ncurr=61\n"
            f"pair 3 {2**4423 - 1} 13\n",
            encoding="ascii",
        )

        def untested(x, rounds=DEFAULT_ROUNDS):
            raise AssertionError(f"is_prime called on a {decimal_digits(x)}-digit term")

        monkeypatch.setattr(search, "is_prime", untested)
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(str(path))
        assert run_cli(
            "search", "--m", "2", "--digits", "20", "--checkpoint", str(path)
        ) == (3, "")

    def test_refuses_a_huge_exponent_without_building_its_divisor_sum(
        self, monkeypatch, tmp_path, run_cli
    ):
        # (t_8, t_9) = (6673, 31971) is no quasisolution for these m
        def unbuilt(x, m):
            raise AssertionError(f"sigma({x}^{m}) built")

        monkeypatch.setattr(chains, "sigma_power", unbuilt)
        for m in (100000, 10**9):
            path = tmp_path / f"walk{m}.ck"
            path.write_text(
                f"sigma-chain-checkpoint v1\nm={m}\nn=9\nprev=6673\ncurr=31971\n",
                encoding="ascii",
            )
            with pytest.raises(CheckpointMismatch):
                load_checkpoint(str(path))
            assert run_cli(
                "search", "--m", "2", "--digits", "20", "--checkpoint", str(path)
            ) == (3, "")

    @pytest.mark.xfail(
        strict=True, raises=pytest.fail.Exception,
        reason="the header m is checked only against the quasisolution, "
        "not a walk from the seed (ROADMAP item 1)",
    )
    def test_rejects_m2_terms_under_an_exponent_they_satisfy(self, tmp_path):
        # 3 | m + 1 and t^3 = 1 (mod its neighbour) for these m = 2 terms,
        # so (t_8, t_9) is a quasisolution for m = 20000 too, but the
        # m = 20000 chain does not hold it at index 9
        assert is_quasisolution(6673, 31971, 20000)
        path = tmp_path / "walk.ck"
        path.write_text(
            "sigma-chain-checkpoint v1\nm=20000\nn=9\nprev=6673\ncurr=31971\n",
            encoding="ascii",
        )
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(str(path))

    @pytest.mark.xfail(
        strict=True, raises=pytest.fail.Exception,
        reason="n and the pair records are not checked against a walk "
        "from the seed (ROADMAP item 1)",
    )
    def test_rejects_terms_from_another_index(self, tmp_path):
        # (t_10, t_11) under n = 5 would resume to the 14-digit pair at
        # index 16 instead of 22, and drop (13, 61)
        prev, curr = chain_terms(2, 11)[9:]
        path = tmp_path / "walk.ck"
        path.write_text(
            f"sigma-chain-checkpoint v1\nm=2\nn=5\nprev={prev}\ncurr={curr}\n"
            "pair 3 3 13\n",
            encoding="ascii",
        )
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(str(path))

    @given(
        garbage=st.one_of(st.text(max_size=300).map(str.encode), st.binary(max_size=300))
    )
    @example(garbage=b"sigma-chain-checkpoint v1\nm=2\nn=5\nprev=13\ncurr=61\xff\n")
    @example(garbage=b"sigma-chain-checkpoint v1\nm=2\nn=5\nprev=13\ncurr=61\n"
                     b"pair 3 -3 13\n")
    @example(garbage=b"sigma-chain-checkpoint v1\nm=2\nn=5\nprev=13\ncurr=61\n"
                     b"pair 3 0 13\n")
    @settings(max_examples=150)
    def test_parser_never_accepts_garbage_silently(self, tmp_path_factory, garbage):
        # arbitrary bytes, non-ASCII included, either parse to a validated
        # checkpoint or raise one of the two documented exceptions
        path = tmp_path_factory.mktemp("fuzz") / "ck"
        path.write_bytes(garbage)
        try:
            loaded = load_checkpoint(str(path))
        except (CheckpointFormatError, CheckpointMismatch):
            return
        assert loaded.n >= 2


class TestLocatePairIndex:
    @pytest.mark.parametrize(
        "p, q, m, index",
        [
            (3, 13, 2, 3),
            (1, 1, 2, 1),
            (1, 3, 2, 2),
            (13, 61, 2, 4),
            (22419767768701, 107419560853453, 2, 22),
            (5, 11, 4, 1),
            (11, 3221, 4, 2),
            (61, 131, 4, 1),
        ],
    )
    def test_known_positions(self, p, q, m, index):
        assert locate_pair_index(p, q, m) == index

    def test_rejects_non_quasisolution(self):
        with pytest.raises(ValueError):
            locate_pair_index(5, 31, 2)

    def test_deep_pair_needs_no_budget(self):
        terms = chain_terms(2, 1001)
        assert locate_pair_index(terms[999], terms[1000], 2) == 1000

    def test_agrees_with_generated_chain(self):
        # the one descent, in locate_pair_index, against the one ascent,
        # chain_next
        for m, seed, count in [
            (2, (1, 1), 30), (3, (1, 1), 10), (4, (1, 1), 8), (6, (1, 1), 7),
            (4, (5, 11), 8), (4, (61, 131), 8), (4, (101, 491), 8),
        ]:
            terms = chain_terms(m, count, seed)
            for k in range(1, count):
                assert locate_pair_index(terms[k - 1], terms[k], m) == k, (m, seed, k)


def _descent_seeds(m, bound):
    """Yield the seeds below B for B = 1 .. bound by descending every
    quasisolution p <= q <= B to its chain's minimal pair, with a step
    from (a, b), a <= b, to the sorted (sigma(a^m) // b, a) taken while
    it lowers the larger term."""
    minimal = set()
    for q in range(1, bound + 1):
        sq = sigma_power(q, m)
        for p in range(1, q + 1):
            if sq % p == 0 and sigma_power(p, m) % q == 0:
                a, b = p, q
                while max(x := sigma_power(a, m) // b, a) < b:
                    a, b = min(x, a), max(x, a)
                minimal.add((a, b))
        yield sorted(minimal)


class TestEnumerateSeeds:
    def test_m4_seeds_below_1000(self):
        assert enumerate_seeds(4, 1000) == [(1, 1), (5, 11), (61, 131), (101, 491)]
        assert enumerate_seeds(4, 1000) == list(_descent_seeds(4, 1000))[-1]

    @pytest.mark.parametrize("m", range(1, 7))
    def test_minimal_pairs_are_the_descent_endpoints(self, m):
        # a pair is a seed when its descent step would not lower q, so the
        # seeds below every bound are where all the descents end
        for bound, seeds in enumerate(_descent_seeds(m, 300), start=1):
            assert enumerate_seeds(m, bound) == seeds, (m, bound)
        for p, q in seeds:
            assert locate_pair_index(p, q, m) == 1, (m, p, q)

    def test_m2_unit_seed_only(self):
        assert enumerate_seeds(2, 1000) == [(1, 1)]

    def test_m1_small_bound(self):
        assert enumerate_seeds(1, 10) == [(1, 1)]

    def test_tiny_bound(self):
        assert enumerate_seeds(2, 1) == [(1, 1)]

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            enumerate_seeds(2, 0)


def _estimate(start_index, horizon=None):
    """The estimate itself: exact_sum + tail_bound."""
    exact_sum, tail, _ = heuristic_tail_parts(start_index, horizon)
    return exact_sum + tail


class TestHeuristicTail:
    def test_monotone_in_start_index(self):
        for n0 in range(3, 40, 5):
            assert _estimate(n0 + 1) <= _estimate(n0)

    def test_finite_for_unbounded_horizon(self):
        for n0 in (3, 10, 100, 500):
            value = _estimate(n0)
            assert math.isfinite(value)
            assert value >= 0.0

    def test_value_at_30_matches_direct_recomputation(self):
        exact_sum, tail, offset = heuristic_tail_parts(30)
        terms = chain_terms(2, 201)
        logs = [math.log(t) for t in terms]
        expected = sum(1.0 / (logs[n - 1] * logs[n]) for n in range(30, 201))
        assert exact_sum == pytest.approx(expected, rel=1e-12)
        expected_offset = max(
            k - logs[k - 1] / math.log(4) for k in range(4, 202)
        )
        assert offset == pytest.approx(expected_offset, rel=1e-12)
        assert tail == pytest.approx(
            1.0 / ((201 - offset) * math.log(4) ** 2), rel=1e-12
        )

    def test_finite_horizon_is_plain_sum(self):
        value = _estimate(5, horizon=50)
        terms = chain_terms(2, 51)
        logs = [math.log(t) for t in terms]
        expected = sum(1.0 / (logs[n - 1] * logs[n]) for n in range(5, 51))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_horizon_below_start_gives_zero(self):
        assert _estimate(10, horizon=9) == 0.0

    @pytest.mark.parametrize("start, horizon", [(30, 10), (10, 9), (50, 3)])
    def test_horizon_below_start_keeps_the_growth_offset(self, start, horizon):
        # the offset is a property of the chain, not of the summed range
        _, _, offset = heuristic_tail_parts(start)
        assert heuristic_tail_parts(start, horizon) == (0.0, 0.0, offset)
        assert offset > 0

    def test_rejects_early_start(self):
        with pytest.raises(ValueError):
            _estimate(2)

    @given(n0=st.integers(3, 60), horizon=st.integers(3, 400))
    @settings(max_examples=40)
    def test_bounded_horizon_never_exceeds_unbounded(self, n0, horizon):
        assert _estimate(n0, horizon=horizon) <= _estimate(n0) + 1e-15


class TestSquareDivisorProbe:
    def test_first_rows(self):
        rows = square_divisor_probe(6, 10**5)
        by_n = {row.n: row for row in rows}
        # sigma(t_3^2) = 13 is prime, sigma(t_4^2) = 183 = 3 * 61 squarefree
        assert by_n[3].l_lower == 1
        assert by_n[4].l_lower == 1
        assert by_n[3].s_lower == 1
        # both factors pick up a 3 when n = 1 (mod 3)
        assert by_n[1].s_lower == 9
        assert by_n[4].s_lower == 9

    def test_probe_values_divide_their_targets(self):
        terms = chain_terms(2, 13)
        for row in square_divisor_probe(12, 1000):
            value = terms[row.n - 1] ** 2 + terms[row.n - 1] + 1
            partner = terms[row.n] ** 2 + terms[row.n] + 1
            assert value % row.l_lower == 0
            assert (value * partner) % row.s_lower == 0
            assert math.isqrt(row.l_lower) ** 2 == row.l_lower
            assert math.isqrt(row.s_lower) ** 2 == row.s_lower

    def test_sieves_once_above_the_cached_primes(self, monkeypatch):
        calls = []
        sieve = arith._sieve

        def counting(*args):
            calls.append(args)
            return sieve(*args)

        monkeypatch.setattr(arith, "_sieve", counting)
        rows = square_divisor_probe(12, 10**6)
        assert len(calls) == 1

        def plain_square_part(x):
            square = 1
            for p in _plain_primes(10**6):
                exponent = 0
                while x % p == 0:
                    x //= p
                    exponent += 1
                square *= p ** (exponent - exponent % 2)
            return square

        terms = chain_terms(2, 13)
        for row in rows:
            value = terms[row.n - 1] ** 2 + terms[row.n - 1] + 1
            partner = terms[row.n] ** 2 + terms[row.n] + 1
            assert row.l_lower == plain_square_part(value)
            assert row.s_lower == plain_square_part(value * partner)

    @pytest.mark.parametrize("trial_bound", [2, 3, 7, 97, 10**4, 10**5, 2 * 10**5])
    def test_matches_per_prime_trial_division(self, trial_bound):
        # the rows of K terms are the first K rows of 40, so one reference
        # of 40 rows, each value and product trial-divided by every prime,
        # checks every K
        primes = _plain_primes(trial_bound)
        sigmas = [t * t + t + 1 for t in chain_terms(2, 41)]
        expected = [
            SquareProbeRow(
                n=n,
                l_lower=reference_square_part(sigmas[n - 1], primes),
                s_lower=reference_square_part(sigmas[n - 1] * sigmas[n], primes),
            )
            for n in range(1, 41)
        ]
        for n_terms in range(3, 41):
            assert square_divisor_probe(n_terms, trial_bound) == expected[:n_terms], n_terms

    def test_rejects_short_probe(self):
        with pytest.raises(ValueError):
            square_divisor_probe(2, 100)

    def test_rejects_trial_bound_below_two(self):
        with pytest.raises(ValueError):
            square_divisor_probe(6, 1)
