import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmapairs import search
from sigmapairs.arith import (
    DEFAULT_ROUNDS,
    Primality,
    decimal_digits,
    is_prime,
    sigma_power,
    small_primes,
)
from sigmapairs.chains import NonIntegralStep, chain_next, chain_terms, start_state
from sigmapairs.search import (
    CheckpointFormatError,
    CheckpointMismatch,
    NotOnKnownChain,
    PairRecord,
    SearchCheckpoint,
    enumerate_seeds,
    heuristic_tail,
    heuristic_tail_parts,
    load_checkpoint,
    locate_pair_index,
    search_pairs,
    square_divisor_probe,
    write_checkpoint,
)

from conftest import KNOWN_PAIRS


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

    def test_threads_do_not_change_results(self):
        single = search_pairs(2, digits_limit=20, threads=1)
        pooled = search_pairs(2, digits_limit=20, threads=4)
        assert single == pooled

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            search_pairs(2, digits_limit=5, rounds=0)


def _reference_search(m, seed, digits_limit, rounds=DEFAULT_ROUNDS):
    """Full primality test on both terms of every consecutive pair."""
    overflow = 10**digits_limit
    state = start_state(m, seed)
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
        "digits, rounds", [(1, 40), (2, 40), (20, 40), (60, 2), (100, 40), (300, 40)]
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

    def test_no_term_is_tested_twice(self, monkeypatch):
        calls = []

        def counting(x, rounds=DEFAULT_ROUNDS):
            if x > 1:  # t_1 = t_2 = 1; every later term is new
                calls.append((x, rounds))
            return is_prime(x, rounds)

        monkeypatch.setattr(search, "is_prime", counting)
        search_pairs(2, digits_limit=300)
        assert calls
        assert len(calls) == len(set(calls))


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        records = search_pairs(2, digits_limit=10, checkpoint_path=path)
        loaded = load_checkpoint(path)
        assert loaded.m == 2
        assert tuple(records) == loaded.found
        assert not os.path.exists(path + ".tmp")

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

    def test_file_format(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        write_checkpoint(
            path,
            SearchCheckpoint(m=2, n=5, prev=13, curr=61, found=()),
        )
        content = open(path, encoding="ascii").read()
        assert content == "sigma-chain-checkpoint v1\nm=2\nn=5\nprev=13\ncurr=61\n"

    def test_pair_lines_rehydrate_verdicts(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        path_text = (
            "sigma-chain-checkpoint v1\nm=2\nn=5\nprev=13\ncurr=61\npair 3 3 13\n"
        )
        open(path, "w", encoding="ascii").write(path_text)
        loaded = load_checkpoint(path)
        (record,) = loaded.found
        assert (record.index, record.p, record.q) == (3, 3, 13)
        assert record.p_verdict.status is Primality.PRIME
        assert record.q_verdict.status is Primality.PRIME
        assert record.digits_q == 2

    def test_rejects_unknown_version(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        open(path, "w").write("sigma-chain-checkpoint v2\nm=2\n")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_rejects_garbled_fields(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        open(path, "w").write("sigma-chain-checkpoint v1\nm=2\nn=x\n")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_rejects_invariant_violation(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        open(path, "w").write(
            "sigma-chain-checkpoint v1\nm=2\nn=5\nprev=14\ncurr=61\n"
        )
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path)

    def test_rejects_composite_recorded_pair(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        open(path, "w").write(
            "sigma-chain-checkpoint v1\nm=2\nn=6\nprev=61\ncurr=291\npair 4 61 291\n"
        )
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path)

    def test_rejects_duplicated_pair_line(self, tmp_path):
        path = str(tmp_path / "walk.ck")
        open(path, "w").write(
            "sigma-chain-checkpoint v1\nm=2\nn=6\nprev=61\ncurr=291\n"
            "pair 3 3 13\npair 3 3 13\n"
        )
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path)

    @pytest.mark.parametrize("index", [0, 4, 5])
    def test_rejects_pair_index_outside_the_walk(self, tmp_path, index):
        # at n = 5 the walk has recorded at most the pair at index 3
        path = str(tmp_path / "walk.ck")
        open(path, "w").write(
            f"sigma-chain-checkpoint v1\nm=2\nn=5\nprev=13\ncurr=61\npair {index} 3 13\n"
        )
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path)

    def test_mismatched_m_on_resume(self, tmp_path):
        checkpoint = SearchCheckpoint(m=4, n=2, prev=5, curr=11, found=())
        with pytest.raises(CheckpointMismatch):
            search_pairs(2, digits_limit=10, checkpoint=checkpoint)

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

    @given(garbage=st.text(max_size=300))
    @settings(max_examples=150)
    def test_parser_never_accepts_garbage_silently(self, tmp_path_factory, garbage):
        # arbitrary text either parses to a validated checkpoint or
        # raises one of the two documented exceptions, never anything else
        path = str(tmp_path_factory.mktemp("fuzz") / "ck")
        try:
            with open(path, "w", encoding="ascii") as handle:
                handle.write(garbage)
        except UnicodeEncodeError:
            return  # checkpoint files are ASCII by contract
        try:
            loaded = load_checkpoint(path)
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

    def test_step_budget(self):
        with pytest.raises(NotOnKnownChain):
            locate_pair_index(3, 13, 2, max_steps=1)

    def test_agrees_with_generated_chain(self):
        terms = chain_terms(2, 30)
        for n in range(5, 30, 7):
            assert locate_pair_index(terms[n - 1], terms[n], 2) == n


class TestEnumerateSeeds:
    def test_m4_seeds_below_1000(self):
        assert enumerate_seeds(4, 1000) == [(1, 1), (5, 11), (61, 131), (101, 491)]

    def test_m2_unit_seed_only(self):
        assert enumerate_seeds(2, 1000) == [(1, 1)]

    def test_m1_small_bound(self):
        assert enumerate_seeds(1, 10) == [(1, 1)]

    def test_tiny_bound(self):
        assert enumerate_seeds(2, 1) == [(1, 1)]

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            enumerate_seeds(2, 0)


class TestHeuristicTail:
    def test_monotone_in_start_index(self):
        for n0 in range(3, 40, 5):
            assert heuristic_tail(n0 + 1) <= heuristic_tail(n0)

    def test_finite_for_unbounded_horizon(self):
        for n0 in (3, 10, 100, 500):
            value = heuristic_tail(n0)
            assert math.isfinite(value)
            assert value >= 0.0

    def test_value_at_30_matches_direct_recomputation(self):
        exact_sum, tail, offset = heuristic_tail_parts(30, exact_terms=200)
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
        value = heuristic_tail(5, horizon=50)
        terms = chain_terms(2, 51)
        logs = [math.log(t) for t in terms]
        expected = sum(1.0 / (logs[n - 1] * logs[n]) for n in range(5, 51))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_horizon_below_start_gives_zero(self):
        assert heuristic_tail(10, horizon=9) == 0.0

    def test_rejects_early_start(self):
        with pytest.raises(ValueError):
            heuristic_tail(2)

    @given(n0=st.integers(3, 60), horizon=st.integers(3, 400))
    @settings(max_examples=40)
    def test_bounded_horizon_never_exceeds_unbounded(self, n0, horizon):
        assert heuristic_tail(n0, horizon=horizon) <= heuristic_tail(n0) + 1e-15


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

    def test_rejects_short_probe(self):
        with pytest.raises(ValueError):
            square_divisor_probe(2, 100)
