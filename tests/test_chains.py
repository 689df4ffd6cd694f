import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigmapairs import chains
from sigmapairs.arith import sigma_power
from sigmapairs.chains import (
    ChainState,
    NonIntegralStep,
    chain_next,
    chain_terms,
    generate_s,
    generate_u,
    is_quasisolution,
)
from sigmapairs.search import enumerate_seeds

from conftest import FIRST_TERMS


def _identity_holds(p, q):
    """The m = 2 quadratic identity 5pq = p^2 + q^2 + p + q + 1."""
    return 5 * p * q == p * p + q * q + p + q + 1


class TestChainGeneration:
    def test_first_ten_terms(self):
        assert chain_terms(2, 10) == FIRST_TERMS

    def test_short_requests(self):
        assert chain_terms(2, 1) == [1]
        assert chain_terms(2, 2) == [1, 1]

    def test_adjacent_pairs_satisfy_quadratic_identity(self):
        terms = chain_terms(2, 100)
        for p, q in zip(terms, terms[1:]):
            assert _identity_holds(p, q)

    def test_growth_window(self):
        terms = chain_terms(2, 100)
        for n in range(4, 100):
            assert 4 * terms[n - 1] < terms[n] < 5 * terms[n - 1]

    def test_every_term_is_odd(self):
        assert all(t % 2 == 1 for t in chain_terms(2, 60))

    def test_m4_chain_from_unit_seed(self):
        assert chain_terms(4, 4) == [1, 1, 5, 781]

    def test_m4_chain_from_seed_5_11(self):
        assert chain_terms(4, 3, seed=(5, 11)) == [5, 11, 3221]

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError):
            chain_terms(0, 2)
        with pytest.raises(ValueError):
            chain_terms(2, 2, seed=(0, 1))
        # a seed that is no quasisolution is rejected up front, whether
        # or not the walk would reach its first step
        for count in (3, 2, 1):
            with pytest.raises(NonIntegralStep, match="not a quasisolution"):
                chain_terms(2, count, seed=(2, 5))


class TestChainSteps:
    def test_next_from_start(self):
        state = ChainState(m=2, n=2, prev=1, curr=1)
        values = []
        for _ in range(3):
            state = chain_next(state)
            values.append(state.curr)
        assert values == [3, 13, 61]

    def test_next_from_13_61(self):
        state = ChainState(m=2, n=5, prev=13, curr=61)
        advanced = chain_next(state)
        assert (advanced.prev, advanced.curr, advanced.n) == (61, 291, 6)
        assert _identity_holds(advanced.prev, advanced.curr)

    def test_next_m4(self):
        state = ChainState(m=4, n=2, prev=5, curr=11)
        advanced = chain_next(state)
        assert advanced.curr == 3221
        assert is_quasisolution(11, 3221, 4)

    def test_next_rejects_invalid_state(self):
        with pytest.raises(NonIntegralStep):
            chain_next(ChainState(m=2, n=4, prev=2, curr=5))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_terms_equal_a_checked_walk(self, m):
        # chain_terms checks only its seed; every step of the checked
        # walk, which raises on a remainder, gives the same terms
        seeds = enumerate_seeds(m, 200)
        if m == 4:
            seeds.append((101, 491))  # the one m = 4 seed above 200
        for seed in seeds:
            state = ChainState(m=m, n=2, prev=seed[0], curr=seed[1])
            walk = [state.prev, state.curr]
            while len(walk) < 200 and state.curr < 10**300:
                state = chain_next(state)
                walk.append(state.curr)
            assert chain_terms(m, len(walk), seed=seed) == walk, seed


class TestQuasisolutions:
    @pytest.mark.parametrize(
        "p, q, m, expected",
        [
            (3, 13, 2, True),
            (3, 14, 2, False),
            (61, 131, 4, True),
            (1, 1, 2, True),
            (5, 11, 4, True),
            (101, 491, 4, True),
        ],
    )
    def test_examples(self, p, q, m, expected):
        assert is_quasisolution(p, q, m) is expected

    def test_agrees_with_the_divisor_sums(self):
        # m = 2 reads the quadratic identity, every other m the closed form
        for m in range(1, 7):
            sigmas = [0] + [sigma_power(x, m) for x in range(1, 151)]
            for p in range(1, 151):
                for q in range(1, 151):
                    expected = sigmas[q] % p == 0 and sigmas[p] % q == 0
                    assert is_quasisolution(p, q, m) is expected, (p, q, m)

    @given(
        x=st.integers(10**19, 10**2000),
        m=st.integers(1, 8),
        y=st.integers(10**19, 10**2000),
    )
    @example(x=1, m=5, y=10**19 + 1)
    @example(x=2, m=4, y=31)
    @example(x=10**2000, m=1, y=1)
    @settings(max_examples=60, deadline=None)
    def test_closed_form_residue_matches_the_divisor_sum(self, x, m, y):
        assert chains._sigma_power_mod(x, m, y) == sigma_power(x, m) % y

    def test_rejects_an_exponent_below_1(self):
        with pytest.raises(ValueError):
            is_quasisolution(3, 13, 0)

    @pytest.mark.parametrize(
        "p, q, expected",
        [(1, 3, True), (13, 61, True), (3, 5, False), (1, 1, True)],
    )
    def test_quadratic_identity_examples(self, p, q, expected):
        # for m = 2 the identity and the divisibility agree
        assert _identity_holds(p, q) is expected
        assert is_quasisolution(p, q) is expected

    def test_identity_equivalent_to_divisibility_below_1000(self):
        # the m = 2 equivalence, swept exhaustively
        identity_pairs = set()
        for p in range(1, 1001):
            for q in range(1, 1001):
                if _identity_holds(p, q):
                    identity_pairs.add((p, q))
        divisibility_pairs = set()
        for p in range(1, 1001):
            sp = p * p + p + 1
            for q in range(1, 1001):
                if sp % q == 0 and (q * q + q + 1) % p == 0:
                    divisibility_pairs.add((p, q))
        assert identity_pairs == divisibility_pairs
        assert (3, 13) in identity_pairs

    def test_all_small_quasisolutions_descend_to_unit_pair(self):
        pairs = [
            (p, q)
            for p in range(1, 1001)
            for q in range(p, 1001)
            if _identity_holds(p, q)
        ]
        assert pairs
        for p, q in pairs:
            a, b = p, q
            steps = 0
            while (a, b) != (1, 1):
                a, b = sorted(((a * a + a + 1) // b, a))
                steps += 1
                assert steps < 100, f"descent from {(p, q)} did not reach (1, 1)"


class TestChainInvariant:
    def test_unit_pair(self):
        assert _identity_holds(*chain_terms(2, 2))

    def test_known_pair(self):
        advanced = chain_next(ChainState(m=2, n=4, prev=3, curr=13))
        assert (advanced.prev, advanced.curr) == (13, 61)
        assert _identity_holds(advanced.prev, advanced.curr)

    @given(steps=st.integers(0, 30))
    @settings(max_examples=40)
    def test_constant_along_chain(self, steps):
        # (p^2 + q^2 + p + q + 1) / (pq) is 5 at (1, 1) and at every step
        state = ChainState(m=2, n=2, prev=1, curr=1)
        for _ in range(steps):
            state = chain_next(state)
        advanced = chain_next(state)
        assert _identity_holds(state.prev, state.curr)
        assert _identity_holds(advanced.prev, advanced.curr)


class TestAuxiliarySequences:
    def test_s_prefix(self):
        assert generate_s(6) == [1, 1, 2, 5, 13, 34]

    def test_s_minimal(self):
        assert generate_s(2) == [1, 1]

    def test_s_equals_odd_index_fibonacci(self):
        fib = [0, 1]
        while len(fib) < 120:
            fib.append(fib[-1] + fib[-2])
        terms = generate_s(51)
        for n in range(2, 51):
            assert terms[n] == fib[2 * n - 1], n

    def test_s_adjacent_pairs_satisfy_mutual_relation(self):
        terms = generate_s(30)
        for x, y in zip(terms, terms[1:]):
            assert (y * y + 1) % x == 0
            assert (x * x + 1) % y == 0

    def test_u_prefix(self):
        assert generate_u(11) == [1, 1, 2, 3, 5, 2, 1, 1, 2, 3, 5]

    def test_u_minimal(self):
        assert generate_u(2) == [1, 1]

    def test_u_period_six(self):
        terms = generate_u(40)
        # cycle detection on the pair state, independent of the cycle length
        start = (terms[0], terms[1])
        period = next(
            k for k in range(1, 20) if (terms[k], terms[k + 1]) == start
        )
        assert period == 6
        assert terms[:6] == [1, 1, 2, 3, 5, 2]
        for k in range(40 - 6):
            assert terms[k] == terms[k + 6]

    @pytest.mark.parametrize("func", [generate_s, generate_u])
    def test_rejects_short_limit(self, func):
        with pytest.raises(ValueError):
            func(1)
