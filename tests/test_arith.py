import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sigmapairs import arith
from sigmapairs.arith import (
    DETERMINISTIC_LIMIT,
    Primality,
    PrimalityVerdict,
    decimal_digits,
    is_prime,
    sigma_power,
    small_primes,
)

from conftest import reference_square_part


class TestSmallPrimes:
    @pytest.mark.parametrize("bound", [0, 1, 2, 3, 1000, 10**5, 10**5 + 100])
    def test_equals_plain_sieve(self, bound):
        composite = set()
        plain = []
        for x in range(2, bound + 1):
            if x not in composite:
                plain.append(x)
                composite.update(range(x * x, bound + 1, x))
        assert small_primes(bound) == tuple(plain)

    def test_refuses_a_bound_above_10_to_7_before_sieving(self, monkeypatch):
        limits = []
        monkeypatch.setattr(arith, "_sieve", lambda limit, start=2: limits.append(limit) or ())
        assert small_primes(10**7) == ()
        assert limits == [10**7]
        with pytest.raises(ValueError, match="10000000"):
            small_primes(10**7 + 1)
        assert limits == [10**7]


class TestSieveRange:
    @pytest.mark.parametrize("start, limit", [
        (0, 50), (3, 3), (3, 100), (4, 4), (4, 100), (9, 8), (97, 97),
        (98, 100), (99_990, 100_300), (10**6 + 1, 10**6 + 2**15),
    ])
    def test_equals_a_plain_sieve_on_the_range(self, start, limit):
        flags = bytearray(b"\x01") * (limit + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(flags[p * p :: p]))
        assert arith._sieve(limit, start) == tuple(
            p for p in range(start, limit + 1) if flags[p]
        )


_PRIMES = small_primes()
# one congruence class of the primes, as the search's admissible lists are
_PRIMES_1_MOD_3 = tuple(p for p in _PRIMES if p % 3 == 1)
# the first and last primes of the list and the primes on both sides of
# the first two block edges: the 256th and 257th, the 512th and 513th
_EDGE_PRIMES = (2, 3) + _PRIMES[254:258] + _PRIMES[510:514] + _PRIMES[-2:]
# cofactors without a prime factor below 10**5, on both sides of 2**64
_ROUGH = (1, 100003, 2**31 - 1, 10**10 + 19, 2**61 - 1, 2**89 - 1, 2**127 - 1)

_small_factors = st.lists(
    st.one_of(st.sampled_from(_EDGE_PRIMES), st.sampled_from(_PRIMES)), max_size=3
)
_cofactors = st.one_of(
    st.sampled_from(_ROUGH),
    st.integers(1, 2**64),
    st.integers(2**64, 2**400),
)

_DIVISORS = tuple(
    (primes, arith._BlockTrialDivisor(primes)) for primes in (_PRIMES, _PRIMES_1_MOD_3)
)


def _first_divisor(x, primes):
    return next((p for p in primes if x % p == 0), None)


def _per_prime_is_prime(x, rounds):
    """Reference for is_prime at x >= 2: trial division one prime at a
    time, prime once p * p > x, then the module's own Miller-Rabin
    rounds."""
    for p in _PRIMES:
        if p * p > x:
            return PrimalityVerdict(Primality.PRIME)
        if x % p == 0:
            return PrimalityVerdict(Primality.COMPOSITE, witness=p)
    d, r = x - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if x < DETERMINISTIC_LIMIT:
        for i, base in enumerate(arith._DETERMINISTIC_WITNESSES):
            if not arith._strong_probable_prime(x, base, d, r):
                return PrimalityVerdict(Primality.COMPOSITE, rounds=i + 1, witness=base)
        return PrimalityVerdict(Primality.PRIME, rounds=len(arith._DETERMINISTIC_WITNESSES))
    for i in range(rounds):
        base = arith._derived_base(x, i)
        if not arith._strong_probable_prime(x, base, d, r):
            return PrimalityVerdict(Primality.COMPOSITE, rounds=i + 1, witness=base)
    return PrimalityVerdict(Primality.PROBABLE_PRIME, rounds=rounds)


class TestBlockTrialDivisor:
    @pytest.mark.parametrize("primes", [_PRIMES, _PRIMES_1_MOD_3, _PRIMES[:256],
                                        _PRIMES[:257], (), (7,)])
    def test_blocks_cover_the_primes_in_order(self, primes):
        blocks = arith._BlockTrialDivisor(primes)._blocks
        assert [p for _, block in blocks for p in block] == list(primes)
        assert all(len(block) == 256 for _, block in blocks[:-1])
        assert all(product == math.prod(block) for product, block in blocks)

    @given(cofactor=_cofactors, factors=_small_factors)
    @example(cofactor=2**89 - 1, factors=[99991])
    @example(cofactor=2**89 - 1, factors=[1621, 1619])
    @example(cofactor=2**61 - 1, factors=[1621])
    @example(cofactor=1, factors=[99989, 99991])
    @example(cofactor=2**127 - 1, factors=[])
    @settings(max_examples=300)
    def test_returns_the_smallest_prime_factor_in_the_list(self, cofactor, factors):
        x = cofactor * math.prod(factors)
        for primes, divisor in _DIVISORS:
            assert divisor.smallest_factor(x) == _first_divisor(x, primes)


class TestIsPrimeMatchesPerPrimeTrialDivision:
    @given(cofactor=_cofactors, factors=_small_factors, rounds=st.integers(1, 4))
    @example(cofactor=2**89 - 1, factors=[99991], rounds=2)
    @example(cofactor=2**61 - 1, factors=[1621], rounds=1)
    @example(cofactor=10**10 + 19, factors=[], rounds=1)
    @example(cofactor=2**89 - 1, factors=[], rounds=3)
    @settings(max_examples=300)
    def test_same_verdict_from_10_to_10_upwards(self, cofactor, factors, rounds):
        x = cofactor * math.prod(factors)
        assume(x >= 10**10)
        assert is_prime(x, rounds) == _per_prime_is_prime(x, rounds)

    @given(x=st.integers(10**10, DETERMINISTIC_LIMIT - 1))
    @settings(max_examples=200)
    def test_same_verdict_in_the_deterministic_range(self, x):
        assert is_prime(x) == _per_prime_is_prime(x, 1)

    @given(
        x=st.one_of(
            st.integers(2, 2 * 10**5),
            st.integers(2, 2 * 10**10),
            st.integers(99991**2 - 10**4, 99991**2 + 10**4),
        ),
        rounds=st.sampled_from([1, 40]),
    )
    @example(x=2, rounds=1)
    @example(x=99989 * 99991, rounds=1)
    @example(x=99991**2 - 20, rounds=40)  # 9998200061, the last prime below
    @example(x=99991**2, rounds=40)
    @example(x=99991**2 + 6, rounds=1)  # 9998200087, the first prime above
    @example(x=10**10 - 33, rounds=40)
    @settings(max_examples=300)
    def test_same_verdict_from_2_upwards(self, x, rounds):
        assert is_prime(x, rounds) == _per_prime_is_prime(x, rounds)


class TestDecimalDigits:
    @pytest.mark.parametrize(
        "x, expected",
        [(0, 1), (1, 1), (9, 1), (10, 2), (999, 3), (1000, 4),
         (10**100 - 1, 100), (10**100, 101)],
    )
    def test_boundaries(self, x, expected):
        assert decimal_digits(x) == expected

    @given(x=st.integers(0, 10**50))
    @settings(max_examples=400)
    def test_agrees_with_string_length(self, x):
        assert decimal_digits(x) == len(str(x))

    def test_works_far_beyond_the_interpreter_conversion_guard(self):
        x = 7 ** (5 * 10**4)  # about 42000 digits
        assert decimal_digits(x) == len(str(x)) > 40000

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            decimal_digits(-1)


class TestSigmaPower:
    @pytest.mark.parametrize(
        "p, m, expected",
        [(3, 2, 13), (1, 4, 5), (5, 4, 781), (2, 1, 3), (13, 2, 183), (61, 2, 3783)],
    )
    def test_known_values(self, p, m, expected):
        assert sigma_power(p, m) == expected

    @given(p=st.integers(2, 10**9), m=st.integers(1, 8))
    def test_congruent_to_one_mod_p(self, p, m):
        assert sigma_power(p, m) % p == 1

    @given(p=st.integers(1, 500), m=st.integers(1, 6))
    def test_matches_direct_summation(self, p, m):
        assert sigma_power(p, m) == sum(p**i for i in range(m + 1))

    @given(p=st.integers(2, 10**2000), m=st.integers(1, 8))
    def test_matches_closed_form(self, p, m):
        assert sigma_power(p, m) == (p ** (m + 1) - 1) // (p - 1)

    @pytest.mark.parametrize("p, m", [(0, 2), (-3, 2), (3, 0), (3, -1)])
    def test_rejects_bad_arguments(self, p, m):
        with pytest.raises(ValueError):
            sigma_power(p, m)


class TestIsPrime:
    def test_thirteen_is_prime(self):
        verdict = is_prime(13)
        assert verdict.status is Primality.PRIME
        assert verdict.witness is None

    def test_217_composite_with_witness(self):
        verdict = is_prime(217)
        assert verdict.status is Primality.COMPOSITE
        assert verdict.witness == 7
        assert 217 % verdict.witness == 0

    @pytest.mark.parametrize("x", [22419767768701, 107419560853453])
    def test_large_pair_members_deterministically_prime(self, x):
        assert x < DETERMINISTIC_LIMIT
        assert is_prime(x).status is Primality.PRIME

    def test_probable_prime_above_deterministic_range(self):
        mersenne89 = 2**89 - 1  # known prime, 27 digits
        verdict = is_prime(mersenne89, rounds=40)
        assert verdict.status is Primality.PROBABLE_PRIME
        assert verdict.rounds == 40

    def test_large_semiprime_detected(self):
        verdict = is_prime((2**89 - 1) ** 2, rounds=5)
        assert verdict.status is Primality.COMPOSITE
        assert verdict.rounds >= 1
        assert verdict.witness is not None

    @pytest.mark.parametrize(
        "x, status, rounds, witness",
        [
            (2, Primality.PRIME, 0, None),
            (3, Primality.PRIME, 0, None),
            (99991, Primality.PRIME, 0, None),
            # trial division settles every x below 99991**2 = 9998200081
            (9998200061, Primality.PRIME, 0, None),
            (9998200081, Primality.COMPOSITE, 0, 99991),
            # primes from 99991**2 up go on to Miller-Rabin
            (9998200087, Primality.PRIME, 7, None),
            (9999999967, Primality.PRIME, 7, None),
        ],
    )
    def test_trial_division_boundary_verdicts(self, x, status, rounds, witness):
        assert is_prime(x) == PrimalityVerdict(status, rounds=rounds, witness=witness)

    def test_zero_and_one_are_not_prime(self):
        assert is_prime(0).status is Primality.COMPOSITE
        assert is_prime(1).status is Primality.COMPOSITE

    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError):
            is_prime(13, rounds=0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            is_prime(-7)

    def test_exhaustive_agreement_with_sieve_below_10_to_6(self):
        limit = 10**6
        flags = bytearray(b"\x01") * (limit + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
        for x in range(limit + 1):
            assert is_prime(x).is_probable_prime == bool(flags[x]), x

    def test_deterministic_across_calls(self):
        x = 10**30 + 57
        assert is_prime(x, rounds=12) == is_prime(x, rounds=12)

    @given(x=st.integers(0, 10**40))
    @settings(max_examples=200)
    def test_decimal_round_trip(self, x):
        assert int(str(x)) == x


def bounded_square_part(x, bound):
    """The largest square dividing x whose root has no prime factor above
    bound, found as square_divisor_probe finds it."""
    return arith._square_part(arith._BlockTrialDivisor(small_primes(bound)).exponents(x))


class TestBoundedSquarePart:
    @pytest.mark.parametrize(
        "x, bound, expected",
        [(12, 100, 4), (13, 100, 1), (49 * 13, 100, 49), (1, 100, 1), (2**10, 100, 2**10)],
    )
    def test_known_values(self, x, bound, expected):
        assert bounded_square_part(x, bound) == expected

    def test_large_prime_square_missed_when_above_bound(self):
        # lower-bound semantics: square factors above the trial bound stay unseen
        assert bounded_square_part(101 * 101, 100) == 1
        assert bounded_square_part(101 * 101, 101) == 101 * 101

    @given(x=st.integers(1, 10**6), bound=st.integers(2, 1000))
    @settings(max_examples=300)
    def test_result_is_square_divisor_and_residual_is_reduced(self, x, bound):
        square = bounded_square_part(x, bound)
        root = math.isqrt(square)
        assert root * root == square
        assert x % square == 0
        rest = x // square
        for p in small_primes(bound):
            if p * p > rest:
                break
            assert rest % (p * p) != 0

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_prime_trial_division(self, data):
        # prime bounds put p equal to the bound; the primes just above it
        # must stay unseen, and above 10**5 the primes come from a new sieve
        bound = data.draw(
            st.sampled_from([2, 3, 7, 97, 1009, 99991, 10**5, 100003, 2 * 10**5])
        )
        primes = small_primes(bound)
        edge = (primes[-1], *small_primes(bound + 100)[len(primes):][:2])
        powers = data.draw(st.lists(
            st.tuples(st.sampled_from(primes) | st.sampled_from(edge), st.integers(1, 5)),
            max_size=6,
        ))
        x = math.prod(p**e for p, e in powers) * data.draw(st.integers(10**30, 10**60))
        assert bounded_square_part(x, bound) == reference_square_part(x, primes)
