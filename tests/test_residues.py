import math

import pytest

from sigmapairs.arith import small_primes
from sigmapairs.chains import chain_terms
from sigmapairs.residues import residue_profile


class TestResidueProfile:
    def test_mod_11(self):
        profile = residue_profile(11)
        assert profile.period == 12
        assert profile.cycle == (1, 1, 3, 2, 6, 5, 7, 7, 5, 6, 2, 3)
        assert profile.palindromic is True

    def test_mod_5(self):
        profile = residue_profile(5)
        assert profile.period == 4
        assert profile.cycle == (1, 1, 3, 3)
        # t_n = 1 for n = 1, 2 (mod 4), t_n = 3 for n = 3, 0 (mod 4)
        for n in range(1, 50):
            expected = 1 if n % 4 in (1, 2) else 3
            assert profile.cycle[(n - 1) % 4] == expected

    def test_mod_2_all_terms_odd(self):
        profile = residue_profile(2)
        assert profile.period == 1
        assert profile.cycle == (1,)

    def test_mod_4(self):
        profile = residue_profile(4)
        assert profile.period == 3
        assert profile.cycle == (1, 1, 3)

    def test_rejects_modulus_below_two(self):
        with pytest.raises(ValueError):
            residue_profile(1)

    def test_refuses_a_modulus_above_10_to_6_before_any_step(self):
        # every step reduces modulo w, so a w that fails on reduction
        # shows whether one was taken
        class Unstepped(int):
            def __rmod__(self, other):
                raise AssertionError("stepped")

        with pytest.raises(ValueError, match="1000000"):
            residue_profile(Unstepped(10**6 + 1))
        with pytest.raises(AssertionError, match="stepped"):
            residue_profile(Unstepped(10**6))
        assert residue_profile(10**6).period == 75000

    @pytest.mark.parametrize("w", range(2, 201))
    def test_mirror_symmetry_for_all_small_valid_moduli(self, w):
        # test_every_modulus_ends_within_w_squared checks the one fixed
        # axis; this searches every shift
        profile = residue_profile(w)
        assert profile.palindromic is True
        length = profile.period
        shifts = [
            s
            for s in range(length)
            if all(
                profile.cycle[i] == profile.cycle[(s - i) % length]
                for i in range(length)
            )
        ]
        assert shifts, f"no reflection axis for w={w}"

    @pytest.mark.parametrize("w", [3, 5, 7, 9, 11, 13, 14, 15, 23, 29, 33, 49, 91])
    def test_cycle_consistent_with_exact_terms(self, w):
        profile = residue_profile(w)
        terms = chain_terms(2, 3 * profile.period)
        for n, t in enumerate(terms, start=1):
            assert profile.cycle[(n - 1) % profile.period] == t % w

    def test_every_modulus_ends_within_w_squared(self):
        # The reason residue_profile needs no step budget: the step is a
        # bijection on the w^2 pairs mod w, so (1, 1) recurs within w^2
        # steps.  The cycle is the exact chain mod w, and the two terms
        # after it are 1, 1 again.
        profiles = [residue_profile(w) for w in range(2, 601)]
        terms = chain_terms(2, max(p.period for p in profiles) + 2)
        for profile in profiles:
            w, period = profile.modulus, profile.period
            assert period <= w * w, w
            assert profile.cycle == tuple(t % w for t in terms[:period]), w
            assert (terms[period] % w, terms[period + 1] % w) == (1, 1), w
            # the fixed mirror axis that sets palindromic, by its proof
            cycle = profile.cycle
            assert all(cycle[i] == cycle[(1 - i) % period] for i in range(period)), w
            assert profile.palindromic is True, w

    def test_gcd_law_holds_for_every_index(self):
        # test_criterion_09_gcd_divides_three proves that a prime dividing
        # g = gcd(sigma(t_n), sigma(t_{n+1})), sigma(x) = x^2+x+1, is 3 or
        # 7 and that 9 never divides sigma(x).  One period mod 49 rules
        # out 49 and one period mod 21 fixes g = gcd(g, 21) at every n,
        # so the law 3^[n = 1 mod 3] * 7^[n = 8 mod 14] holds for all n.
        def sigma(x):
            return x * x + x + 1

        mod49 = residue_profile(49).cycle
        assert len(mod49) == 98
        for i, a in enumerate(mod49):
            b = mod49[(i + 1) % len(mod49)]
            assert sigma(a) % 49 or sigma(b) % 49, i + 1

        mod21 = residue_profile(21).cycle
        assert len(mod21) == 42
        for n in range(1, len(mod21) + 1):
            a, b = mod21[n - 1], mod21[n % len(mod21)]
            law = (3 if n % 3 == 1 else 1) * (7 if n % 14 == 8 else 1)
            assert math.gcd(sigma(a), sigma(b), 21) == law, n

    def test_prime_period_law(self):
        # s_n = 3 t_n - 1 follows s_{n+1} = 5 s_n - s_{n-1}, whose roots
        # alpha, 1/alpha = (5 +- sqrt 21)/2 have alpha^(p - (21/p)) = 1
        # mod p once p does not divide 2 * 3 * 7.  So the period of t_n
        # mod p divides p - (21/p).  t_n = 0 says s_n = A alpha^n +
        # B alpha^-n = -1, a quadratic in alpha^n, and alpha^n takes each
        # value at most once per period: at most two zeros.
        assert [residue_profile(p).period for p in (2, 3, 7)] == [1, 3, 14]
        for p in small_primes(3000):
            if p in (2, 3, 7):
                continue
            profile = residue_profile(p)
            legendre = 1 if pow(21, (p - 1) // 2, p) == 1 else -1
            assert (p - legendre) % profile.period == 0, p
            assert profile.cycle.count(0) <= 2, p

    def test_cycle_reproduces_on_second_period(self):
        profile = residue_profile(11)
        terms = chain_terms(2, 2 * profile.period)
        second = tuple(
            t % 11 for t in terms[profile.period : 2 * profile.period]
        )
        assert second == profile.cycle


class TestResiduePattern:
    def test_mod_12_law_holds_for_every_index(self):
        # one period mod 12 fixes t_n mod 12 at every n: 1 when 3 does
        # not divide n, 3 when it does
        profile = residue_profile(12)
        assert profile.period == 3
        assert profile.cycle == (1, 1, 3)
        for n, t in enumerate(chain_terms(2, 600), start=1):
            assert t % 12 == profile.cycle[(n - 1) % 3] == (3 if n % 3 == 0 else 1), n

    def test_exception_indices_are_divisible_by_three(self):
        terms = chain_terms(2, 9)
        assert terms[2] == 3 and terms[5] == 291 and terms[8] == 31971
        for n in (3, 6, 9):
            assert terms[n - 1] % 3 == 0

    def test_t4_residues(self):
        terms = chain_terms(2, 4)
        assert terms[3] == 13
        assert terms[3] % 4 == 1 and terms[3] % 3 == 1

    def test_start_terms_trivially_one(self):
        terms = chain_terms(2, 2)
        assert all(t % 4 == 1 and t % 3 == 1 for t in terms)


@pytest.fixture(scope="module")
def terms_to_2002():
    # terms[n] = t_n; terms[0] is a placeholder
    return [0, *chain_terms(2, 2002)]


class TestSigma22ChainFacts:
    # Every sigma_{2,2} prime pair p < q is (t_n, t_{n+1}) for some
    # n >= 3, and q^2 + q + 1 = t_n t_{n+2}.  linked rests on the mod 3
    # cycle, no_square_pair on the mod 31 cycle and the coprimality, and
    # pqr on the rest (proofs in the residues module docstring).

    def test_mod_3_has_period_3_and_a_zero_only_at_multiples_of_3(self, terms_to_2002):
        profile = residue_profile(3)
        assert profile.cycle == (1, 1, 0)
        t = terms_to_2002
        for n in range(1, 2003):
            assert (t[n] % 3 == 0) == (n % 3 == 0), n

    def test_mod_31_has_period_16_and_no_zero(self):
        # a prime common to t_n and t_{n+2} divides 31, and no term does
        profile = residue_profile(31)
        assert profile.period == 16
        assert 0 not in profile.cycle

    def test_terms_two_apart_are_coprime(self, terms_to_2002):
        t = terms_to_2002
        for n in range(1, 2001):
            assert math.gcd(t[n], t[n + 2]) == 1, n

    def test_two_steps_later_is_at_most_23_times_one_less(self, terms_to_2002):
        t = terms_to_2002
        for n in range(5, 2001):
            assert t[n + 2] // (t[n] - 1) <= 23, n

    def test_no_small_cofactor_leaves_a_divisor_one_below_a_multiple(
        self, terms_to_2002
    ):
        # t_{n+2} = c r with r = -1 (mod t_n) forces c <= 23 for n >= 5
        t = terms_to_2002
        for n in range(5, 2001):
            for c in range(1, 24):
                if t[n + 2] % c == 0:
                    assert (t[n + 2] // c + 1) % t[n], (n, c)

    def test_two_steps_give_24_t_n_minus_5_t_n_minus_1_minus_6(self, terms_to_2002):
        t = terms_to_2002
        for n in range(2, 2001):
            assert t[n + 2] == 24 * t[n] - 5 * t[n - 1] - 6, n

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_the_hand_cases(self, terms_to_2002, n):
        # below n = 5 the cofactor bound does not hold, and at n = 5, 6
        # it leaves c = t_{n-2} + 7: every divisor is tried instead
        t = terms_to_2002
        divisors = [r for r in range(2, t[n + 2] + 1) if t[n + 2] % r == 0]
        assert divisors
        assert all((r + 1) % t[n] for r in divisors), n
