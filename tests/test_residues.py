import math

import pytest

from sigmapairs.chains import chain_terms
from sigmapairs.residues import (
    NonUnitResidue,
    PreconditionViolation,
    check_residue_pattern,
    residue_profile,
)

# moduli <= 50 with no prime divisor congruent to 1 (mod 3) and coprime
# to 3, for which the modular recurrence runs without hitting a non-unit
VALID_MODULI = [2, 4, 5, 8, 10, 11, 16, 17, 20, 22, 23, 25, 29, 32, 34,
                40, 41, 44, 46, 47, 50]


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

    @pytest.mark.parametrize("w", [7, 13, 14, 49, 91])
    def test_rejects_moduli_with_one_mod_three_divisor(self, w):
        with pytest.raises(PreconditionViolation):
            residue_profile(w)

    @pytest.mark.parametrize("w", [3, 9, 33, 15])
    def test_multiples_of_three_hit_non_unit(self, w):
        # 3 | t_3, so the modular division cannot continue
        with pytest.raises(NonUnitResidue):
            residue_profile(w)

    def test_rejects_modulus_below_two(self):
        with pytest.raises(ValueError):
            residue_profile(1)

    @pytest.mark.parametrize("w", VALID_MODULI)
    def test_mirror_symmetry_for_all_small_valid_moduli(self, w):
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

    @pytest.mark.parametrize("w", [5, 11, 23, 29])
    def test_cycle_consistent_with_exact_terms(self, w):
        profile = residue_profile(w)
        terms = chain_terms(2, 3 * profile.period)
        for n, t in enumerate(terms, start=1):
            assert profile.cycle[(n - 1) % profile.period] == t % w

    def test_every_admissible_modulus_ends_within_phi_squared(self):
        # The reason residue_profile needs no step budget: without 3 | w
        # the step permutes pairs of units, so (1, 1) recurs within
        # phi(w)**2 steps; with 3 | w, t_3 = 3 is a non-unit.
        for w in range(2, 601):
            primes = [p for p in range(2, w + 1)
                      if w % p == 0 and all(p % d for d in range(2, p))]
            if any(p % 3 == 1 for p in primes):
                continue
            if w % 3 == 0:
                with pytest.raises(NonUnitResidue):
                    residue_profile(w)
            else:
                phi = sum(1 for k in range(1, w + 1) if math.gcd(k, w) == 1)
                assert residue_profile(w).period <= phi**2, w

    def test_cycle_reproduces_on_second_period(self):
        profile = residue_profile(11)
        terms = chain_terms(2, 2 * profile.period)
        second = tuple(
            t % 11 for t in terms[profile.period : 2 * profile.period]
        )
        assert second == profile.cycle


class TestResiduePattern:
    def test_no_violations_in_200_terms(self):
        report = check_residue_pattern(200)
        assert report.ok
        assert report.terms_checked == 200
        assert report.violations == ()

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

    def test_rejects_short_runs(self):
        with pytest.raises(ValueError):
            check_residue_pattern(5)
