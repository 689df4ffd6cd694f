import pytest

from sigmapairs.oracles import (
    ORACLES,
    oracle_gcd,
    oracle_linked,
    oracle_no_square_pair,
    oracle_p1q1,
    oracle_p_div_q1,
    oracle_pqr,
    oracle_s_classification,
    oracle_sigma33_breakdown,
    oracle_sigma41,
    oracle_u_classification,
)


class TestPDivQ1:
    def test_bound_10000(self):
        report = oracle_p_div_q1(10**4)
        assert report.witnesses == ((1, 1), (1, 3))
        assert report.agrees

    def test_bound_3(self):
        report = oracle_p_div_q1(3)
        assert report.witnesses == ((1, 1), (1, 3))
        assert report.agrees

    def test_bound_1(self):
        report = oracle_p_div_q1(1)
        assert report.witnesses == ((1, 1),)
        assert report.agrees


class TestNoSquarePair:
    @pytest.mark.parametrize("bound", [100, 10**4])
    def test_empty(self, bound):
        report = oracle_no_square_pair(bound)
        assert report.witnesses == ()
        assert report.agrees


class TestPqr:
    @pytest.mark.parametrize("bound", [5, 61, 10**3])
    def test_empty(self, bound):
        report = oracle_pqr(bound)
        assert report.witnesses == ()
        assert report.agrees


class TestLinked:
    def test_bound_10000(self):
        report = oracle_linked(10**4)
        assert report.witnesses == ((3, 13, 61),)
        assert report.agrees

    def test_bound_61(self):
        report = oracle_linked(61)
        assert report.witnesses == ((3, 13, 61),)
        assert report.agrees

    def test_bound_13_excludes_61(self):
        report = oracle_linked(13)
        assert report.witnesses == ()
        assert report.agrees


class TestGcd:
    def test_values_at_the_known_prime_pairs(self):
        # gcd(13, 183) = 1 at (3, 13); gcd(183, 3783) = 3 at (13, 61)
        report = oracle_gcd(6)
        assert report.agrees  # divides-3 first fails at index 8

    def test_divides_three_claim_fails_honestly(self):
        # the claim gcd | 3 is false along the chain: both members of the
        # pair at index 8 are 2 (mod 7), so 7 divides both sigma values,
        # and the large prime pair at index 22 even has gcd 21
        report = oracle_gcd(100)
        assert not report.agrees
        assert (8, 7) in report.witnesses
        assert (22, 21) in report.witnesses
        assert all(g in (7, 21) for _, g in report.witnesses)

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            oracle_gcd(3)


class TestSigma41:
    @pytest.mark.parametrize("bound", [100, 10**4])
    def test_no_violations(self, bound):
        report = oracle_sigma41(bound)
        assert report.witnesses == ()
        assert report.agrees


class TestP1Q1:
    def test_bound_10000(self):
        report = oracle_p1q1(10**4)
        assert report.witnesses == ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2))
        assert report.agrees

    def test_bound_2(self):
        report = oracle_p1q1(2)
        assert report.witnesses == ((1, 1), (1, 2), (2, 1))
        assert report.agrees

    def test_prime_filter_leaves_sigma11_pairs(self):
        report = oracle_p1q1(100)
        primes = {2, 3}
        prime_pairs = {
            (p, q) for p, q in report.witnesses if p in primes and q in primes
        }
        assert prime_pairs == {(2, 3), (3, 2)}


class TestSClassification:
    def test_bound_100(self):
        report = oracle_s_classification(100)
        assert report.witnesses == (
            (1, 1), (1, 2), (2, 5), (5, 13), (13, 34), (34, 89),
        )
        assert report.agrees

    def test_bound_10000(self):
        report = oracle_s_classification(10**4)
        assert report.agrees
        assert (1597, 4181) in report.witnesses
        assert all(q <= 10**4 for _, q in report.witnesses)

    def test_individual_relations(self):
        # (2, 5): 2 | 26 and 5 | 5
        assert 26 % 2 == 0 and 5 % 5 == 0
        report = oracle_s_classification(5)
        assert (2, 5) in report.witnesses
        assert (1, 1) in report.witnesses


class TestUClassification:
    def test_bound_100(self):
        report = oracle_u_classification(100)
        assert report.witnesses == (
            (1, 1), (1, 2), (2, 1), (2, 5), (3, 2), (3, 5),
        )
        assert report.agrees

    def test_bound_10000(self):
        report = oracle_u_classification(10**4)
        assert report.agrees

    def test_pair_3_5(self):
        # 5 | 3^2 + 1 and 3 | 5 + 1
        report = oracle_u_classification(5)
        assert (3, 5) in report.witnesses
        assert (1, 1) in report.witnesses


class TestSigma33Breakdown:
    def test_cube_sigma_factorization(self):
        for x in range(1, 1001):
            assert x**3 + x**2 + x + 1 == (x + 1) * (x * x + 1)

    @pytest.mark.parametrize("bound", [3, 100, 10**3])
    def test_every_pair_lands_in_a_case(self, bound):
        report = oracle_sigma33_breakdown(bound)
        assert report.witnesses == ()
        assert report.agrees

    def test_2_3_is_a_sigma33_pair_via_case_1(self):
        # sigma(2^3) = 15, sigma(3^3) = 40: 3 | 15 and 2 | 40, and the
        # pair is sigma_{1,1} (3 | 3, 2 | 4)
        assert 15 % 3 == 0 and 40 % 2 == 0
        assert 3 % 3 == 0 and 4 % 2 == 0


class TestOracleTable:
    def test_every_oracle_registered(self):
        assert set(ORACLES) == {
            "p_div_q1", "no_square_pair", "pqr", "linked", "gcd",
            "sigma41", "p1q1", "s_classification", "u_classification",
            "sigma33",
        }

    @pytest.mark.parametrize(
        "oracle",
        [oracle_p_div_q1, oracle_p1q1, oracle_u_classification,
         oracle_s_classification, oracle_linked],
    )
    def test_doubling_the_bound_never_removes_witnesses(self, oracle):
        small = set(oracle(50).witnesses)
        large = set(oracle(100).witnesses)
        assert small <= large

    def test_reports_carry_timing_and_bound(self):
        report = oracle_p1q1(10)
        assert report.bound == 10
        assert report.lemma_id == "p1q1"
