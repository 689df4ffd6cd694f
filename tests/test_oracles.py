import contextlib
import hashlib
import io
import re
import shlex
from itertools import groupby

import pytest

from sigmapairs import oracles
from sigmapairs.cli import main as cli_main
from sigmapairs.oracles import (
    ORACLES,
    OracleReport,
    _minus_one_roots,
    _primes_up_to,
    _sigma2_roots,
    _sigma22_prime_pairs,
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

    @pytest.mark.parametrize("pair", [(7, 9)])
    def test_reads_each_pair_both_ways(self, pair, monkeypatch):
        # 7 * 13 = 9^2 + 9 + 1, 13 = 1 (mod 4) and 7 | 13 + 1, so the
        # triple (7, 9, 13) appears when the pair is read as stored; 9 is
        # no prime, so no real pair can stand in for this one
        monkeypatch.setattr(oracles, "_sigma22_prime_pairs", lambda bound: {pair})
        assert oracle_pqr(100).witnesses == ((7, 9, 13),)

    def test_the_swapped_order_leaves_no_room_for_r(self):
        # read swapped, as (q, p) with q > p, r = 1 (mod 4) and q | r+1
        # give r >= 2q - 1, so q r exceeds p^2+p+1 and cannot divide it
        pairs = _reference_sigma22_prime_pairs(3000)
        assert (3, 13) in pairs
        for p, q in pairs:
            assert q % 2 == 1 and q * (2 * q - 1) > p * p + p + 1, (p, q)


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

    @pytest.mark.parametrize("bound", [-5, 0, 3, 100, 10**3, 10**4])
    def test_every_pair_lands_in_a_case(self, bound):
        assert oracle_sigma33_breakdown(bound) == OracleReport(
            lemma_id="sigma33", bound=bound, witnesses=(), expected=(), agrees=True
        )

    def test_the_four_cases_cover_every_pair_below_1000(self):
        # the proof the report rests on, checked by brute force: each
        # sigma_{3,3} prime pair below 1000 lies in one of the four cases
        primes = _primes_up_to(10**3)
        pairs = [
            (p, q) for p in primes for q in primes
            if (p + 1) * (p * p + 1) % q == 0 and (q + 1) * (q * q + 1) % p == 0
        ]
        assert (2, 3) in pairs and (89, 233) in pairs
        for p, q in pairs:
            cases = (
                (q + 1) % p == 0 and (p + 1) % q == 0,
                (q * q + 1) % p == 0 and (p * p + 1) % q == 0,
                (q + 1) % p == 0 and (p * p + 1) % q == 0,
                (q * q + 1) % p == 0 and (p + 1) % q == 0,
            )
            assert any(cases), (p, q)

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


# The double loops the sieved and root-based oracles replaced, kept as
# references.

def _reference_no_square_pair(bound):
    primes = _primes_up_to(bound)
    witnesses = []
    for q in primes:
        value = q * q + q + 1
        for p in primes:
            if p * p > value:
                break
            if value % (p * p) == 0 and (p * p + p + 1) % q == 0:
                witnesses.append((p, q))
    return witnesses


def _reference_factorization(n):
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _reference_pqr(bound):
    primes = _primes_up_to(bound)
    witnesses = []
    for p in primes:
        value = p * p + p + 1
        for q in primes:
            if value % q:
                continue
            m = q * q + q + 1
            if m % p:
                continue
            for r in _reference_factorization(m):
                if r % 4 == 1 and (r + 1) % p == 0 and m % (p * r) == 0:
                    witnesses.append((p, q, r))
    return witnesses


def _reference_sigma22_prime_pairs(bound):
    primes = _primes_up_to(bound)
    pairs = set()
    for q in primes:
        value = q * q + q + 1
        for p in primes:
            if p >= q:
                break
            if value % p == 0 and (p * p + p + 1) % q == 0:
                pairs.add((p, q))
    return pairs


def _reference_s_classification(bound):
    witnesses = []
    for x in range(1, bound + 1):
        value = x * x + 1
        low = max(1, (value + bound - 1) // bound)
        high = value // x
        for d in range(low, high + 1):
            if value % d == 0:
                y = value // d
                if x <= y <= bound and (y * y + 1) % x == 0:
                    witnesses.append((x, y))
    return witnesses


def _reference_p1q1(bound):
    witnesses = []
    for p in range(1, bound + 1):
        for k in range(1, (bound + 1) // p + 2):
            q = k * p - 1
            if q > bound:
                break
            if q >= 1 and (p + 1) % q == 0:
                witnesses.append((p, q))
    return witnesses


def _reference_u_classification(bound):
    witnesses = []
    for a in range(1, bound + 1):
        value = a * a + 1
        for k in range(1, (bound + 1) // a + 2):
            b = k * a - 1
            if b > bound:
                break
            if b >= 1 and value % b == 0:
                witnesses.append((a, b))
    return witnesses


_CHECKED_BOUNDS = [*range(-1, 501), 1000, 3001, 10**4]


def _reference_sieved_s_classification(bound):
    # the streaming root sieve the root walk replaced: hits maps an
    # index to the primes with a root there; what is left of x^2+1 once
    # they are divided out is 1 or one prime above x, and every prime
    # found at x is scheduled at x + p
    witnesses = []
    hits = {}
    for x in range(1, bound + 1):
        value = x * x + 1
        factors = []
        primes = hits.pop(x, [])
        for p in primes:
            while value % p == 0:
                value //= p
                factors.append(p)
        if value > 1:
            factors.append(value)
            primes.append(value)
        for p in primes:
            if x + p <= bound:
                hits.setdefault(x + p, []).append(p)
        divisors = [1]
        for p, run in groupby(factors):
            powers = [p**e for e in range(len(list(run)) + 1)]
            divisors = [d * power for d in divisors for power in powers]
        witnesses.extend(
            (x, y) for y in divisors if x <= y <= bound and (y * y + 1) % x == 0
        )
    return witnesses


def _brute_force_minus_one_roots(y):
    return [x for x in range(y) if (x * x + 1) % y == 0]


class TestMinusOneRoots:
    def test_every_prime_power_below_10000(self):
        # 2 has the one root 1, 4 and p = 3 (mod 4) none, and a power of
        # p = 1 (mod 4) two: the lifts of the roots mod p
        found = dict(_minus_one_roots(9999))
        for p in _primes_up_to(9999):
            q = p
            while q < 10**4:
                roots = found.get(q, [])
                assert sorted(roots) == _brute_force_minus_one_roots(q), q
                assert len(roots) == (1 if q == 2 else 2 if p % 4 == 1 else 0), q
                q *= p

    def test_every_modulus_below_3000(self):
        walked = list(_minus_one_roots(2999))
        found = dict(walked)
        assert len(found) == len(walked)
        for y in range(1, 3000):
            roots = _brute_force_minus_one_roots(y) if y >= 2 else []
            assert sorted(found.pop(y, [])) == roots, y
        assert found == {}


class TestSigma2Roots:
    def test_every_root_below_3000(self):
        primes = _primes_up_to(2999)
        assert primes[:2] == [2, 3]
        for q in primes:
            roots = {p for p in range(1, q) if (p * p + p + 1) % q == 0}
            assert set(_sigma2_roots(q)) == roots, q
            assert len(_sigma2_roots(q)) == len(roots), q


class TestSievedOraclesMatchTheDoubleLoops:
    @pytest.mark.parametrize(
        "oracle, reference",
        [
            (oracle_no_square_pair, _reference_no_square_pair),
            (oracle_pqr, _reference_pqr),
            (oracle_s_classification, _reference_s_classification),
        ],
        ids=["no_square_pair", "pqr", "s_classification"],
    )
    def test_reports(self, oracle, reference):
        for bound in _CHECKED_BOUNDS:
            report = oracle(bound)
            assert report.witnesses == tuple(sorted(set(reference(bound)))), bound
            assert report.bound == bound

    def test_sigma22_prime_pairs(self):
        for bound in _CHECKED_BOUNDS:
            assert _sigma22_prime_pairs(bound) == _reference_sigma22_prime_pairs(bound), bound

    def test_s_classification_matches_the_retired_sieve(self):
        report = oracle_s_classification(10**5)
        assert report.witnesses == tuple(sorted(set(_reference_sieved_s_classification(10**5))))
        assert report.agrees and report.witnesses[-1] == (28657, 75025)


class TestCappedLoopsMatchTheDoubleLoops:
    """p1q1 and u_classification stop each inner loop where the second
    divisibility caps the partner; the uncapped loops are the reference."""

    @pytest.mark.parametrize(
        "oracle, reference",
        [(oracle_p1q1, _reference_p1q1), (oracle_u_classification, _reference_u_classification)],
        ids=["p1q1", "u_classification"],
    )
    def test_reports(self, oracle, reference):
        for bound in _CHECKED_BOUNDS:
            report = oracle(bound)
            assert report.witnesses == tuple(sorted(set(reference(bound)))), bound
            assert report.bound == bound


# ``lemmas`` in both formats: the default run, and each oracle alone at
# small, boundary and default-sized bounds (gcd reads its bound as a
# number of chain terms, so it stops at 1000).
_LEMMA_BOUNDS = (-1, 0, 1, 2, 3, 4, 13, 61, 100, 1000, 3001, 10**4)
_LEMMAS_RUNS = [
    ("lemmas",),
    ("lemmas", "--json"),
    *(
        ("lemmas", "--only", lemma_id, "--bound", str(bound), *fmt)
        for lemma_id in sorted(ORACLES)
        for bound in _LEMMA_BOUNDS
        if lemma_id != "gcd" or bound <= 1000
        for fmt in ((), ("--json",))
    ),
]

LEMMAS_DIGEST = "a2d0bb063ca4f43460af4954fd940690063a7a68c33d12a6ef87407d65315d40"


def test_lemmas_outputs_match_their_digest():
    # exit code, stdout with elapsed_ms masked, and stderr of each run
    digest = hashlib.sha256()
    for argv in _LEMMAS_RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
        stdout = re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', out.getvalue())
        digest.update(f"{shlex.join(argv)}\n{code}\n{stdout}\0{err.getvalue()}\0".encode())
    assert len(_LEMMAS_RUNS) == 238
    assert digest.hexdigest() == LEMMAS_DIGEST
