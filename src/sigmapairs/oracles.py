"""Brute-force verifiers for the small-case divisibility lemmas.

Each oracle enumerates its solution set directly from the defining
divisibility relations, with loops written here from scratch, and
compares against an expected set.  Most expected sets are frozen.  Two
come from the sequences in :mod:`sigmapairs.chains`, so those oracles
cross-check them: ``s_classification`` expects the adjacent terms of
``generate_s``, and ``u_classification`` also requires every witness to
be adjacent in the cycle of ``generate_u``.  A report with
``agrees=False`` means the enumeration found something the expected set
does not predict, or vice versa; reports never hide counterexamples.

The oracles that turn on divisors of x^2+1 (``s_classification``) or
of x^2+x+1 (``no_square_pair``, ``pqr``, ``linked``) read them from one
streaming root sieve, :func:`_quadratic_factors`.  It factors every
x^2+bx+1 up to the bound completely, so the enumeration still misses no
solution.

Known honest failure: :func:`oracle_gcd` checks the claim that
gcd(p^2+p+1, q^2+q+1) divides 3 along the chain.  That claim is false:
the gcd also takes the values 7 and 21 (first at chain index 8, and 21
at the large prime pair itself), because 7 divides x^2+x+1 exactly when
x is congruent to 2 or 4 mod 7.  The oracle reports these witnesses.
The correct statement: the gcd divides 21 (a prime dividing both values
divides 5pq + 1, so 5p = -4 and 25(p^2+p+1) = 21 modulo it), and along
the m = 2 chain it equals 3^[n = 1 (mod 3)] * 7^[n = 8 (mod 14)], so the
witnesses are exactly the indices n = 8 (mod 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterable, Iterator

from .chains import generate_s, generate_u

__all__ = [
    "ORACLES",
    "OracleReport",
    "oracle_gcd",
    "oracle_linked",
    "oracle_no_square_pair",
    "oracle_p1q1",
    "oracle_p_div_q1",
    "oracle_pqr",
    "oracle_s_classification",
    "oracle_sigma33_breakdown",
    "oracle_sigma41",
    "oracle_u_classification",
]


@dataclass(frozen=True)
class OracleReport:
    lemma_id: str
    bound: int
    witnesses: tuple
    expected: tuple
    agrees: bool


def _report(lemma_id: str, bound: int, witnesses: Iterable, expected: Iterable,
            extra_ok: bool = True) -> OracleReport:
    wit = tuple(sorted(set(witnesses)))
    exp = tuple(sorted(set(expected)))
    return OracleReport(
        lemma_id=lemma_id,
        bound=bound,
        witnesses=wit,
        expected=exp,
        agrees=(wit == exp) and extra_ok,
    )


def _primes_up_to(bound: int) -> list[int]:
    if bound < 2:
        return []
    flags = bytearray(b"\x01") * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return [i for i, f in enumerate(flags) if f]


def oracle_p_div_q1(bound: int) -> OracleReport:
    """Odd positive p, q <= bound with q | p^2+p+1 and p | q+1; the
    complete solution set is {(1,1), (1,3)}."""
    witnesses = []
    for p in range(1, bound + 1, 2):
        value = p * p + p + 1
        # p | q+1 means q = kp - 1; q odd forces k even (p odd)
        for k in range(2, (bound + 1) // p + 2, 2):
            q = k * p - 1
            if q > bound:
                break
            if q >= 1 and value % q == 0:
                witnesses.append((p, q))
    expected = [(p, q) for p, q in ((1, 1), (1, 3)) if p <= bound and q <= bound]
    return _report("p_div_q1", bound, witnesses, expected)


def _quadratic_factors(b: int, bound: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (x, factors) for x = 1 .. bound, where factors lists the
    prime factors of x^2 + bx + 1 (b = 0 or 1) with multiplicity, each
    prime's copies next to each other.

    A streaming root sieve: ``hits`` maps an index to the primes with a
    root there, and is all the state kept.  The primes popped at x are
    every prime p <= x dividing x^2 + bx + 1, each found at the least
    root of its class mod p and rescheduled p steps on.  What is left
    once they are divided out is 1 or a single prime above x, since two
    factors above x exceed x^2 + bx + 1.  Every prime found at x is
    scheduled at x + p, unless that is past ``bound``.
    """
    hits: dict[int, list[int]] = {}
    for x in range(1, bound + 1):
        value = x * x + b * x + 1
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
        yield x, factors


def _divisors(factors: list[int]) -> list[int]:
    """All divisors of the product of a factor list whose equal primes
    are adjacent."""
    divisors = [1]
    run: list[int] = []
    for i, p in enumerate(factors):
        # a repeated prime raises only the divisors its last copy made
        base = run if i and p == factors[i - 1] else divisors
        run = [d * p for d in base]
        divisors += run
    return divisors


def oracle_no_square_pair(bound: int) -> OracleReport:
    """Primes p, q <= bound with p^2 | q^2+q+1 and q | p^2+p+1; no
    solutions exist."""
    primes = set(_primes_up_to(bound))
    witnesses = []
    for q, factors in _quadratic_factors(1, bound):
        if q in primes:
            # p^2 <= q^2+q+1 keeps p <= q <= bound
            witnesses.extend(
                (p, q) for p in set(factors)
                if factors.count(p) >= 2 and (p * p + p + 1) % q == 0
            )
    return _report("no_square_pair", bound, witnesses, [])


def oracle_pqr(bound: int) -> OracleReport:
    """Primes p, q <= bound and any prime r with pr | q^2+q+1,
    q | p^2+p+1, p | r+1 and r = 1 (mod 4); no solutions exist."""
    primes = set(_primes_up_to(bound))
    witnesses = []
    for q, factors in _quadratic_factors(1, bound):
        if q not in primes:
            continue
        m = q * q + q + 1
        for p in set(factors):
            if p > bound or (p * p + p + 1) % q:
                continue
            for r in set(factors):
                if r % 4 == 1 and (r + 1) % p == 0 and m % (p * r) == 0:
                    witnesses.append((p, q, r))
    return _report("pqr", bound, witnesses, [])


def _sigma22_prime_pairs(bound: int) -> set[tuple[int, int]]:
    primes = set(_primes_up_to(bound))
    return {
        (p, q)
        for q, factors in _quadratic_factors(1, bound) if q in primes
        for p in set(factors) if p < q and (p * p + p + 1) % q == 0
    }


def oracle_linked(bound: int) -> OracleReport:
    """Triples of distinct odd primes where (p, q) and (q, r) are both
    sigma_{2,2} pairs; only {3, 13, 61} qualifies."""
    pairs = _sigma22_prime_pairs(bound)
    witnesses = []
    for p, q in pairs:
        for a, b in pairs:
            shared = {p, q} & {a, b}
            if len(shared) == 1 and {p, q} != {a, b}:
                triple = tuple(sorted({p, q, a, b}))
                if len(triple) == 3:
                    witnesses.append(triple)
    expected = [(3, 13, 61)] if bound >= 61 else []
    return _report("linked", bound, witnesses, expected)


def _chain(count: int) -> list[int]:
    # local recurrence on purpose: reports must not depend on the chain
    # module they cross-check
    terms = [1, 1]
    while len(terms) < count:
        terms.append((terms[-1] * terms[-1] + terms[-1] + 1) // terms[-2])
    return terms


def oracle_gcd(chain_terms: int) -> OracleReport:
    """Check gcd(t_n^2+t_n+1, t_{n+1}^2+t_{n+1}+1) | 3 along the chain,
    with gcd 1 at (3, 13) and 3 at (13, 61).

    The divides-3 claim fails (see module docstring); witnesses list the
    offending (index, gcd) pairs.  The true law is that the gcd divides
    21 and equals 3^[n = 1 (mod 3)] * 7^[n = 8 (mod 14)], so the
    witnesses are exactly the indices n = 8 (mod 14)."""
    if chain_terms < 4:
        raise ValueError(f"need at least 4 chain terms, got {chain_terms}")
    terms = _chain(chain_terms)
    witnesses = []
    for n in range(2, chain_terms):
        p, q = terms[n - 1], terms[n]
        g = gcd(p * p + p + 1, q * q + q + 1)
        if 3 % g != 0:
            witnesses.append((n, g))
        if (p, q) == (3, 13) and g != 1:
            witnesses.append((n, g))
        if (p, q) == (13, 61) and g != 3:
            witnesses.append((n, g))
    return _report("gcd", chain_terms, witnesses, [])


def oracle_sigma41(bound: int) -> OracleReport:
    """Odd primes p, q <= bound with p | q+1 and q | sigma(p^4) never
    have p^2 | q+1; witnesses are violations."""
    primes = _primes_up_to(bound)
    prime_set = set(primes)
    witnesses = []
    for p in primes:
        if p == 2:
            continue
        sigma4 = p**4 + p**3 + p**2 + p + 1
        # q = kp - 1 is odd exactly when k is even
        for k in range(2, (bound + 1) // p + 2, 2):
            q = k * p - 1
            if q > bound:
                break
            if q in prime_set and sigma4 % q == 0 and (q + 1) % (p * p) == 0:
                witnesses.append((p, q))
    return _report("sigma41", bound, witnesses, [])


def oracle_p1q1(bound: int) -> OracleReport:
    """Positive p, q <= bound with p | q+1 and q | p+1; exactly
    {(1,1), (1,2), (2,1), (2,3), (3,2)}."""
    witnesses = []
    for p in range(1, bound + 1):
        for k in range(1, (bound + 1) // p + 2):
            q = k * p - 1
            if q > bound:
                break
            if q >= 1 and (p + 1) % q == 0:
                witnesses.append((p, q))
    expected = [
        (p, q)
        for p, q in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2))
        if p <= bound and q <= bound
    ]
    return _report("p1q1", bound, witnesses, expected)


def oracle_s_classification(bound: int) -> OracleReport:
    """Pairs x <= y <= bound with x | y^2+1 and y | x^2+1 are exactly
    the consecutive pairs of the s sequence (odd-index Fibonaccis)."""
    witnesses = [
        (x, y)
        for x, factors in _quadratic_factors(0, bound)
        for y in _divisors(factors)
        if x <= y <= bound and (y * y + 1) % x == 0
    ]
    s_terms = generate_s(60)
    expected = [
        (s_terms[i], s_terms[i + 1])
        for i in range(len(s_terms) - 1)
        if s_terms[i + 1] <= bound
    ]
    return _report("s_classification", bound, witnesses, expected)


_U_SOLUTIONS = ((1, 1), (1, 2), (2, 1), (2, 5), (3, 2), (3, 5))


def oracle_u_classification(bound: int) -> OracleReport:
    """Pairs (a, b) <= bound with b | a^2+1 and a | b+1 all come from
    adjacent terms of the periodic u cycle 1,1,2,3,5,2 (read in either
    direction)."""
    witnesses = []
    for a in range(1, bound + 1):
        value = a * a + 1
        for k in range(1, (bound + 1) // a + 2):
            b = k * a - 1
            if b > bound:
                break
            if b >= 1 and value % b == 0:
                witnesses.append((a, b))
    expected = [(a, b) for a, b in _U_SOLUTIONS if a <= bound and b <= bound]

    cycle = generate_u(8)[0:6]
    adjacent = set()
    for i in range(6):
        pair = (cycle[i], cycle[(i + 1) % 6])
        adjacent.add(pair)
        adjacent.add(pair[::-1])
    all_adjacent = all(pair in adjacent for pair in witnesses)
    return _report("u_classification", bound, witnesses, expected,
                   extra_ok=all_adjacent)


def oracle_sigma33_breakdown(bound: int) -> OracleReport:
    """Every sigma_{3,3} prime pair (p, q) <= bound falls into one of
    four cases given by sigma(x^3) = (x+1)(x^2+1): a sigma_{1,1} pair,
    mutual x^2+1 divisibility, or the two mixed orientations.  By
    construction no pair escapes all four to be a witness: the prime q
    divides p+1 or p^2+1, and likewise p divides q+1 or q^2+1."""
    primes = _primes_up_to(bound)
    witnesses = []
    for p in primes:
        sp = p**3 + p**2 + p + 1
        for q in primes:
            if sp % q:
                continue
            if (q**3 + q**2 + q + 1) % p:
                continue
            case1 = (q + 1) % p == 0 and (p + 1) % q == 0
            case2 = (q * q + 1) % p == 0 and (p * p + 1) % q == 0
            case3 = (q + 1) % p == 0 and (p * p + 1) % q == 0
            case4 = (q * q + 1) % p == 0 and (p + 1) % q == 0
            if not (case1 or case2 or case3 or case4):
                witnesses.append((p, q))
    return _report("sigma33", bound, witnesses, [])


ORACLES = {
    "p_div_q1": (oracle_p_div_q1, 10**4),
    "no_square_pair": (oracle_no_square_pair, 10**4),
    "pqr": (oracle_pqr, 10**3),
    "linked": (oracle_linked, 10**4),
    "gcd": (oracle_gcd, 100),
    "sigma41": (oracle_sigma41, 10**4),
    "p1q1": (oracle_p1q1, 10**4),
    "s_classification": (oracle_s_classification, 10**4),
    "u_classification": (oracle_u_classification, 10**4),
    "sigma33": (oracle_sigma33_breakdown, 10**3),
}
