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
The one exception is ``sigma33``: its four cases cover every pair by
the factorization sigma(x^3) = (x+1)(x^2+1), so its report is set by
that proof and enumerates nothing.

The oracles that turn on divisors of x^2+x+1 (``no_square_pair``,
``pqr``, ``linked``) read the sigma_{2,2} prime pairs, primes p < q
with q | p^2+p+1 and p | q^2+q+1, from :func:`_sigma22_prime_pairs`.
For each prime q up to the bound it tries as p only the roots of
x^2+x+1 mod q, which are exactly the p < q with q | p^2+p+1, so no
pair is missed.  ``s_classification`` tries as x, for each y up to the
bound, only the roots of x^2+1 mod y, from :func:`_minus_one_roots`.
:func:`check_bound` refuses a bound above 10^7, or above 10^4 chain
terms for ``gcd``.

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
    "check_bound",
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


# The largest bound an oracle takes, as for ``arith.small_primes``: the
# sieves hold a byte per integer up to the bound and a list of its
# primes.  gcd reads its bound as a number of chain terms, which grow
# by about 0.7 digits a term, so it gets a bound of its own.
_BOUND_LIMIT = 10**7
_GCD_TERM_LIMIT = 10**4


def check_bound(lemma_id: str, bound: int) -> None:
    """Refuse a bound above the oracle's limit with a ValueError, so that
    a run too large to finish is turned away before any work."""
    if lemma_id == "gcd" and bound > _GCD_TERM_LIMIT:
        raise ValueError(
            f"need at most {_GCD_TERM_LIMIT} chain terms, got {bound}")
    if bound > _BOUND_LIMIT:
        raise ValueError(f"bound must be <= {_BOUND_LIMIT}, got {bound}")


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
    complete solution set is {(1,1), (1,3)}.

    Proof for every bound.  Write q = kp - 1; p and q odd make k even.
    kp = 1 (mod q), so k^2 (p^2+p+1) = 1 + k + k^2 (mod q), and q divides
    k^2+k+1: kp - 1 <= k^2+k+1 gives p <= k + 1 + 2/k.  q <= p^2+p+1
    gives k <= p + 1 + 2/p.  So p - k, which is odd, lies in [-3, 2] and
    is -3, -1 or 1.  p = k + 1 makes q = k^2+k-1 >= 5 divide
    (k^2+k+1) - q = 2, which is impossible.  p = k - 1 makes
    q = k^2-k-1 divide (k^2+k+1) - q = 2k + 2, so k <= 3.  p = k - 3
    needs k - p = 3 <= 1 + 2/p, so p = 1.  That leaves p = 1 with k = 2
    or 4, which give (1, 1) and (1, 3)."""
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


def _sigma2_roots(q: int) -> tuple[int, ...]:
    """The x in [1, q) with q | x^2+x+1, for a prime q.

    Proof.  0 is no root, and a root x has x^3 - 1 =
    (x - 1)(x^2 + x + 1) = 0 (mod q).  For q = 3, x^2 + x + 1 =
    (x - 1)^2 (mod 3), so 1 is the only root.  For any other q, 1 is no
    root, as q does not divide 3, so a root has order 3 in the group of
    units mod q, and 3 divides q - 1: there is no root unless
    q = 1 (mod 3).  Then x^((q-1)/3) = 1 has at most (q - 1)/3 roots,
    so some g has w = g^((q-1)/3) != 1; w^3 = g^(q-1) = 1, so w has
    order 3 and is a root.  The two roots of x^2 + x + 1 sum to -1, so
    the other is q - 1 - w; it differs from w, since 2w = -1 would give
    4(w^2 + w + 1) = 3 != 0, and a quadratic mod a prime has no third
    root.
    """
    if q == 3:
        return (1,)
    if q % 3 != 1:
        return ()
    exponent = (q - 1) // 3
    g = 2
    while (w := pow(g, exponent, q)) == 1:
        g += 1
    return (w, q - 1 - w)


def _sigma22_prime_pairs(bound: int) -> set[tuple[int, int]]:
    """The sigma_{2,2} prime pairs (p, q) with p < q <= bound."""
    primes = _primes_up_to(bound)
    prime_set = set(primes)
    return {
        (p, q)
        for q in primes
        for p in _sigma2_roots(q)
        if p in prime_set and (q * q + q + 1) % p == 0
    }


def _prime_divisors(n: int) -> set[int]:
    """The primes dividing n >= 1, by trial division."""
    primes = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.add(n)
    return primes


def oracle_no_square_pair(bound: int) -> OracleReport:
    """Primes p, q <= bound with p^2 | q^2+q+1 and q | p^2+p+1; no
    solutions exist.

    p^2 <= q^2+q+1 < (q+1)^2 gives p <= q, and q does not divide
    q^2+q+1, so p < q and (p, q) is a sigma_{2,2} prime pair.  The
    :mod:`sigmapairs.residues` docstring proves that no such pair has
    p^2 | q^2+q+1, at every bound."""
    witnesses = [
        (p, q) for p, q in _sigma22_prime_pairs(bound)
        if (q * q + q + 1) % (p * p) == 0
    ]
    return _report("no_square_pair", bound, witnesses, [])


def oracle_pqr(bound: int) -> OracleReport:
    """Primes p, q <= bound and any prime r with pr | q^2+q+1,
    q | p^2+p+1, p | r+1 and r = 1 (mod 4); no solutions exist.

    q does not divide q^2+q+1, so p != q, and p, q are a sigma_{2,2}
    prime pair in one order or the other.  Only the stored order p < q
    can give a witness: if p > q, p is odd, r = 1 (mod 4) is odd, so
    r = kp - 1 with k even, r >= 2p - 1 and pr >= (q+1)(2q+1) >
    q^2+q+1.  r is found by trial division of q^2+q+1.  The
    :mod:`sigmapairs.residues` docstring proves that no divisor r >= 2
    of (q^2+q+1)/p has p | r+1 for a pair p < q, at every bound."""
    witnesses = []
    for p, q in _sigma22_prime_pairs(bound):
        m = q * q + q + 1
        witnesses.extend(
            (p, q, r) for r in _prime_divisors(m)
            if r % 4 == 1 and (r + 1) % p == 0 and m % (p * r) == 0
        )
    return _report("pqr", bound, witnesses, [])


def oracle_linked(bound: int) -> OracleReport:
    """Triples of distinct odd primes where (p, q) and (q, r) are both
    sigma_{2,2} pairs; only {3, 13, 61} qualifies, at every bound, by
    the proof in the :mod:`sigmapairs.residues` docstring."""
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
    {(1,1), (1,2), (2,1), (2,3), (3,2)}.

    q | p+1 with p+1 > 0 forces q <= p+1, so no q above it is tried."""
    witnesses = []
    for p in range(1, bound + 1):
        # p | q+1 means q = kp - 1
        for q in range(p - 1, min(bound, p + 1) + 1, p):
            if q >= 1 and (p + 1) % q == 0:
                witnesses.append((p, q))
    expected = [
        (p, q)
        for p, q in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2))
        if p <= bound and q <= bound
    ]
    return _report("p1q1", bound, witnesses, expected)


def _minus_one_roots(bound: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (y, roots) for each y in [2, bound] where x^2+1 has a root
    mod y, with roots all the roots in [0, y).

    Proof.  Mod 2 the one root is 1, and mod 4 there is none, as squares
    are 0 or 1 mod 4.  For odd p a root has order 4 mod p, so 4 | p - 1.
    For p = 1 (mod 4), s = g^((p-1)/4) has s^2 = g^((p-1)/2) = -1 for
    the first quadratic non-residue g (Euler's criterion).  Hensel's
    lemma lifts a root s mod q = p^e: with c = (2s)^-1 mod p,
    s' = s - (s^2+1)c has s' = s (mod q) and s'^2+1 = (s^2+1)(1 - 2sc)
    + (s^2+1)^2 c^2 = 0 (mod pq).  A root x has q | (x - s)(x + s), and
    p does not divide 2s, so x = s or q - s (mod q).  By the Chinese
    remainder theorem the roots mod y are the x that reduce to a root
    mod each prime power of y: roots r mod y and t mod q join as
    r + (t - r)u mod yq, with u = 0 (mod y) and u = 1 (mod q).  The
    walk builds each y once, from its prime powers in increasing order.
    """
    primes = [p for p in _primes_up_to(bound) if p % 4 == 1]
    lifts = []
    for p in primes:
        g = 2
        while (s := pow(g, (p - 1) // 4, p)) * s % p != p - 1:
            g += 1
        lifts.append(s)

    def walk(y: int, roots: list[int], start: int) -> Iterator[tuple[int, list[int]]]:
        for i in range(start, len(primes)):
            p, s = primes[i], lifts[i]
            if y * p > bound:
                return
            c, q = pow(2 * s, -1, p), p
            while y * q <= bound:
                u = y * pow(y, -1, q)
                joined = [(r + (t - r) * u) % (y * q) for r in roots for t in (s, q - s)]
                yield y * q, joined
                yield from walk(y * q, joined, i + 1)
                q *= p
                s = (s - (s * s + 1) * c) % q

    if bound >= 2:
        yield 2, [1]
        yield from walk(2, [1], 0)
    yield from walk(1, [0], 0)


def oracle_s_classification(bound: int) -> OracleReport:
    """Pairs x <= y <= bound with x | y^2+1 and y | x^2+1 are exactly
    the consecutive pairs of the s sequence (odd-index Fibonaccis).

    x = y gives y | 1, so (1, 1) is the one pair with x = y.  Any other
    pair has x < y, and y | x^2+1 says x is a root of x^2+1 mod y, so
    the pairs are (1, 1) and the roots x mod y with x | y^2+1."""
    witnesses = [(1, 1)] if bound >= 1 else []
    witnesses += [
        (x, y)
        for y, roots in _minus_one_roots(bound)
        for x in roots
        if (y * y + 1) % x == 0
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
    direction).

    b | a^2+1 with a^2+1 > 0 forces b <= a^2+1, so no b above it is
    tried.

    Proof that ``_U_SOLUTIONS`` are all, at every bound.  Write
    b + 1 = ka.  ka = 1 (mod b), so k^2 (a^2+1) = 1 + k^2 (mod b), and b
    divides k^2+1: ka - 1 <= k^2+1 gives a <= k + 2/k.  b <= a^2+1 gives
    k <= a + 2/a.  So a - k lies in [-2, 2].  a = k is impossible: then
    b = a^2-1, at least 3 as b >= 1 needs a >= 2, divides
    (a^2+1) - b = 2.  Otherwise |a - k| min(a, k) <= 2, so a, k <= 3,
    and of those (a, k) exactly the six of ``_U_SOLUTIONS`` give
    b >= 1 with b | a^2+1."""
    witnesses = []
    for a in range(1, bound + 1):
        value = a * a + 1
        # a | b+1 means b = ka - 1
        for b in range(a - 1, min(bound, value) + 1, a):
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
    mutual x^2+1 divisibility, or the two mixed orientations.  The prime
    q divides p+1 or p^2+1, and p divides q+1 or q^2+1, so these four
    combinations cover every pair: by that proof the report is empty at
    every bound, and nothing is enumerated."""
    return _report("sigma33", bound, [], [])


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
