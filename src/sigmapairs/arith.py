"""Arbitrary-precision integer primitives shared by the whole toolkit.

Plain Python ints are the universal nonnegative-integer scalar here; the
decimal round trip is ``int(str(x)) == x`` by construction.  This module
adds the divisor sum of a prime power, a reproducible primality test, a
bounded prime sieve and bounded square-part extraction.

Primality policy
----------------
* Every ``x >= 2`` is trial-divided by the primes below 10**5, by block
  gcd: one ``gcd`` with the product of each block of 256 consecutive
  primes, in ascending order.  The first block sharing a factor with
  ``x`` is searched for its smallest prime dividing that gcd, so the
  witness of a composite is its smallest prime factor.  A factor equal
  to ``x`` means ``x`` is one of those primes.  A survivor below
  99991**2, the square of the largest of them, is prime.
* Other survivors below ``2**64`` are settled by a fixed Miller-Rabin
  witness set known to be deterministic for the whole 64-bit range.
* Larger survivors are subjected to ``rounds`` strong-probable-prime
  rounds whose bases are derived by hashing ``(x, round)``.  The error
  probability is at most ``4**-rounds`` and results are bit-reproducible
  regardless of thread scheduling, which keeps long searches resumable.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from math import gcd, isqrt, prod

__all__ = [
    "DEFAULT_ROUNDS",
    "DETERMINISTIC_LIMIT",
    "TRIAL_DIVISION_BOUND",
    "Primality",
    "PrimalityVerdict",
    "decimal_digits",
    "is_prime",
    "sigma_power",
    "small_primes",
]

# Decimal round trips at any size are part of this package's contract
# (multi-thousand-digit chain terms in checkpoints and JSON), so the
# interpreter's int/str conversion guard must not apply.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

TRIAL_DIVISION_BOUND = 10**5
DETERMINISTIC_LIMIT = 2**64
DEFAULT_ROUNDS = 40

# Strong-probable-prime witnesses covering every x < 2**64.
_DETERMINISTIC_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def _sieve(limit: int, start: int = 2) -> tuple[int, ...]:
    """The primes p with start <= p <= limit, ascending."""
    odd_primes = _odd_primes(max(start, 3) | 1, limit)
    return (2,) + odd_primes if start <= 2 <= limit else odd_primes


def _odd_primes(first_odd: int, limit: int) -> tuple[int, ...]:
    # Only the odd numbers of the range are sieved, by the odd primes up
    # to isqrt(limit), which come from a sieve of their own.
    flags = bytearray(b"\x01") * max(0, (limit - first_odd) // 2 + 1)
    root = isqrt(limit)
    for p in _odd_primes(3, root) if root >= 3 else ():
        first = max(p * p, -(-first_odd // p) * p)
        if first % 2 == 0:
            first += p
        flags[(first - first_odd) // 2 :: p] = bytes(len(range(first, limit + 1, 2 * p)))
    return tuple(compress(range(first_odd, limit + 1, 2), flags))


_SMALL_PRIMES = _sieve(TRIAL_DIVISION_BOUND)

# Primes per block of the block-gcd trial division.
_TRIAL_BLOCK_SIZE = 256


class _BlockTrialDivisor:
    """Trial division by a fixed ascending tuple of primes, one ``gcd``
    per block of ``_TRIAL_BLOCK_SIZE`` consecutive primes instead of one
    remainder per prime."""

    __slots__ = ("_blocks",)

    def __init__(self, primes: tuple[int, ...]):
        self._blocks = tuple(
            (prod(block), block)
            for block in (
                primes[i : i + _TRIAL_BLOCK_SIZE]
                for i in range(0, len(primes), _TRIAL_BLOCK_SIZE)
            )
        )

    def smallest_factor(self, x: int) -> int | None:
        """The smallest of the primes dividing ``x``, or None."""
        for product, block in self._blocks:
            g = gcd(product, x)
            if g > 1:
                return next(p for p in block if g % p == 0)
        return None

    def exponents(self, x: int) -> dict[int, int]:
        """The exponent in ``x > 0`` of each of the primes dividing it.

        Only the primes of a block's gcd are divided out, so a value
        costs one ``gcd`` per block plus a remainder per block prime up
        to the last one found."""
        found = {}
        for product, block in self._blocks:
            g = gcd(product, x)
            if g == 1:
                continue
            for p in block:
                if g % p == 0:
                    exponent = 0
                    while x % p == 0:
                        x //= p
                        exponent += 1
                    found[p] = exponent
                    g //= p
                    if g == 1:
                        break
            if x == 1:
                break
        return found


@functools.cache
def _small_prime_divisor() -> _BlockTrialDivisor:
    # built on first use so that importing the package stays cheap
    return _BlockTrialDivisor(_SMALL_PRIMES)


# The largest bound small_primes sieves to.  The odd-number flags take
# bound / 2 bytes and the primes a tuple of ints: squares at 10**7
# peaks at 53 MB, and a bound of 10**10 would ask for gigabytes.
_SIEVE_LIMIT = 10**7


def small_primes(bound: int = TRIAL_DIVISION_BOUND) -> tuple[int, ...]:
    """Primes up to ``bound`` (cached for the default trial-division
    bound); a bound above 10**7 is refused before any sieving."""
    if bound > _SIEVE_LIMIT:
        raise ValueError(f"prime bound must be <= {_SIEVE_LIMIT}, got {bound}")
    if bound > TRIAL_DIVISION_BOUND:
        return _sieve(bound)
    return _SMALL_PRIMES[: bisect_right(_SMALL_PRIMES, bound)]


class Primality(Enum):
    PRIME = "prime"
    PROBABLE_PRIME = "probable-prime"
    COMPOSITE = "composite"


@dataclass(frozen=True)
class PrimalityVerdict:
    """Outcome of a primality test.

    ``witness`` is a compositeness certificate when one exists: a prime
    factor found by trial division, or the Miller-Rabin base that
    exposed the number.
    """

    status: Primality
    rounds: int = 0
    witness: int | None = None

    @property
    def is_probable_prime(self) -> bool:
        return self.status is not Primality.COMPOSITE


def decimal_digits(x: int) -> int:
    """Number of decimal digits of a nonnegative integer."""
    if x < 0:
        raise ValueError("expected a nonnegative integer, got a negative one")
    return len(str(x))


def sigma_power(p: int, m: int) -> int:
    """Divisor sum of the prime power p**m, i.e. 1 + p + ... + p**m.

    Defined for any base p >= 1; degenerate base 1 gives m + 1.
    """
    if p < 1:
        raise ValueError(f"base must be >= 1, got {p}")
    if m < 1:
        raise ValueError(f"exponent must be >= 1, got {m}")
    total = 1
    for _ in range(m):  # Horner's rule: no long division
        total = total * p + 1
    return total


def _strong_probable_prime(x: int, base: int, d: int, r: int) -> bool:
    # x - 1 == d * 2**r with d odd
    y = pow(base, d, x)
    if y == 1 or y == x - 1:
        return True
    for _ in range(r - 1):
        y = y * y % x
        if y == x - 1:
            return True
    return False


def _derived_base(x: int, index: int) -> int:
    digest = hashlib.sha256(f"{x}:{index}".encode("ascii")).digest()
    return 2 + int.from_bytes(digest, "big") % (x - 3)


def is_prime(x: int, rounds: int = DEFAULT_ROUNDS) -> PrimalityVerdict:
    """Classify ``x`` as prime, composite, or probable prime.

    Deterministic for x < 2**64; above that a composite verdict is
    certain while a probable-prime verdict errs with probability at
    most 4**-rounds.
    """
    if x < 0:
        raise ValueError(f"expected a nonnegative integer, got {x}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if x < 2:
        return PrimalityVerdict(Primality.COMPOSITE)

    p = _small_prime_divisor().smallest_factor(x)
    if p == x or (p is None and x < _SMALL_PRIMES[-1] ** 2):
        return PrimalityVerdict(Primality.PRIME)
    if p is not None:
        return PrimalityVerdict(Primality.COMPOSITE, witness=p)

    d, r = x - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1

    if x < DETERMINISTIC_LIMIT:
        for i, base in enumerate(_DETERMINISTIC_WITNESSES):
            if not _strong_probable_prime(x, base, d, r):
                return PrimalityVerdict(Primality.COMPOSITE, rounds=i + 1, witness=base)
        return PrimalityVerdict(Primality.PRIME, rounds=len(_DETERMINISTIC_WITNESSES))

    for i in range(rounds):
        base = _derived_base(x, i)
        if not _strong_probable_prime(x, base, d, r):
            return PrimalityVerdict(Primality.COMPOSITE, rounds=i + 1, witness=base)
    return PrimalityVerdict(Primality.PROBABLE_PRIME, rounds=rounds)


def _square_part(*exponents: dict[int, int]) -> int:
    """The largest square dividing the product of values given by their
    prime exponents (see :meth:`_BlockTrialDivisor.exponents`); a caller
    probing products of values factors each value once."""
    total = Counter()
    for counts in exponents:
        total.update(counts)
    return prod(p ** (e - e % 2) for p, e in total.items())
