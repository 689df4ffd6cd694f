"""Residues of the principal m = 2 chain and their periodic structure.

Consecutive terms satisfy 5pq = p^2 + q^2 + p + q + 1, so by Vieta
t_{n+1} + t_{n-1} = 5 t_n - 1: the chain reduced mod any w >= 2 follows
a division-free recurrence and is periodic.

One period settles a congruence law for every n.  The chain mod 12 has
period 3 and cycle 1, 1, 3, so t_n = 1 (mod 12) when 3 does not divide
n and t_n = 3 (mod 12) when it does.

Every cycle is mirrored about one fixed axis, cycle[i] = cycle[1 - i]
with indices mod the period, because the recurrence is time-reversible;
the mod 11 cycle 1,1,3,2,6,5,7,7,5,6,2,3 reads the same backwards about
the doubled 7s.  Proof: with S(a, b) = (b, 5b - a - 1) the step on
pairs mod w and R(a, b) = (b, a), R S R = S^-1.  R fixes the start
(1, 1), so R S^i (1, 1) = S^-i (1, 1): the pair (c_{i+1}, c_i) equals
(c_{-i}, c_{1-i}), which is c_{i+1} = c_{-i}.  So ``palindromic`` is
True for every modulus.

The chain settles three sigma_{2,2} lemmas of :mod:`sigmapairs.oracles`
at every bound; the oracles stay bounded brute-force cross-checks.  By
the Vieta descent in :mod:`sigmapairs.chains`, every sigma_{2,2} prime
pair p < q is (t_n, t_{n+1}) for some n >= 3, as t_1 = t_2 = 1 are not
prime.  The terms rise strictly from t_3 on, as
t_{n+1} = 5t_n - t_{n-1} - 1 >= 4t_n - 1, so each prime is a term at
one index only.  Vieta also gives t_n + t_{n+2} = 5t_{n+1} - 1 and
t_n t_{n+2} = t_{n+1}^2 + t_{n+1} + 1 = sigma(t_{n+1}^2).

``linked``: two pairs that share a prime are (t_n, t_{n+1}) and
(t_{n+1}, t_{n+2}), three consecutive prime terms.  The cycle mod 3 is
1, 1, 0, so 3 | t_k exactly when 3 | k.  One of three consecutive
indices is a multiple of 3, and its term, a prime divisible by 3, is
3 = t_3.  So n = 3, and the only triple is (3, 13, 61).

``no_square_pair``: p^2 divides q^2 + q + 1 = t_n t_{n+2} exactly when
t_n | t_{n+2}.  A prime l dividing both terms divides 5t_{n+1} - 1 and
t_{n+1}^2 + t_{n+1} + 1, so modulo l, 5t_{n+1} = 1 and
0 = 25(t_{n+1}^2 + t_{n+1} + 1) = 1 + 5 + 25 = 31: l = 31.  The chain
mod 31 has period 16 and no zero, so gcd(t_n, t_{n+2}) = 1, and as
t_n = p > 1 no pair qualifies.

``pqr``: pr | q^2 + q + 1 = t_n t_{n+2} with p = t_n gives r | t_{n+2},
and p | r + 1.  No divisor r >= 2 of t_{n+2} has t_n | r + 1, so the
conditions r prime and r = 1 (mod 4) are never needed.  Proof: write
t_{n+2} = cr.  Two steps give t_{n+2} = 24t_n - 5t_{n-1} - 6.  As
r >= t_n - 1, c <= t_{n+2} / (t_n - 1) = 24 - (5t_{n-1} - 18) / (t_n - 1),
so c <= 23 for n >= 5, where t_{n-1} >= 13.  Modulo t_n,
-c = cr = t_{n+2} = -5t_{n-1} - 6, so t_n divides 5t_{n-1} + 6 - c.  For
n >= 5 that number is at least 5 * 13 + 6 - 23 > 0 and below
2t_n = 10t_{n-1} - 2t_{n-2} - 2, as 2t_{n-2} + 7 < 5t_{n-1}.  So it
equals t_n = 5t_{n-1} - t_{n-2} - 1, which gives c = t_{n-2} + 7, and
c <= 23 needs t_{n-2} <= 16, so n <= 6.  The cases n = 3 to 6 check by
hand: t_n = 3, 13, 61, 291 divides r + 1 for no divisor r >= 2 of
t_{n+2} = 61, 291 = 3 * 97, 1393 = 7 * 199 and 6673 (a prime).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ResidueProfile", "residue_profile"]


# The largest modulus stepped.  The period can grow linearly with a prime
# modulus: ``residues --mod 1000003`` holds 333334 terms and peaks at 82 MB.
_MAX_MODULUS = 10**6


@dataclass(frozen=True)
class ResidueProfile:
    modulus: int
    period: int
    cycle: tuple[int, ...]
    palindromic: bool


def residue_profile(w: int) -> ResidueProfile:
    """Iterate the pair (t_n, t_{n+1}) mod w from (1, 1) until it recurs.

    Returns one full period of t_n mod w; the palindrome flag holds by
    the mirror proof in the module docstring.  A modulus above 10**6 is
    refused before any step.
    """
    if w < 2:
        raise ValueError(f"modulus must be >= 2, got {w}")
    if w > _MAX_MODULUS:
        raise ValueError(f"modulus must be <= {_MAX_MODULUS}, got {w}")

    a, b = 1, 1
    cycle: list[int] = []
    # Terminates: the step is a bijection on pairs mod w, with inverse
    # (b, c) -> (5b - c - 1, b), so (1, 1) recurs within w^2 steps.
    while True:
        cycle.append(a)
        a, b = b, (5 * b - a - 1) % w
        if (a, b) == (1, 1):
            return ResidueProfile(
                modulus=w,
                period=len(cycle),
                cycle=tuple(cycle),
                palindromic=True,
            )
