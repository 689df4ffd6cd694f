"""Residues of the principal m = 2 chain and their periodic structure.

For a modulus w without prime divisors congruent to 1 (mod 3), the chain
reduced mod w is periodic and the cycle carries a mirror symmetry coming
from the time-reversibility of t_{n-1} t_{n+1} = t_n^2 + t_n + 1; the
mod 11 cycle 1,1,3,2,6,5,7,7,5,6,2,3 reads the same backwards about the
repeated 7s.  The modular recurrence divides by earlier residues, so it
additionally needs every cycle residue to be a unit mod w; moduli
divisible by 3 fail this at t_3 and are reported, not silently skipped.

The chain also satisfies two exact congruence patterns: t_n = 1 (mod 4)
and t_n = 1 (mod 3) whenever n is not a multiple of 3, while t_n = 0
(mod 3) whenever n is one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .chains import chain_terms

__all__ = [
    "NonUnitResidue",
    "PreconditionViolation",
    "ResiduePatternReport",
    "ResidueProfile",
    "check_residue_pattern",
    "residue_profile",
]


class PreconditionViolation(ValueError):
    """The modulus has a prime divisor congruent to 1 (mod 3)."""


class NonUnitResidue(ValueError):
    """A chain residue is not invertible mod w, so the modular
    recurrence cannot continue."""


@dataclass(frozen=True)
class ResidueProfile:
    modulus: int
    period: int
    cycle: tuple[int, ...]
    palindromic: bool


def _prime_factors(w: int) -> set[int]:
    factors = set()
    d = 2
    while d * d <= w:
        while w % d == 0:
            factors.add(d)
            w //= d
        d += 1
    if w > 1:
        factors.add(w)
    return factors


def _is_mirrored(cycle: tuple[int, ...]) -> bool:
    # A reflection i -> (s - i) mod L maps the cycle to itself for some
    # shift s; for mod 11 the axis sits between the doubled 7s.
    length = len(cycle)
    return any(
        all(cycle[i] == cycle[(s - i) % length] for i in range(length))
        for s in range(length)
    )


def residue_profile(w: int) -> ResidueProfile:
    """Iterate the pair (t_n, t_{n+1}) mod w from (1, 1) until it recurs.

    Returns one full period of t_n mod w together with the palindrome
    flag.
    """
    if w < 2:
        raise ValueError(f"modulus must be >= 2, got {w}")
    bad = sorted(f for f in _prime_factors(w) if f % 3 == 1)
    if bad:
        raise PreconditionViolation(
            f"modulus {w} has prime divisors {bad} congruent to 1 (mod 3)"
        )

    a, b = 1 % w, 1 % w
    cycle: list[int] = []
    # Terminates: with 3 | w, t_3 = 3 is a non-unit; otherwise x^2+x+1 is a
    # unit mod w, the step permutes unit pairs and (1, 1) recurs.
    while True:
        cycle.append(a)
        if gcd(a, w) != 1:
            raise NonUnitResidue(
                f"residue {a} at position {len(cycle)} is not a unit mod {w}"
            )
        a, b = b, (b * b + b + 1) * pow(a, -1, w) % w
        if (a, b) == (1 % w, 1 % w):
            return ResidueProfile(
                modulus=w,
                period=len(cycle),
                cycle=tuple(cycle),
                palindromic=_is_mirrored(tuple(cycle)),
            )


@dataclass(frozen=True)
class ResiduePatternReport:
    """Violations of the mod 4 / mod 3 congruence patterns among
    t_1 .. t_{terms_checked}; expected empty."""

    terms_checked: int
    violations: tuple[tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_residue_pattern(count_terms: int) -> ResiduePatternReport:
    """Check t_n = 1 (mod 4) and (mod 3) for n not divisible by 3, and
    t_n = 0 (mod 3) for n divisible by 3, using exact arithmetic."""
    if count_terms < 6:
        raise ValueError(f"need at least 6 terms, got {count_terms}")
    terms = chain_terms(2, count_terms)
    violations = []
    for n, t in enumerate(terms, start=1):
        if n % 3 == 0:
            if t % 3 != 0:
                violations.append((n, "mod3-exception"))
        else:
            if t % 4 != 1:
                violations.append((n, "mod4"))
            if t % 3 != 1:
                violations.append((n, "mod3"))
    return ResiduePatternReport(
        terms_checked=count_terms, violations=tuple(violations)
    )
