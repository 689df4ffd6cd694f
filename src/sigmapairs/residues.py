"""Residues of the principal m = 2 chain and their periodic structure.

Consecutive terms satisfy 5pq = p^2 + q^2 + p + q + 1, so by Vieta
t_{n+1} + t_{n-1} = 5 t_n - 1: the chain reduced mod any w >= 2 follows
a division-free recurrence and is periodic.  The cycle carries a mirror
symmetry coming from the time-reversibility of that recurrence; the
mod 11 cycle 1,1,3,2,6,5,7,7,5,6,2,3 reads the same backwards about
the repeated 7s.

The chain also satisfies two exact congruence patterns: t_n = 1 (mod 4)
and t_n = 1 (mod 3) whenever n is not a multiple of 3, while t_n = 0
(mod 3) whenever n is one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import chain_terms

__all__ = [
    "ResiduePatternReport",
    "ResidueProfile",
    "check_residue_pattern",
    "residue_profile",
]


@dataclass(frozen=True)
class ResidueProfile:
    modulus: int
    period: int
    cycle: tuple[int, ...]
    palindromic: bool


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
