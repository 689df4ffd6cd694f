"""Chain walks hunting for sigma_{m,m} prime pairs, with resumable
checkpoints, minimal-seed enumeration, the convergent tail heuristic and
bounded square-divisor probes.

The m = 2 search walks the single chain 1, 1, 3, 13, ... testing
consecutive terms for primality and emitting a record whenever both are
(probably) prime; the only hits below 10**500 are (3, 13), (13, 61) and
(22419767768701, 107419560853453).  Checkpoints are plain ASCII files
written atomically so that interrupting and resuming reproduces the
uninterrupted output byte for byte.

Each pair (t_n, t_{n+1}) goes through four stages, cheapest first, and
only a pair that passes one stage reaches the next:

(a) Trial division of every term by the primes below 10**5 that can
    divide a chain term.  A term t divides sigma(y^m) = 1 + y + ... + y^m
    for its neighbour y.  If a prime p divides that sum and y = 1 (mod p),
    the sum is m + 1 (mod p), so p | m + 1.  Otherwise y^(m+1) = 1 with
    y != 1 (mod p), so the order of y mod p is a divisor > 1 of both
    m + 1 and p - 1.  Only primes with p | m + 1 or gcd(p - 1, m + 1) > 1
    can divide a term: for m = 2 that is 3 and the primes = 1 (mod 3),
    about half the list.  Terms below 2**64 skip this stage.
(b) Pairing: a pair is a candidate only when both terms survive (a).
(c) Screening: one Miller-Rabin round, ``is_prime(x, 1)``, on each term
    of a candidate.  Its base is round 0 of the full test, so a term the
    screen rejects is rejected by the full test too.
(d) Confirmation: the full ``is_prime(x, rounds)`` on both terms, once
    both passed (c).  The verdicts in a :class:`PairRecord` come from
    this call.

Every stage rejects only composites, so the records equal those of a
full test on every pair.  Each stage runs at most once per term.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

from .arith import (
    DEFAULT_ROUNDS,
    DETERMINISTIC_LIMIT,
    PrimalityVerdict,
    bounded_square_part,
    decimal_digits,
    is_prime,
    sigma_power,
    small_primes,
)
from .chains import NonIntegralStep, chain_terms, is_quasisolution

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointFormatError",
    "CheckpointMismatch",
    "NotOnKnownChain",
    "PairRecord",
    "SearchCheckpoint",
    "SquareProbeRow",
    "enumerate_seeds",
    "heuristic_tail",
    "heuristic_tail_parts",
    "load_checkpoint",
    "locate_pair_index",
    "search_pairs",
    "square_divisor_probe",
    "write_checkpoint",
]

CHECKPOINT_VERSION = "sigma-chain-checkpoint v1"


class CheckpointFormatError(Exception):
    """Checkpoint file is corrupt or has an unknown version."""


class CheckpointMismatch(Exception):
    """Checkpoint parsed but violates the chain invariants."""


class NotOnKnownChain(Exception):
    """Descent did not reach a minimal seed within the step budget."""


@dataclass(frozen=True)
class PairRecord:
    """A found sigma_{m,m} prime pair (p, q) = (t_index, t_{index+1})."""

    m: int
    index: int
    p: int
    q: int
    p_verdict: PrimalityVerdict
    q_verdict: PrimalityVerdict
    digits_q: int


@dataclass(frozen=True)
class SearchCheckpoint:
    """Walk position: ``curr`` is the term at index ``n``, ``prev`` the
    one before, and ``found`` the pairs emitted so far.  The digits
    limit is carried in memory only; the file format stores just the
    position and the found pairs."""

    m: int
    n: int
    prev: int
    curr: int
    found: tuple[PairRecord, ...]
    digits_limit: int | None = None


def write_checkpoint(path: str, checkpoint: SearchCheckpoint) -> None:
    """Serialize atomically (temp file then rename)."""
    lines = [
        CHECKPOINT_VERSION,
        f"m={checkpoint.m}",
        f"n={checkpoint.n}",
        f"prev={checkpoint.prev}",
        f"curr={checkpoint.curr}",
    ]
    for record in checkpoint.found:
        lines.append(f"pair {record.index} {record.p} {record.q}")
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def load_checkpoint(path: str, rounds: int = DEFAULT_ROUNDS) -> SearchCheckpoint:
    """Parse and validate a checkpoint file.

    Verdicts are not stored on disk; they are recomputed here, which is
    exact because the test is deterministic in (value, rounds).
    """
    try:
        with open(path, encoding="ascii") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read checkpoint: {exc}") from exc
    if not lines or lines[0] != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"unknown checkpoint version: {lines[0]!r}" if lines else "empty checkpoint"
        )

    def _field(line_no: int, key: str) -> int:
        if line_no >= len(lines) or not lines[line_no].startswith(f"{key}="):
            raise CheckpointFormatError(f"line {line_no + 1} must be '{key}=<int>'")
        try:
            return int(lines[line_no][len(key) + 1 :])
        except ValueError as exc:
            raise CheckpointFormatError(f"bad integer on line {line_no + 1}") from exc

    m = _field(1, "m")
    n = _field(2, "n")
    prev = _field(3, "prev")
    curr = _field(4, "curr")

    found = []
    for line_no, line in enumerate(lines[5:], start=6):
        parts = line.split()
        if len(parts) != 4 or parts[0] != "pair":
            raise CheckpointFormatError(f"line {line_no} must be 'pair <index> <p> <q>'")
        try:
            index, p, q = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError as exc:
            raise CheckpointFormatError(f"bad integer on line {line_no}") from exc
        found.append(
            PairRecord(
                m=m,
                index=index,
                p=p,
                q=q,
                p_verdict=is_prime(p, rounds),
                q_verdict=is_prime(q, rounds),
                digits_q=decimal_digits(q),
            )
        )

    checkpoint = SearchCheckpoint(m=m, n=n, prev=prev, curr=curr, found=tuple(found))
    _validate_checkpoint(checkpoint)
    return checkpoint


def _validate_checkpoint(checkpoint: SearchCheckpoint) -> None:
    if checkpoint.m < 1 or checkpoint.n < 2:
        raise CheckpointMismatch(
            f"invalid position m={checkpoint.m}, n={checkpoint.n}"
        )
    if checkpoint.prev < 1 or checkpoint.curr < 1:
        raise CheckpointMismatch("chain terms must be positive")
    if not is_quasisolution(checkpoint.prev, checkpoint.curr, checkpoint.m):
        raise CheckpointMismatch(
            f"({checkpoint.prev}, {checkpoint.curr}) is not a valid chain state"
        )
    last_index = 0
    for record in checkpoint.found:
        # a walk records (t_k, t_{k+1}) and then steps past it, so the
        # indices strictly increase and stay in 1 .. n - 2
        if not last_index < record.index <= checkpoint.n - 2:
            raise CheckpointMismatch(
                f"recorded pair index {record.index} is out of order or "
                f"beyond the walk position n={checkpoint.n}"
            )
        last_index = record.index
        if not is_quasisolution(record.p, record.q, checkpoint.m):
            raise CheckpointMismatch(
                f"recorded pair at index {record.index} is not a quasisolution"
            )
        if not (record.p_verdict.is_probable_prime and record.q_verdict.is_probable_prime):
            raise CheckpointMismatch(
                f"recorded pair at index {record.index} has a composite member"
            )


@functools.cache
def _trial_primes(m: int) -> tuple[int, ...]:
    """The primes below the trial-division bound that can divide a chain
    term for exponent m (stage (a) in the module docstring)."""
    return tuple(
        p for p in small_primes() if (m + 1) % p == 0 or math.gcd(p - 1, m + 1) > 1
    )


class _Term:
    """One chain term in the pipeline.  Stage (a) runs on construction;
    stages (c) and (d) run on demand and are cached, so a term is never
    retested when it moves from ``curr`` to ``prev``."""

    __slots__ = ("value", "survives", "_screened", "_verdict")

    def __init__(self, value: int, primes: tuple[int, ...]):
        self.value = value
        # Above 2**64 no term equals one of the primes, so any hit is a
        # proper factor; smaller terms go straight to the exact test.
        self.survives = value < DETERMINISTIC_LIMIT or 0 not in map(value.__mod__, primes)
        self._screened: bool | None = None
        self._verdict: PrimalityVerdict | None = None

    def screened(self) -> bool:
        if self._screened is None:
            self._screened = is_prime(self.value, 1).is_probable_prime
        return self._screened

    def verdict(self, rounds: int) -> PrimalityVerdict:
        if self._verdict is None:
            self._verdict = is_prime(self.value, rounds)
        return self._verdict


def search_pairs(
    m: int,
    seed: tuple[int, int] = (1, 1),
    digits_limit: int = 20,
    checkpoint: SearchCheckpoint | None = None,
    *,
    rounds: int = DEFAULT_ROUNDS,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 25,
    threads: int = 1,
    max_steps: int | None = None,
) -> list[PairRecord]:
    """Walk the chain from ``seed`` (or resume from ``checkpoint``),
    emitting a :class:`PairRecord` whenever two consecutive terms are
    both (probably) prime.

    The walk stops once the larger term of the pair under examination
    exceeds ``digits_limit`` decimal digits, or after ``max_steps``
    pairs when given (the checkpoint then allows resuming).  Checkpoints
    are written every ``checkpoint_every`` steps when ``checkpoint_path``
    is set, and once more at the end.  ``threads`` is accepted for
    compatibility and ignored: the walk runs on the calling thread.
    """
    if digits_limit < 1:
        raise ValueError(f"digits limit must be >= 1, got {digits_limit}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint cadence must be >= 1, got {checkpoint_every}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")

    if checkpoint is not None:
        if checkpoint.m != m:
            raise CheckpointMismatch(
                f"checkpoint is for m={checkpoint.m}, search asked for m={m}"
            )
        _validate_checkpoint(checkpoint)
        n, prev, curr = checkpoint.n, checkpoint.prev, checkpoint.curr
        found = list(checkpoint.found)
    else:
        a, b = seed
        if not is_quasisolution(a, b, m):
            raise NonIntegralStep(f"seed {seed} is not a quasisolution for m={m}")
        n, prev, curr = 2, a, b
        found = []

    primes = _trial_primes(m)
    prev_term = _Term(prev, primes)
    steps = 0
    overflow = 10**digits_limit  # curr >= overflow means too many digits
    while True:
        if curr >= overflow:
            break
        if max_steps is not None and steps >= max_steps:
            break
        curr_term = _Term(curr, primes)
        if (
            prev_term.survives
            and curr_term.survives
            and prev_term.screened()
            and curr_term.screened()
        ):
            p_verdict = prev_term.verdict(rounds)
            q_verdict = curr_term.verdict(rounds)
            if p_verdict.is_probable_prime and q_verdict.is_probable_prime:
                found.append(
                    PairRecord(
                        m=m,
                        index=n - 1,
                        p=prev,
                        q=curr,
                        p_verdict=p_verdict,
                        q_verdict=q_verdict,
                        digits_q=decimal_digits(curr),
                    )
                )
        # advance to the state holding (t_n, t_{n+1})
        numerator = sigma_power(curr, m)
        nxt, remainder = divmod(numerator, prev)
        if remainder:
            raise NonIntegralStep(
                f"{prev} does not divide sigma({curr}^{m}) at index {n - 1}"
            )
        prev, curr, n = curr, nxt, n + 1
        prev_term = curr_term
        steps += 1
        if checkpoint_path is not None and steps % checkpoint_every == 0:
            write_checkpoint(
                checkpoint_path,
                SearchCheckpoint(
                    m=m, n=n, prev=prev, curr=curr,
                    found=tuple(found), digits_limit=digits_limit,
                ),
            )

    if checkpoint_path is not None:
        write_checkpoint(
            checkpoint_path,
            SearchCheckpoint(
                m=m, n=n, prev=prev, curr=curr,
                found=tuple(found), digits_limit=digits_limit,
            ),
        )
    return found


def _descend_once(p: int, q: int, m: int) -> tuple[int, int] | None:
    """One Vieta step towards the chain's minimum: (p, q) -> (x, p) with
    x = sigma(p^m)/q, reordered; None when already minimal."""
    x, remainder = divmod(sigma_power(p, m), q)
    if remainder:
        return None
    np, nq = (x, p) if x <= p else (p, x)
    if (nq, np) >= (q, p):
        return None
    return np, nq


def locate_pair_index(p: int, q: int, m: int = 2, max_steps: int = 100_000) -> int:
    """Chain index of ``p`` when (p, q) are consecutive chain terms,
    counted from the chain's minimal seed at indices (1, 2)."""
    if not is_quasisolution(p, q, m):
        raise ValueError(f"({p}, {q}) is not a quasisolution for m={m}")
    a, b = (p, q) if p <= q else (q, p)
    steps = 0
    while True:
        lower = _descend_once(a, b, m)
        if lower is None:
            return steps + 1
        a, b = lower
        steps += 1
        if steps > max_steps:
            raise NotOnKnownChain(
                f"descent from ({p}, {q}) exceeded {max_steps} steps"
            )


def enumerate_seeds(m: int, bound: int) -> list[tuple[int, int]]:
    """All minimal quasisolution pairs (p, q), p <= q <= bound, after
    reducing every quasisolution below the bound by descent.

    For m = 4 and bound 1000 this yields (1, 1), (5, 11), (61, 131) and
    (101, 491), each starting its own chain; for m = 2 only (1, 1)
    remains.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    minimal = set()
    for q in range(1, bound + 1):
        sq = sigma_power(q, m)
        for p in range(1, q + 1):
            if sq % p == 0 and sigma_power(p, m) % q == 0:
                a, b = p, q
                while True:
                    lower = _descend_once(a, b, m)
                    if lower is None:
                        break
                    a, b = lower
                minimal.add((a, b))
    return sorted(minimal)


_HEURISTIC_EXACT_TERMS = 200
_LN4 = math.log(4)


def heuristic_tail_parts(
    start_index: int,
    horizon: int | None = None,
    exact_terms: int = _HEURISTIC_EXACT_TERMS,
) -> tuple[float, float, float]:
    """(exact_sum, tail_bound, growth_offset) behind :func:`heuristic_tail`.

    The exact part sums 1 / (ln t_n * ln t_{n+1}) over computed terms;
    beyond ``exact_terms`` the bound ln t_n >= (n - c) ln 4 turns the
    remainder into the telescoping sum of 1 / ((n-c)(n+1-c) ln^2 4).
    The growth offset c = max_k (k - log_4 t_k) is calibrated on the
    computed terms and stays valid for all later indices because each
    step multiplies the term by more than 4.
    """
    if start_index < 3:
        raise ValueError(f"start index must be >= 3, got {start_index}")
    if horizon is not None and horizon < start_index:
        return 0.0, 0.0, 0.0
    cap = exact_terms if horizon is None else min(horizon, exact_terms)

    terms = chain_terms(2, max(cap + 1, 5))
    logs = [math.log(t) if t > 1 else 0.0 for t in terms]
    offset = max(k - logs[k - 1] / _LN4 for k in range(4, len(terms) + 1))

    exact_sum = 0.0
    for n in range(start_index, cap + 1):
        exact_sum += 1.0 / (logs[n - 1] * logs[n])

    tail = 0.0
    if horizon is None or horizon > cap:
        first = max(start_index, cap + 1)
        tail = 1.0 / (first - offset)
        if horizon is not None:
            tail -= 1.0 / (horizon + 1 - offset)
        tail /= _LN4 * _LN4
    return exact_sum, tail, offset


def heuristic_tail(
    start_index: int,
    horizon: int | None = None,
    exact_terms: int = _HEURISTIC_EXACT_TERMS,
) -> float:
    """Upper estimate of the expected number of prime pairs at chain
    indices >= start_index: sum of 1 / (ln t_n * ln t_{n+1}) up to
    ``horizon`` (unbounded when None).  Always finite because the terms
    grow at least geometrically with ratio 4."""
    exact_sum, tail, _ = heuristic_tail_parts(start_index, horizon, exact_terms)
    return exact_sum + tail


@dataclass(frozen=True)
class SquareProbeRow:
    """Bounded square parts of sigma(t_n^2) and of the product
    sigma(t_n^2) sigma(t_{n+1}^2); lower bounds for the true largest
    square divisors."""

    n: int
    l_lower: int
    s_lower: int


def square_divisor_probe(n_terms: int, trial_bound: int) -> list[SquareProbeRow]:
    """For n = 1 .. n_terms, probe t_n^2 + t_n + 1 and
    (t_n^2 + t_n + 1)(t_{n+1}^2 + t_{n+1} + 1) for square divisors
    supported on primes <= trial_bound."""
    if n_terms < 3:
        raise ValueError(f"need at least 3 terms, got {n_terms}")
    terms = chain_terms(2, n_terms + 1)
    rows = []
    for n in range(1, n_terms + 1):
        value = terms[n - 1] ** 2 + terms[n - 1] + 1
        partner = terms[n] ** 2 + terms[n] + 1
        rows.append(
            SquareProbeRow(
                n=n,
                l_lower=bounded_square_part(value, trial_bound),
                s_lower=bounded_square_part(value * partner, trial_bound),
            )
        )
    return rows
