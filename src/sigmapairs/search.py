"""Chain walks hunting for sigma_{m,m} prime pairs, with resumable
checkpoints, minimal-seed enumeration, the convergent tail heuristic and
bounded square-divisor probes.

The m = 2 search walks the single chain 1, 1, 3, 13, ... testing
consecutive terms for primality and emitting a record whenever both are
(probably) prime; the only hits below 10**500 are (3, 13), (13, 61) and
(22419767768701, 107419560853453), at chain indices 3, 4 and 22.  The
search needs m >= 2: every m = 1 chain has period 5 (1, 1, 2, 3, 2), so
it never reaches a digits limit; ``chain`` and ``seeds`` still take
m = 1, and ``lemmas --only p1q1`` covers the sigma_{1,1} pairs.
Checkpoints are plain ASCII files written atomically so that
interrupting and resuming reproduces the uninterrupted output byte for
byte.  Each term is rendered to decimal once: a state's ``prev`` is the
``curr`` of the state before it, so a write reuses that rendering.  A
:class:`SearchCheckpoint` holds what its file holds, positions and no
verdicts.  :func:`load_checkpoint` runs no primality test, and
:func:`search_pairs` tests each recorded pair when it resumes, whether
the checkpoint was read from a file or built in code.

Each pair (t_n, t_{n+1}) goes through four stages, cheapest first, and
only a pair that passes one stage reaches the next:

(a) Trial division by the primes below 10**5 that can divide a chain
    term.  A term t divides sigma(y^m) = 1 + y + ... + y^m for its
    neighbour y.  If a prime p divides that sum and y = 1 (mod p), the
    sum is m + 1 (mod p), so p | m + 1.  Otherwise y^(m+1) = 1 with
    y != 1 (mod p), so the order of y mod p is a divisor > 1 of both
    m + 1 and p - 1.  Only primes with p | m + 1 or gcd(p - 1, m + 1) > 1
    can divide a term: for m = 2 that is 3 and the primes = 1 (mod 3),
    about half the list.  The division is done by block gcd, one ``gcd``
    with the product of each block of 256 of these primes, as in
    :func:`~sigmapairs.arith.is_prime`.  It is lazy: t_{n+1} is divided
    first, and not at all when t_n has already failed, and t_n (if not
    yet divided) only when t_{n+1} survives.  So a term is divided only
    while a pair it belongs to can still be a candidate, and a term whose
    neighbours both fail is never divided: to 1000 digits, the m = 2 walk
    divides 924 of its 1471 terms.  A term fails only when a listed
    prime is a proper factor of it.
(b) Pairing: a pair is a candidate only when both terms survive (a).
(c) A second trial-division tier on the terms of a candidate pair, t_n
    first: the admissible primes above 10**5 up to a bound B(x) that
    grows with the term, about 1.8e6 * (digits / 1000)**1.7 rounded up
    to whole segments of 2**15 integers.  At that bound one more prime
    costs as much as the Miller-Rabin round it is expected to save, by
    the costs measured in ``BENCH_10.json``.  The tier runs from about
    190 digits on, where B passes 10**5, and B stays far below the term,
    so a prime it finds is a proper factor.  Its primes are sieved
    segment by segment on first use, and only one product per segment
    is kept.
(d) Confirmation: the full ``is_prime(x, rounds)``, first on t_n and
    then, if t_n is a probable prime, on t_{n+1}.  The verdicts in a
    :class:`PairRecord` come from this call, or, for a pair a checkpoint
    recorded, from the same test when the search resumes.

The walk, (a) and (b) run in the searching process.  So do (c) and (d)
for a pair whose t_n has fewer than ``_POOL_MIN_DIGITS`` (500) digits.
A larger pair goes to a worker process, which runs (c) and (d) on it;
the pool is forked at the first such pair, one worker per CPU the search
may run on, and ended when the search returns or is interrupted.  Below
500 digits one Miller-Rabin round costs less than starting the workers.
Just before the fork the searching process sieves (c) once, up to the
bound of the largest term the walk can pair, so no worker sieves.
Every pair runs (c) and (d) in the searching process on one CPU, where
``fork`` is missing or while the caller runs other threads.  The walk
goes on while the workers test.

Every stage rejects only composites, so the records equal those of a
full test on every pair.  Stage (a) runs at most once per term.  Stages
(c) and (d) run per pair, as one function of (m, rounds, t_n, t_{n+1}),
so a term shared by two candidate pairs is tested in each.  On every
chain measured that happens only for terms of at most 2 digits: on the
m = 2 chain 3 | t_n exactly when 3 | n, and 3 is on the list of (a), so
no two candidate pairs after index 4 share a term.  Records and
checkpoint writes are settled in walk order, so they do not depend on
which worker finishes first.
"""

from __future__ import annotations

import collections
import functools
import math
import os
import signal
import threading
from dataclasses import dataclass

from .arith import (
    DEFAULT_ROUNDS,
    TRIAL_DIVISION_BOUND,
    PrimalityVerdict,
    _BlockTrialDivisor,
    _sieve,
    _square_part,
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
    "PairRecord",
    "SearchCheckpoint",
    "SquareProbeRow",
    "enumerate_seeds",
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
    one before, and ``found`` the pairs emitted so far as (index, p, q),
    one per ``pair`` line of the file.  It holds no verdicts."""

    m: int
    n: int
    prev: int
    curr: int
    found: tuple[tuple[int, int, int], ...]


# The decimal form of the last two chain terms written.  Consecutive
# states share a term, so with ``checkpoint_every=1`` each write renders
# only its new ``curr``.  str() of a 2000-digit int takes about 43 us
# (2 vCPUs, CPython 3.11.7) and grows quadratically with the digits.
_decimal = functools.lru_cache(maxsize=2)(str)


def write_checkpoint(path: str, checkpoint: SearchCheckpoint) -> None:
    """Serialize atomically (temp file then rename)."""
    lines = [
        CHECKPOINT_VERSION,
        f"m={checkpoint.m}",
        f"n={checkpoint.n}",
        f"prev={_decimal(checkpoint.prev)}",
        f"curr={_decimal(checkpoint.curr)}",
    ]
    for index, p, q in checkpoint.found:
        lines.append(f"pair {index} {p} {q}")
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def load_checkpoint(path: str) -> SearchCheckpoint:
    """Parse and validate a checkpoint file, with no primality test:
    :func:`search_pairs` tests the recorded pairs when it resumes."""
    try:
        with open(path, encoding="ascii") as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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

    pairs = []
    for line_no, line in enumerate(lines[5:], start=6):
        parts = line.split()
        if len(parts) != 4 or parts[0] != "pair":
            raise CheckpointFormatError(f"line {line_no} must be 'pair <index> <p> <q>'")
        try:
            pairs.append((int(parts[1]), int(parts[2]), int(parts[3])))
        except ValueError as exc:
            raise CheckpointFormatError(f"bad integer on line {line_no}") from exc

    checkpoint = SearchCheckpoint(m=m, n=n, prev=prev, curr=curr, found=tuple(pairs))
    _validate_checkpoint(checkpoint)
    return checkpoint


def _validate_checkpoint(checkpoint: SearchCheckpoint) -> None:
    """The checks of a state and its recorded pairs that need no
    primality test."""
    m, n, prev, curr, pairs = (
        checkpoint.m, checkpoint.n, checkpoint.prev, checkpoint.curr, checkpoint.found
    )
    if m < 1 or n < 2:
        raise CheckpointMismatch(f"invalid position m={m}, n={n}")
    if min(prev, curr, *(x for _, p, q in pairs for x in (p, q))) < 1:
        raise CheckpointMismatch("chain terms must be positive")
    if not is_quasisolution(prev, curr, m):
        raise CheckpointMismatch(f"({prev}, {curr}) is not a valid chain state")
    last_index = 0
    for index, p, q in pairs:
        # a walk records (t_k, t_{k+1}) and then steps past it, so the
        # indices strictly increase and stay in 1 .. n - 2
        if not last_index < index <= n - 2:
            raise CheckpointMismatch(
                f"recorded pair index {index} is out of order or "
                f"beyond the walk position n={n}"
            )
        last_index = index
        if not is_quasisolution(p, q, m):
            raise CheckpointMismatch(f"recorded pair at index {index} is not a quasisolution")


def _admissible(p: int, m: int) -> bool:
    """Whether the prime p can divide a chain term for exponent m (stage
    (a) in the module docstring)."""
    return (m + 1) % p == 0 or math.gcd(p - 1, m + 1) > 1


@functools.cache
def _trial_primes(m: int) -> tuple[int, ...]:
    """The admissible primes below the trial-division bound."""
    return tuple(p for p in small_primes() if _admissible(p, m))


@functools.cache
def _trial_divisor(m: int) -> _BlockTrialDivisor:
    return _BlockTrialDivisor(_trial_primes(m))


# The tier bound B of stage (c), from measured layer costs (BENCH_10.json).
# Raising B by dB costs one pass over the tier primes in dB more integers,
# about 5.8 ms per 10**6 for a term of 1000 digits and close to linear in
# the digits d.  It catches a composite term that passed every smaller
# prime with chance dB / (B ln B), as for a random integer: for m = 2 half
# the primes are admissible and each divides a term with chance 2 / p.
# (On the chain, 14% of such terms of 170 to 2500 digits have a factor in
# (10**5, 10**6], against 17% predicted, and 30% in (10**5, 10**7],
# against 29%.)  A catch saves the Miller-Rabin round that would reject
# the term: 6.7 ms at 300 digits, 138 ms at 1000 and 6.9 s at 4000.
# Saving equals cost where B ln B = round / pass per unit of B, which
# gives B = 2.4e5, 1.7e6 and 2.0e7 at 300, 1000 and 4000 digits.  The fit
# B = 1.8e6 * (d / 1000)**1.7 is within 9% of the solution at 300, 500,
# 1000, 2000 and 4000 digits, where the optimum is flat.  The tier starts
# where B passes the stage (a) bound, near 190 digits, so B(x) < x
# wherever it runs.
_TIER_B_AT_1000_DIGITS = 1.8e6
_TIER_B_EXPONENT = 1.7
# Integers per sieve segment; each segment keeps only its product.
_TIER_SEGMENT = 2**15
_DIGITS_PER_BIT = math.log10(2)


def _tier_segments(x: int) -> int:
    """The number of stage (c) segments below B(x)."""
    digits = x.bit_length() * _DIGITS_PER_BIT
    target = _TIER_B_AT_1000_DIGITS * (digits / 1000) ** _TIER_B_EXPONENT
    return max(0, math.ceil((target - TRIAL_DIVISION_BOUND) / _TIER_SEGMENT))


def _tier_bound(x: int) -> int:
    """B(x): the schedule above, rounded up to whole segments past the
    stage (a) bound, which it equals where the tier does not run."""
    return TRIAL_DIVISION_BOUND + _tier_segments(x) * _TIER_SEGMENT


@functools.cache
def _segment_product(m: int, k: int) -> int:
    """The product of the admissible primes in segment k of stage (c), the
    k-th run of ``_TIER_SEGMENT`` integers past the stage (a) bound.  A
    forked worker inherits the products kept before the fork."""
    low = TRIAL_DIVISION_BOUND + k * _TIER_SEGMENT
    return math.prod(p for p in _sieve(low + _TIER_SEGMENT, low + 1) if _admissible(p, m))


def _tier_finds_factor(m: int, x: int) -> bool:
    """Stage (c): whether an admissible prime in (TRIAL_DIVISION_BOUND,
    B(x)] divides ``x``, by one ``gcd`` per segment up to the first hit;
    such a prime is a proper factor, as B(x) < x."""
    segments = _tier_segments(x)
    assert not segments or _tier_bound(x) < x
    return any(math.gcd(_segment_product(m, k), x) > 1 for k in range(segments))


def _survives(m: int, x: int) -> bool:
    """Stage (a): whether no listed prime is a proper factor of ``x``."""
    p = _trial_divisor(m).smallest_factor(x)
    return p is None or p == x


def _confirm(
    m: int, rounds: int, p: int, q: int
) -> tuple[PrimalityVerdict, PrimalityVerdict] | None:
    """Stages (c) and (d) of the candidate pair (p, q): the tier on p and
    then q, then the full test of p, and of q when p is a probable prime.
    Returns both verdicts when both are probable primes, else None."""
    if _tier_finds_factor(m, p) or _tier_finds_factor(m, q):
        return None
    p_verdict = is_prime(p, rounds)
    if not p_verdict.is_probable_prime:
        return None
    q_verdict = is_prime(q, rounds)
    return (p_verdict, q_verdict) if q_verdict.is_probable_prime else None


# Stages (c) and (d) run in worker processes for a pair whose first term
# has at least this many digits.  A search that starts the pool pays
# about 26 ms for it: 14 ms to import multiprocessing (once per process),
# 10 ms to fork two workers and get a first result back, and 2 ms to end
# them (medians of 9 starts, 2-vCPU VM, CPython 3.11.7).  One
# Miller-Rabin round, the least that stage (d) spends on a pair that
# clears the tier, takes 4.8 ms at 300 digits, 22 ms at 500, 51 ms at
# 700 and 145 ms at 1000.  A round outweighs the start-up from about
# 500 digits on, so a search whose pairs are all smaller never starts
# the pool, which forks at the first candidate pair past the gate.  Each
# such pair goes to a worker as soon as it is a candidate, so the tier's
# segment gcds (about a third of the searching process's work to 1000
# digits) run beside the walk instead of in it.  Just before the fork
# the searching process sieves every segment the walk can need, once.
# Workers are forked, not spawned: they inherit the loaded package and
# those segments instead of importing and sieving again, so this one
# gate serves every search.  Fork needs a process without threads; the
# package starts none, and the pool forks its workers before it starts
# its own helper threads and joins those threads when it ends.
_POOL_MIN_DIGITS = 500
_POOL_MIN = 10 ** (_POOL_MIN_DIGITS - 1)


def _pool_size() -> int:
    """Worker processes for stages (c) and (d): one per CPU this process
    may run on, or 0 (they stay in this process) with one CPU, where
    ``fork`` or ``os.sched_getaffinity`` is missing, or where the caller
    runs other threads, which a fork could catch holding a lock.  So the
    pool runs only on the main thread, where its SIGTERM handler can be
    set."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    if threading.active_count() > 1:
        return 0
    cpus = len(os.sched_getaffinity(0))
    return cpus if cpus > 1 else 0


def _ignore_interrupts() -> None:
    # a worker leaves an interrupt to the search, and dies of the pool's SIGTERM
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _exit_on_sigterm(signum, frame) -> None:
    # SIGTERM, as from ``kill``, ends the search and its pool as Ctrl-C does
    raise SystemExit(128 + signum)


class _Confirmer:
    """Stages (c) and (d), and the search's records and checkpoint
    writes in walk order.

    Candidate pairs and checkpoint states join one queue in walk order
    and leave it from the front: a pair once its verdicts are known,
    adding a record when both terms are probable primes, and a state by
    being written with the records found so far.  So each file holds
    exactly the records with index <= n - 2, and the files and records
    are those of a walk that confirmed every pair in place.

    A pair whose first term is below ``_POOL_MIN`` is confirmed when it
    joins the queue, in this process.  The others go to the worker pool:
    it is forked at the first of them, after this process has sieved (c)
    to B(reach), where ``reach`` bounds every term the walk can pair, and
    it is ended by :meth:`close`.  Where the pool cannot run, they too
    are confirmed here.
    """

    def __init__(
        self, m: int, rounds: int, checkpoint_path: str | None, found: list[PairRecord],
        reach: int,
    ):
        self.found = found
        self._m = m
        self._rounds = rounds
        self._reach = reach
        self._path = checkpoint_path
        # states (n, prev, curr) and pairs (index, p, q, job, verdicts)
        self._queue: collections.deque[tuple] = collections.deque()
        self._pool = None
        self._pool_checked = False
        self._sigterm = None

    def save(self, n: int, prev: int, curr: int) -> None:
        self._queue.append((n, prev, curr))

    def add_pair(self, index: int, p: int, q: int) -> None:
        """Queue the candidate pair (p, q) = (t_index, t_{index+1}) with
        its outcome, or with the pending job while a worker confirms it."""
        args = (self._m, self._rounds, p, q)
        if p >= _POOL_MIN and self._pooled():
            self._queue.append((index, p, q, self._pool.apply_async(_confirm, args), None))
        else:
            self._queue.append((index, p, q, None, _confirm(*args)))

    def settle(self, wait: bool) -> None:
        """Take the settled entries off the front of the queue; with
        ``wait``, every entry."""
        while self._queue:
            head = self._queue[0]
            if len(head) == 3:
                n, prev, curr = head
                write_checkpoint(self._path, SearchCheckpoint(
                    m=self._m, n=n, prev=prev, curr=curr,
                    found=tuple((r.index, r.p, r.q) for r in self.found),
                ))
            else:
                index, p, q, job, verdicts = head
                if job is not None:
                    if not (wait or job.ready()):
                        return
                    verdicts = job.get()
                if verdicts is not None:
                    self.found.append(
                        PairRecord(self._m, index, p, q, *verdicts, decimal_digits(q))
                    )
            self._queue.popleft()

    def close(self) -> None:
        """End the worker pool and its SIGTERM handler, if one was started."""
        if self._pool is not None:
            signal.signal(signal.SIGTERM, self._sigterm)
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _pooled(self) -> bool:
        """Whether workers confirm the pairs whose first term is at least
        ``_POOL_MIN``.  The pool is forked at the first of them, once this
        process has sieved (c) to B(reach)."""
        if not self._pool_checked:
            self._pool_checked = True
            workers = _pool_size()
            if workers:
                import multiprocessing

                for k in range(_tier_segments(self._reach)):
                    _segment_product(self._m, k)
                self._pool = multiprocessing.get_context("fork").Pool(
                    workers, initializer=_ignore_interrupts
                )
                self._sigterm = signal.signal(signal.SIGTERM, _exit_on_sigterm)
        return self._pool is not None


def search_pairs(
    m: int,
    seed: tuple[int, int] = (1, 1),
    digits_limit: int = 20,
    checkpoint: SearchCheckpoint | None = None,
    *,
    rounds: int = DEFAULT_ROUNDS,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 25,
    max_steps: int | None = None,
) -> list[PairRecord]:
    """Walk the chain from ``seed`` (or resume from ``checkpoint``),
    emitting a :class:`PairRecord` whenever two consecutive terms are
    both (probably) prime.

    The walk stops once the larger term of the pair under examination
    exceeds ``digits_limit`` decimal digits, or after ``max_steps``
    pairs when given (the checkpoint then allows resuming).  Checkpoints
    are written every ``checkpoint_every`` steps when ``checkpoint_path``
    is set, and at the end unless that step already wrote one.  A write
    waits until every pair before its state is confirmed, while the walk
    goes on.  A ``checkpoint`` gets the checks :func:`load_checkpoint`
    makes, wherever it came from, and then each recorded pair is tested
    with ``rounds``: a composite member raises :class:`CheckpointMismatch`.
    """
    # a faulty checkpoint is reported before a faulty argument
    if checkpoint is not None:
        _validate_checkpoint(checkpoint)  # before any primality test
        found = []
        for index, p, q in checkpoint.found:
            p_verdict, q_verdict = is_prime(p, rounds), is_prime(q, rounds)
            if not (p_verdict.is_probable_prime and q_verdict.is_probable_prime):
                raise CheckpointMismatch(f"recorded pair at index {index} has a composite member")
            found.append(PairRecord(checkpoint.m, index, p, q, p_verdict, q_verdict,
                                    decimal_digits(q)))
    if m < 2:
        # every m = 1 chain has period 5, so no digits limit is reached
        raise ValueError(f"search needs m >= 2, got {m}")
    if digits_limit < 1:
        raise ValueError(f"digits limit must be >= 1, got {digits_limit}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint cadence must be >= 1, got {checkpoint_every}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max steps must be >= 0, got {max_steps}")
    if checkpoint_path == "":
        raise ValueError("checkpoint path must not be empty")
    if checkpoint_path is not None and not os.path.isdir(
        os.path.dirname(checkpoint_path) or os.curdir
    ):
        raise ValueError(f"checkpoint directory of {checkpoint_path!r} does not exist")
    if checkpoint_path is not None and os.path.isdir(checkpoint_path):
        raise ValueError(f"checkpoint path {checkpoint_path!r} is a directory")

    if checkpoint is not None:
        if checkpoint.m != m:
            raise CheckpointMismatch(
                f"checkpoint is for m={checkpoint.m}, search asked for m={m}"
            )
        n, prev, curr = checkpoint.n, checkpoint.prev, checkpoint.curr
    else:
        a, b = seed
        if not is_quasisolution(a, b, m):
            raise NonIntegralStep(f"seed {seed} is not a quasisolution for m={m}")
        n, prev, curr = 2, a, b
        found = []

    overflow = 10**digits_limit  # curr >= overflow means too many digits
    # every term the walk can pair is below reach: an m = 2 step obeys
    # t_{k+1} = 5 t_k - t_{k-1} - 1 < 5 t_k (a 5**max_steps of digits_limit
    # digits or more is not computed, as overflow is then the smaller bound)
    reach = overflow
    if m == 2 and max_steps is not None and max_steps * math.log10(5) < digits_limit:
        reach = min(overflow, max(prev, curr) * 5**max_steps)
    prev_survives = None  # stage (a) on prev, None until divided
    confirmer = _Confirmer(m, rounds, checkpoint_path, found, reach)
    steps = 0
    try:
        while True:
            # Save at the end and after every ``checkpoint_every`` steps; a
            # walk that ends on a cadence step saves that state once.
            done = curr >= overflow or (max_steps is not None and steps >= max_steps)
            cadence = steps > 0 and steps % checkpoint_every == 0
            if checkpoint_path is not None and (done or cadence):
                confirmer.save(n, prev, curr)
            if done:
                break
            confirmer.settle(wait=False)
            # stages (a) and (b), lazily: curr first, and neither term
            # once prev has failed
            curr_survives = None if prev_survives is False else _survives(m, curr)
            if curr_survives and (prev_survives or _survives(m, prev)):
                confirmer.add_pair(n - 1, prev, curr)
            # advance to the state holding (t_n, t_{n+1}); a step from a
            # quasisolution is integral and gives a quasisolution again.
            # Not chain_next: tracing and tests count steps by search.sigma_power.
            prev, curr, n = curr, sigma_power(curr, m) // prev, n + 1
            prev_survives = curr_survives
            steps += 1
        confirmer.settle(wait=True)
    finally:
        confirmer.close()
    return confirmer.found


def locate_pair_index(p: int, q: int, m: int = 2) -> int:
    """Chain index of ``p`` when (p, q) are consecutive chain terms,
    counted from the chain's minimal seed at indices (1, 2).

    That is one more than the number of descent steps to the seed.  A
    step replaces (a, b), a <= b, by the sorted pair of
    (sigma(a^m) // b, a), again a quasisolution, and is taken while it
    lowers b, that is while sigma(a^m) // b < b.  b is a positive
    integer, so the descent ends.
    """
    if not is_quasisolution(p, q, m):
        raise ValueError(f"({p}, {q}) is not a quasisolution for m={m}")
    a, b = sorted((p, q))
    index = 1
    while (x := sigma_power(a, m) // b) < b:
        a, b = sorted((x, a))
        index += 1
    return index


def enumerate_seeds(m: int, bound: int) -> list[tuple[int, int]]:
    """All minimal quasisolution pairs (p, q), p <= q <= bound: those
    that :func:`locate_pair_index` does not descend from, as
    sigma(p^m) // q >= q.  Every quasisolution below the bound descends
    to one of them.

    For m = 4 and bound 1000 this yields (1, 1), (5, 11), (61, 131) and
    (101, 491), each starting its own chain; for m = 2 only (1, 1)
    remains.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    seeds = []
    for q in range(1, bound + 1):
        sq = sigma_power(q, m)
        for p in range(1, q + 1):
            if sq % p == 0 and (sp := sigma_power(p, m)) % q == 0 and sp >= q * q:
                seeds.append((p, q))
    return sorted(seeds)


_HEURISTIC_EXACT_TERMS = 200
_LN4 = math.log(4)


def heuristic_tail_parts(
    start_index: int, horizon: int | None = None
) -> tuple[float, float, float]:
    """Upper estimate of the expected number of prime pairs at chain
    indices >= start_index, the sum of 1 / (ln t_n * ln t_{n+1}) up to
    ``horizon`` (unbounded when None), as (exact_sum, tail_bound,
    growth_offset).  The estimate is exact_sum + tail_bound, always
    finite because the terms grow at least geometrically with ratio 4.

    The exact part sums 1 / (ln t_n * ln t_{n+1}) over the first
    ``_HEURISTIC_EXACT_TERMS`` terms; beyond them the bound
    ln t_n >= (n - c) ln 4 turns the remainder into the telescoping sum
    of 1 / ((n-c)(n+1-c) ln^2 4).
    The growth offset c = max_k (k - log_4 t_k) is calibrated on the
    computed terms and stays valid for all later indices because each
    step multiplies the term by more than 4.
    """
    if start_index < 3:
        raise ValueError(f"start index must be >= 3, got {start_index}")
    cap = (_HEURISTIC_EXACT_TERMS if horizon is None
           else min(horizon, _HEURISTIC_EXACT_TERMS))

    terms = chain_terms(2, max(cap + 1, 5))
    logs = [math.log(t) if t > 1 else 0.0 for t in terms]
    offset = max(k - logs[k - 1] / _LN4 for k in range(4, len(terms) + 1))
    if horizon is not None and horizon < start_index:
        return 0.0, 0.0, offset

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
    supported on primes <= trial_bound.

    Each sigma value, for n = 1 .. n_terms + 1, is factored over those
    primes once, by block gcd; the product's square part comes from the
    summed exponents of its two values."""
    if n_terms < 3:
        raise ValueError(f"need at least 3 terms, got {n_terms}")
    if trial_bound < 2:
        raise ValueError(f"trial bound must be >= 2, got {trial_bound}")
    divisor = _BlockTrialDivisor(small_primes(trial_bound))
    exponents = [divisor.exponents(t * t + t + 1) for t in chain_terms(2, n_terms + 1)]
    return [
        SquareProbeRow(
            n=n,
            l_lower=_square_part(exponents[n - 1]),
            s_lower=_square_part(exponents[n - 1], exponents[n]),
        )
        for n in range(1, n_terms + 1)
    ]
