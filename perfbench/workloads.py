"""Inputs and operations of the three benchmark workloads.

An operation is one ``sigmapairs`` CLI command, run in-process through
``sigmapairs.cli.main``.  A pass is the list of operations that makes up
one complete workload; a run repeats passes.  Every input is derived from
the workload seed, and the chain arithmetic used to build inputs and
expectations is the benchmark's own, so no input depends on the code
under test.

Why each workload:

* ``pair-search``: ``search --m 2 --digits 1000``, the time-to-solution run
  users make; nearly all of it is the ``arith`` primality kernel.  Its
  input is fixed because there is only one m = 2 chain.
* ``deep-band``: 20-step walks from checkpoints in the band of 2000-digit
  terms, the large-operand regime where a costly sieve set-up can pay off.
  Each walk loads a checkpoint and writes one after every step, so
  checkpoint loads and writes sit beside the walk.
* ``verify-suite``: the cold layers (oracles, certificates, residues,
  seeds, m = 4 searches), where the search kernel does almost nothing.
"""

from __future__ import annotations

import io
import os
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("pair-search", "deep-band", "verify-suite")

PAIR_SEARCH_DIGITS = 1000

# First chain index whose term has at least 2000 digits.
DEEP_BAND_START = 2941
DEEP_BAND_STEPS = 20
# The band is walked in this many windows of DEEP_BAND_STEPS.  Every pass
# walks all of them, so each seed does the same work; the seed only picks
# the window the pass starts from.  About one term in seven survives trial
# division here, and each survivor costs a Miller-Rabin round of about a
# second, so freely placed windows would differ in cost by tens of percent
# from their survivor counts alone.
DEEP_BAND_WINDOWS = 2
# Above the digits of every term in the band, so --max-steps ends each walk.
DEEP_BAND_DIGITS = 4000

VERIFY_M4_SEEDS = ((5, 11), (61, 131), (101, 491))
VERIFY_M4_DIGITS = 1000
VERIFY_RESIDUE_OPS = 6
VERIFY_LEMMAS = "lemmas --json"
# The heaviest cold command runs this often in each pass, so that op_p90_ms
# falls inside its block of samples instead of on the edge between two
# commands of different cost.
VERIFY_LEMMAS_OPS = 3
VERIFY_FIXED = (
    "certify --json",
    "certify --optimize --json",
    "seeds --m 4 --bound 1000 --json",
    "squares --terms 30 --json",
    "heuristic --from 23 --json",
    "chain --terms 100 --json",
) + tuple(
    f"search --m 4 --seed {p},{q} --digits {VERIFY_M4_DIGITS} --json"
    for p, q in VERIFY_M4_SEEDS
)

# Pairs the m = 2 walk reports below 10**1000: (index, p, q).
KNOWN_PAIRS = ((3, 3, 13), (4, 13, 61), (22, 22419767768701, 107419560853453))


def residue_moduli(limit: int = 200) -> tuple[int, ...]:
    """Moduli w < limit whose prime factors are 2 or primes = 2 (mod 3).

    No chain term has a prime factor = 2 (mod 3) or the factor 2, so every
    residue is a unit and ``residues --mod w`` succeeds for each of them.
    """
    moduli = []
    for w in range(2, limit):
        rest, p, ok = w, 2, True
        while p * p <= rest:
            while rest % p == 0:
                ok = ok and (p == 2 or p % 3 == 2)
                rest //= p
            p += 1
        if rest > 1:
            ok = ok and (rest == 2 or rest % 3 == 2)
        if ok:
            moduli.append(w)
    return tuple(moduli)


def sigma(x: int, m: int) -> int:
    """1 + x + ... + x**m."""
    total = 1
    for _ in range(m):
        total = total * x + 1
    return total


def chain_terms(count: int) -> list[int]:
    """[t_1, ..., t_count] of the m = 2 chain."""
    terms = [1, 1]
    while len(terms) < count:
        terms.append(sigma(terms[-1], 2) // terms[-2])
    return terms[:count]


def walk_steps(digits: int, m: int = 2, seed: tuple[int, int] = (1, 1)) -> int:
    """Chain steps ``search --digits`` takes from ``seed``: it walks until
    the current term has more than ``digits`` digits."""
    prev, curr, steps, limit = seed[0], seed[1], 0, 10**digits
    while curr < limit:
        prev, curr, steps = curr, sigma(curr, m) // prev, steps + 1
    return steps


def checkpoint_text(n: int, prev: int, curr: int) -> str:
    """A version 1 checkpoint at chain index ``n`` holding the known pairs."""
    lines = ["sigma-chain-checkpoint v1", "m=2", f"n={n}", f"prev={prev}", f"curr={curr}"]
    lines += [f"pair {i} {p} {q}" for i, p, q in KNOWN_PAIRS]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Op:
    """One CLI command and the key of its frozen reference; ``restore``
    (path, text) is written before the command, outside the timed region.
    """

    argv: tuple[str, ...]
    ref: str
    restore: tuple[str, str] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    make_pass: Callable[[random.Random], tuple[Op, ...]]
    min_ops: int  # fewest operations one run makes

    def pass_ops(self, i: int) -> tuple[Op, ...]:
        """The operations of pass ``i``, drawn from the seed and ``i``."""
        return self.make_pass(random.Random(f"{self.name}:{self.seed}:{i}"))


def execute(cli, op: Op) -> tuple[int, str, float]:
    """Run ``op`` through ``cli.main``: (exit code, stdout, seconds).

    Only the call itself is timed; preparing files and capturing output
    are not.
    """
    if op.restore is not None:
        path, text = op.restore
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(list(op.argv))
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


def terms_per_pass(name: str) -> int:
    """Chain indices the search commands of one pass walk.

    An expectation, not an input: it stays out of :func:`build` so that
    ``setup_s`` times only what the program is given."""
    if name == "pair-search":
        return walk_steps(PAIR_SEARCH_DIGITS)
    if name == "deep-band":
        return DEEP_BAND_STEPS * DEEP_BAND_WINDOWS
    return sum(walk_steps(VERIFY_M4_DIGITS, 4, s) for s in VERIFY_M4_SEEDS)


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def build(name: str, seed: int, workdir: str) -> Workload:
    """Build the inputs of workload ``name`` for ``seed`` in ``workdir``."""
    if name == "pair-search":
        cmd = f"search --m 2 --digits {PAIR_SEARCH_DIGITS} --json"
        ops = (Op(_argv(cmd), cmd),)
        return Workload(name, seed, lambda rng: ops, 1)

    if name == "deep-band":
        terms = chain_terms(DEEP_BAND_START + DEEP_BAND_STEPS * DEEP_BAND_WINDOWS)
        windows = []
        for w in range(DEEP_BAND_WINDOWS):
            n = DEEP_BAND_START + w * DEEP_BAND_STEPS
            path = os.path.join(workdir, f"deep-{n}.ck")
            argv = _argv(
                f"search --m 2 --digits {DEEP_BAND_DIGITS} --checkpoint {path} "
                f"--checkpoint-every 1 --max-steps {DEEP_BAND_STEPS} --json"
            )
            text = checkpoint_text(n, terms[n - 2], terms[n - 1])
            windows.append(Op(argv, f"deep-band n={n}", restore=(path, text)))
        first = random.Random(f"{name}:{seed}").randrange(DEEP_BAND_WINDOWS)
        ops = tuple(windows[first:] + windows[:first])
        return Workload(name, seed, lambda rng: ops, 1)

    if name == "verify-suite":
        moduli = residue_moduli()

        def suite(rng: random.Random) -> tuple[Op, ...]:
            cmds = [VERIFY_LEMMAS] * VERIFY_LEMMAS_OPS + list(VERIFY_FIXED) + [
                f"residues --mod {w} --json"
                for w in rng.sample(moduli, VERIFY_RESIDUE_OPS)
            ]
            rng.shuffle(cmds)
            return tuple(Op(_argv(c), c) for c in cmds)

        return Workload(name, seed, suite, 100)

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
