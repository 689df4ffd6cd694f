"""Layer microbenchmarks, run once in every traced run.

* ``arith.is_prime_r1_ms.d{500,1500,4000}``: one ``is_prime(x, rounds=1)``
  on the first chain term of at least that many digits that survives
  trial division by every prime below 10**5 (median of a few calls).
* ``chains.chain_next_us.d1500``: one ``chain_next`` at 1500 digits.
* ``search.checkpoint.{load,write}_ms``: one load and one write of the
  deep-band start checkpoint (2000-digit terms, three pairs).
* ``oracles.<lemma_id>.busy_s``: each oracle once at its default bound.
"""

from __future__ import annotations

import os
import statistics
import time

from workloads import DEEP_BAND_START, checkpoint_text, sigma

TRIAL_BOUND = 10**5


def _primes(bound: int) -> list[int]:
    flags = bytearray([1]) * (bound + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, int(bound**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    return [p for p, f in enumerate(flags) if f]


def _median_time(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run(workdir: str) -> dict[str, float]:
    from sigmapairs import arith, chains, oracles, search

    # (digits, repetitions) for the one-round primality test.
    sizes = ((500, 5), (1500, 3), (4000, 1))
    primes = _primes(TRIAL_BOUND)
    floors = {d: 10 ** (d - 1) for d, _ in sizes}
    terms = [1, 1]
    survivors = {}
    while len(survivors) < len(sizes):
        terms.append(sigma(terms[-1], 2) // terms[-2])
        x = terms[-1]
        for d, _ in sizes:
            if d not in survivors and x >= floors[d] and all(x % p for p in primes):
                survivors[d] = x
    m = {}
    for d, reps in sizes:
        x = survivors[d]
        m[f"arith.is_prime_r1_ms.d{d}"] = 1e3 * _median_time(lambda: arith.is_prime(x, 1), reps)

    n = next(i for i, t in enumerate(terms, start=1) if t >= floors[1500])
    state = chains.ChainState(m=2, n=n, prev=terms[n - 2], curr=terms[n - 1])
    m["chains.chain_next_us.d1500"] = 1e6 * _median_time(lambda: chains.chain_next(state), 21)

    n = DEEP_BAND_START
    source = os.path.join(workdir, "micro-load.ck")
    with open(source, "w", encoding="ascii") as handle:
        handle.write(checkpoint_text(n, terms[n - 2], terms[n - 1]))
    loaded = search.load_checkpoint(source)
    target = os.path.join(workdir, "micro-write.ck")
    m["search.checkpoint.load_ms"] = 1e3 * _median_time(lambda: search.load_checkpoint(source), 5)
    m["search.checkpoint.write_ms"] = 1e3 * _median_time(
        lambda: search.write_checkpoint(target, loaded), 5)

    for lemma_id, (func, bound) in sorted(oracles.ORACLES.items()):
        m[f"oracles.{lemma_id}.busy_s"] = _median_time(lambda: func(bound), 1)
    return m
