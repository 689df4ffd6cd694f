"""Benchmark of the sigmapairs command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  One
process with one thread calls ``sigmapairs.cli.main`` for every operation
(``--threads`` stays at its default of 1) and checks each output against
the frozen reference (``reference.json``).  The workloads are described in
``workloads.py``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``failed / attempted`` is the share of operations whose output or exit
code differs from the reference.

``--trace 0`` repeats whole passes of the workload for ``--seconds`` (at
least one pass and, on verify-suite, 100 operations) and reports:

* ``setup_s``: median over fresh interpreters of the time to import
  ``sigmapairs`` (which builds the small-prime sieve) and build the
  workload's inputs.
* ``wall_s``: median time of one pass, summed over its operations.
* ``terms_per_s``: chain indices the pass's searches walk, per second.
* ``op_p50_ms``, ``op_p90_ms``: latency of one CLI operation.
* ``peak_rss_mb``: peak resident memory of this process, which runs one
  workload only.

``--trace 1`` runs one untraced pass, one pass with spans around every
layer entry point (``spans.py``), then the layer microbenchmarks
(``micro.py``), and reports the per-layer metrics.  The spans are written
to ``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, ".out")

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120

import reference  # noqa: E402
import workloads  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time import and input building once, print seconds")
    return parser.parse_args(argv)


def _setup_probe(name: str, seed: int) -> float:
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        start = time.perf_counter()
        import sigmapairs.cli  # noqa: F401

        workloads.build(name, seed, workdir).pass_ops(0)
        return time.perf_counter() - start
    finally:
        shutil.rmtree(workdir)


def _measure_setup(name: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


class Tally:
    """Operations attempted and failed, with the first failure."""

    def __init__(self, ref: dict):
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []

    def run_pass(self, cli, ops) -> float:
        """Run one pass; return the summed time of its operations."""
        total = 0.0
        for op in ops:
            self.attempted += 1
            try:
                code, stdout, seconds = workloads.execute(cli, op)
            except Exception as exc:  # a crash in the program is a failed operation
                problem = f"raised {type(exc).__name__}: {exc}"
            else:
                self.latencies.append(seconds)
                total += seconds
                problem = reference.check(self.ref, op, code, stdout)
            if problem is not None:
                self.failed += 1
                if self.failed == 1:
                    print(f"FAILED {' '.join(op.argv)}: {problem}", file=sys.stderr)
        return total


def _quantiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def _timed(cli, wl, tally: Tally, seconds: float, setup_s: float) -> dict:
    terms = workloads.terms_per_pass(wl.name)
    passes = []
    start = time.perf_counter()
    # Whole passes only, and none that would end past ``seconds``.
    while (not passes or tally.attempted < wl.min_ops
           or time.perf_counter() - start + statistics.median(passes) <= seconds):
        passes.append(tally.run_pass(cli, wl.pass_ops(len(passes))))
    p50, p90 = _quantiles(tally.latencies)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(passes), "s"),
        "terms_per_s": (statistics.median(terms / p for p in passes), "1/s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "op_p90_ms": (1e3 * p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _traced(cli, wl, tally: Tally, workdir: str, out_path: str) -> dict:
    import micro
    from spans import Tracer

    untraced = tally.run_pass(cli, wl.pass_ops(0))
    tracer = Tracer()
    tracer.install()
    try:
        traced = tally.run_pass(cli, wl.pass_ops(0))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics.update(micro.run(workdir))
    metrics["trace.wall_s"] = traced
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(out_path)
    return {name: (value, _unit(name)) for name, value in metrics.items()}


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from the suffix of its name."""
    parts = name.split(".")
    stem = parts[-2] if parts[-1][:1] == "d" and parts[-1][1:].isdigit() else parts[-1]
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"),
                         ("_bytes", "B"), ("_ratio", "ratio")):
        if stem.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "sigmapairs", "cli.py")):
        print(f"no sigmapairs package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    if args.setup_probe:
        print(_setup_probe(args.workload, args.seed))
        return 0

    ref = reference.load()
    if not reference.gate_fires(ref):
        print("correctness gate does not flag the relabelled-index probe", file=sys.stderr)
        return 1

    from sigmapairs import cli

    tally = Tally(ref)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            out_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
            metrics = _traced(cli, wl, tally, workdir, out_path)
        else:
            setup_s = _measure_setup(args.workload, args.seed)
            metrics = _timed(cli, wl, tally, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
