"""Frozen reference outputs and the correctness gate.

``reference.json`` maps each reference key to the exit code and the
``results`` tree (plus ``discrepancies`` for ``certify``) that the CLI
printed when the benchmark was defined; ``freeze.py`` writes it.  Expected
disagreements are part of the reference, not hidden: ``lemmas`` exits 3
because the gcd oracle finds counterexamples to the recorded claim.
"""

from __future__ import annotations

import json
import os

from workloads import Op

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# The reference whose pairs the gate probe relabels.
PROBE_REF = "search --m 2 --digits 1000 --json"


def load() -> dict:
    with open(REFERENCE_PATH, encoding="ascii") as handle:
        return json.load(handle)


def _canonical(tree) -> str:
    return json.dumps(tree, separators=(",", ":"))


def check(reference: dict, op: Op, code: int, stdout: str) -> str | None:
    """None when the output of ``op`` matches its reference, else what
    differs."""
    want = reference[op.ref]
    if code != want["exit"]:
        return f"exit code {code}, expected {want['exit']}"
    try:
        document = json.loads(stdout)
    except ValueError:
        return "output is not one JSON document"
    if _canonical(document.get("results")) != _canonical(want["results"]):
        return "results differ from the reference"
    if _canonical(document.get("discrepancies")) != _canonical(want.get("discrepancies")):
        return "discrepancies differ from the reference"
    return None


def gate_fires(reference: dict) -> bool:
    """True when the gate passes the reference pair-search output and
    flags the same output with the index-22 pair relabelled as 16, the
    output a resume from a checkpoint with a wrong ``n`` produced."""
    op = Op(tuple(PROBE_REF.split()), PROBE_REF)
    results = reference[PROBE_REF]["results"]
    relabelled = [dict(r, index=16) if r["index"] == 22 else r for r in results]
    if relabelled == results:
        return False
    honest = check(reference, op, 0, json.dumps({"results": results}))
    corrupt = check(reference, op, 0, json.dumps({"results": relabelled}))
    return honest is None and corrupt is not None
