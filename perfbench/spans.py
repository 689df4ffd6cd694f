"""Spans around the calls into each layer, recorded from outside the program.

The tracer replaces the module attributes through which the layers call
each other with wrappers.  Each wrapper records a span (name, start, end,
parent) in memory; the layer metrics are derived from the spans after the
traced pass, and the spans are written out when the run ends.  A span's
self time is its duration minus the durations of its direct children, so
the self times of all spans add up to the durations of the root
``cli.main`` spans.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

SEARCH = "search.search_pairs"

# (module, attribute, span name) of each plainly wrapped entry point.
_ENTRY_POINTS = (
    ("cli", "main", "cli.main"),
    ("search", "load_checkpoint", "search.checkpoint.load"),
    ("search", "enumerate_seeds", "search.enumerate_seeds"),
    ("search", "square_divisor_probe", "search.square_divisor_probe"),
    ("search", "heuristic_tail_parts", "search.heuristic_tail"),
    ("certify", "verify_known_combinations", "certify.verify_known_combinations"),
    ("certify", "optimize", "certify.optimize"),
    ("residues", "residue_profile", "residues.residue_profile"),
)

# Spans whose busy time is reported as "<name>.busy_s".
_BUSY = (
    "search.enumerate_seeds",
    "search.square_divisor_probe",
    "search.heuristic_tail",
    "certify.verify_known_combinations",
    "certify.optimize",
    "residues.residue_profile",
)

_OUTCOMES = ("td_rejects", "mr_rejects", "probable_primes")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, attrs]
        self._stack: list[int] = []
        self._undo: list = []
        self._walk_rounds: dict[int, int] | None = None
        self.walk_rounds = 0
        self.useful_rounds = 0
        self.pairs_found = 0

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                span[4] = after(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, replacement):
        original = getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        """Wrap the layer entry points of the imported ``sigmapairs``."""
        from sigmapairs import certify, cli, oracles, residues, search

        modules = {"cli": cli, "search": search, "certify": certify, "residues": residues}
        for module, attr, name in _ENTRY_POINTS:
            owner = modules[module]
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))

        walk = self._wrap(SEARCH, search.search_pairs, self._after_search)

        def search_pairs(*args, **kwargs):
            self._walk_rounds = {}
            try:
                return walk(*args, **kwargs)
            finally:
                self._walk_rounds = None

        self._patch(search, "search_pairs", search_pairs)
        self._patch(search, "is_prime", self._wrap("arith.is_prime", search.is_prime,
                                                   self._after_is_prime))
        self._patch(search, "write_checkpoint",
                    self._wrap("search.checkpoint.write", search.write_checkpoint,
                               lambda args, kwargs, _: os.path.getsize(args[0])))

        # The chain step of a walk is its sigma_power call; other callers
        # (seed enumeration, descent) are left unwrapped.
        sigma_power = search.sigma_power
        step = self._wrap("search.step", sigma_power)
        self._patch(search, "sigma_power", lambda *args: (
            step(*args) if self._parent_name() == SEARCH else sigma_power(*args)))

        for lemma_id, (func, bound) in list(oracles.ORACLES.items()):
            oracles.ORACLES[lemma_id] = (self._wrap(f"oracles.{lemma_id}", func), bound)
            self._undo.append(
                lambda k=lemma_id, v=(func, bound): oracles.ORACLES.__setitem__(k, v))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _after_is_prime(self, args, kwargs, verdict):
        if verdict.status.value != "composite":
            outcome = "probable_primes"
        else:
            outcome = "mr_rejects" if verdict.rounds else "td_rejects"
        in_walk = self._parent_name() == SEARCH
        if in_walk:
            x = args[0]
            self._walk_rounds[x] = self._walk_rounds.get(x, 0) + verdict.rounds
        return outcome, verdict.rounds, in_walk

    def _after_search(self, args, kwargs, records):
        checkpoint = kwargs.get("checkpoint")
        new = records[len(checkpoint.found) if checkpoint is not None else 0:]
        rounds = self._walk_rounds or {}
        self.pairs_found += len(new)
        self.walk_rounds += sum(rounds.values())
        self.useful_rounds += sum(rounds.get(x, 0) for r in new for x in {r.p, r.q})

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times of everything traced so far."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[parent] += end - start
        own = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - children[i]

        by_outcome = defaultdict(int)
        by_outcome_s = defaultdict(float)
        mr_rounds = tested_in_walk = 0
        written = 0
        for name, start, end, _, attrs in self.spans:
            if name == "arith.is_prime":
                outcome, rounds, in_walk = attrs
                by_outcome[outcome] += 1
                by_outcome_s[outcome] += end - start
                mr_rounds += rounds
                tested_in_walk += in_walk
            elif name == "search.checkpoint.write":
                written += attrs

        m = {
            "arith.is_prime.calls": calls["arith.is_prime"],
            "arith.is_prime.busy_s": busy["arith.is_prime"],
            "arith.mr_rounds": mr_rounds,
        }
        for outcome in _OUTCOMES:
            m[f"arith.is_prime.{outcome}"] = by_outcome[outcome]
            m[f"arith.is_prime.{outcome}_busy_s"] = by_outcome_s[outcome]
        m.update({
            "search.terms_walked": calls["search.step"],
            "search.terms_not_tested": calls["search.step"] - tested_in_walk,
            "search.pairs_found": self.pairs_found,
            "search.mr_useful_ratio": (
                self.useful_rounds / self.walk_rounds if self.walk_rounds else 0.0),
            "search.step_busy_s": busy["search.step"],
            "search.self_s": own[SEARCH],
            "search.checkpoint.write_calls": calls["search.checkpoint.write"],
            "search.checkpoint.write_busy_s": busy["search.checkpoint.write"],
            "search.checkpoint.write_bytes": written,
            "search.checkpoint.load_calls": calls["search.checkpoint.load"],
            "search.checkpoint.load_busy_s": busy["search.checkpoint.load"],
        })
        for name in _BUSY:
            m[f"{name}.busy_s"] = busy[name]
        m["cli.self_s"] = own["cli.main"]
        m["trace.span_self_sum_s"] = sum(own.values())
        m["trace.spans"] = len(self.spans)
        return m

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: id, name, start, end, parent."""
        with open(path, "w", encoding="ascii") as handle:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": None if parent < 0 else parent,
                }) + "\n")
