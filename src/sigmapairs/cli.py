"""Command-line entry point.

Every subcommand can emit a single machine-readable JSON document with
``--json``: keys ``command``, ``params`` (all defaults echoed), and
``results``, plus ``discrepancies`` for ``certify`` and ``elapsed_ms``.
Unbounded integers are rendered as decimal strings, never as JSON
numbers, so 4000-digit values survive any parser; exact rationals are
rendered as ``p/q`` strings.

Exit status: 0 success, 2 precondition violation, 3 oracle disagreement
or checkpoint corruption, 64 usage error; 143 when SIGTERM ends a search
that has started its worker processes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import certify as certify_mod
from . import chains, oracles, residues, search
from .arith import DEFAULT_ROUNDS

__all__ = ["main"]

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_DISAGREEMENT = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise UsageError(message)


def _verdict_json(verdict) -> dict:
    return {
        "status": verdict.status.value,
        "rounds": verdict.rounds,
        "witness": None if verdict.witness is None else str(verdict.witness),
    }


def _pair_json(record) -> dict:
    return {
        "m": record.m,
        "index": record.index,
        "p": str(record.p),
        "q": str(record.q),
        "p_verdict": _verdict_json(record.p_verdict),
        "q_verdict": _verdict_json(record.q_verdict),
        "digits_q": record.digits_q,
    }


def _form_json(lhs=(0, 0, 0), rhs=(0, 0, 0)) -> dict:
    """One side of an inequality as all six coefficients, the other
    side's three as "0"."""
    return dict(zip(("ca", "cb", "cc", "cn", "c2", "c3"), map(str, lhs + rhs)))


def _inequality_json(ineq) -> dict:
    return {
        "label": ineq.label,
        "lhs": _form_json(lhs=ineq.lhs),
        "rhs": _form_json(rhs=ineq.rhs),
    }


def _cmd_chain(args):
    terms = chains.chain_terms(args.m, args.terms)
    params = {"m": args.m, "terms": args.terms}
    results = [{"n": i, "value": str(t)} for i, t in enumerate(terms, start=1)]
    text = [" ".join(str(t) for t in terms)]
    return params, results, text, EXIT_OK, None


def _cmd_search(args):
    seed = tuple(int(part) for part in args.seed.split(","))
    if len(seed) != 2:
        raise ValueError(f"seed must be 'p,q', got {args.seed!r}")
    checkpoint = None
    if args.checkpoint and os.path.isfile(args.checkpoint):
        checkpoint = search.load_checkpoint(args.checkpoint)
    records = search.search_pairs(
        args.m,
        seed=seed,
        digits_limit=args.digits,
        checkpoint=checkpoint,
        rounds=args.mr_rounds,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        max_steps=args.max_steps,
    )
    params = {
        "m": args.m,
        "digits": args.digits,
        "seed": [str(seed[0]), str(seed[1])],
        "mr_rounds": args.mr_rounds,
        "checkpoint": args.checkpoint,
        "checkpoint_every": args.checkpoint_every,
        "max_steps": args.max_steps,
    }
    results = [_pair_json(r) for r in records]
    text = [f"pair index={r.index} p={r.p} q={r.q}" for r in records]
    text.append(f"{len(records)} pair(s) found")
    return params, results, text, EXIT_OK, None


def _cmd_seeds(args):
    pairs = search.enumerate_seeds(args.m, args.bound)
    params = {"m": args.m, "bound": str(args.bound)}
    results = [{"p": str(p), "q": str(q)} for p, q in pairs]
    text = [f"{p} {q}" for p, q in pairs]
    return params, results, text, EXIT_OK, None


def _cmd_residues(args):
    profile = residues.residue_profile(args.mod)
    params = {"mod": str(args.mod)}
    results = {
        "modulus": str(profile.modulus),
        "period": profile.period,
        "cycle": [str(r) for r in profile.cycle],
        "palindromic": profile.palindromic,
    }
    text = [
        f"modulus {profile.modulus}: period {profile.period}, "
        f"palindromic {str(profile.palindromic).lower()}",
        "cycle: " + " ".join(str(r) for r in profile.cycle),
    ]
    return params, results, text, EXIT_OK, None


def _oracle_report_json(report) -> dict:
    return {
        "lemma_id": report.lemma_id,
        "bound": str(report.bound),
        "witnesses": [[str(x) for x in w] for w in report.witnesses],
        "expected": [[str(x) for x in w] for w in report.expected],
        "agrees": report.agrees,
    }


def _cmd_lemmas(args):
    selected = [args.only] if args.only else sorted(oracles.ORACLES)
    runs = []
    for lemma_id in selected:
        func, default_bound = oracles.ORACLES[lemma_id]
        bound = default_bound if args.bound is None else args.bound
        oracles.check_bound(lemma_id, bound)
        runs.append((func, bound))
    reports = [func(bound) for func, bound in runs]
    params = {
        "only": args.only,
        "bound": None if args.bound is None else str(args.bound),
    }
    results = [_oracle_report_json(r) for r in reports]
    text = []
    for r in reports:
        verdict = "agrees" if r.agrees else "DISAGREES"
        text.append(
            f"{r.lemma_id} (bound {r.bound}): {verdict}, "
            f"{len(r.witnesses)} witness(es)"
        )
        if not r.agrees:
            text.append(f"  witnesses: {list(r.witnesses)}")
            text.append(f"  expected:  {list(r.expected)}")
    status = EXIT_OK if all(r.agrees for r in reports) else EXIT_DISAGREEMENT
    return params, results, text, status, None


def _cmd_certify(args):
    if not args.optimize and (args.ineqs is not None or args.objective is not None):
        raise UsageError("--ineqs and --objective apply to --optimize only")
    objective_text = args.objective
    if args.optimize and objective_text is None:
        objective_text = "1 1 1"
    params = {
        "ineqs": args.ineqs,
        "mode": "optimize" if args.optimize else "verify-paper",
        "objective": objective_text,
    }

    if args.optimize:
        if args.ineqs is not None:
            with open(args.ineqs, encoding="ascii") as handle:
                system = certify_mod.parse_inequalities(handle.read())
        else:
            system = certify_mod.known_inequalities()
        tokens = objective_text.split()
        if len(tokens) != 3:
            raise ValueError(f"objective must be 'ca cb cc', got {objective_text!r}")
        try:
            objective = certify_mod.Lhs(*map(Fraction, tokens))
        except ZeroDivisionError as exc:
            raise ValueError(f"objective {objective_text!r} divides by zero") from exc
        cert = certify_mod.optimize(system, objective)
        results = {
            "certificate": {
                "multipliers": {
                    label: str(lam) for label, lam in cert.multipliers if lam
                },
                "derived": _inequality_json(cert.derived),
            }
        }
        text = ["multipliers:"]
        text += [
            f"  {label}: {lam}" for label, lam in cert.multipliers if lam
        ]
        text.append(f"derived: {cert.derived.label}")
        rhs = cert.derived.rhs
        text.append(f"bound: ({rhs.cn})logN + ({rhs.c2})log2 + ({rhs.c3})log3")
        return params, results, text, EXIT_OK, None

    checks, discrepancies = certify_mod.verify_known_combinations()
    results = {
        "checks": [
            {
                "name": c.name,
                "multipliers": {label: str(lam) for label, lam in c.multipliers},
                "derived": _inequality_json(c.derived),
                "expected_rhs": _form_json(rhs=c.expected_rhs),
                "matches": c.matches,
            }
            for c in checks
        ]
    }
    disc = [{"id": d.id, "detail": d.detail} for d in discrepancies]
    text = []
    for c in checks:
        text.append(f"{c.name}: {'ok' if c.matches else 'MISMATCH'}")
    for d in discrepancies:
        text.append(f"discrepancy [{d.id}]: {d.detail}")
    status = EXIT_OK if all(c.matches for c in checks) else EXIT_DISAGREEMENT
    return params, results, text, status, disc


def _cmd_heuristic(args):
    exact_sum, tail, offset = search.heuristic_tail_parts(args.start, args.horizon)
    params = {"from": args.start, "horizon": args.horizon}
    results = {
        "value": exact_sum + tail,
        "exact_sum": exact_sum,
        "tail_bound": tail,
        "growth_offset": offset,
    }
    text = [
        f"expected pairs at indices >= {args.start}: {exact_sum + tail:.6g}",
        f"(exact part {exact_sum:.6g}, geometric tail bound {tail:.6g}, "
        f"growth offset {offset:.4f})",
    ]
    return params, results, text, EXIT_OK, None


def _cmd_squares(args):
    rows = search.square_divisor_probe(args.terms, args.trial_bound)
    params = {"terms": args.terms, "trial_bound": str(args.trial_bound)}
    results = [
        {"n": row.n, "l_lower": str(row.l_lower), "s_lower": str(row.s_lower)}
        for row in rows
    ]
    text = [f"n={row.n} L>={row.l_lower} S>={row.s_lower}" for row in rows]
    return params, results, text, EXIT_OK, None


# Built once per process: a call to main only parses, and argparse puts
# every value it reads and every default on a fresh namespace.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="sigmapairs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        return p

    p = add("chain", "print chain terms t_1..t_K")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--terms", type=int, required=True)
    p.set_defaults(func=_cmd_chain)

    p = add("search", "walk the chain hunting for prime pairs")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--digits", type=int, required=True,
                   help="stop once the larger term exceeds this many digits")
    p.add_argument("--seed", default="1,1")
    p.add_argument("--mr-rounds", type=int, default=DEFAULT_ROUNDS)
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint file; resumed from when it exists")
    p.add_argument("--checkpoint-every", type=int, default=25)
    p.add_argument("--max-steps", type=int, default=None,
                   help="stop after this many chain steps (checkpoint saved)")
    p.set_defaults(func=_cmd_search)

    p = add("seeds", "enumerate minimal quasisolution pairs")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_seeds)

    p = add("residues", "period and cycle of the chain mod w")
    p.add_argument("--mod", type=int, required=True)
    p.set_defaults(func=_cmd_residues)

    p = add("lemmas", "run brute-force lemma oracles")
    p.add_argument("--only", default=None, choices=sorted(oracles.ORACLES),
                   help="single lemma id")
    p.add_argument("--bound", type=int, default=None,
                   help="override each oracle's default bound, up to 10^7; "
                        "gcd reads it as a number of chain terms, from 4 "
                        "to 10^4")
    p.set_defaults(func=_cmd_lemmas)

    p = add("certify", "exact-rational inequality certificates")
    p.add_argument("--ineqs", default=None, help="inequality file")
    p.add_argument("--optimize", action="store_true",
                   help="find the optimal multiplier vector instead of "
                        "rechecking the recorded recipes")
    p.add_argument("--objective", default=None,
                   help="objective coefficients 'ca cb cc' for --optimize "
                        "(default '1 1 1')")
    p.set_defaults(func=_cmd_certify)

    p = add("heuristic", "convergent tail estimate for further pairs")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=_cmd_heuristic)

    p = add("squares", "bounded square-divisor probe of sigma values")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--trial-bound", type=int, default=10**5)
    p.set_defaults(func=_cmd_squares)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.perf_counter()
        params, results, text, status, discrepancies = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (search.CheckpointFormatError, search.CheckpointMismatch) as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except (ValueError, OSError) as exc:  # every precondition error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    if args.json:
        document = {
            "command": args.command,
            "params": params,
            "results": results,
        }
        if discrepancies is not None:
            document["discrepancies"] = discrepancies
        document["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
        print(json.dumps(document, indent=2))
    else:
        for line in text:
            print(line)
    return status
