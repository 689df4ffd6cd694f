"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they complete.

Criterion 9 asserts the true gcd law along the m = 2 chain:
g = gcd(t_n^2+t_n+1, t_{n+1}^2+t_{n+1}+1) divides 21, and equals
3^[n = 1 (mod 3)] * 7^[n = 8 (mod 14)].  The recorded claim that g
divides 3 is false (g = 7 at index 8, g = 21 at the large prime pair,
index 22); that falsity stays pinned where the program reports it:
``tests/test_oracles.py::TestGcd`` checks the oracle's witnesses and
``tests/test_cli.py::TestLemmasCommand::test_gcd_disagreement_gives_status_3``
checks that ``lemmas --only gcd`` exits 3.
"""

import math
import time
from fractions import Fraction as F

import pytest

from conftest import KNOWN_PAIRS, json_doc, results_only
from sigmapairs.certify import (
    Lhs,
    Rhs,
    combine,
    known_inequalities,
    optimize,
    verify_known_combinations,
)
from sigmapairs.chains import chain_terms, generate_s, generate_u
from sigmapairs.oracles import (
    oracle_gcd,
    oracle_linked,
    oracle_no_square_pair,
    oracle_p1q1,
    oracle_p_div_q1,
    oracle_pqr,
    oracle_s_classification,
    oracle_sigma33_breakdown,
    oracle_sigma41,
    oracle_u_classification,
)


def _report(number: int, description: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_chain_reproduction(run_cli):
    started = time.perf_counter()
    code, out = run_cli("chain", "--m", "2", "--terms", "10", "--json")
    terms = [int(r["value"]) for r in json_doc(out)["results"]]
    ok = code == 0
    ok = ok and terms[:9] == [1, 1, 3, 13, 61, 291, 1393, 6673, 31971]
    ok = ok and all(
        5 * p * q == p * p + q * q + p + q + 1 for p, q in zip(terms, terms[1:])
    )
    ok = ok and all(
        4 * terms[n - 1] < terms[n] < 5 * terms[n - 1] for n in range(4, 10)
    )
    _report(1, "chain terms, quadratic identity, growth window",
            ok, time.perf_counter() - started, 1.0)


def test_criterion_02_known_pairs(run_cli):
    started = time.perf_counter()
    code, out = run_cli("search", "--m", "2", "--digits", "20", "--json")
    found = {(r["index"], int(r["p"]), int(r["q"])) for r in json_doc(out)["results"]}
    ok = code == 0 and found == set(KNOWN_PAIRS)
    _report(2, "search --digits 20 finds exactly the three known pairs",
            ok, time.perf_counter() - started, 5.0)


def test_criterion_03_desk_scale_emptiness(run_cli):
    started = time.perf_counter()
    code, out = run_cli(
        "search", "--m", "2", "--digits", "500", "--json", "--mr-rounds", "40"
    )
    found = {(r["index"], int(r["p"]), int(r["q"])) for r in json_doc(out)["results"]}
    ok = code == 0 and found == set(KNOWN_PAIRS)
    _report(3, "search --digits 500 finds nothing beyond the three pairs",
            ok, time.perf_counter() - started, 300.0)


def test_criterion_04_m4_seeds(run_cli):
    started = time.perf_counter()
    code, out = run_cli("seeds", "--m", "4", "--bound", "1000", "--json")
    seeds = {(int(r["p"]), int(r["q"])) for r in json_doc(out)["results"]}
    ok = code == 0 and seeds == {(1, 1), (5, 11), (61, 131), (101, 491)}
    _report(4, "seeds --m 4 --bound 1000 returns exactly the four seeds",
            ok, time.perf_counter() - started, 30.0)


def test_criterion_05_residues(run_cli):
    started = time.perf_counter()
    code11, out11 = run_cli("residues", "--mod", "11", "--json")
    r11 = json_doc(out11)["results"]
    ok = code11 == 0 and r11["period"] == 12 and r11["palindromic"] is True
    ok = ok and r11["cycle"] == ["1", "1", "3", "2", "6", "5", "7", "7", "5", "6", "2", "3"]

    code5, out5 = run_cli("residues", "--mod", "5", "--json")
    r5 = json_doc(out5)["results"]
    ok = ok and code5 == 0 and r5["period"] == 4
    cycle5 = [int(x) for x in r5["cycle"]]
    ok = ok and all(
        cycle5[(n - 1) % 4] == (1 if n % 4 in (1, 2) else 3) for n in range(1, 30)
    )

    # one period mod 12 gives t_n = 1 (mod 12) for 3 not dividing n and
    # t_n = 3 (mod 12) for 3 | n, at every n
    code12, out12 = run_cli("residues", "--mod", "12", "--json")
    r12 = json_doc(out12)["results"]
    ok = ok and code12 == 0 and r12["period"] == 3 and r12["cycle"] == ["1", "1", "3"]
    _report(5, "mod 11 and mod 5 profiles; the mod 12 congruence patterns "
            "hold for every n", ok, time.perf_counter() - started, 1.0)


@pytest.mark.parametrize(
    "oracle, bound",
    [
        (oracle_p_div_q1, 10**4),
        (oracle_no_square_pair, 10**4),
        (oracle_pqr, 10**3),
        (oracle_linked, 10**4),
        (oracle_sigma41, 10**4),
        (oracle_p1q1, 10**4),
        (oracle_s_classification, 10**4),
        (oracle_u_classification, 10**4),
        (oracle_sigma33_breakdown, 10**3),
    ],
    ids=lambda o: getattr(o, "__name__", str(o)),
)
def test_criterion_06_lemma_oracles(oracle, bound):
    started = time.perf_counter()
    report = oracle(bound)
    _report(6, f"{report.lemma_id} agrees at bound {bound}",
            report.agrees, time.perf_counter() - started, 60.0)


def test_criterion_07_sequence_identities():
    started = time.perf_counter()
    fib = [0, 1]
    while len(fib) < 110:
        fib.append(fib[-1] + fib[-2])
    s = generate_s(51)
    ok = all(s[n] == fib[2 * n - 1] for n in range(2, 51))

    u = generate_u(36)
    ok = ok and u[:6] == [1, 1, 2, 3, 5, 2]
    ok = ok and all(u[k] == u[k + 6] for k in range(30))
    start_pair = (u[0], u[1])
    period = next(k for k in range(1, 12) if (u[k], u[k + 1]) == start_pair)
    ok = ok and period == 6
    _report(7, "s_n equals odd-index Fibonacci numbers; u has period 6",
            ok, time.perf_counter() - started, 1.0)


def test_criterion_08_certifier_verification():
    started = time.perf_counter()
    by_label = {iq.label: iq for iq in known_inequalities()}

    def rhs_of(labels, mults):
        return combine([by_label[l] for l in labels], mults).rhs

    ok = rhs_of(["3c", "2b+2c", "3a+2b+c"], [F(1, 9), F(1, 6), F(1, 3)]) == Rhs(
        cn=F(11, 18), c2=F(5, 12), c3=F(7, 36)
    )
    ok = ok and rhs_of(
        ["3c", "2b+2c", "5a+2b+c"], [F(1, 15), F(3, 10), F(1, 5)]
    ) == Rhs(cn=F(17, 30), c2=F(7, 20), c3=F(13, 60))
    ok = ok and rhs_of(
        ["3c", "3a+2b+2c", "4b+2c"], [F(1, 18), F(1, 3), F(1, 12)]
    ) == Rhs(cn=F(17, 36), c2=F(1, 3), c3=F(1, 18))
    ok = ok and rhs_of(
        ["a-b", "b-c", "2a+2b+3c"], [F(1, 7), F(2, 7), F(3, 7)]
    ) == Rhs(cn=F(3, 7), c2=F(3, 7))

    easy_abc = [by_label[l] for l in ("3c", "2b+2c", "3a+2b+c", "a-b", "b-c")]
    cert = optimize(easy_abc, Lhs(ca=1, cb=1, cc=1))
    ok = ok and cert.derived.rhs.cn == F(11, 18)

    _, discrepancies = verify_known_combinations()
    ids = {d.id for d in discrepancies}
    ok = ok and {"abc-3/8-claim", "abc-3/5-claim", "bc-5/12-constant"} <= ids
    ok = ok and "bc-form" in ids
    _report(8, "recorded combinations reproduce exactly; optimum is 11/18; "
               "discrepancies reported", ok, time.perf_counter() - started, 1.0)


def _gcd_law(n: int) -> int:
    """Closed form of the adjacent sigma gcd at chain index n (m = 2)."""
    return (3 if n % 3 == 1 else 1) * (7 if n % 14 == 8 else 1)


def test_criterion_09_gcd_divides_three():
    # With p = t_n, q = t_{n+1} and sigma(x) = x^2+x+1, the chain identity
    # 5pq = p^2+q^2+p+q+1 gives sigma(p) + sigma(q) = 5pq + 1.  If a prime
    # r divides both sigma values, then r | 5pq + 1, so r != 5 and r does
    # not divide p.  Since q = -(5p)^-1 (mod r), 25p^2 sigma(q) = 0 gives
    # 25p^2 - 5p + 1 = 0; subtracting 25 sigma(p) = 0 leaves 30p = -24, so
    # 5p = -4 (mod r) (sigma is odd, and r = 3 divides 21 anyway).  Then
    # 25 sigma(p) = 16 - 20 + 25 = 21, so r | 21.  9 never divides
    # x^2+x+1, so the 3-part is at most 3; the proof does not rule out 49,
    # so the 7-part rests on the exact law, which test_residues.py's
    # test_gcd_law_holds_for_every_index checks over whole periods, for all n:
    # 3 | sigma(x) iff x = 1 (mod 3), and both terms are 1 (mod 3) iff
    # n = 1 (mod 3); the chain mod 7 has period 14, and both terms are
    # 2 (mod 7) iff n = 8 (mod 14).  The recorded claim "g divides 3" thus
    # fails exactly at n = 8 (mod 14), and oracle_gcd must report those
    # indices and no others.
    started = time.perf_counter()
    terms = chain_terms(2, 100)
    gcds = {}
    failures = []
    for n in range(2, 100):
        p, q = terms[n - 1], terms[n]
        g = gcds[n] = math.gcd(p * p + p + 1, q * q + q + 1)
        if 21 % g != 0:
            failures.append((n, g))
        if (3 % g == 0) == (n % 14 == 8):
            failures.append((n, g))
        if g != _gcd_law(n):
            failures.append((n, g))
    pinned = {
        3: ((3, 13), 1),
        4: ((13, 61), 3),
        22: ((22419767768701, 107419560853453), 21),
    }
    for n, (pair, g) in pinned.items():
        if (terms[n - 1], terms[n]) != pair or gcds[n] != g:
            failures.append((n, gcds[n]))

    report = oracle_gcd(100)
    claim_breaks = {(n, _gcd_law(n)) for n in range(2, 100) if n % 14 == 8}
    ok = not failures and not report.agrees and set(report.witnesses) == claim_breaks
    if failures:
        print(f"  gcd off the law at (index, gcd): {failures}")
    if set(report.witnesses) != claim_breaks:
        print(f"  oracle witnesses {report.witnesses}, expected {sorted(claim_breaks)}")
    _report(9, "gcd of adjacent sigma values divides 21 along 100 terms, "
               "7 exactly at n = 8 (mod 14); oracle reports exactly those",
            ok, time.perf_counter() - started, 60.0)


@pytest.mark.parametrize("interrupt_after", [1, 4, 9, 15])
def test_criterion_10_resume_determinism(run_cli, tmp_path, interrupt_after):
    started = time.perf_counter()
    _, base = run_cli("search", "--m", "2", "--digits", "20", "--json")
    path = str(tmp_path / "walk.ck")
    code, _ = run_cli(
        "search", "--m", "2", "--digits", "20", "--json",
        "--checkpoint", path, "--max-steps", str(interrupt_after),
        "--checkpoint-every", "2",
    )
    ok = code == 0
    code, resumed = run_cli(
        "search", "--m", "2", "--digits", "20", "--json", "--checkpoint", path
    )
    ok = ok and code == 0
    ok = ok and results_only(resumed) == results_only(base)
    _report(10, f"resume after {interrupt_after} steps is byte-identical",
            ok, time.perf_counter() - started, 30.0)
