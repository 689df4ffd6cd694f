"""Exact-rational algebra for linear combinations of logarithmic
inequalities in the six quantities

    a = log(third largest prime),  b = log(second largest),
    c = log(largest),  log N,  log 2,  log 3,

all positive, with a <= b <= c.  Nonnegative multiplier vectors turn a
registry of recorded inequalities into derived bounds such as

    a + b + c <= (11/18) log N + (5/12) log 2 + (7/36) log 3,

and an exact LP over Fractions finds the multiplier vector minimizing
the log N coefficient, breaking ties by the exact value of the constant
term c2*log 2 + c3*log 3.  In standard form, with a surplus per covering
row, each candidate vertex is one 3x3 basis: a k x k tight-row system
plus the other rows' surpluses, feasible exactly when that system has a
nonnegative solution that covers every row (:func:`optimize` proves it).
Where the recorded claims do not match the exact recombination, a
discrepancy report is emitted instead of silently adopting either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

__all__ = [
    "Certificate",
    "CombinationCheck",
    "Discrepancy",
    "Inequality",
    "Infeasible",
    "LogLinearForm",
    "NegativeMultiplier",
    "combine",
    "entails",
    "form",
    "format_inequalities",
    "known_combinations",
    "known_inequalities",
    "literal_bc_inequality",
    "optimize",
    "parse_inequalities",
    "verify_known_combinations",
]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LogLinearForm:
    """ca*a + cb*b + cc*c + cn*logN + c2*log2 + c3*log3 with exact
    rational coefficients."""

    ca: Fraction = _ZERO
    cb: Fraction = _ZERO
    cc: Fraction = _ZERO
    cn: Fraction = _ZERO
    c2: Fraction = _ZERO
    c3: Fraction = _ZERO

    def plus(self, other: "LogLinearForm") -> "LogLinearForm":
        return LogLinearForm(
            self.ca + other.ca, self.cb + other.cb, self.cc + other.cc,
            self.cn + other.cn, self.c2 + other.c2, self.c3 + other.c3,
        )

    def scaled(self, factor: Fraction) -> "LogLinearForm":
        return LogLinearForm(
            self.ca * factor, self.cb * factor, self.cc * factor,
            self.cn * factor, self.c2 * factor, self.c3 * factor,
        )

    def coefficients(self) -> tuple[Fraction, ...]:
        return (self.ca, self.cb, self.cc, self.cn, self.c2, self.c3)


def form(ca=0, cb=0, cc=0, cn=0, c2=0, c3=0) -> LogLinearForm:
    """Construct a form, coercing every coefficient to Fraction."""
    return LogLinearForm(
        Fraction(ca), Fraction(cb), Fraction(cc),
        Fraction(cn), Fraction(c2), Fraction(c3),
    )


@dataclass(frozen=True)
class Inequality:
    """lhs <= rhs under positivity of all six basis quantities."""

    lhs: LogLinearForm
    rhs: LogLinearForm
    label: str


@dataclass(frozen=True)
class Certificate:
    """Nonnegative multipliers and the inequality their weighted sum
    derives; re-running :func:`combine` on the multipliers reproduces
    ``derived`` exactly."""

    multipliers: tuple[tuple[str, Fraction], ...]
    derived: Inequality


class NegativeMultiplier(ValueError):
    """Multipliers must be nonnegative to preserve inequality direction."""


class Infeasible(ValueError):
    """No nonnegative combination of the given inequalities covers the
    objective."""


def combine(
    ineqs: Sequence[Inequality], multipliers: Sequence[Fraction | int]
) -> Inequality:
    """Coefficient-wise weighted sum of the inequalities."""
    if len(ineqs) != len(multipliers):
        raise ValueError(
            f"{len(ineqs)} inequalities but {len(multipliers)} multipliers"
        )
    lhs = LogLinearForm()
    rhs = LogLinearForm()
    used = []
    for ineq, factor in zip(ineqs, multipliers):
        factor = Fraction(factor)
        if factor < 0:
            raise NegativeMultiplier(f"multiplier for {ineq.label!r} is {factor}")
        lhs = lhs.plus(ineq.lhs.scaled(factor))
        rhs = rhs.plus(ineq.rhs.scaled(factor))
        if factor:
            used.append(f"{factor}*[{ineq.label}]")
    return Inequality(lhs=lhs, rhs=rhs, label=" + ".join(used) or "0")


def entails(derived: Inequality, target: Inequality) -> bool:
    """True when ``derived`` implies ``target`` coefficient-wise under
    positivity: every lhs coefficient of ``derived`` at least matches
    the target's, every rhs coefficient at most matches.  The trivial
    orderings a <= b <= c are deliberately not baked in; add them to a
    combination instead."""
    return all(
        d >= t for d, t in zip(derived.lhs.coefficients(), target.lhs.coefficients())
    ) and all(
        d <= t for d, t in zip(derived.rhs.coefficients(), target.rhs.coefficients())
    )


# log2(3) to 200 places, generated independently by decimal.ln and an
# arbitrary-precision log and cross-checked digit for digit; the first
# digits are re-verified against exact powering in the test suite.
_LOG2_3_SCALE = 10**200
_LOG2_3_FLOOR = int(
    "15849625007211561814537389439478165087598144076924810604557526545"
    "41098227794358562522280474918088242090980662475059167343717552441"
    "0609248221420839506216982994936575922385852344415825363027476853"
    "0697805"
)


def _compare_with_log2_3(threshold: Fraction) -> int:
    """Exact sign of log2(3) - threshold for a positive rational.

    The threshold is cross-multiplied against the 200-digit bracket; a
    rational would need to agree with log2(3) to 200 places to fall
    inside, far beyond what multiplier arithmetic on sane inequality
    systems can produce.  No rational with a denominator up to 2**16
    falls inside.
    """
    p, q = threshold.numerator, threshold.denominator
    if p * _LOG2_3_SCALE < _LOG2_3_FLOOR * q:
        return 1
    if p * _LOG2_3_SCALE > (_LOG2_3_FLOOR + 1) * q:
        return -1
    raise ValueError(
        "constant comparison needs log2(3) beyond 200 digits; "
        f"threshold {threshold} is indistinguishable at this precision"
    )


def _constant_sign(c2: Fraction, c3: Fraction) -> int:
    """Exact sign of c2*log2 + c3*log3 for rational c2, c3."""
    if c2 >= 0 and c3 >= 0:
        return 1 if (c2 or c3) else 0
    if c2 <= 0 and c3 <= 0:
        return -1
    # opposite signs: the sign is sign(c3) * sign(log2(3) - t) for the
    # positive rational t = -c2/c3
    log_cmp = _compare_with_log2_3(-c2 / c3)
    return log_cmp if c3 > 0 else -log_cmp


def _cost_less(costa, costb) -> bool:
    # lexicographic: log N coefficient first, then the exact constant
    if costa[0] != costb[0]:
        return costa[0] < costb[0]
    return _constant_sign(costa[1] - costb[1], costa[2] - costb[2]) < 0


def _det3(c0, c1, c2) -> Fraction:
    """The triple product c0 . (c1 x c2): the 3x3 determinant by columns."""
    return (
        c0[0] * (c1[1] * c2[2] - c1[2] * c2[1])
        + c0[1] * (c1[2] * c2[0] - c1[0] * c2[2])
        + c0[2] * (c1[0] * c2[1] - c1[1] * c2[0])
    )


def _require_split_form(ineq: Inequality) -> None:
    if ineq.lhs.cn or ineq.lhs.c2 or ineq.lhs.c3:
        raise ValueError(f"{ineq.label!r}: lhs must only involve a, b, c")
    if ineq.rhs.ca or ineq.rhs.cb or ineq.rhs.cc:
        raise ValueError(f"{ineq.label!r}: rhs must only involve logN, log2, log3")


def optimize(ineqs: Sequence[Inequality], objective: LogLinearForm) -> Certificate:
    """Nonnegative multipliers whose combined lhs covers ``objective``
    coefficient-wise in (a, b, c), minimizing the combined log N
    coefficient and then the exact constant term.

    Standard form: sum_j lambda_j lhs_j - s = need with lambda, s >= 0,
    row r's surplus column -e_r costing nothing.  For k <= min(3, m), k
    tight rows T, then a support S of k inequalities, the basis is S plus
    the surplus columns of the rows N outside T, solved by Cramer's rule.
    With rows permuted to (T, N) it is [[A_TS, 0], [A_NS, -I]]: singular
    exactly when A_TS is, with lambda_S = A_TS^-1 need_T, and s_N =
    A_NS lambda_S - need_N >= 0 exactly when the rows in N are covered.
    So x >= 0 means lambda >= 0 covering every row, x's cost is lambda's,
    and the first vertex of strictly least cost wins: the candidates and
    their order are those of solving A_TS alone and then checking each row.
    """
    if not ineqs:
        raise ValueError("inequality list must be nonempty")
    if objective.cn or objective.c2 or objective.c3:
        raise ValueError("objective must be a combination of a, b, c only")
    for ineq in ineqs:
        _require_split_form(ineq)

    # tableau columns: covering rows (ca, cb, cc), then cost rows (cn, c2, c3)
    m = len(ineqs)
    columns = [iq.lhs.coefficients()[:3] + iq.rhs.coefficients()[3:] for iq in ineqs]
    surplus = [tuple(Fraction(-1 if r == s else 0) for s in range(6)) for r in range(3)]
    need = (objective.ca, objective.cb, objective.cc)

    best_cost = best_vertex = None
    for k in range(0, min(3, m) + 1):
        for tight_rows in combinations(range(3), k):
            slack = [surplus[r] for r in range(3) if r not in tight_rows]
            for support in combinations(range(m), k):
                basis = [columns[j] for j in support] + slack
                det = _det3(*basis)
                if not det:
                    continue
                x = [_det3(*basis[:i], need, *basis[i + 1:]) / det for i in range(3)]
                if any(value < 0 for value in x):
                    continue
                cost = [sum(col[t] * v for col, v in zip(basis, x)) for t in (3, 4, 5)]
                if best_cost is None or _cost_less(cost, best_cost):
                    best_cost, best_vertex = cost, dict(zip(support, x))
    if best_vertex is None:
        raise Infeasible("objective is not covered by any nonnegative combination")
    best_lambda = [best_vertex.get(j, _ZERO) for j in range(m)]
    return Certificate(
        multipliers=tuple((iq.label, lam) for iq, lam in zip(ineqs, best_lambda)),
        derived=combine(ineqs, best_lambda),
    )


def _ineq(label: str, lhs: LogLinearForm, rhs: LogLinearForm) -> Inequality:
    return Inequality(lhs=lhs, rhs=rhs, label=label)


def known_inequalities() -> list[Inequality]:
    """The fourteen recorded inequalities, labelled by their lhs shape.

    The two-largest-primes product bound is stored as
    2b + 2c <= log N + (1/2)(log 2 + log 3): the recorded statement
    prints 2a + 2b, but only the b, c reading balances the recorded
    multiplier recipes (see :func:`literal_bc_inequality` for the
    as-printed variant)."""
    half = Fraction(1, 2)
    return [
        _ineq("3c", form(cc=3), form(cn=1, c3=1)),
        _ineq("2b+2c", form(cb=2, cc=2), form(cn=1, c2=half, c3=half)),
        _ineq("5b", form(cb=5), form(cn=1, c2=1)),
        _ineq("3a+2b+c", form(ca=3, cb=2, cc=1), form(cn=1, c2=1)),
        _ineq("5a+2b+c", form(ca=5, cb=2, cc=1), form(cn=1, c2=1)),
        _ineq("3a+2b+2c", form(ca=3, cb=2, cc=2), form(cn=1, c2=1)),
        _ineq("4b+2c", form(cb=4, cc=2), form(cn=1)),
        _ineq("2a+2b+3c", form(ca=2, cb=2, cc=3), form(cn=1, c2=1)),
        _ineq("3b+3c", form(cb=3, cc=3), form(cn=1)),
        _ineq("2a+3b+3c", form(ca=2, cb=3, cc=3), form(cn=1)),
        _ineq("2a+4b+c", form(ca=2, cb=4, cc=1), form(cn=1)),
        _ineq("a+c-2b", form(ca=1, cb=-2, cc=1), form(c2=1)),
        _ineq("a-b", form(ca=1, cb=-1), form()),
        _ineq("b-c", form(cb=1, cc=-1), form()),
    ]


def literal_bc_inequality() -> Inequality:
    """The as-printed variant 2a + 2b <= log N + (1/2) log 6."""
    half = Fraction(1, 2)
    return _ineq("2a+2b", form(ca=2, cb=2), form(cn=1, c2=half, c3=half))


@dataclass(frozen=True)
class CombinationCheck:
    """One recorded multiplier recipe, its exact recombination, and
    whether that recombination equals the frozen expected bound."""

    name: str
    multipliers: tuple[tuple[str, Fraction], ...]
    derived: Inequality
    expected_rhs: LogLinearForm
    matches: bool


@dataclass(frozen=True)
class Discrepancy:
    id: str
    detail: str


def known_combinations() -> list[tuple[str, dict[str, Fraction], LogLinearForm, LogLinearForm]]:
    """Recorded multiplier recipes as (name, label->multiplier,
    exact rhs, recorded rhs).  Recorded and exact differ for two
    entries; those produce discrepancy reports."""
    F = Fraction
    entries = [
        ("abc-11/18",
         {"3c": F(1, 9), "2b+2c": F(1, 6), "3a+2b+c": F(1, 3)},
         form(cn=F(11, 18), c2=F(5, 12), c3=F(7, 36)), None),
        ("abc-17/30",
         {"3c": F(1, 15), "2b+2c": F(3, 10), "5a+2b+c": F(1, 5)},
         form(cn=F(17, 30), c2=F(7, 20), c3=F(13, 60)), None),
        ("abc-17/36",
         {"3c": F(1, 18), "3a+2b+2c": F(1, 3), "4b+2c": F(1, 12)},
         form(cn=F(17, 36), c2=F(1, 3), c3=F(1, 18)), None),
        ("abc-3/7",
         {"a-b": F(1, 7), "b-c": F(2, 7), "2a+2b+3c": F(3, 7)},
         form(cn=F(3, 7), c2=F(3, 7)), None),
        ("abc-3/8",
         {"a-b": F(1, 4), "b-c": F(1, 8), "2a+3b+3c": F(3, 8)},
         form(cn=F(3, 8)), form(cn=F(17, 36))),
        ("abc-5/9",
         {"3c": F(2, 9), "a-b": F(1, 3), "2a+4b+c": F(1, 3)},
         form(cn=F(5, 9), c3=F(2, 9)), None),
        ("abc-3/5",
         {"5b": F(3, 5), "a+c-2b": F(1)},
         form(cn=F(3, 5), c2=F(8, 5)), form(cn=F(3, 5), c2=F(3, 5))),
    ]
    return [
        (name, mults, exact, exact if recorded is None else recorded)
        for name, mults, exact, recorded in entries
    ]


def verify_known_combinations() -> tuple[list[CombinationCheck], list[Discrepancy]]:
    """Recombine every recorded multiplier recipe exactly and report
    each place where a recorded claim differs from the recombination."""
    registry = known_inequalities()
    by_label = {iq.label: iq for iq in registry}
    checks: list[CombinationCheck] = []
    discrepancies: list[Discrepancy] = [
        Discrepancy(
            id="bc-form",
            detail=(
                "the recorded bound on the product of the two largest primes "
                "is printed as 2a+2b <= logN + (1/2)log6 but only the reading "
                "2b+2c balances the recorded multiplier recipes; the registry "
                "stores 2b+2c and keeps the printed form under label '2a+2b'"
            ),
        )
    ]

    for name, mults, exact_rhs, recorded_rhs in known_combinations():
        multipliers = [mults.get(iq.label, _ZERO) for iq in registry]
        derived = combine(registry, multipliers)
        used = tuple((iq.label, lam) for iq, lam in zip(registry, multipliers) if lam)
        matches = derived.rhs == exact_rhs and derived.lhs == form(ca=1, cb=1, cc=1)
        checks.append(CombinationCheck(name, used, derived, exact_rhs, matches))
        if recorded_rhs != exact_rhs:
            discrepancies.append(
                Discrepancy(
                    id=f"{name}-claim",
                    detail=(
                        f"recorded claim for {name} is "
                        f"{_describe_rhs(recorded_rhs)}; the exact combination "
                        f"gives {_describe_rhs(derived.rhs)}"
                    ),
                )
            )

    # Optimal two-largest-primes bound in the c | sigma(b^2) failure
    # case: recorded constants are 2*3^(1/3) (statement) and 2*3^(1/6)
    # (derivation); the exact optimum is 2^(1/4)*3^(1/6).  The case uses
    # b^4 c^2 < 2N, a factor of 2 looser than the registry's "4b+2c".
    b4c2_of_2n = _ineq("4b+2c<=N+2", form(cb=4, cc=2), form(cn=1, c2=1))
    cert = optimize(
        [b4c2_of_2n, by_label["3c"], by_label["b-c"]],
        form(cb=1, cc=1),
    )
    exact_bc = form(cn=Fraction(5, 12), c2=Fraction(1, 4), c3=Fraction(1, 6))
    checks.append(
        CombinationCheck(
            name="bc-5/12",
            multipliers=tuple((lab, lam) for lab, lam in cert.multipliers if lam),
            derived=cert.derived,
            expected_rhs=exact_bc,
            matches=cert.derived.rhs == exact_bc,
        )
    )
    discrepancies.append(
        Discrepancy(
            id="bc-5/12-constant",
            detail=(
                "recorded constants for the 5/12 bound are 2*3^(1/3) in the "
                "statement and 2*3^(1/6) in the derivation; the exact optimum "
                f"is {_describe_rhs(cert.derived.rhs)}, i.e. 2^(1/4)*3^(1/6)"
            ),
        )
    )
    return checks, discrepancies


def _describe_rhs(rhs: LogLinearForm) -> str:
    parts = []
    for coeff, name in ((rhs.cn, "logN"), (rhs.c2, "log2"), (rhs.c3, "log3")):
        if coeff:
            parts.append(f"({coeff}){name}")
    return " + ".join(parts) or "0"


def format_inequalities(ineqs: Iterable[Inequality]) -> str:
    """One inequality per line: ``label: ca cb cc <= cn c2 c3``."""
    lines = []
    for iq in ineqs:
        _require_split_form(iq)
        lines.append(
            f"{iq.label}: {iq.lhs.ca} {iq.lhs.cb} {iq.lhs.cc}"
            f" <= {iq.rhs.cn} {iq.rhs.c2} {iq.rhs.c3}"
        )
    return "\n".join(lines) + "\n"


def parse_inequalities(text: str) -> list[Inequality]:
    """Inverse of :func:`format_inequalities`; blank lines and lines
    starting with '#' are skipped.  Labels must be nonempty and distinct,
    so that a certificate's label-keyed multipliers rebuild it."""
    result = []
    seen: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        label, _, rest = line.partition(":")
        if not _:
            raise ValueError(f"line {line_no}: missing ':' after label")
        label = label.strip()
        if not label or label in seen:
            kind = "repeated" if label else "empty"
            raise ValueError(f"line {line_no}: {kind} label {label!r}")
        seen.add(label)
        lhs_part, sep, rhs_part = rest.partition("<=")
        if not sep:
            raise ValueError(f"line {line_no}: missing '<='")
        try:
            ca, cb, cc = (Fraction(tok) for tok in lhs_part.split())
            cn, c2, c3 = (Fraction(tok) for tok in rhs_part.split())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {line_no}: bad coefficients: {exc}") from exc
        result.append(
            _ineq(label, form(ca=ca, cb=cb, cc=cc), form(cn=cn, c2=c2, c3=c3))
        )
    return result
