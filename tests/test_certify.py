import contextlib
import hashlib
import io
import re
import shlex
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmapairs.certify import (
    Certificate,
    Inequality,
    Infeasible,
    Lhs,
    NegativeMultiplier,
    Rhs,
    combine,
    entails,
    format_inequalities,
    known_inequalities,
    literal_bc_inequality,
    optimize,
    parse_inequalities,
    verify_known_combinations,
)
from sigmapairs.cli import main as cli_main


def registry_map():
    return {iq.label: iq for iq in known_inequalities()}


class TestRegistry:
    def test_fourteen_entries_with_unique_labels(self):
        registry = known_inequalities()
        assert len(registry) == 14
        assert len({iq.label for iq in registry}) == 14

    def test_largest_prime_cube_entry_stored_unnormalized(self):
        entry = registry_map()["3c"]
        assert entry.lhs == Lhs(cc=3)
        assert entry.rhs == Rhs(cn=1, c3=1)

    def test_trivial_ordering_entries_have_zero_rhs(self):
        by_label = registry_map()
        assert by_label["a-b"].rhs == Rhs()
        assert by_label["b-c"].rhs == Rhs()
        assert by_label["a-b"].lhs == Lhs(ca=1, cb=-1)

    def test_bc_entry_uses_second_and_largest_primes(self):
        entry = registry_map()["2b+2c"]
        assert entry.lhs == Lhs(cb=2, cc=2)
        assert entry.rhs == Rhs(cn=1, c2=F(1, 2), c3=F(1, 2))

    def test_literal_variant_kept_under_distinct_label(self):
        literal = literal_bc_inequality()
        assert literal.label == "2a+2b"
        assert literal.lhs == Lhs(ca=2, cb=2)


class TestCombine:
    def test_eleven_eighteenths_combination(self):
        by_label = registry_map()
        derived = combine(
            [by_label["3c"], by_label["2b+2c"], by_label["3a+2b+c"]],
            [F(1, 9), F(1, 6), F(1, 3)],
        )
        assert derived.lhs == Lhs(ca=1, cb=1, cc=1)
        assert derived.rhs == Rhs(cn=F(11, 18), c2=F(5, 12), c3=F(7, 36))

    def test_seventeen_thirtieths_combination(self):
        by_label = registry_map()
        derived = combine(
            [by_label["3c"], by_label["2b+2c"], by_label["5a+2b+c"]],
            [F(1, 15), F(3, 10), F(1, 5)],
        )
        assert derived.lhs == Lhs(ca=1, cb=1, cc=1)
        assert derived.rhs == Rhs(cn=F(17, 30), c2=F(7, 20), c3=F(13, 60))

    def test_zero_multipliers_give_zero_inequality(self):
        derived = combine(known_inequalities(), [0] * 14)
        assert derived.lhs == Lhs()
        assert derived.rhs == Rhs()

    def test_rejects_negative_multiplier(self):
        with pytest.raises(NegativeMultiplier):
            combine(known_inequalities()[:1], [F(-1, 2)])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            combine(known_inequalities()[:2], [1])

    @given(
        lam=st.lists(st.fractions(min_value=0, max_value=3), min_size=14, max_size=14),
        mu=st.lists(st.fractions(min_value=0, max_value=3), min_size=14, max_size=14),
    )
    @settings(max_examples=50)
    def test_linearity(self, lam, mu):
        registry = known_inequalities()
        first, second = combine(registry, lam), combine(registry, mu)
        separate_lhs = Lhs(*map(sum, zip(first.lhs, second.lhs)))
        separate_rhs = Rhs(*map(sum, zip(first.rhs, second.rhs)))
        joint = combine(registry, [a + b for a, b in zip(lam, mu)])
        assert joint.lhs == separate_lhs
        assert joint.rhs == separate_rhs


class TestEntails:
    def test_identical_inequalities(self):
        derived = combine(known_inequalities()[:3], [1, 1, 1])
        assert entails(derived, derived)

    def test_smaller_rhs_coefficient_entails(self):
        target = known_inequalities()[0]
        tighter = type(target)(
            lhs=target.lhs, rhs=Rhs(cn=F(1, 2), c3=1), label="tighter"
        )
        assert entails(tighter, target)
        assert not entails(target, tighter)

    def test_coefficient_wise_only_no_slack_shuffling(self):
        # (11/18)logN + (5/12)log2 + (7/36)log3 does not coefficient-wise
        # entail (11/18)logN + 1*log2 even though numerically it would
        derived = type(known_inequalities()[0])(
            lhs=Lhs(ca=1, cb=1, cc=1),
            rhs=Rhs(cn=F(11, 18), c2=F(5, 12), c3=F(7, 36)),
            label="derived",
        )
        target = type(derived)(
            lhs=Lhs(ca=1, cb=1, cc=1),
            rhs=Rhs(cn=F(11, 18), c2=1),
            label="target",
        )
        assert not entails(derived, target)


class TestOptimize:
    def test_easy_abc_system_reaches_eleven_eighteenths(self):
        by_label = registry_map()
        system = [
            by_label["3c"], by_label["2b+2c"], by_label["3a+2b+c"],
            by_label["a-b"], by_label["b-c"],
        ]
        cert = optimize(system, Lhs(ca=1, cb=1, cc=1))
        assert cert.derived.rhs.cn == F(11, 18)
        assert dict(cert.multipliers) == {
            "3c": F(1, 9), "2b+2c": F(1, 6), "3a+2b+c": F(1, 3),
            "a-b": F(0), "b-c": F(0),
        }

    def test_certificate_soundness(self):
        by_label = registry_map()
        system = [
            by_label["3c"], by_label["2b+2c"], by_label["3a+2b+c"],
            by_label["a-b"], by_label["b-c"],
        ]
        cert = optimize(system, Lhs(ca=1, cb=1, cc=1))
        rebuilt = combine(system, [lam for _, lam in cert.multipliers])
        assert rebuilt.lhs == cert.derived.lhs
        assert rebuilt.rhs == cert.derived.rhs
        assert entails(cert.derived, cert.derived)

    def test_bc_five_twelfths_with_loosened_product_bound(self):
        by_label = registry_map()
        loosened = parse_inequalities("4b+2c<=N+2: 0 4 2 <= 1 1 0\n")[0]
        cert = optimize(
            [loosened, by_label["3c"], by_label["b-c"]], Lhs(cb=1, cc=1)
        )
        assert cert.derived.rhs == Rhs(cn=F(5, 12), c2=F(1, 4), c3=F(1, 6))

    def test_three_fifths_system(self):
        by_label = registry_map()
        cert = optimize(
            [by_label["5b"], by_label["a+c-2b"]], Lhs(ca=1, cb=1, cc=1)
        )
        assert cert.derived.rhs == Rhs(cn=F(3, 5), c2=F(8, 5))
        assert dict(cert.multipliers) == {"5b": F(3, 5), "a+c-2b": F(1)}

    def test_infeasible_objective(self):
        by_label = registry_map()
        with pytest.raises(Infeasible):
            optimize([by_label["b-c"]], Lhs(ca=1, cb=1, cc=1))

    def test_rejects_an_empty_system(self):
        with pytest.raises(ValueError, match="nonempty"):
            optimize([], Lhs(ca=1, cb=1, cc=1))

    def test_rejects_constant_terms_in_objective(self):
        # an objective is an Lhs, which has no logN, log2 or log3 slot
        with pytest.raises(TypeError, match="'cn'"):
            optimize(known_inequalities(), Lhs(ca=1, cn=1))

    @pytest.mark.parametrize(
        "lhs, rhs, stray",
        [
            (dict(cb=1, cn=1), dict(cn=1), "cn"),
            (dict(cb=1, c2=1), dict(cn=1), "c2"),
            (dict(cb=1, c3=1), dict(cn=1), "c3"),
            (dict(cb=1), dict(cn=1, ca=1), "ca"),
            (dict(cb=1), dict(cn=1, cb=1), "cb"),
            (dict(cb=1), dict(cn=1, cc=1), "cc"),
        ],
    )
    def test_rejects_an_inequality_not_in_split_form(self, lhs, rhs, stray):
        # Lhs holds only a, b, c and Rhs only logN, log2, log3, so a term
        # on the wrong side fails when the side is built
        with pytest.raises(TypeError, match=f"'{stray}'"):
            Inequality(lhs=Lhs(**lhs), rhs=Rhs(**rhs), label="mixed")

    def test_constant_tie_breaking_prefers_smaller_exact_value(self):
        # two routes to beta with equal logN cost but different constants:
        # log2 < log3 so the log2 route must win
        system = parse_inequalities(
            "via2: 0 1 0 <= 1 1 0\nvia3: 0 1 0 <= 1 0 1\n"
        )
        cert = optimize(system, Lhs(cb=1))
        assert dict(cert.multipliers)["via2"] == 1
        assert dict(cert.multipliers)["via3"] == 0

    def test_constant_comparison_is_exact_not_floating(self):
        # 8 log2 = log 256 > log 243 = 5 log3; exactness matters since
        # the values differ by ~2 percent
        system = parse_inequalities(
            "eight_twos: 0 1 0 <= 1 8 0\nfive_threes: 0 1 0 <= 1 0 5\n"
        )
        cert = optimize(system, Lhs(cb=1))
        assert dict(cert.multipliers)["five_threes"] == 1

    def test_frozen_log2_3_bracket_agrees_with_exact_powering(self):
        # the 200-digit bracket, the only comparison with log2 3, must lie
        # inside the interval that integer powering certifies
        from sigmapairs.certify import _LOG2_3_FLOOR, _LOG2_3_SCALE

        lower = F(_LOG2_3_FLOOR, _LOG2_3_SCALE)
        upper = F(_LOG2_3_FLOOR + 1, _LOG2_3_SCALE)
        for q in (10**3, 10**4, 10**5):
            p = (3**q).bit_length() - 1  # 2**p < 3**q < 2**(p+1)
            assert 3**q > 2**p
            assert F(p, q) < lower < upper < F(p + 1, q)

    def test_threshold_inside_the_bracket_is_refused(self):
        from sigmapairs.certify import _LOG2_3_FLOOR, _LOG2_3_SCALE, _compare_with_log2_3

        with pytest.raises(ValueError):
            _compare_with_log2_3(F(_LOG2_3_FLOOR, _LOG2_3_SCALE))

    def test_huge_denominator_costs_are_compared_quickly(self):
        # the bracket comparison is one cross-multiplication at any
        # denominator; integer powering explodes exponentially in it
        big = 10**9 + 7
        system = parse_inequalities(
            f"tiny2: 0 1 0 <= 1 15/{big} 0\nthree: 0 1 0 <= 1 0 1/100000000\n"
        )
        cert = optimize(system, Lhs(cb=1))
        # 15/big * log2 < (1/1e8) * log3 is false: 15/1e9 < 1/1e8 numerically
        assert dict(cert.multipliers)["tiny2"] == 1

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_system_certificates_are_sound(self, data):
        from sigmapairs.certify import Inequality, Infeasible

        coeff = st.integers(-2, 4)
        cost = st.fractions(min_value=0, max_value=3)
        size = data.draw(st.integers(1, 6))
        system = [
            Inequality(
                lhs=Lhs(ca=data.draw(coeff), cb=data.draw(coeff),
                         cc=data.draw(coeff)),
                rhs=Rhs(cn=data.draw(cost), c2=data.draw(cost),
                         c3=data.draw(cost)),
                label=f"r{i}",
            )
            for i in range(size)
        ]
        objective = Lhs(ca=data.draw(st.integers(0, 2)),
                         cb=data.draw(st.integers(0, 2)),
                         cc=data.draw(st.integers(0, 2)))
        try:
            cert = optimize(system, objective)
        except Infeasible:
            return
        multipliers = [lam for _, lam in cert.multipliers]
        assert all(lam >= 0 for lam in multipliers)
        rebuilt = combine(system, multipliers)
        assert rebuilt.lhs == cert.derived.lhs
        assert rebuilt.rhs == cert.derived.rhs
        for attr in ("ca", "cb", "cc"):
            assert getattr(cert.derived.lhs, attr) >= getattr(objective, attr)


# The covering LP by the tight-row enumeration: Gaussian elimination on
# each k x k tight-row block, then a pass over every inequality for
# coverage and cost.  optimize must match it certificate for certificate.
def _reference_solve_square(matrix, rhs):
    k = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][k] for i in range(k)]


def _reference_optimize(ineqs, objective):
    from sigmapairs.certify import _cost_less

    m = len(ineqs)
    rows = [[F(iq.lhs[r]) for iq in ineqs] for r in range(3)]
    need = [F(c) for c in objective]
    costs = [(iq.rhs.cn, iq.rhs.c2, iq.rhs.c3) for iq in ineqs]
    best_cost = best_lambda = None
    for k in range(min(3, m) + 1):
        for tight_rows in combinations(range(3), k):
            for support in combinations(range(m), k):
                matrix = [[rows[r][j] for j in support] for r in tight_rows]
                solution = _reference_solve_square(
                    matrix, [need[r] for r in tight_rows]
                )
                if solution is None or any(x < 0 for x in solution):
                    continue
                lam = [F(0)] * m
                for j, value in zip(support, solution):
                    lam[j] = value
                if any(sum(rows[r][j] * lam[j] for j in range(m)) < need[r]
                       for r in range(3)):
                    continue
                cost = [sum(costs[j][t] * lam[j] for j in range(m)) for t in range(3)]
                if best_cost is None or _cost_less(cost, best_cost):
                    best_cost, best_lambda = cost, lam
    if best_lambda is None:
        raise Infeasible("no covering combination")
    return Certificate(
        multipliers=tuple((iq.label, lam) for iq, lam in zip(ineqs, best_lambda)),
        derived=combine(ineqs, best_lambda),
    )


def _outcome(solver, ineqs, objective):
    try:
        return solver(ineqs, objective)
    except Infeasible:
        return Infeasible


class TestOptimizeMatchesReference:
    """The standard-form bases visit the same candidates in the same order
    as the tight-row enumeration, so even ties pick the same certificate."""

    @pytest.mark.parametrize("ca, cb, cc", list(product(range(-1, 4), repeat=3)))
    def test_every_small_objective_over_the_registry(self, ca, cb, cc):
        registry = known_inequalities()
        objective = Lhs(ca=ca, cb=cb, cc=cc)
        assert _outcome(optimize, registry, objective) == _outcome(
            _reference_optimize, registry, objective
        )

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_systems(self, data):
        # small coefficients and 0/1 costs make ties and degenerate bases
        # common, and ties are where the visiting order decides
        coeff = st.integers(-1, 2)
        cost = st.integers(0, 1)
        system = [
            Inequality(
                lhs=Lhs(ca=data.draw(coeff), cb=data.draw(coeff), cc=data.draw(coeff)),
                rhs=Rhs(cn=data.draw(cost), c2=data.draw(cost), c3=data.draw(cost)),
                label=f"r{i}",
            )
            for i in range(data.draw(st.integers(1, 8)))
        ]
        objective = Lhs(*(data.draw(st.integers(-1, 2)) for _ in range(3)))
        assert _outcome(optimize, system, objective) == _outcome(
            _reference_optimize, system, objective
        )


def _fraction_det3(c0, c1, c2):
    return (
        c0[0] * (c1[1] * c2[2] - c1[2] * c2[1])
        + c0[1] * (c1[2] * c2[0] - c1[0] * c2[2])
        + c0[2] * (c1[0] * c2[1] - c1[1] * c2[0])
    )


def _fraction_cramer_optimize(ineqs, objective):
    """The standard-form enumeration with every determinant, basis value
    and cost taken over Fractions: what the integer kernel replaced."""
    from sigmapairs.certify import _cost_less

    m = len(ineqs)
    columns = [tuple(map(F, iq.lhs + iq.rhs)) for iq in ineqs]
    surplus = [tuple(F(-1 if r == s else 0) for s in range(6)) for r in range(3)]
    need = tuple(map(F, objective))
    best_cost = best_vertex = None
    for k in range(0, min(3, m) + 1):
        for tight_rows in combinations(range(3), k):
            slack = [surplus[r] for r in range(3) if r not in tight_rows]
            for support in combinations(range(m), k):
                basis = [columns[j] for j in support] + slack
                det = _fraction_det3(*basis)
                if not det:
                    continue
                x = [_fraction_det3(*basis[:i], need, *basis[i + 1:]) / det for i in range(3)]
                if any(value < 0 for value in x):
                    continue
                cost = [sum(col[t] * v for col, v in zip(basis, x)) for t in (3, 4, 5)]
                if best_cost is None or _cost_less(cost, best_cost):
                    best_cost, best_vertex = cost, dict(zip(support, x))
    if best_vertex is None:
        raise Infeasible("no covering combination")
    best_lambda = [best_vertex.get(j, F(0)) for j in range(m)]
    return Certificate(
        multipliers=tuple((iq.label, lam) for iq, lam in zip(ineqs, best_lambda)),
        derived=combine(ineqs, best_lambda),
    )


class TestIntegerKernelMatchesFractionCramer:
    """Scaling each column by the lcm of its denominators keeps every
    determinant's sign and every vertex's exact values, so the integer
    kernel returns the Fraction kernel's certificate, ties included."""

    @pytest.mark.parametrize("ca, cb, cc", list(product(range(-1, 4), repeat=3)))
    def test_every_small_objective_over_the_registry(self, ca, cb, cc):
        registry = known_inequalities()
        objective = Lhs(ca=ca, cb=cb, cc=cc)
        assert _outcome(optimize, registry, objective) == _outcome(
            _fraction_cramer_optimize, registry, objective
        )

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_systems_with_small_denominators(self, data):
        coeff = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
        cost = st.builds(F, st.integers(0, 2), st.integers(1, 3))
        system = [
            Inequality(
                lhs=Lhs(ca=data.draw(coeff), cb=data.draw(coeff), cc=data.draw(coeff)),
                rhs=Rhs(cn=data.draw(cost), c2=data.draw(cost), c3=data.draw(cost)),
                label=f"r{i}",
            )
            for i in range(data.draw(st.integers(1, 8)))
        ]
        objective = Lhs(*(data.draw(coeff) for _ in range(3)))
        assert _outcome(optimize, system, objective) == _outcome(
            _fraction_cramer_optimize, system, objective
        )

    @pytest.mark.parametrize("lhs, objective", [
        ([(0, 1, 0)], (1, 0, 0)),
        ([(F(-1, 2), 0, 0), (0, F(2, 3), 0)], (F(1, 3), F(1, 5), 0)),
        ([(1, -1, 0), (0, 1, -1)], (0, 0, F(1, 7))),
    ])
    def test_infeasible_from_both(self, lhs, objective):
        system = [
            Inequality(lhs=Lhs(*coeffs), rhs=Rhs(cn=1), label=f"r{i}")
            for i, coeffs in enumerate(lhs)
        ]
        target = Lhs(*objective)
        assert _outcome(optimize, system, target) is Infeasible
        assert _outcome(_fraction_cramer_optimize, system, target) is Infeasible


class TestVerification:
    def test_all_recorded_combinations_reproduce_exactly(self):
        checks, _ = verify_known_combinations()
        assert all(check.matches for check in checks)
        names = {check.name for check in checks}
        assert {"abc-11/18", "abc-17/30", "abc-17/36", "abc-3/7",
                "abc-3/8", "abc-5/9", "abc-3/5", "bc-5/12"} == names

    def test_exact_constants_of_the_headline_combinations(self):
        checks, _ = verify_known_combinations()
        by_name = {check.name: check for check in checks}
        assert by_name["abc-11/18"].derived.rhs == Rhs(
            cn=F(11, 18), c2=F(5, 12), c3=F(7, 36)
        )
        assert by_name["abc-17/30"].derived.rhs == Rhs(
            cn=F(17, 30), c2=F(7, 20), c3=F(13, 60)
        )
        assert by_name["abc-17/36"].derived.rhs == Rhs(
            cn=F(17, 36), c2=F(1, 3), c3=F(1, 18)
        )
        assert by_name["abc-3/7"].derived.rhs == Rhs(cn=F(3, 7), c2=F(3, 7))
        assert by_name["abc-3/8"].derived.rhs == Rhs(cn=F(3, 8))
        assert by_name["abc-5/9"].derived.rhs == Rhs(cn=F(5, 9), c3=F(2, 9))

    def test_discrepancies_reported(self):
        _, discrepancies = verify_known_combinations()
        ids = {d.id for d in discrepancies}
        assert ids == {
            "bc-form", "abc-3/8-claim", "abc-3/5-claim", "bc-5/12-constant",
        }

    def test_three_fifths_constant_discrepancy_detail(self):
        _, discrepancies = verify_known_combinations()
        detail = next(d.detail for d in discrepancies if d.id == "abc-3/5-claim")
        assert "(8/5)log2" in detail
        assert "(3/5)log2" in detail


class TestInequalityFiles:
    def test_round_trip(self):
        registry = known_inequalities()
        text = format_inequalities(registry)
        parsed = parse_inequalities(text)
        assert parsed == registry

    def test_comments_and_blanks_skipped(self):
        parsed = parse_inequalities("# comment\n\n3c: 0 0 3 <= 1 0 1\n")
        assert len(parsed) == 1
        assert parsed[0].label == "3c"

    def test_fraction_coefficients(self):
        parsed = parse_inequalities("x: 1/2 -2 1/3 <= 11/18 0 7/36\n")
        assert parsed[0].lhs == Lhs(ca=F(1, 2), cb=-2, cc=F(1, 3))
        assert parsed[0].rhs == Rhs(cn=F(11, 18), c3=F(7, 36))

    @pytest.mark.parametrize(
        "bad",
        ["no colon here", "x: 1 2 <= 1 2 3", "x: 1 2 3 <= 1 2", "x: a b c <= 1 2 3",
         "x: 1 2 3 < 1 2 3", "x: 1/0 2 3 <= 1 2 3"],
    )
    def test_rejects_malformed_lines(self, bad):
        with pytest.raises(ValueError):
            parse_inequalities(bad + "\n")

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError, match="line 2: empty label ''"):
            parse_inequalities("x: 0 1 0 <= 1 0 0\n  : 0 1 0 <= 1 0 0\n")

    def test_rejects_repeated_label(self):
        # two lines labelled x would print one multiplier for x, and the
        # label-keyed certificate could not rebuild its own bound
        with pytest.raises(ValueError, match="line 3: repeated label 'x'"):
            parse_inequalities("x: 0 1 0 <= 1 0 0\n\nx : 0 0 1 <= 1 0 0\n")


# The inequality file that README shows for ``certify --ineqs``.
_README_INEQS = (
    "3c: 0 0 3 <= 1 0 1\n"
    "2b+2c: 0 2 2 <= 1 1/2 1/2\n"
    "a-b: 1 -1 0 <= 0 0 0\n"
)

# Both modes in both formats, every objective in {-1..3}^3, the README
# file, and the error paths; the file is read from a fixed relative
# path, since ``params`` echoes it.
_CERTIFY_RUNS = [
    ("certify",),
    ("certify", "--json"),
    ("certify", "--optimize"),
    ("certify", "--optimize", "--json"),
    *(
        ("certify", "--optimize", "--objective", f"{ca} {cb} {cc}", "--json")
        for ca, cb, cc in product(range(-1, 4), repeat=3)
    ),
    ("certify", "--optimize", "--ineqs", "readme.ineq"),
    ("certify", "--optimize", "--ineqs", "readme.ineq", "--json"),
    ("certify", "--optimize", "--objective", "1 1", "--json"),
    ("certify", "--optimize", "--objective", "1 1 1/0", "--json"),
    ("certify", "--ineqs", "readme.ineq", "--json"),
]

CERTIFY_DIGEST = "5fc393647d31045996f0e5451b4b85b763ac8fca78da00cc12898ea24c43d3f1"


def test_certify_outputs_match_their_digest(tmp_path, monkeypatch):
    # exit code, stdout with elapsed_ms masked, and stderr of each run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "readme.ineq").write_text(_README_INEQS, encoding="ascii")
    digest = hashlib.sha256()
    for argv in _CERTIFY_RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
        stdout = re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', out.getvalue())
        digest.update(f"{shlex.join(argv)}\n{code}\n{stdout}\0{err.getvalue()}\0".encode())
    assert len(_CERTIFY_RUNS) == 134
    assert digest.hexdigest() == CERTIFY_DIGEST
