import argparse
import importlib
import json
import os
import pkgutil
import re
import shlex
import signal
import subprocess
import sys
import time

import pytest

import sigmapairs
from conftest import UNUSABLE_CHECKPOINTS, json_doc, results_only
from sigmapairs import arith, cli, oracles, search


class TestChainCommand:
    def test_text_output(self, run_cli):
        code, out = run_cli("chain", "--m", "2", "--terms", "6")
        assert code == 0
        assert out.strip() == "1 1 3 13 61 291"

    def test_json_round_trip(self, run_cli):
        code, out = run_cli("chain", "--m", "2", "--terms", "10", "--json")
        assert code == 0
        doc = json_doc(out)
        assert doc["command"] == "chain"
        assert doc["params"] == {"m": 2, "terms": 10}
        values = [int(r["value"]) for r in doc["results"]]
        assert values[:5] == [1, 1, 3, 13, 61]
        assert all(isinstance(r["value"], str) for r in doc["results"])

    def test_bad_terms_is_precondition_error(self, run_cli):
        code, _ = run_cli("chain", "--m", "2", "--terms", "0")
        assert code == 2

    def test_zero_exponent_is_precondition_error(self, run_cli):
        # two terms take no step, so only chain_terms' own check rejects m = 0
        assert run_cli("chain", "--m", "0", "--terms", "2") == (2, "")

    def test_every_serialized_integer_round_trips(self, run_cli):
        from sigmapairs.chains import chain_terms

        _, out = run_cli("chain", "--m", "2", "--terms", "120", "--json")
        values = [int(r["value"]) for r in json_doc(out)["results"]]
        assert values == chain_terms(2, 120)
        assert all(str(v) == r["value"]
                   for v, r in zip(values, json_doc(out)["results"]))

    def test_terms_beyond_the_interpreter_conversion_guard(self, run_cli):
        # m = 3 term sizes grow by a factor of (3+sqrt(5))/2 per step;
        # term 12 has 4397 digits, past the default 4300-digit int/str
        # conversion guard that would otherwise abort rendering
        code, out = run_cli("chain", "--m", "3", "--terms", "12", "--json")
        assert code == 0
        last = json_doc(out)["results"][-1]["value"]
        assert len(last) > 4300
        assert int(last) > 0


@pytest.fixture
def no_walk(monkeypatch):
    """Fail the test if the search takes a chain step."""

    def no_step(*args):
        raise AssertionError("the walk took a step")

    monkeypatch.setattr(search, "sigma_power", no_step)


class TestSearchCommand:
    def test_known_pairs(self, run_cli):
        code, out = run_cli("search", "--m", "2", "--digits", "20", "--json")
        assert code == 0
        doc = json_doc(out)
        assert [(r["index"], r["p"], r["q"]) for r in doc["results"]] == [
            (3, "3", "13"),
            (4, "13", "61"),
            (22, "22419767768701", "107419560853453"),
        ]
        assert doc["params"]["mr_rounds"] == 40

    def test_big_integers_are_decimal_strings(self, run_cli):
        _, out = run_cli("search", "--m", "2", "--digits", "20", "--json")
        for record in json_doc(out)["results"]:
            assert int(record["p"]) >= 3
            assert record["q_verdict"]["status"] in ("prime", "probable-prime")

    def test_repeat_runs_identical_up_to_elapsed(self, run_cli):
        _, first = run_cli("search", "--m", "2", "--digits", "20", "--json")
        _, second = run_cli("search", "--m", "2", "--digits", "20", "--json")
        a, b = json_doc(first), json_doc(second)
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        assert json.dumps(a) == json.dumps(b)

    def test_resume_from_checkpoint(self, run_cli, tmp_path):
        path = str(tmp_path / "walk.ck")
        _, base = run_cli("search", "--m", "2", "--digits", "20", "--json")
        code, _ = run_cli(
            "search", "--m", "2", "--digits", "20", "--json",
            "--checkpoint", path, "--max-steps", "4",
        )
        assert code == 0
        code, resumed = run_cli(
            "search", "--m", "2", "--digits", "20", "--json", "--checkpoint", path
        )
        assert code == 0
        assert results_only(resumed) == results_only(base)

    def test_corrupt_checkpoint_is_status_3(self, run_cli, tmp_path):
        path = tmp_path / "walk.ck"
        path.write_text("sigma-chain-checkpoint v9\nm=2\n")
        code, _ = run_cli(
            "search", "--m", "2", "--digits", "20", "--checkpoint", str(path)
        )
        assert code == 3

    def test_invalid_seed_is_precondition_error(self, run_cli):
        code, _ = run_cli("search", "--m", "2", "--digits", "5", "--seed", "2,5")
        assert code == 2

    def test_seed_of_three_terms_is_precondition_error(self, run_cli):
        code, out = run_cli("search", "--m", "2", "--digits", "5", "--seed", "1,2,3")
        assert (code, out) == (2, "")

    def test_zero_rounds_is_precondition_error(self, run_cli):
        code, _ = run_cli("search", "--m", "2", "--digits", "5", "--mr-rounds", "0")
        assert code == 2

    def test_m1_is_precondition_error(self, run_cli):
        # the m = 1 chain has period 5 and never reaches the digits limit;
        # the step cap only keeps a regression from walking forever
        code, out = run_cli(
            "search", "--m", "1", "--digits", "5", "--max-steps", "100"
        )
        assert (code, out) == (2, "")
        assert run_cli("chain", "--m", "1", "--terms", "7") == (0, "1 1 2 3 2 1 1\n")

    def test_empty_checkpoint_path_is_precondition_error(
        self, run_cli, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code, out = run_cli("search", "--m", "2", "--digits", "20", "--checkpoint", "")
        assert (code, out) == (2, "")
        assert list(tmp_path.iterdir()) == []

    def test_directory_as_checkpoint_is_found_before_the_walk(
        self, run_cli, tmp_path, monkeypatch, no_walk
    ):
        # exit 3 is for corrupt checkpoints; a directory is no checkpoint
        monkeypatch.chdir(tmp_path)
        (tmp_path / "walk.ck").mkdir()
        (tmp_path / "walk.ck" / "keep.txt").write_text("kept\n")
        code, out = run_cli(
            "search", "--m", "2", "--digits", "300", "--checkpoint", "walk.ck"
        )
        assert (code, out) == (2, "")
        assert [p.name for p in tmp_path.iterdir()] == ["walk.ck"]
        assert [p.name for p in (tmp_path / "walk.ck").iterdir()] == ["keep.txt"]
        assert (tmp_path / "walk.ck" / "keep.txt").read_text() == "kept\n"

    def test_missing_checkpoint_directory_is_found_before_the_walk(
        self, run_cli, tmp_path, monkeypatch, no_walk
    ):
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(
            "search", "--m", "2", "--digits", "300",
            "--checkpoint", os.path.join("nodir", "x.ck"),
            "--checkpoint-every", "100000",
        )
        assert (code, out) == (2, "")
        assert list(tmp_path.iterdir()) == []

    def test_non_ascii_checkpoint_is_status_3(self, run_cli, tmp_path, capsys):
        path = tmp_path / "walk.ck"
        path.write_bytes(b"sigma-chain-checkpoint v1\nm=2\nn=5\nprev=13\ncurr=61\xff\n")
        code, _ = run_cli(
            "search", "--m", "2", "--digits", "20", "--checkpoint", str(path)
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("checkpoint error:")

    @pytest.mark.parametrize("text, error", UNUSABLE_CHECKPOINTS)
    def test_unusable_checkpoint_is_status_3(
        self, run_cli, tmp_path, capsys, text, error
    ):
        path = tmp_path / "walk.ck"
        path.write_text(text, encoding="ascii")
        assert run_cli(
            "search", "--m", "2", "--digits", "20", "--checkpoint", str(path)
        ) == (3, "")
        assert capsys.readouterr().err.startswith("checkpoint error:")

    def test_a_resume_validates_its_checkpoint_once(self, run_cli, tmp_path, monkeypatch):
        path = str(tmp_path / "walk.ck")
        assert run_cli(
            "search", "--m", "2", "--digits", "20", "--checkpoint", path
        )[0] == 0
        assert len(search.load_checkpoint(path).found) == 3
        checked = []
        is_quasisolution = search.is_quasisolution
        monkeypatch.setattr(search, "is_quasisolution", lambda p, q, m: (
            checked.append((p, q)) or is_quasisolution(p, q, m)))
        assert run_cli(
            "search", "--m", "2", "--digits", "20", "--checkpoint", path,
            "--max-steps", "1",
        )[0] == 0
        # the state and each recorded pair, each checked once
        assert len(checked) == len(set(checked)) == 4


class TestSeedsCommand:
    def test_m4_seed_list(self, run_cli):
        code, out = run_cli("seeds", "--m", "4", "--bound", "1000", "--json")
        assert code == 0
        doc = json_doc(out)
        assert [(r["p"], r["q"]) for r in doc["results"]] == [
            ("1", "1"), ("5", "11"), ("61", "131"), ("101", "491"),
        ]

    def test_text_output(self, run_cli):
        code, out = run_cli("seeds", "--m", "2", "--bound", "100")
        assert code == 0
        assert out.strip() == "1 1"


class TestResiduesCommand:
    def test_mod_11(self, run_cli):
        code, out = run_cli("residues", "--mod", "11", "--json")
        assert code == 0
        results = json_doc(out)["results"]
        assert results["period"] == 12
        assert results["cycle"] == ["1", "1", "3", "2", "6", "5", "7", "7", "5", "6", "2", "3"]
        assert results["palindromic"] is True

    def test_mod_7_and_9(self, run_cli):
        # the division-free step takes moduli with a prime divisor
        # = 1 (mod 3), such as 7, and multiples of 3, such as 9
        for w, period in (("7", 14), ("9", 9)):
            code, out = run_cli("residues", "--mod", w, "--json")
            assert code == 0, w
            assert json_doc(out)["results"]["period"] == period, w

    @pytest.mark.parametrize("w", ["1", "0", "-3"])
    def test_modulus_below_two_is_precondition_error(self, run_cli, w):
        assert run_cli("residues", "--mod", w) == (2, "")

    def test_modulus_above_10_to_6_is_precondition_error(self, run_cli):
        # the period can grow linearly with the modulus, so a huge one is
        # refused rather than stepped
        assert run_cli("residues", "--mod", "1000001") == (2, "")
        code, out = run_cli("residues", "--mod", "1000000")
        assert code == 0
        assert out.startswith("modulus 1000000: period 75000, palindromic true\n")


class TestLemmasCommand:
    def test_only_p1q1(self, run_cli):
        code, out = run_cli("lemmas", "--only", "p1q1", "--bound", "100", "--json")
        assert code == 0
        (report,) = json_doc(out)["results"]
        assert report["agrees"] is True
        assert report["witnesses"] == [
            ["1", "1"], ["1", "2"], ["2", "1"], ["2", "3"], ["3", "2"],
        ]

    def test_gcd_disagreement_gives_status_3(self, run_cli):
        code, out = run_cli("lemmas", "--only", "gcd", "--json")
        assert code == 3
        (report,) = json_doc(out)["results"]
        assert report["agrees"] is False
        assert ["8", "7"] in report["witnesses"]

    def test_unknown_id_is_usage_error(self, run_cli):
        code, _ = run_cli("lemmas", "--only", "nope")
        assert code == 64

    def test_zero_bound_is_passed_on(self, run_cli):
        code, out = run_cli("lemmas", "--only", "p1q1", "--bound", "0", "--json")
        assert code == 0
        doc = json_doc(out)
        assert doc["params"]["bound"] == "0"
        assert [r["bound"] for r in doc["results"]] == ["0"]

    def test_zero_bound_too_small_for_gcd_is_precondition_error(self, run_cli):
        code, _ = run_cli("lemmas", "--only", "gcd", "--bound", "0")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--only", "gcd", "--bound", "10001"),
        ("--only", "linked", "--bound", "10000001"),
        ("--only", "s_classification", "--bound", "10000001"),
        ("--bound", "100000"),
    ])
    def test_bound_past_its_limit_is_refused_before_any_work(
            self, argv, run_cli, monkeypatch):
        # every oracle that sieves primes or walks the chain would raise
        def fail(bound):
            raise AssertionError(f"oracle work started at {bound}")

        monkeypatch.setattr(oracles, "_chain", fail)
        monkeypatch.setattr(oracles, "_primes_up_to", fail)
        assert run_cli("lemmas", *argv) == (2, "")

    @pytest.mark.parametrize("argv", [
        ("--only", "gcd", "--bound", "10000"),
        ("--only", "pqr", "--bound", "10000000"),
    ])
    def test_bound_at_its_limit_is_run(self, argv, run_cli, monkeypatch):
        class Started(Exception):
            pass

        def started(bound):
            raise Started

        monkeypatch.setattr(oracles, "_chain", started)
        monkeypatch.setattr(oracles, "_primes_up_to", started)
        with pytest.raises(Started):
            run_cli("lemmas", *argv)

    def test_all_lemmas_runs_and_reports(self, run_cli):
        code, out = run_cli("lemmas", "--bound", "50", "--json")
        results = json_doc(out)["results"]
        assert len(results) == 10
        disagreeing = [r["lemma_id"] for r in results if not r["agrees"]]
        assert disagreeing == ["gcd"]
        assert code == 3


class TestCertifyCommand:
    def test_verify_mode_reports_checks_and_discrepancies(self, run_cli):
        code, out = run_cli("certify", "--json")
        assert code == 0
        doc = json_doc(out)
        assert all(check["matches"] for check in doc["results"]["checks"])
        ids = {d["id"] for d in doc["discrepancies"]}
        assert ids == {"bc-form", "abc-3/8-claim", "abc-3/5-claim",
                       "bc-5/12-constant"}

    def test_default_mode_is_verify(self, run_cli):
        code, out = run_cli("certify", "--json")
        assert code == 0
        assert "checks" in json_doc(out)["results"]

    def test_optimize_mode_over_full_registry(self, run_cli):
        # the registry mixes inequalities from mutually exclusive case
        # analyses, so the unconstrained optimum (3/8, via the dense
        # constant-free 2a+3b+3c entry) is below any single case's bound
        code, out = run_cli("certify", "--optimize", "--json")
        assert code == 0
        derived = json_doc(out)["results"]["certificate"]["derived"]
        assert derived["rhs"]["cn"] == "3/8"
        assert derived["lhs"] == {"ca": "1", "cb": "1", "cc": "1",
                                  "cn": "0", "c2": "0", "c3": "0"}

    def test_optimize_easy_abc_file_gives_eleven_eighteenths(self, run_cli, tmp_path):
        path = tmp_path / "easy.ineq"
        path.write_text(
            "3c: 0 0 3 <= 1 0 1\n"
            "2b+2c: 0 2 2 <= 1 1/2 1/2\n"
            "3a+2b+c: 3 2 1 <= 1 1 0\n"
            "a-b: 1 -1 0 <= 0 0 0\n"
            "b-c: 0 1 -1 <= 0 0 0\n"
        )
        code, out = run_cli("certify", "--optimize", "--ineqs", str(path), "--json")
        assert code == 0
        derived = json_doc(out)["results"]["certificate"]["derived"]
        assert derived["rhs"]["cn"] == "11/18"
        assert derived["rhs"]["c2"] == "5/12"
        assert derived["rhs"]["c3"] == "7/36"

    def test_optimize_from_file(self, run_cli, tmp_path):
        path = tmp_path / "system.ineq"
        path.write_text("5b: 0 5 0 <= 1 1 0\na+c-2b: 1 -2 1 <= 0 1 0\n")
        code, out = run_cli(
            "certify", "--optimize", "--ineqs", str(path), "--json"
        )
        assert code == 0
        doc = json_doc(out)
        assert doc["results"]["certificate"]["derived"]["rhs"]["cn"] == "3/5"
        assert doc["results"]["certificate"]["derived"]["rhs"]["c2"] == "8/5"

    @pytest.mark.parametrize("objective", ["1/0 1 1", "1 1", "1 1 1 0"])
    def test_malformed_objective_is_precondition_error(self, run_cli, objective):
        code, out = run_cli("certify", "--optimize", "--objective", objective)
        assert (code, out) == (2, "")

    def test_ineqs_without_optimize_is_usage_error(self, run_cli, tmp_path):
        # the file is never opened: a missing one would otherwise exit 2
        missing = str(tmp_path / "missing.ineq")
        code, out = run_cli("certify", "--ineqs", missing, "--json")
        assert (code, out) == (64, "")

    @pytest.mark.parametrize(
        "argv, expected",
        [(("certify", "--ineqs", ""), 64), (("certify", "--optimize", "--ineqs", ""), 2)],
        ids=["verify", "optimize"],
    )
    def test_empty_ineqs_is_not_ignored(self, run_cli, argv, expected):
        assert run_cli(*argv) == (expected, "")

    @pytest.mark.parametrize("objective", ["1 1 1", "garbage", "1/0 1 1"])
    def test_objective_without_optimize_is_usage_error(self, run_cli, objective):
        code, out = run_cli("certify", "--objective", objective, "--json")
        assert (code, out) == (64, "")

    def test_objective_is_echoed_in_optimize_mode_only(self, run_cli):
        _, verify = run_cli("certify", "--json")
        _, optimize = run_cli("certify", "--optimize", "--json")
        assert json_doc(verify)["params"]["objective"] is None
        assert json_doc(optimize)["params"]["objective"] == "1 1 1"

    @pytest.mark.parametrize(
        "text",
        ["x: 0 1 0 <= 1 0 0\nx: 0 0 1 <= 1 0 0\n", ": 0 1 0 <= 1 0 0\n"],
        ids=["repeated", "empty"],
    )
    def test_unusable_label_is_precondition_error(self, run_cli, tmp_path, text):
        path = tmp_path / "system.ineq"
        path.write_text(text)
        code, out = run_cli(
            "certify", "--optimize", "--objective", "0 1 1", "--ineqs", str(path), "--json"
        )
        assert (code, out) == (2, "")

    def test_infeasible_system_is_precondition_error(self, run_cli, tmp_path):
        path = tmp_path / "system.ineq"
        path.write_text("b-c: 0 1 -1 <= 0 0 0\n")
        code, _ = run_cli("certify", "--optimize", "--ineqs", str(path))
        assert code == 2


class TestHeuristicCommand:
    def test_json_fields(self, run_cli):
        code, out = run_cli("heuristic", "--from", "30", "--json")
        assert code == 0
        results = json_doc(out)["results"]
        assert results["value"] == pytest.approx(
            results["exact_sum"] + results["tail_bound"]
        )
        assert results["value"] > 0

    def test_horizon_below_start_reports_the_same_growth_offset(self, run_cli):
        _, out = run_cli("heuristic", "--from", "30", "--json")
        offset = json_doc(out)["results"]["growth_offset"]
        code, out = run_cli("heuristic", "--from", "30", "--horizon", "10", "--json")
        assert code == 0
        results = json_doc(out)["results"]
        assert results["growth_offset"] == offset > 0
        assert results["value"] == results["exact_sum"] == results["tail_bound"] == 0.0


class TestSquaresCommand:
    def test_probe_rows(self, run_cli):
        code, out = run_cli(
            "squares", "--terms", "6", "--trial-bound", "1000", "--json"
        )
        assert code == 0
        results = json_doc(out)["results"]
        assert len(results) == 6
        assert results[2] == {"n": 3, "l_lower": "1", "s_lower": "1"}
        assert results[0]["s_lower"] == "9"

    def test_trial_bound_is_capped_at_10_to_7(self, run_cli, monkeypatch):
        code, out = run_cli("squares", "--terms", "3", "--trial-bound", "10000000", "--json")
        assert code == 0
        default = run_cli("squares", "--terms", "3", "--json")[1]
        assert json_doc(out)["results"] == json_doc(default)["results"]

        def sieve(*args):
            raise AssertionError("sieved past the cap")

        monkeypatch.setattr(arith, "_sieve", sieve)
        assert run_cli("squares", "--terms", "3", "--trial-bound", "10000001") == (2, "")


class TestUsageErrors:
    def test_unknown_subcommand(self, run_cli):
        code, _ = run_cli("frobnicate")
        assert code == 64

    def test_missing_required_flag(self, run_cli):
        code, _ = run_cli("chain")
        assert code == 64

    def test_non_integer_flag(self, run_cli):
        code, _ = run_cli("chain", "--m", "2", "--terms", "many")
        assert code == 64

    @pytest.mark.parametrize("argv", [
        ["residues", "--mod", "11", "--max-steps", "5"],
        ["heuristic", "--from", "30", "--exact-terms", "100"],
        ["search", "--m", "2", "--digits", "5", "--threads", "1"],
        ["certify", "--verify-paper"],
    ])
    def test_retired_flags(self, run_cli, argv):
        assert run_cli(*argv) == (64, "")

    def test_a_reused_parser_keeps_no_state(self, run_cli):
        assert cli._build_parser() is cli._build_parser()
        plain = ("search", "--m", "2", "--digits", "5", "--json")

        def params(*argv):
            code, out = run_cli(*argv)
            assert code == 0
            return json_doc(out)["params"]

        expected = params(*plain)
        assert expected["checkpoint_every"] == 25
        assert params(*plain[:-1], "--checkpoint-every", "1", "--json")[
            "checkpoint_every"] == 1
        assert params(*plain) == expected
        with pytest.raises(SystemExit) as exit_info:
            run_cli("search", "--seed", "5,11", "--help")
        assert exit_info.value.code == 0
        assert params(*plain) == expected
        assert run_cli("search", "--m", "4", "--checkpoint-every", "7",
                       "--mr-rounds", "many") == (64, "")
        assert params(*plain) == expected


def _package_exceptions():
    """Every Exception subclass defined in a ``sigmapairs`` module."""
    found = []
    for info in pkgutil.iter_modules(sigmapairs.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"sigmapairs.{info.name}")
        found += [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, Exception)
            and obj.__module__ == module.__name__
        ]
    return found


_NOT_PRECONDITION_ERRORS = {
    search.CheckpointFormatError, search.CheckpointMismatch, cli.UsageError,
}


class TestExitStatusRule:
    """``main`` maps exit 2 from ValueError alone, so every precondition
    error must be one; checkpoint errors must not, as they exit 3.  The
    classes are collected from the package, so a new error class is
    checked without being listed here."""

    @pytest.mark.parametrize("error", [
        error for error in _package_exceptions()
        if error not in _NOT_PRECONDITION_ERRORS
    ])
    def test_precondition_errors_are_value_errors(self, error):
        assert issubclass(error, ValueError)

    def test_collection_sees_the_exempt_classes(self):
        assert _NOT_PRECONDITION_ERRORS <= set(_package_exceptions())

    @pytest.mark.parametrize(
        "error", [search.CheckpointFormatError, search.CheckpointMismatch]
    )
    def test_checkpoint_errors_are_not_value_errors(self, error):
        assert not issubclass(error, ValueError)


def _readme() -> str:
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def test_readme_command_table_lists_every_flag():
    rows = re.findall(r"^\| `([a-z]+)([^`]*)`", _readme(), re.MULTILINE)
    documented = {name: set(re.findall(r"--[a-z][a-z-]*", rest)) for name, rest in rows}
    subparsers = next(
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    declared = {
        name: {
            flag for action in parser._actions for flag in action.option_strings
            if flag.startswith("--")
        } - {"--json", "--help"}
        for name, parser in subparsers.choices.items()
    }
    assert documented == declared


def test_readme_examples_run(run_cli, tmp_path, monkeypatch):
    readme = _readme()
    block = re.search(r"^Examples:\n\n```sh\n(.*?)^```", readme, re.M | re.S)[1]
    commands = [
        shlex.split(line)[3:]
        for line in block.splitlines()
        if line.startswith("python -m sigmapairs ")
    ]
    assert len(commands) == len(block.splitlines())
    low, high, recipe = re.search(
        r"for w in \$\(seq (\d+) (\d+)\); do python -m sigmapairs ([^;]+); done",
        readme,
    ).groups()
    assert (low, high) == ("2", "50")
    commands += [
        shlex.split(recipe.replace("$w", str(w))) for w in range(int(low), int(high) + 1)
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run_cli(*argv)[0] == 0, argv


class TestModuleEntryPoint:
    """``python -m sigmapairs`` runs the same CLI in a fresh interpreter."""

    @staticmethod
    def run_module(*argv):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "sigmapairs", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_chain(self):
        proc = self.run_module("chain", "--terms", "5")
        assert (proc.returncode, proc.stdout) == (0, "1 1 3 13 61\n")

    def test_missing_digits_is_usage_error(self):
        proc = self.run_module("search")
        assert proc.returncode == 64
        assert "--digits" in proc.stderr

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="the search forks no workers on one CPU",
    )
    def test_interrupt_ends_the_pool_and_leaves_a_resumable_checkpoint(
        self, run_cli, tmp_path
    ):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        ck = tmp_path / "ck"
        # a state is written only once the pairs before it are confirmed, so
        # a walk that could end soon might write its first state past index
        # 741 just before it exits; the walk to 4000 digits runs for minutes
        proc = subprocess.Popen(
            [sys.executable, "-m", "sigmapairs", "search", "--m", "2",
             "--digits", "4000", "--checkpoint", str(ck)],
            cwd=tmp_path, start_new_session=True, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        try:
            # the pair at index 739 is the first one with 500 digits, so a
            # state past it shows that the pool has started and confirmed it
            def past_the_first_pooled_pair():
                return ck.exists() and search.load_checkpoint(str(ck)).n > 741

            deadline = time.monotonic() + 60
            while (proc.poll() is None and time.monotonic() < deadline
                   and not past_the_first_pooled_pair()):
                time.sleep(0.01)
            assert proc.poll() is None, "the search ended before it was interrupted"
            assert past_the_first_pooled_pair()
            # to the whole group, as a terminal's Ctrl-C does
            os.killpg(proc.pid, signal.SIGINT)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        # one traceback, the search's: the workers leave the interrupt to it
        assert proc.returncode == -signal.SIGINT, stderr
        assert stderr.count("Traceback") == 1, stderr
        assert stderr.rstrip().endswith("KeyboardInterrupt"), stderr
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        # below 10**1500 the walk finds only the three pairs below 10**20
        code, out = run_cli(
            "search", "--m", "2", "--digits", "1500", "--checkpoint", str(ck), "--json"
        )
        assert code == 0
        assert results_only(out) == results_only(run_cli(
            "search", "--m", "2", "--digits", "20", "--json")[1])

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="the search forks no workers on one CPU",
    )
    def test_sigterm_ends_the_pool_and_leaves_a_resumable_checkpoint(
        self, run_cli, tmp_path
    ):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        ck = tmp_path / "ck"
        # to 4000 digits, so that the walk is still running when it is signalled
        proc = subprocess.Popen(
            [sys.executable, "-m", "sigmapairs", "search", "--m", "2",
             "--digits", "4000", "--checkpoint", str(ck)],
            cwd=tmp_path, start_new_session=True, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        try:
            # past the pair at index 739, the first one a worker confirms
            def past_the_first_pooled_pair():
                return ck.exists() and search.load_checkpoint(str(ck)).n > 741

            deadline = time.monotonic() + 60
            while (proc.poll() is None and time.monotonic() < deadline
                   and not past_the_first_pooled_pair()):
                time.sleep(0.01)
            assert proc.poll() is None, "the search ended before it was signalled"
            assert past_the_first_pooled_pair()
            # to the searching process only, as `kill PID` does
            os.kill(proc.pid, signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 128 + signal.SIGTERM, stderr
        assert (stdout, stderr) == ("", "")
        # the workers ended with the search
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        code, out = run_cli(
            "search", "--m", "2", "--digits", "1000", "--checkpoint", str(ck), "--json"
        )
        assert code == 0
        assert results_only(out) == results_only(run_cli(
            "search", "--m", "2", "--digits", "20", "--json")[1])
