"""The package-level surface stays importable and wired."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import sigmapairs


def test_public_api_surface():
    assert sigmapairs.chain_terms(2, 5) == [1, 1, 3, 13, 61]
    assert sigmapairs.is_prime(13).is_probable_prime
    assert sigmapairs.sigma_power(3, 2) == 13
    assert sigmapairs.residue_profile(5).period == 4
    assert sigmapairs.enumerate_seeds(2, 50) == [(1, 1)]
    assert len(sigmapairs.known_inequalities()) == 14
    assert sigmapairs.__version__


_MODULES = [
    info.name for info in pkgutil.iter_modules(sigmapairs.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"sigmapairs.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_public_names():
    # a name removed from a module's __all__ must leave __init__ too
    tree = ast.parse(inspect.getsource(sigmapairs))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, node.module
        module = importlib.import_module(f"sigmapairs.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(sigmapairs, alias.name) is getattr(module, alias.name)


@pytest.mark.parametrize("module, name", [
    ("arith", "bounded_square_part"),
    ("arith", "gcd"),
    ("certify", "LogLinearForm"),
    ("certify", "form"),
    ("chains", "chain_invariant"),
    ("chains", "quadratic_identity_holds"),
    ("search", "heuristic_tail"),
])
def test_retired_names(module, name):
    # each restated a kept entry point: square_divisor_probe's trial
    # division, math.gcd, the m = 2 identity on chain terms, and
    # heuristic_tail_parts; certify's six-coefficient form held states
    # that Lhs and Rhs cannot
    assert name not in importlib.import_module(f"sigmapairs.{module}").__all__
    assert not hasattr(sigmapairs, name)
