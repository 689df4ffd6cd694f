"""The output contract: every command the benchmark can issue prints the
``results`` tree (and ``discrepancies``) frozen in
``perfbench/reference.json``, with the same exit code.

The ops are built as ``perfbench/freeze.py`` builds them and judged by
the benchmark's own ``reference.check``, so there is one frozen reference.
A change that means to alter a contract re-freezes it with ``freeze.py``.
"""

import sys
from pathlib import Path

import pytest

from sigmapairs import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import reference  # noqa: E402
import workloads  # noqa: E402

REFERENCE = reference.load()


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("contract"))
    built = list(workloads.build("pair-search", 0, workdir).pass_ops(0))
    built += workloads.build("deep-band", 0, workdir).pass_ops(0)
    commands = [workloads.VERIFY_LEMMAS, *workloads.VERIFY_FIXED]
    commands += [f"residues --mod {w} --json" for w in workloads.residue_moduli()]
    built += [workloads.Op(tuple(c.split()), c) for c in commands]
    return {op.ref: op for op in built}


def test_every_reference_key_has_one_op(ops):
    assert len(REFERENCE) == 81
    assert sorted(ops) == sorted(REFERENCE)


@pytest.mark.parametrize("key", sorted(REFERENCE))
def test_output_matches_reference(ops, key):
    code, stdout, _ = workloads.execute(cli, ops[key])
    assert reference.check(REFERENCE, ops[key], code, stdout) is None


def test_gate_flags_a_relabelled_pair():
    assert reference.gate_fires(REFERENCE)
