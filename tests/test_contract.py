"""The output contract: every command the benchmark can issue prints the
``results`` tree (and ``discrepancies``) frozen in
``perfbench/reference.json``, with the same exit code.

The ops are built as ``perfbench/freeze.py`` builds them and judged by
the benchmark's own ``reference.check``, so there is one frozen reference.
A change that means to alter a contract re-freezes it with ``freeze.py``.

Two digests freeze the checkpoint contract: the file after each write of
the m = 2 walk to 700 digits with ``checkpoint_every=1``, and the
records and rewritten files of resumes from every 50th of those files.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from sigmapairs import cli, search

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


WALK_DIGEST = "6a546d39d26f2de84c2cab8787147d48b36aea45d21db9a631a86a3fa1904f41"
RESUME_DIGEST = "beb1bcdbdd1c414d5a38c3d749fe87d0012701a313f319cdae20f0f868566786"


def _walk(path, checkpoint=None):
    """The records of the 700-digit walk from the seed or ``checkpoint``,
    and the file at ``path`` after each checkpoint write."""
    files = []
    write = search.write_checkpoint

    def logged(target, state):
        write(target, state)
        files.append(Path(target).read_bytes())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "write_checkpoint", logged)
        records = search.search_pairs(
            2, digits_limit=700, checkpoint=checkpoint,
            checkpoint_path=path, checkpoint_every=1,
        )
    return records, files


def _record_line(record):
    verdicts = [
        f"{v.status.value} {v.rounds} {v.witness}"
        for v in (record.p_verdict, record.q_verdict)
    ]
    return (
        f"{record.m} {record.index} {record.p} {record.q} "
        f"{' '.join(verdicts)} {record.digits_q}\n"
    ).encode("ascii")


@pytest.fixture(scope="module")
def checkpoint_files(tmp_path_factory):
    return _walk(str(tmp_path_factory.mktemp("walk") / "walk.ck"))[1]


def test_checkpoint_walk_matches_its_digest(checkpoint_files):
    assert len(checkpoint_files) == 1030
    assert hashlib.sha256(b"".join(checkpoint_files)).hexdigest() == WALK_DIGEST


def test_resumes_match_their_digest(checkpoint_files, tmp_path):
    digest = hashlib.sha256()
    for k in range(0, len(checkpoint_files), 50):
        path = tmp_path / f"resume{k}.ck"
        path.write_bytes(checkpoint_files[k])
        records, rewritten = _walk(str(path), search.load_checkpoint(str(path)))
        digest.update(b"".join(map(_record_line, records)))
        digest.update(b"".join(rewritten))
    assert digest.hexdigest() == RESUME_DIGEST
