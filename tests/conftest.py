import contextlib
import io
import json
import multiprocessing

import pytest

from sigmapairs.cli import main as cli_main
from sigmapairs.search import CheckpointFormatError, CheckpointMismatch

KNOWN_PAIRS = ((3, 3, 13), (4, 13, 61), (22, 22419767768701, 107419560853453))

FIRST_TERMS = [1, 1, 3, 13, 61, 291, 1393, 6673, 31971, 153181]

_HEADER = "sigma-chain-checkpoint v1\n"
_AT_5 = _HEADER + "m=2\nn=5\nprev=13\ncurr=61\n"

# Checkpoint files that loading rejects, and the error it raises: each
# breaks one rule of the format or of the chain.
UNUSABLE_CHECKPOINTS = [
    pytest.param(text, error, id=name) for name, text, error in [
        ("missing-field", _HEADER + "m=2\nn=5\nprev=13\n", CheckpointFormatError),
        ("misnamed-field", _HEADER + "m=2\nN=5\nprev=13\ncurr=61\n",
         CheckpointFormatError),
        ("short-pair-line", _AT_5 + "pair 3 3\n", CheckpointFormatError),
        ("non-integer-pair-token", _AT_5 + "pair 3 three 13\n", CheckpointFormatError),
        ("m-below-1", _HEADER + "m=0\nn=5\nprev=13\ncurr=61\n", CheckpointMismatch),
        ("n-below-2", _HEADER + "m=2\nn=1\nprev=1\ncurr=1\n", CheckpointMismatch),
        ("prev-below-1", _HEADER + "m=2\nn=5\nprev=0\ncurr=61\n", CheckpointMismatch),
        ("curr-below-1", _HEADER + "m=2\nn=5\nprev=13\ncurr=-61\n", CheckpointMismatch),
        ("pair-not-a-quasisolution", _AT_5 + "pair 3 4 13\n", CheckpointMismatch),
        ("negative-pair-member", _AT_5 + "pair 3 -3 13\n", CheckpointMismatch),
        ("zero-pair-member", _AT_5 + "pair 3 0 13\n", CheckpointMismatch),
    ]
]


def reference_square_part(x, primes):
    """The largest square dividing x whose root has all its prime factors
    in ``primes`` (ascending), by one remainder per prime: the loop that
    block-gcd factoring replaced, kept as a reference."""
    square = 1
    rest = x
    for p in primes:
        if p * p > rest:
            break
        exponent = 0
        while rest % p == 0:
            rest //= p
            exponent += 1
        square *= p ** (2 * (exponent // 2))
    return square


@pytest.fixture(autouse=True)
def no_worker_left_running():
    """Fail a test that leaves a child process running, such as the
    search's worker pool on an error path.  The children are left to
    their owner: ending a live pool's workers makes it fork new ones."""
    yield
    leaked = multiprocessing.active_children()
    if leaked:
        pytest.fail(f"test left {len(leaked)} child process(es) running: {leaked}")


@pytest.fixture
def run_cli():
    """Invoke the CLI in-process, returning (exit_code, stdout)."""

    def run(*argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(list(argv))
        return code, buffer.getvalue()

    return run


def json_doc(output: str) -> dict:
    return json.loads(output)


def results_only(output: str) -> str:
    """Canonical serialization of the results subtree, the part that
    must be byte-identical across resumes and thread counts."""
    return json.dumps(json_doc(output)["results"], indent=2)
