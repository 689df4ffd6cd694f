"""Write ``reference.json``: the output of every operation the workloads
can issue, from the program in ``src/``.

Run from the repository root, only when the reference must be redefined:

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from reference import REFERENCE_PATH  # noqa: E402
from workloads import (  # noqa: E402
    VERIFY_FIXED,
    VERIFY_LEMMAS,
    Op,
    build,
    execute,
    residue_moduli,
)


def main() -> int:
    from sigmapairs import cli

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        ops = list(build("pair-search", 0, workdir).pass_ops(0))
        ops += build("deep-band", 0, workdir).pass_ops(0)
        commands = [VERIFY_LEMMAS, *VERIFY_FIXED]
        commands += [f"residues --mod {w} --json" for w in residue_moduli()]
        ops += [Op(tuple(c.split()), c) for c in commands]

        reference = {}
        for op in ops:
            code, stdout, seconds = execute(cli, op)
            document = json.loads(stdout)
            entry = {"exit": code, "results": document["results"]}
            if "discrepancies" in document:
                entry["discrepancies"] = document["discrepancies"]
            reference[op.ref] = entry
            print(f"{seconds:8.3f} s  exit {code}  {op.ref}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir)

    with open(REFERENCE_PATH, "w", encoding="ascii") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
