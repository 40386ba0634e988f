"""Rewrite digests.json: the SHA-256 of every workload CSV at the default seed.

    PYTHONPATH=src python3 perfbench/record_digests.py

Each CLI operation also runs at a second seed.  When the bytes agree the
output does not depend on the seed and its digest applies at every seed
("any"); otherwise it applies at the default seed only, and other seeds are
checked for repeatability within a run.
"""

import json
import sys
import tempfile
from pathlib import Path

from worker import DIGESTS, check_op, run_op
from workloads import DEFAULT_SEED, WORKLOADS


def digest(op, seed, outdir):
    found = {}
    error = check_op(op, run_op(op, seed, outdir), found)
    if error is not None:
        raise SystemExit(f"{op.key} at seed {seed}: {error}")
    return found[op.key]


def main():
    table = {}
    work = Path(".perfbench")
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        outdir = Path(tmp)
        for workload in WORKLOADS.values():
            for op in workload.cli:
                reference = digest(op, DEFAULT_SEED, outdir)
                other = digest(op, DEFAULT_SEED + 1, outdir)
                label = "any" if other == reference else str(DEFAULT_SEED)
                table[op.key] = {label: reference}
                print(f"{label:>3} {reference} {op.key}")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
