"""Regenerate reference.json: the output digest of every op that any seed
can put in any workload's op list, keyed by the op's input.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right; a change that
is meant to keep every report identical must leave the file unchanged.
"""

from __future__ import annotations

import json
import sys

import inputs
from check import REFERENCE_FILE, canonical, digest, problems
from passes import prepare


def main() -> int:
    reference = {}
    for workload in inputs.WORKLOADS:
        for op in inputs.universe(workload):
            try:
                output, error = prepare(op)(), None
            except Exception as exc:   # recorded: a failure is part of the output
                output, error = None, (type(exc).__name__, str(exc))
            doc = canonical(op, output, error)
            bad = problems(op, doc)
            if bad:
                print(f"{op.key}: {'; '.join(bad)}", file=sys.stderr)
                return 1
            reference[op.key] = digest(doc)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(reference)} digests written to {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
