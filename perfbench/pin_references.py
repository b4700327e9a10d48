"""Write reference.json: the SHA-256 of every CLI query's output.

    python3 perfbench/pin_references.py

Run from the root of a source checkout whose outputs are the accepted
ones.  The CLI's JSON must stay byte-identical, so the pins only change
when an output is meant to change.  Query ids are seed-independent (the
seed only orders the queries), so seed 0 covers them all.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    sys.path[:0] = [src, os.path.join(os.getcwd(), "tests")]
    lib = run.import_library(src)
    pins = {}
    for name in ("lattice-deep", "fuzz-sweep"):
        make_inputs, make_queries = workloads.WORKLOADS[name]
        for q in make_queries(lib, make_inputs(lib, 0), {}, None):
            out, code = q.run()
            if code != 0:
                print(f"{q.qid}: exit code {code}", file=sys.stderr)
                return 1
            pins[q.qid] = workloads.sha256(out)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} outputs in {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
