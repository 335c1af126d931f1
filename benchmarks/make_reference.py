"""Regenerate reference.json: the output digests of the default seed.

    python3 benchmarks/make_reference.py [--only WORKLOAD]

Each workload's first requests for seed 0 are run over REFERENCE_FIELD
(QQ) and the digest of every output is stored; a benchmark
run on seed 0 must reproduce them.  deep-dim runs over GF(32003), so its
QQ reference also checks that both fields give the same report.  Run this
only when a workload's inputs or the program's output format change on
purpose, and say so where the change is recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

from workloads import (
    REFERENCE_FIELD,
    REFERENCE_PATH,
    WORKLOADS,
    digest,
    load_program,
    load_reference,
)

SEED = 0
# enough requests to cover a run several times faster than today's
COUNTS = {"audit-mix": 6000, "wide-n": 1000, "deep-dim": 1000}


def build(name: str, prog) -> dict:
    wl = WORKLOADS[name]
    digests = []
    for k, item in enumerate(wl.inputs(prog, SEED, 0, COUNTS[name])):
        output = wl.run(prog, item, REFERENCE_FIELD)
        problems = wl.check(prog, item, output, None)
        if problems:
            raise SystemExit(f"{name} request {k}: {problems}")
        digests.append(digest(wl.to_doc(output)))
    return {"seed": SEED, "field": REFERENCE_FIELD, "digests": digests}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    prog = load_program()
    ref = load_reference() if REFERENCE_PATH.exists() else {}
    for name in [args.only] if args.only else WORKLOADS:
        ref[name] = build(name, prog)
        print(f"{name}: {len(ref[name]['digests'])} digests", file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
