"""Record the reference outputs the benchmark checks every test against.

    python3 perfbench/record.py --workload mc_size_h0m0
    python3 perfbench/record.py --workload mc_size_h0m0_2w

Writes ``perfbench/reference/<workload>.json`` with the output of every
pool entry at B = 399.  For ``mc_size_h0m0_2w`` it records the 2-worker
cells with ``threads=1``, runs them again with ``threads=2`` and refuses
to write unless both agree bit for bit, and unless replication 1 of each
cell equals the matching ``mc_size_h0m0`` pool entry.  Run it only on the
commit whose outputs are to become the reference.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import benchenv
import workloads

REF_DIR = benchenv.HERE / "reference"


def ref_path(workload: str):
    return REF_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    with open(ref_path(workload)) as fh:
        return json.load(fh)


def _record_pool(workload: str) -> dict:
    entries = []
    for k in range(workloads.pool_size(workload)):
        t0 = time.perf_counter()
        out = workloads.run_test(workload, workloads.pool_seed(workload, k),
                                 workloads.B_PAPER)
        print(f"{workload} k={k} {time.perf_counter() - t0:.3f}s {out}", flush=True)
        entries.append({"k": k, **out})
    return {"entries": entries}


def _record_pooled() -> dict:
    serial = load_reference("mc_size_h0m0")["entries"]
    cells = []
    for c in range(workloads.POOLED_CELLS):
        one = workloads.run_pooled(c, workloads.B_PAPER, threads=1)
        two = workloads.run_pooled(c, workloads.B_PAPER, threads=2)
        if one != two:
            sys.exit(f"cell {c}: threads=2 differs from threads=1")
        if one[0] != {k: v for k, v in serial[c].items() if k != "k"}:
            sys.exit(f"cell {c}: replication 1 differs from mc_size_h0m0 entry {c}")
        print(f"pooled c={c} ok", flush=True)
        cells.append({"c": c, "reps": one})
    return {"cells": cells}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "mc_size_h0m0_2w"])
    args = ap.parse_args()
    if args.workload == "mc_size_h0m0_2w":
        body = _record_pooled()
    else:
        body = _record_pool(args.workload)
    doc = {"workload": args.workload, "B": workloads.B_PAPER,
           "env": benchenv.environment(), **body}
    REF_DIR.mkdir(exist_ok=True)
    with open(ref_path(args.workload), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    benchenv.pin_threads()
    benchenv.add_source_path()
    sys.exit(main())
