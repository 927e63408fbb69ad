"""Replays of the benchmark's recorded reference outputs.

The traced ``mc_size_h0m0`` benchmark run compares its 2-worker cell bit
for bit with ``perfbench/reference/mc_size_h0m0_2w.json``, which was
recorded with the current LU rounding.  A kernel change that moves the
last bit of any sample statistic therefore fails the benchmark although
every output is within the tolerances of ``workloads.matches``.  These
tests catch that here: one cell is replayed with ``threads=1`` and
compared with ``==``, and four pool entries are compared through
``matches`` at the paper's B = 399.

The bitwise assert is relaxed in the same change that relaxes the
benchmark's own 2-worker check; until then the two must agree.
"""

import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference(name: str) -> dict:
    return json.loads((PERFBENCH / "reference" / f"{name}.json").read_text())


def test_pooled_cell_replays_bit_for_bit():
    workloads = load_workloads()
    ref = reference("mc_size_h0m0_2w")
    cell = next(c for c in ref["cells"] if c["c"] == 0)
    assert workloads.run_pooled(0, ref["B"], threads=1) == cell["reps"]


def test_pool_entries_match_their_reference():
    workloads = load_workloads()
    # mc_pretest_h1m1 entry 13 is the pool's only h_hat = 2 input: both RF
    # pre-test stages run and reject
    for name, ks in (("mc_size_h0m0", (0, 1)), ("mc_pretest_h1m1", (0, 13))):
        ref = reference(name)
        entries = {e["k"]: {key: v for key, v in e.items() if key != "k"}
                   for e in ref["entries"]}
        for k in ks:
            out = workloads.run_test(name, workloads.pool_seed(name, k), ref["B"])
            assert workloads.matches(out, entries[k], ref["B"]), (name, k, out)
