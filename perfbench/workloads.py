"""Workload definitions of the breakboot benchmark.

Each workload is one Monte Carlo cell, ``(scenario, case, pool size)`` in
:data:`WORKLOADS`, and owns a pool of master seeds.  Pool entry ``k`` is
fixed by the workload name and ``k`` alone (see :func:`pool_seed`), so the
reference outputs recorded in ``reference/`` cover every entry.  The
workload seed given on the command line chooses which entries a run uses
and in which order (:func:`plan`); ``breakboot`` receives only the
generated master seeds.

One *test* is one complete bootstrap structural-change test on one
dataset, called through the public API: ``run_cell`` with ``N=1``, i.e.
``dgp.generate``, the reduced-form pre-test when the scenario has RF
breaks, and ``bootstrap_sup_test_design``, plus the harness bookkeeping
around them.

This module imports ``breakboot`` lazily so that the caller can pin the
BLAS thread count and time the import itself.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator

B_PAPER = 399
ALPHAS = (0.10, 0.05, 0.01)

# Tolerances of the correctness gate.  The statistic may move by float
# reordering only; the p-value is a count of draws over B, so any change
# of that count is an error; decisions and integer outputs must match.
STAT_RTOL = 1e-7
P_ATOL_DRAWS = 0.5  # in units of 1/B


def pool_seed(workload: str, k: int) -> int:
    """63-bit master seed of pool entry ``k``, independent of the package's
    RNG.  (The trailing colon of the hashed text is part of the recorded
    reference's seeds.)"""
    digest = hashlib.sha256(f"perfbench:{workload}:{k}:".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def plan(workload: str, seed: int, pool_size: int) -> Iterator[int]:
    """Endless sequence of pool indices for one run: a seeded permutation
    of the pool, followed by fresh permutations if a run outlasts it."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        order = list(range(pool_size))
        rng.shuffle(order)
        yield from order


# ---------------------------------------------------------------------------
# Monte Carlo cells through run_cell(N=1)
# ---------------------------------------------------------------------------

def _mc_config(scenario: str, case: str, master_seed: int, B: int, N: int = 1,
               threads: int = 1):
    import breakboot as bb

    return bb.McConfig(
        scenario=scenario, error_case=case, T=240, g=0.0, N=N, B=B,
        alphas=ALPHAS, test="supwald", scheme="wr", master_seed=master_seed,
        threads=threads, keep_reps=True,
    )


def rep_output(rec: dict) -> dict:
    """Normalise one ``run_cell`` replication record."""
    return {
        "stat": float(rec["stat"]),
        "p": float(rec["p"]),
        "reject": [bool(rec["reject"][a]) for a in ALPHAS],
        "failures": int(rec["failures"]),
        "h_hat": int(rec["h_hat"]),
    }


def run_mc_cell(scenario: str, case: str, master_seed: int, B: int, N: int,
                threads: int) -> list[dict]:
    import breakboot as bb

    cell = bb.run_cell(_mc_config(scenario, case, master_seed, B, N, threads))
    return [rep_output(r) for r in cell.rep_records]


# name -> (scenario, error case, pool size)
WORKLOADS: dict[str, tuple[str, str, int]] = {
    "mc_size_h0m0": ("h0m0", "A", 64),
    "mc_pretest_h1m1": ("h1m1", "B", 40),
}


def pool_size(workload: str) -> int:
    return WORKLOADS[workload][2]


def run_test(workload: str, master_seed: int, B: int) -> dict:
    """One test: ``run_cell`` with ``N=1`` and ``threads=1``."""
    scenario, case, _ = WORKLOADS[workload]
    return run_mc_cell(scenario, case, master_seed, B, N=1, threads=1)[0]


# The 2-worker cell: run_cell(threads=2) over POOLED_N replications of one
# mc_size_h0m0 master seed, checked bit-for-bit against threads=1.
POOLED_CELLS = 4
POOLED_N = 8


def pooled_master_seed(c: int) -> int:
    return pool_seed("mc_size_h0m0", c)


def run_pooled(c: int, B: int, threads: int, N: int = POOLED_N) -> list[dict]:
    return run_mc_cell("h0m0", "A", pooled_master_seed(c), B, N, threads)


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def matches(out: dict, ref: dict, B: int) -> bool:
    """True when ``out`` agrees with the recorded ``ref`` within the
    stated tolerances (see STAT_RTOL and P_ATOL_DRAWS)."""
    if set(out) != set(ref):
        return False
    if abs(out["stat"] - ref["stat"]) > STAT_RTOL * max(1.0, abs(ref["stat"])):
        return False
    if abs(out["p"] - ref["p"]) > P_ATOL_DRAWS / B:
        return False
    return all(out[k] == ref[k] for k in ref if k not in ("stat", "p"))
