"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload of ``BENCHMARK.json`` for a fraction of a second at
B = 19 (the 2-worker cell with N = 2), against a reference recorded in
the same process at that B, and checks that

* every end-to-end metric (``--trace 0``) and every per-layer metric
  (``--trace 1``) is emitted, finite, with the unit BENCHMARK.json names;
* the spans form a tree (each inside its parent and its test, siblings
  apart, no function directly inside itself), no layer's time exceeds its
  test's wall time, each workload reaches the layers it must and not the
  ones it must not (a missed wrapper reads zero), the self times of each
  traced test add up to the untraced wall time of the same pool entry
  within the trace overhead and SELF_SUM_NOISE, the 2-worker cell is
  bit-identical to threads=1, and ``benchenv.stop_children`` ends every
  process the run started without having to kill one;
* a deliberately perturbed reference turns every test into an error;
* the command fails without printing a result in a directory that holds
  only BENCHMARK.json and the benchmark's files.

Exit status 0 when all checks pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import benchenv
import run  # neither imports numpy, so the thread pins still take effect
import workloads

TINY_B = 19
SECONDS = 1.5
SELF_SUM_NOISE = 0.15  # share of a test, on top of the trace overhead

_COMMON = {"stats.scan_s", "stats.sample_stat_s", "bootstrap.draws_self_s",
           "rng.multiplier_s", "estimation.fit_s", "dgp.generate_s"}
# workload -> (per-layer times that must be > 0, those that must be 0)
LAYERS = {
    "mc_size_h0m0": (_COMMON, {"sequential.pretest_s", "partition_search.dp_s",
                               "stats.restricted_s"}),
    "mc_pretest_h1m1": (_COMMON | {"sequential.pretest_s", "partition_search.dp_s"},
                        set()),
}


class LazyRef(dict):
    """Reference outputs at TINY_B, recorded on first use of an entry."""

    def __init__(self, workload, inputs, shift: float = 0.0):
        super().__init__()
        self.workload, self.inputs, self.shift = workload, inputs, shift

    def __missing__(self, k):
        out = workloads.run_test(self.workload, self.inputs[k], TINY_B)
        out["stat"] += self.shift
        self[k] = out
        return out


def check_metrics(result: dict, specs: list[dict], where: str, fails: list[str]) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fails.append(f"{where}: result keys {sorted(result)}")
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(got) != set(want):
        fails.append(f"{where}: metrics {sorted(set(got) ^ set(want))} missing or extra")
    for name, unit in want.items():
        m = got.get(name)
        if m is not None and (m["unit"] != unit or not math.isfinite(m["value"])):
            fails.append(f"{where}: {name} = {m}")
    if not result["correct"] or result["failed"]:
        fails.append(f"{where}: {result['failed']} of {result['attempted']} tests failed")


def check_trace(name: str, metrics: dict, notes: dict, fails: list[str]) -> None:
    for problem in notes["span_problems"][:5]:
        fails.append(f"{name}: {problem}")
    if notes["layers_over_wall"]:
        fails.append(f"{name}: layers longer than their test: {notes['layers_over_wall']}")
    nonzero, zero = LAYERS[name]
    for m in sorted(nonzero):
        if not metrics[m][0] > 0:
            fails.append(f"{name}: {m} is 0, a wrapper missed its call")
    for m in sorted(zero):
        if metrics[m][0] != 0:
            fails.append(f"{name}: {m} = {metrics[m][0]:g}, expected 0")
    ratio = notes["self_sum_over_untraced_wall"]
    allowed = abs(ratio["expected"] - 1.0) + SELF_SUM_NOISE
    if abs(ratio["median"] - 1.0) > allowed:
        fails.append(f"{name}: span self times over untraced wall time {ratio['median']:.3f},"
                     f" allowed 1 +- {allowed:.3f}")


def check_workload(name: str, bench: dict, fails: list[str]) -> None:
    args = run.parse_args(["--workload", name, "--seed", "1", "--seconds",
                           str(SECONDS), "--B", str(TINY_B)])
    setup = run.setup_samples(name)
    own, inputs = run.timed_setup(name)
    own = run.at_ref_speed(own)
    run.warm_up(name, TINY_B)
    env = benchenv.environment()
    ref = LazyRef(name, inputs)

    metrics, notes, recs = run.untraced_run(args, inputs, ref, setup + [own])
    check_metrics(run.report(args, metrics, notes, env, recs), bench["end_to_end"],
                  f"{name} trace 0", fails)

    args.trace = 1
    pooled_ref = None
    if name == "mc_size_h0m0":
        pooled_ref = [workloads.run_pooled(0, TINY_B, threads=1, N=2)]
    metrics, notes, recs, _ = run.traced_run(args, inputs, ref, pooled_ref)
    check_metrics(run.report(args, metrics, notes, env, recs), bench["per_layer"],
                  f"{name} trace 1", fails)
    check_trace(name, metrics, notes, fails)
    if pooled_ref is not None and not notes["pooled_bit_identical"]:
        fails.append(f"{name}: threads=2 cell differs from threads=1")
    killed = benchenv.stop_children()
    if killed or benchenv.child_pids():
        fails.append(f"{name}: child processes outlived the run: {killed}")

    args.trace = 0
    bad = LazyRef(name, inputs, shift=1.0)
    _, _, recs = run.untraced_run(args, inputs, bad, [own])
    if not recs or any(r["ok"] for r in recs):
        fails.append(f"{name}: perturbed reference did not fail every test")


def check_bare_directory(bench: dict, fails: list[str]) -> None:
    bare = benchenv.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", bare)
    for p in bench["paths"]:
        shutil.copytree(benchenv.ROOT / p, bare / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*bench["command"], "--workload", bench["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fails.append("bare directory: command succeeded or printed a result")


def main() -> int:
    benchenv.pin_threads()
    benchenv.add_source_path()
    bench = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    fails: list[str] = []
    for w in bench["workloads"]:
        check_workload(w["name"], bench, fails)
    check_bare_directory(bench, fails)
    for f in fails:
        print(f"FAIL {f}")
    print("selfcheck " + ("failed" if fails else "passed"))
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
