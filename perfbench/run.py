"""The breakboot benchmark.

    python3 perfbench/run.py --workload mc_size_h0m0 --seed 1 --seconds 50 --trace 0

Runs one workload (see ``workloads.py`` and ``BENCHMARK.json``) from a
single client process in a closed loop: the next test starts when the
previous one returns, until ``--seconds`` have passed.  BLAS pools are
pinned to one thread before numpy is imported.  Every test's output is
checked against the recorded reference (``reference/``).  A
machine-speed probe (``speed.py``) runs between tests, and every time
metric is at the reference speed; the raw wall-time figures of the
untraced run are printed next to them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same tests twice, first untraced and then with span
tracing installed (see ``tracer.py``), and prints the per-layer metrics;
on ``mc_size_h0m0`` it then runs one ``run_cell(threads=2)`` cell and
checks it bit for bit against ``threads=1``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
are a readable report.  A record of the run (environment, per-test times
and outputs, spans when traced) is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time

import benchenv
import record
import tracer as tracing
import workloads

OUT_DIR = benchenv.ROOT / ".bench_out"
SETUP_PROBES = 8          # child processes that repeat the set-up
TRACE_UNTRACED_SHARE = 0.5  # share of --seconds spent on the untraced pass
TRACE_POOLED_SHARE = 0.25   # share of --seconds left for the 2-worker cell
TAIL_BEYOND = 10
TAIL_FLOOR = 90
WARMUP_ENTRY = -1           # pool index reserved for the warm-up test
WARMUP_B = 39


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def timed_setup(workload: str) -> tuple[float, dict]:
    """Import breakboot and build the workload's inputs (pool index ->
    master seed); returns the time taken and the inputs."""
    t0 = time.perf_counter()
    import breakboot  # noqa: F401

    benchenv.check_imported_from_source()
    inputs = {k: workloads.pool_seed(workload, k)
              for k in range(workloads.pool_size(workload))}
    return time.perf_counter() - t0, inputs


def at_ref_speed(seconds: float) -> float:
    """``seconds``, measured just before, scaled to the reference speed by
    a speed probe (after a warm-up probe)."""
    import speed  # imports numpy, so only after the pins are set

    speed.probe()
    return seconds * speed.REF_PROBE_S / speed.probe()


def warm_up(workload: str, B: int) -> None:
    """One small untimed test outside the pool, so that the first timed
    test does not pay for first-call costs (page faults, BLAS buffers)."""
    workloads.run_test(workload, workloads.pool_seed(workload, WARMUP_ENTRY),
                       min(B, WARMUP_B))


def setup_samples(workload: str) -> list[float]:
    """Set-up times of fresh child processes, at the reference speed."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Loop:
    """Runs tests one after another and checks each against a reference."""

    def __init__(self, workload: str, inputs: dict, ref: dict, B: int):
        self.workload, self.inputs, self.ref, self.B = workload, inputs, ref, B
        self.records: list[dict] = []

    def one(self, k: int, trace: tracing.Tracer | None = None) -> dict:
        inp = self.inputs[k]
        t0 = time.perf_counter()
        try:
            if trace is None:
                out = workloads.run_test(self.workload, inp, self.B)
            else:
                out = trace.test(len(self.records), workloads.run_test,
                                 self.workload, inp, self.B)
            error = None
        except Exception as exc:  # a failing test is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        t = time.perf_counter() - t0
        ok = error is None and workloads.matches(out, self.ref[k], self.B)
        rec = {"k": k, "seconds": t, "ok": ok, "error": error, "output": out,
               "traced": trace is not None}
        self.records.append(rec)
        return rec

    def run(self, ks, seconds: float = math.inf,
            trace: tracing.Tracer | None = None) -> tuple[list[dict], float]:
        """Run the tests of the pool indices ``ks`` until ``ks`` ends or
        ``seconds`` have passed.  A speed probe runs before the first test
        and after each one; each record gets ``probe_s`` (mean of the
        probes around the test) and ``ref_s`` (its wall time at the
        reference speed)."""
        import speed  # imports numpy, so only after the pins are set

        speed.probe()  # warm-up: the first probe of a process is slower
        before = speed.probe()
        start = time.perf_counter()
        first = len(self.records)
        for k in ks:
            rec = self.one(k, trace)
            after = speed.probe()
            rec["probe_s"] = 0.5 * (before + after)
            rec["ref_s"] = rec["seconds"] * speed.REF_PROBE_S / rec["probe_s"]
            before = after
            if time.perf_counter() - start >= seconds:
                break
        return self.records[first:], time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that still has at
    least TAIL_BEYOND samples above it, but never below the nearest-rank
    TAIL_FLOOR percentile: with fewer than 110 samples that rule alone
    would fall below p90 (below the median under 21 samples)."""
    s = sorted(times)
    n = len(s)
    i = max(n - 1 - TAIL_BEYOND, math.ceil(TAIL_FLOOR / 100.0 * n) - 1)
    return s[i], 100.0 * (i + 1) / n


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def untraced_run(args, inputs, ref, setup) -> tuple[dict, dict, list[dict]]:
    import speed  # imports numpy, so only after the pins are set

    loop = Loop(args.workload, inputs, ref, args.B)
    order = workloads.plan(args.workload, args.seed, len(inputs))
    recs, elapsed = loop.run(order, args.seconds)
    times = [r["ref_s"] for r in recs]
    raw = [r["seconds"] for r in recs]
    probes = [r["probe_s"] for r in recs]
    completed = sum(r["error"] is None for r in recs)
    tail_s, tail_pct = tail(times)
    metrics = {
        "tests_per_s": (completed / sum(times), "1/s"),
        "test_p50_s": (statistics.median(times), "s"),
        "test_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "samples": len(times),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": sum(t > tail_s for t in times),
        "setup_samples": setup,
        "timed_s": elapsed,
        "raw_tests_per_s": completed / sum(raw),
        "raw_test_p50_s": statistics.median(raw),
        "raw_test_tail_s": tail(raw)[0],
        "probe_s": {"median": statistics.median(probes), "min": min(probes),
                    "max": max(probes), "reference": speed.REF_PROBE_S},
    }
    return metrics, notes, loop.records


def traced_run(args, inputs, ref, pooled_ref=None):
    """Untraced pass, the same tests traced, then (when ``pooled_ref``, the
    threads=1 replication outputs of the 2-worker cells, is given) one
    ``run_cell(threads=2)`` cell.  Times are at the reference speed."""
    import speed  # imports numpy, so only after the pins are set

    loop = Loop(args.workload, inputs, ref, args.B)
    order = workloads.plan(args.workload, args.seed, len(inputs))
    pooled = pooled_ref is not None
    share = TRACE_UNTRACED_SHARE * (1.0 - TRACE_POOLED_SHARE if pooled else 1.0)
    base, _ = loop.run(order, share * args.seconds)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced, _ = loop.run([r["k"] for r in base], trace=tr)
    finally:
        tr.uninstall()
    # each traced test's span times, scaled to the reference speed like the test
    per_test = [
        {key: v * rec["ref_s"] / rec["seconds"] if key.endswith("_s") else v
         for key, v in t.items()}
        for rec, t in zip(traced, tr.per_test().values())
    ]
    notes: dict = {"samples": len(base)}

    def mean(key: str) -> float:
        return sum(t.get(key, 0.0) for t in per_test) / len(per_test)

    def ratio(num: str, den: str) -> float:
        d = sum(t.get(den, 0) for t in per_test)
        return sum(t.get(num, 0) for t in per_test) / d if d else 0.0

    scan_s = mean("stats.scan_s")
    serial_rate = len(base) / sum(r["ref_s"] for r in base)
    traced_rate = len(traced) / sum(r["ref_s"] for r in traced)
    overhead = traced_rate / serial_rate
    # The self times of a traced test's spans must add up to the time of
    # the same pool entry in the untraced pass, give or take the trace
    # overhead (1 / overhead - 1 of a test) and the machine's noise.
    ratios = [t["self_sum_s"] / b["ref_s"] for b, t in zip(base, per_test)]
    notes["self_sum_over_untraced_wall"] = {
        "median": statistics.median(ratios), "min": min(ratios), "max": max(ratios),
        "expected": 1.0 / overhead,
    }
    notes["span_problems"] = tr.problems()
    groups = {group for _, _, group in tracing.TARGETS}
    notes["layers_over_wall"] = sorted(
        {g for t in per_test for g in groups if t.get(f"{g}_s", 0.0) > t["wall_s"]})
    metrics = {
        "stats.scan_s": (scan_s, "s"),
        "stats.cand_evals": (mean("cand_evals"), "count"),
        "stats.cand_per_s": (mean("cand_evals") / scan_s if scan_s else 0.0, "1/s"),
        "stats.skip_ratio": (ratio("cand_failed", "cand_evals"), "ratio"),
        "stats.work_mb_computed": (
            max(t.get("work_bytes_max", 0) for t in per_test) / 2**20, "MB"),
        "stats.sample_stat_s": (mean("stats.sample_stat_s"), "s"),
        "stats.restricted_s": (mean("stats.restricted_s"), "s"),
        "bootstrap.draws_self_s": (mean("bootstrap.draws_self_s"), "s"),
        "bootstrap.failed_ratio": (ratio("boot_failed", "boot_attempted"), "ratio"),
        "rng.multiplier_s": (mean("rng.multiplier_s"), "s"),
        "rng.streams": (mean("streams"), "count"),
        "sequential.pretest_s": (mean("sequential.pretest_s"), "s"),
        "sequential.stages": (mean("stages"), "count"),
        "partition_search.dp_s": (mean("partition_search.dp_s"), "s"),
        "partition_search.dp_calls": (mean("dp_calls"), "count"),
        "estimation.fit_s": (mean("estimation.fit_s"), "s"),
        "dgp.generate_s": (mean("dgp.generate_s"), "s"),
        "harness.self_s": (mean("harness_self_s"), "s"),
        "harness.scaling_eff": (0.0, "ratio"),
        "trace.overhead": (overhead, "ratio"),
        "trace.test_s": (mean("wall_s"), "s"),
    }
    notes["serial_tests_per_s"] = serial_rate
    notes["traced_tests_per_s"] = traced_rate
    notes["share_of_test"] = {
        k: round(v / metrics["trace.test_s"][0], 3)
        for k, (v, unit) in metrics.items() if unit == "s" and k != "trace.test_s"
    }
    if pooled:
        c = args.seed % len(pooled_ref)
        cell_ref = pooled_ref[c]
        before = speed.probe()
        t0 = time.perf_counter()
        try:
            reps = workloads.run_pooled(c, args.B, threads=2, N=len(cell_ref))
            error = None
        except Exception as exc:  # counted as failed replications below
            reps, error = [], f"{type(exc).__name__}: {exc}"
        cell_s = time.perf_counter() - t0
        # the probes run on the parent's CPU only, the workers on both
        cell_ref_s = cell_s * speed.REF_PROBE_S / (0.5 * (before + speed.probe()))
        identical = reps == cell_ref  # worker-count invariance: bit for bit
        rate_2w = len(cell_ref) / cell_ref_s
        metrics["harness.scaling_eff"] = (rate_2w / (2.0 * serial_rate), "ratio")
        notes.update({
            "pooled_cell": c, "pooled_tests": len(cell_ref), "pooled_s": cell_s,
            "pooled_ref_s": cell_ref_s,
            "pooled_tests_per_s": rate_2w, "pooled_bit_identical": identical,
            "pooled_error": error,
            "peak_rss_children_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        })
        loop.records.extend(
            {"k": f"2w:{c}:{j + 1}", "seconds": None, "ok": identical,
             "error": error, "output": rep, "traced": False}
            for j, rep in enumerate(reps or cell_ref)
        )
    return metrics, notes, loop.records, tr


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description="breakboot benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--B", type=int, default=workloads.B_PAPER, help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.B < 1:
        ap.error("--seconds must be > 0 and --B >= 1")
    return args


def load_ref(workload: str, B: int) -> dict:
    doc = record.load_reference(workload)
    if doc["B"] != B:
        raise ValueError(f"reference for {workload} was recorded at B={doc['B']}")
    return {e["k"]: {k: v for k, v in e.items() if k != "k"} for e in doc["entries"]}


def report(args, metrics: dict, notes: dict, env: dict, recs: list[dict]) -> dict:
    failed = sum(not r["ok"] for r in recs)
    result = {
        "correct": failed == 0 and bool(recs),
        "attempted": len(recs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  B {args.B}")
    print("environment " + json.dumps(env, sort_keys=True))
    for k, (v, u) in metrics.items():
        print(f"  {k:28s} {v:14.6g} {u}")
    for k, v in notes.items():
        print(f"  # {k} = {v}")
    print(f"  # error_rate = {failed / len(recs):g} ({failed} of {len(recs)} tests"
          f" raised or differ from the reference)")
    for r in recs:
        if not r["ok"]:
            print(f"  ! test {r['k']} failed: {r['error'] or 'output differs from reference'}")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    benchenv.pin_threads()
    benchenv.add_source_path()
    if args.setup_probe:
        print(at_ref_speed(timed_setup(args.workload)[0]))
        return 0
    setup = setup_samples(args.workload) if not args.trace else []
    own_setup, inputs = timed_setup(args.workload)
    setup.append(at_ref_speed(own_setup))
    warm_up(args.workload, args.B)
    ref = load_ref(args.workload, args.B)
    env = benchenv.environment()
    tr = None
    if args.trace:
        pooled_ref = None
        if args.workload == "mc_size_h0m0":
            cells = record.load_reference("mc_size_h0m0_2w")["cells"]
            pooled_ref = [cell["reps"] for cell in cells]
        metrics, notes, recs, tr = traced_run(args, inputs, ref, pooled_ref)
    else:
        metrics, notes, recs = untraced_run(args, inputs, ref, setup)
    result = report(args, metrics, notes, env, recs)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "environment": env, "notes": notes,
                   "result": result, "tests": recs}, fh, indent=1)
    if tr is not None:
        tr.dump(f"{stem}.spans.jsonl")
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        print("non-finite metric", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except (benchenv.MissingSourceError, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        code = 2
    finally:
        killed = benchenv.stop_children()
        if killed:
            print(f"perfbench: killed leftover child processes {killed}", file=sys.stderr)
    sys.exit(code)
