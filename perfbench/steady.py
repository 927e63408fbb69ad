"""Steadiness tool: do two sets of runs of one commit agree?

    python3 perfbench/steady.py                  # seeds 1-20
    python3 perfbench/steady.py --seed-base 201  # seeds 201-220

Runs the command of ``BENCHMARK.json`` once per (set, workload, seed), with
``--trace 0`` and its ``run_seconds``, for SETS sets of RUNS seeds on every
workload, interleaving workloads so that drift of the machine spreads
over all of them.  Set ``s`` uses seeds ``seed_base + s*RUNS`` to
``seed_base + s*RUNS + RUNS-1``.  For each end-to-end metric and workload
it prints each set's median and quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``,
and two verdicts, both against the metric's bound in BENCHMARK.json:

* ``spread``: every set's spread is within the bound, ``setup_s``
  included; ``<1/3`` marks spreads below a third of it;
* ``agree``: the two sets' medians differ by at most the bound, in
  either direction (``|m2 - m1| / m1``).

Raw results are saved under ``.bench_out/``.  Exit status is 0 when every
verdict passes and every run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import benchenv

BENCH = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int) -> dict:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=benchenv.ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(seed_base: int) -> dict:
    results: dict = {w: [[] for _ in range(SETS)] for w in WORKLOADS}
    for s in range(SETS):
        for i in range(RUNS):
            seed = seed_base + s * RUNS + i
            for w in WORKLOADS:
                t0 = time.perf_counter()
                res = run_once(w, seed)
                results[w][s].append(res)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"set {s + 1} {w} seed {seed} ({time.perf_counter() - t0:.0f}s) "
                      f"correct={res['correct']} {vals}", flush=True)
    return {"seconds": BENCH["run_seconds"], "seed_base": seed_base, "results": results}


def summarise(data: dict) -> bool:
    good = True
    for w, sets in data["results"].items():
        print(f"\n{w}")
        if not all(r["correct"] for rs in sets for r in rs):
            print("  INCORRECT output in some run")
            good = False
        for m in BENCH["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds, line_ok = [], True
            cells = []
            for rs in sets:
                vals = [r["metrics"][name]["value"] for r in rs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                meds.append(med)
                within = spread <= bound
                line_ok &= within
                mark = "<1/3" if spread < bound / 3 else ("ok" if within else "WIDE")
                cells.append(f"med {med:.4g} [{q1:.4g}, {q3:.4g}] spread {spread:.3f} {mark}")
            shift = abs(meds[1] - meds[0]) / meds[0]
            line_ok &= shift <= bound
            good &= line_ok
            print(f"  {name:12s} bound {bound:<5g} " + " | ".join(cells)
                  + f" | shift {shift:.3f} " + ("agree" if shift <= bound else "DISAGREE"))
    return good


def main() -> int:
    ap = argparse.ArgumentParser(description="two sets of benchmark runs, compared")
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()
    data = collect(args.seed_base)
    out = benchenv.ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(data, indent=1))
    print(f"saved {path}")
    return 0 if summarise(data) else 1


if __name__ == "__main__":
    sys.exit(main())
