"""Monte Carlo orchestration, rejection-rate tables, single-dataset tests.

Replication j of a cell derives every random stream from
(master_seed, j, purpose), so cells that differ only in the break shift g
share innovations and their rejection-rate differences reflect the design
rather than simulation noise.  Replications are the parallel unit; worker
processes are spawned with BLAS pinned to one thread so results are
identical for any worker count.
"""

from __future__ import annotations

import csv
import io
import multiprocessing as mp
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import dgp
from .bootstrap import (
    DEFAULT_BOOT,
    SCHEMES,
    BootstrapConfig,
    _check_alphas,
    _check_test,
    bootstrap_sup_test_design,
)
from .estimation import Design, make_design
from .exceptions import ConfigError
from .partition_search import rf_break_grid_and_fit
from .rng import derive_seed
from .sequential import estimate_rf_breaks_design
from .stats import STATISTICS, TestOutcome

TABLE_HEADER = [
    "scenario", "case", "T", "g", "test", "scheme",
    "alpha", "rate", "N", "B", "failures", "seconds",
]


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo cell: a (scenario, case, T, g, test, scheme) point."""

    scenario: str = "h0m0"
    error_case: str = "A"
    T: int = 240
    g: float = 0.0
    N: int = 1000
    B: int = 399
    alphas: tuple[float, ...] = (0.10, 0.05, 0.01)
    test: str = "supwald"
    scheme: str = "wr"
    eps: float = 0.15
    master_seed: int = 0
    threads: int = 1
    keep_reps: bool = False

    def __post_init__(self):
        if self.N < 1 or self.B < 1:
            raise ConfigError("N and B must be >= 1")
        if self.test not in STATISTICS:
            raise ConfigError("test must be 'supwald' or 'supf'")
        if self.scheme not in SCHEMES:
            raise ConfigError("scheme must be 'wr' or 'wf'")
        _check_alphas(self.alphas)
        if any(a <= b for a, b in zip(self.alphas, self.alphas[1:])):
            raise ConfigError("alphas must be strictly decreasing")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")


@dataclass
class CellResult:
    rates: dict[float, float]
    failures: int
    seconds: float
    N: int
    B: int
    rf_break_counts: dict[int, int] = field(default_factory=dict)
    rep_records: list[dict] | None = None

    def rate_row(self, cfg: McConfig, alpha: float) -> list:
        return [
            cfg.scenario, cfg.error_case, cfg.T, cfg.g, cfg.test, cfg.scheme,
            alpha, f"{self.rates[alpha]:.4f}", cfg.N, cfg.B,
            self.failures, f"{self.seconds:.3f}",
        ]


def _replication(args: tuple[int, McConfig]) -> dict:
    """Run one Monte Carlo replication, test_dataset on replication j's data;
    self-contained for worker processes."""
    j, cfg = args
    data, _ = dgp.generate(dgp.ScenarioConfig(
        scenario=cfg.scenario, error_case=cfg.error_case, T=cfg.T, g=cfg.g,
        seed=derive_seed(cfg.master_seed, j),
    ))
    h_true, m_true = int(cfg.scenario[1]), int(cfg.scenario[3])
    outcome, _ = test_dataset(
        make_design(dgp.scenario_model_spec(), data),
        BootstrapConfig(cfg.scheme, cfg.B, cfg.master_seed, j),
        null_breaks=m_true,
        alt_breaks=m_true + 1,
        statistic=cfg.test,
        eps=cfg.eps,
        alphas=cfg.alphas,
        rf_breaks="auto" if h_true else 0,
    )
    return {
        "j": j,
        "stat": outcome.statistic,
        "p": outcome.p_value,
        "reject": {a: bool(outcome.levels_rejected[a]) for a in cfg.alphas},
        "failures": outcome.failed_replications,
        "h_hat": outcome.rf_partition.k,
    }


def _run_many(cfg: McConfig, indices: list[int]) -> list[dict]:
    tasks = [(j, cfg) for j in indices]
    if cfg.threads == 1:
        return [_replication(t) for t in tasks]
    # spawned workers re-import numpy under a single BLAS thread, keeping
    # results identical for any worker count
    saved = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        ctx = mp.get_context("spawn")
        chunk = max(1, len(tasks) // (cfg.threads * 4))
        with ProcessPoolExecutor(max_workers=cfg.threads, mp_context=ctx) as pool:
            return list(pool.map(_replication, tasks, chunksize=chunk))
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def run_cell(cfg: McConfig, progress: io.TextIOBase | None = None) -> CellResult:
    """Rejection rates over N seeded replications of one cell."""
    start = time.perf_counter()
    records = _run_many(cfg, list(range(1, cfg.N + 1)))
    records.sort(key=lambda r: r["j"])
    rates = {
        a: float(np.mean([r["reject"][a] for r in records])) for a in cfg.alphas
    }
    failures = int(sum(r["failures"] for r in records))
    counts: dict[int, int] = {}
    for r in records:
        counts[r["h_hat"]] = counts.get(r["h_hat"], 0) + 1
    seconds = time.perf_counter() - start
    if progress is not None:
        print(
            f"cell {cfg.scenario}/{cfg.error_case}/T={cfg.T}/g={cfg.g}"
            f" done in {seconds:.1f}s, failures={failures}",
            file=progress,
        )
    return CellResult(
        rates=rates,
        failures=failures,
        seconds=seconds,
        N=cfg.N,
        B=cfg.B,
        rf_break_counts=counts,
        rep_records=records if cfg.keep_reps else None,
    )


def run_table(
    cells: list[McConfig],
    out_path: str,
    progress: io.TextIOBase | None = None,
) -> list[tuple[McConfig, CellResult]]:
    """Run each cell in turn and write one CSV row per (cell, alpha)."""
    results = []
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TABLE_HEADER)
        for cfg in cells:
            cell = run_cell(cfg, progress=progress)
            results.append((cfg, cell))
            for a in cfg.alphas:
                writer.writerow(cell.rate_row(cfg, a))
            fh.flush()
    return results


def test_dataset(
    design: Design,
    boot: BootstrapConfig = DEFAULT_BOOT,
    *,
    null_breaks: int = 0,
    alt_breaks: int = 1,
    statistic: str = "supwald",
    eps: float = 0.15,
    alphas: tuple[float, ...] = (0.10, 0.05, 0.01),
    rf_breaks: str | int = "auto",
) -> tuple[TestOutcome, str]:
    """Run one structural-change test on one dataset; returns the outcome
    and a printable report.

    design is ``make_design(spec, data)``.  rf_breaks="auto" runs the
    sequential RF pre-test first, with the same bootstrap settings and up
    to two breaks; an integer imposes that many RF breaks at their
    SSR-estimated locations.  The statistic, break counts and levels are
    checked before any work runs, the pre-test included.
    """
    _check_test(statistic, null_breaks, alt_breaks, alphas)
    first = None  # no RF breaks
    stages: list[str] = []
    if rf_breaks == "auto":
        seq = estimate_rf_breaks_design(design, boot=boot, eps=eps)
        first = seq.first
        rf_note = f"sequential pre-test selected {seq.chosen_breaks} RF break(s)"
        stages = [
            f"  pre-test stage {level}: {level} vs {level + 1} RF breaks, statistic "
            f"{stat:.6f}, p-value {p:.4f} over {scored} of B={boot.B} draws scored"
            for level, stat, p, scored in seq.trail
        ]
    elif isinstance(rf_breaks, int) and rf_breaks >= 0:
        if rf_breaks > 0:
            first = rf_break_grid_and_fit(design, rf_breaks, eps)
        rf_note = f"{rf_breaks} RF break(s) imposed"
    else:
        raise ConfigError(f"rf_breaks must be 'auto' or an integer >= 0, got {rf_breaks!r}")

    outcome = bootstrap_sup_test_design(
        design,
        boot,
        null_breaks=null_breaks,
        alt_breaks=alt_breaks,
        statistic=statistic,
        eps=eps,
        first=first,
        alphas=alphas,
    )
    lines = [
        f"test: {statistic} ({boot.scheme.upper()} bootstrap), "
        f"H0: m={null_breaks} vs H1: m={alt_breaks}",
        f"effective sample: n={design.n} (of T={design.data.T}), trimming eps={eps}",
        f"reduced form: {rf_note}, breaks at {list(outcome.rf_partition.breaks)}",
        *stages,
        f"statistic: {outcome.statistic:.6f}",
        f"break estimate(s): {list(outcome.argmax_partition.breaks)}",
        f"bootstrap p-value: {outcome.p_value:.4f}  "
        f"(over {len(outcome.boot_draws)} finite draws of B={boot.B})",
    ]
    for a in alphas:
        crit = outcome.critical_values[a]
        verdict = "reject" if outcome.levels_rejected[a] else "do not reject"
        lines.append(f"  level {a:g}: critical value {crit:.4f} -> {verdict}")
    lines.append(
        f"skipped candidates: {outcome.skipped_candidates}, "
        f"failed replications: {outcome.failed_replications}"
    )
    for flag in outcome.flags:
        lines.append(f"note: {flag}")
    return outcome, "\n".join(lines)
