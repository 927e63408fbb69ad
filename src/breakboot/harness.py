"""Monte Carlo orchestration, rejection-rate tables, and the one bootstrap
test driver, :func:`test_dataset`.

Replication j of a cell derives every random stream from
(master_seed, j, purpose), so cells that differ only in the break shift g
share innovations and their rejection-rate differences reflect the design
rather than simulation noise.  Replications are the parallel unit; worker
processes are spawned with BLAS pinned to one thread so results are
identical for any worker count.

A test is one :func:`test_dataset` call: its first stage (the RF pre-test's
or imposed), the sample statistic, the B bootstrap draws of
:mod:`breakboot.bootstrap` and their p-value.  A Monte Carlo replication
is one such call on its generated dataset.
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
    BootstrapConfig,
    _check_alphas,
    case_i_draws,
    case_ii_draws,
    pvalue_and_quantile,
)
from .estimation import Design, fit_regimes, make_design
from .exceptions import ConfigError
from .model import no_breaks
from .partition_search import global_ssr_breaks, min_regime_length, rf_break_grid_and_fit
from .rng import derive_seed
from .sequential import estimate_rf_breaks_design
from .stats import (
    STATISTICS,
    TestOutcome,
    _first_or_default,
    sup_f_design,
    sup_wald_design,
    sup_wald_seq_design,
)

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
        scenario = dgp.ScenarioConfig(self.scenario, self.error_case, self.T, self.g)
        if not 0 < self.eps < 0.5:
            raise ConfigError(f"eps must lie in (0, 0.5), got {self.eps}")
        if self.N < 1:
            raise ConfigError("N must be >= 1")
        BootstrapConfig(self.scheme, self.B, self.master_seed)
        _check_test(self.test, scenario.m, scenario.m + 1, self.alphas)
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
    scenario = dgp.ScenarioConfig(
        scenario=cfg.scenario, error_case=cfg.error_case, T=cfg.T, g=cfg.g,
        seed=derive_seed(cfg.master_seed, j),
    )
    data, _ = dgp.generate(scenario)
    outcome, _ = test_dataset(
        make_design(dgp.scenario_model_spec(), data),
        BootstrapConfig(cfg.scheme, cfg.B, cfg.master_seed, j),
        null_breaks=scenario.m,
        alt_breaks=scenario.m + 1,
        statistic=cfg.test,
        eps=cfg.eps,
        alphas=cfg.alphas,
        rf_breaks="auto" if scenario.h else 0,
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


def _check_test(statistic: str, null_breaks: int, alt_breaks: int,
                alphas: tuple[float, ...]) -> None:
    """Raise ConfigError unless the statistic, break counts and levels make a test."""
    if statistic not in STATISTICS:
        raise ConfigError(f"statistic must be one of {STATISTICS}")
    _check_alphas(alphas)
    if null_breaks < 0:
        raise ConfigError("null_breaks must be >= 0")
    if alt_breaks < 1:
        raise ConfigError(f"the alternative needs at least one break, got {alt_breaks}")
    if null_breaks > 0 and alt_breaks != null_breaks + 1:
        raise ConfigError("with a breaking null, alt_breaks must equal null_breaks + 1")


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
    """Run one structural-change test with bootstrap inference on one
    dataset; returns the outcome and a printable report.

    design is ``make_design(spec, data)`` and boot the bootstrap's scheme,
    B and seed path.  null_breaks=0 tests no change against alt_breaks
    changes; null_breaks = l >= 1 tests l against l+1 (alt_breaks must then
    be l+1), with the null partition at the SSR-minimising l breaks
    (:func:`breakboot.partition_search.global_ssr_breaks`).

    rf_breaks="auto" runs the sequential RF pre-test first, with the same
    bootstrap settings, and keeps its stopping stage's first stage; an
    integer, not a bool, imposes that many RF breaks at their SSR-estimated
    locations, 0 none.  That one first stage is what the sample statistic,
    the null partition, the null fit and the B samples all read, and the
    outcome records its partition in rf_partition.  The statistic, break counts
    and levels are checked before any work runs, the pre-test included.
    """
    _check_test(statistic, null_breaks, alt_breaks, alphas)
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
    elif isinstance(rf_breaks, int) and not isinstance(rf_breaks, bool) and rf_breaks >= 0:
        first = (rf_break_grid_and_fit(design, rf_breaks, eps) if rf_breaks > 0
                 else _first_or_default(design, eps))
        rf_note = f"{rf_breaks} RF break(s) imposed"
    else:
        raise ConfigError(f"rf_breaks must be 'auto' or an integer >= 0, got {rf_breaks!r}")

    n = design.n
    if null_breaks == 0:
        sample_test = sup_wald_design if statistic == "supwald" else sup_f_design
        outcome = sample_test(design, alt_breaks, eps, first)
        null_partition = no_breaks(n, eps, min_regime_length(n, eps, design.spec.q))
        est = fit_regimes(design, first, null_partition)
        draws, failures = case_i_draws(design, est, alt_breaks, boot, statistic=statistic)
    else:
        null_partition, _ = global_ssr_breaks(design, first, null_breaks, eps)
        outcome = sup_wald_seq_design(design, null_partition, first, statistic)
        est = fit_regimes(design, first, null_partition)
        draws, failures = case_ii_draws(design, est, boot, statistic=statistic)

    p, crits, rejects, flags = pvalue_and_quantile(outcome.statistic, draws, alphas)
    outcome.rf_partition = first.partition
    outcome.boot_draws = draws
    outcome.p_value = p
    outcome.critical_values = crits
    outcome.levels_rejected = rejects
    outcome.failed_replications = failures
    outcome.flags.extend(flags)
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
