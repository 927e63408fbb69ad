"""Acceptance suite.

Criteria 1-5 replicate Monte Carlo cells of the simulation study at full
scale (N=1000, B=399); they run when BREAKBOOT_ACCEPTANCE=full.
Criterion 6 runs the same cells at desk scale (N=200, B=199) with doubled
tolerances on every pytest invocation.  Criterion 7 is the exact
oracle/property suite (no Monte Carlo).  Each criterion prints one
PASS/FAIL line.

Runtime budgets are stated for an 8-core desktop; they are prorated by
8 / workers when fewer cores are available.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

import breakboot as bb
from breakboot.bootstrap import (
    BootstrapConfig,
    bootstrap_sup_test_design,
    pvalue_and_quantile,
    wf_generate,
    wr_generate,
)
from breakboot.estimation import first_stage, fit_regimes, make_design, second_stage
from breakboot.harness import McConfig, run_cell
from breakboot.model import Dataset, ModelSpec, Partition, Role, no_breaks
from breakboot.partition_search import (
    enumerate_partitions,
    global_ssr_breaks,
    min_regime_length,
)
from breakboot.stats import f_at, scan_partitions

FULL = os.environ.get("BREAKBOOT_ACCEPTANCE", "").lower() == "full"


def full_scale(test):
    """Mark a full-scale cell acceptance_full; it runs with BREAKBOOT_ACCEPTANCE=full."""
    skip = pytest.mark.skipif(
        not FULL, reason="full-scale cells run with BREAKBOOT_ACCEPTANCE=full"
    )
    return pytest.mark.acceptance_full(skip(test))


WORKERS = min(8, os.cpu_count() or 1)
SCALE = max(1.0, 8.0 / WORKERS)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def _cell(**kw):
    base = dict(
        scenario="h0m0", error_case="A", T=240, g=0.0,
        test="supwald", scheme="wr", master_seed=2024, threads=WORKERS,
    )
    base.update(kw)
    cfg = McConfig(**base)
    t0 = time.perf_counter()
    cell = run_cell(cfg)
    return cell, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Criteria 1-5, full scale (N=1000, B=399)
# ---------------------------------------------------------------------------


@full_scale
def test_criterion_1_size_main_table():
    cell, secs = _cell(T=240, N=1000, B=399)
    r10, r5, r1 = cell.rates[0.10], cell.rates[0.05], cell.rates[0.01]
    ok = (
        abs(r10 - 0.10) <= 0.030
        and abs(r5 - 0.05) <= 0.030
        and abs(r1 - 0.01) <= 0.012
        and secs <= 900 * SCALE
    )
    _report(
        "criterion 1",
        ok,
        f"(0,0)/A/T=240 WR rates {r10:.3f}/{r5:.3f}/{r1:.3f} "
        f"(reference .093/.040/.008), {secs:.0f}s",
    )


@full_scale
def test_criterion_2_size_heteroskedastic():
    cell, secs = _cell(T=480, error_case="C", N=1000, B=399)
    r5 = cell.rates[0.05]
    _report(
        "criterion 2",
        0.026 <= r5 <= 0.076,
        f"(0,0)/C/T=480 WR 5% rate {r5:.3f} (reference .051), {secs:.0f}s",
    )


@full_scale
def test_criterion_3_power_ordering():
    rates = {}
    for g in (0.0, -0.007, -0.009):
        cell, _ = _cell(T=120, g=g, N=1000, B=399)
        rates[g] = cell.rates[0.05]
    ok = rates[-0.009] > rates[-0.007] > rates[0.0] and rates[-0.009] >= 0.60
    _report(
        "criterion 3",
        ok,
        f"(0,0)/A/T=120 WR 5% rates g=0: {rates[0.0]:.3f}, "
        f"g=-.007: {rates[-0.007]:.3f}, g=-.009: {rates[-0.009]:.3f}",
    )


@full_scale
def test_criterion_4_seq_test_size():
    cell, secs = _cell(scenario="h0m1", T=480, N=1000, B=399)
    r5 = cell.rates[0.05]
    _report(
        "criterion 4",
        0.015 <= r5 <= 0.075,
        f"(0,1)/A/T=480 WR 2|1 5% rate {r5:.3f} (reference .045), {secs:.0f}s",
    )


@full_scale
def test_criterion_5_rf_pretest():
    cell, secs = _cell(scenario="h1m0", T=240, N=1000, B=399)
    share = cell.rf_break_counts.get(1, 0) / cell.N
    _report(
        "criterion 5",
        share >= 0.90,
        f"(1,0)/A/T=240 picked h=1 in {share:.3f} of reps (reference .958), {secs:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 6: desk scale, doubled tolerances, shared wall-clock budget
# ---------------------------------------------------------------------------


def test_criterion_6_desk_scale_smoke():
    t0 = time.perf_counter()
    N, B = 200, 199

    cell1, _ = _cell(T=240, N=N, B=B)
    ok1 = (
        abs(cell1.rates[0.10] - 0.10) <= 0.060
        and abs(cell1.rates[0.05] - 0.05) <= 0.060
        and abs(cell1.rates[0.01] - 0.01) <= 0.024
    )

    cell2, _ = _cell(T=480, error_case="C", N=N, B=B)
    ok2 = 0.001 <= cell2.rates[0.05] <= 0.101

    r = {}
    for g in (0.0, -0.007, -0.009):
        c, _ = _cell(T=120, g=g, N=N, B=B)
        r[g] = c.rates[0.05]
    # the power floor doubles its distance below the reference power of 70.3
    ok3 = r[-0.009] > r[-0.007] > r[0.0] and r[-0.009] >= 0.497

    cell4, _ = _cell(scenario="h0m1", T=480, N=N, B=B)
    ok4 = cell4.rates[0.05] <= 0.105

    cell5, _ = _cell(scenario="h1m0", T=240, N=N, B=B)
    share = cell5.rf_break_counts.get(1, 0) / N
    ok5 = share >= 0.842

    secs = time.perf_counter() - t0
    ok_time = secs <= 180 * SCALE
    detail = (
        f"c1 {cell1.rates[0.10]:.3f}/{cell1.rates[0.05]:.3f}/{cell1.rates[0.01]:.3f}; "
        f"c2 {cell2.rates[0.05]:.3f}; "
        f"c3 {r[0.0]:.3f}<{r[-0.007]:.3f}<{r[-0.009]:.3f}; "
        f"c4 {cell4.rates[0.05]:.3f}; c5 h1-share {share:.3f}; "
        f"{secs:.0f}s (budget {180 * SCALE:.0f}s for {WORKERS} worker(s))"
    )
    _report("criterion 6", ok1 and ok2 and ok3 and ok4 and ok5 and ok_time, detail)


# ---------------------------------------------------------------------------
# Criterion 7: exact oracle/property suite
# ---------------------------------------------------------------------------


def _static_instance(n, seed):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(
        p1=1,
        p2=2,
        se_regressors=(Role("const"), Role("r", 1)),
        rf_instruments=(Role("const"), Role("r", 1), Role("r", 2)),
    )
    r = rng.normal(size=(n, 2))
    x = 0.8 * r[:, 1:] + rng.normal(size=(n, 1))
    y = 0.5 * x[:, 0] + 0.5 * r[:, 0] + rng.normal(size=n)
    return spec, Dataset(y=y, x=x, r=r)


def test_criterion_7a_dp_equals_exhaustive():
    rng = np.random.default_rng(1)
    checked = 0
    for trial in range(20):
        n = int(rng.integers(30, 41))
        k = int(rng.integers(1, 3))
        spec, data = _static_instance(n, seed=int(rng.integers(1, 1_000_000)))
        design = make_design(spec, data)
        eps = 0.15
        ml = min_regime_length(n, eps, spec.q)
        if (k + 1) * ml > n:
            continue
        first = first_stage(design, no_breaks(n, eps, 1))
        x_hat = first.x_hat
        part, ssr = global_ssr_breaks(design, first, k, eps)
        W = np.column_stack([x_hat, design.Z1])
        best = (math.inf, None)
        for tup in itertools.combinations(range(1, n), k):
            edges = (0,) + tup + (n,)
            if any(b - a < ml for a, b in zip(edges, edges[1:])):
                continue
            tot = 0.0
            for a, b in zip(edges, edges[1:]):
                beta = np.linalg.lstsq(W[a:b], design.y[a:b], rcond=None)[0]
                resid = design.y[a:b] - W[a:b] @ beta
                tot += float(resid @ resid)
            if tot < best[0] - 1e-12:
                best = (tot, tup)
        assert part.breaks == best[1], f"trial {trial}: {part.breaks} vs {best[1]}"
        checked += 1
    _report("criterion 7a", checked >= 15, f"DP == exhaustive on {checked} instances")


def test_criterion_7b_identity_multiplier():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=120, seed=5))
    spec = bb.scenario_model_spec()
    design = make_design(spec, data)
    n = design.n
    ml = min_regime_length(n, 0.15, spec.q)
    est = fit_regimes(design, first_stage(design, no_breaks(n, 0.15, ml)), no_breaks(n, 0.15, ml))
    ones = np.ones(n)
    scale = 1.0 + float(np.abs(data.y).max())
    worst = 0.0
    for gen in (wr_generate, wf_generate):
        bd = gen(spec, data, est, ones)
        worst = max(
            worst,
            float(np.abs(bd.y - data.y).max()) / scale,
            float(np.abs(bd.x - data.x).max()) / scale,
        )
    _report("criterion 7b", worst <= 1e-12, f"max scaled deviation {worst:.2e}")


def test_criterion_7c_wr_equals_wf_lag_free():
    spec = ModelSpec(
        p1=1,
        p2=3,
        se_regressors=(Role("const"), Role("r", 1)),
        rf_instruments=(Role("const"), Role("r", 1), Role("r", 2), Role("r", 3)),
    )
    rng = np.random.default_rng(9)
    T = 100
    r = rng.normal(size=(T, 3))
    x = (r @ [1.0, 0.7, -0.4])[:, None] + rng.normal(size=(T, 1))
    y = 0.5 * x[:, 0] + 0.3 * r[:, 0] + rng.normal(size=T)
    data = Dataset(y=y, x=x, r=r)
    design = make_design(spec, data)
    out_wr = bootstrap_sup_test_design(
        design, BootstrapConfig("wr", 49, 17), null_breaks=0, alt_breaks=1
    )
    out_wf = bootstrap_sup_test_design(
        design, BootstrapConfig("wf", 49, 17), null_breaks=0, alt_breaks=1
    )
    exact = (
        np.array_equal(out_wr.boot_draws, out_wf.boot_draws)
        and out_wr.statistic == out_wf.statistic
    )
    _report("criterion 7c", exact, "WR and WF bit-identical on a lag-free spec")


def test_criterion_7d_f_identity():
    rng = np.random.default_rng(13)
    worst = 0.0
    for trial in range(50):
        T = int(rng.integers(50, 91))
        data, _ = bb.generate(
            bb.ScenarioConfig("h0m0", "A", T=T, seed=int(rng.integers(1, 10**9)))
        )
        spec = bb.scenario_model_spec()
        design = make_design(spec, data)
        n, d = design.n, spec.d_beta
        part0 = no_breaks(n, 0.15, 1)
        x_hat = first_stage(design, part0).x_hat
        W = np.column_stack([x_hat, design.Z1])
        grid = enumerate_partitions(n, 1, 0.15, spec.q)
        cands = list(grid.candidates())
        (c,) = cands[int(rng.integers(0, len(cands)))]
        part = Partition((c,), n, 0.15, grid.min_len)
        fit0 = second_stage(design, x_hat, part0)
        fit1 = second_stage(design, x_hat, part)
        f_ssr = f_at(fit0.ssr, fit1.ssr, n, 1, d)
        s2 = fit1.ssr / (n - 2 * d)
        Vs = [
            s2 * np.linalg.inv(W[a - 1 : b].T @ W[a - 1 : b] / n)
            for a, b in part.regimes()
        ]
        diff = fit1.beta[0] - fit1.beta[1]
        f_wald = (n / d) * diff @ np.linalg.solve(Vs[0] + Vs[1], diff)
        worst = max(worst, abs(f_ssr - f_wald) / max(1.0, abs(f_wald)))
    _report("criterion 7d", worst <= 1e-8, f"max relative gap {worst:.2e} over 50 instances")


def test_criterion_7e_instrument_invariance():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=121, seed=23))
    spec = bb.scenario_model_spec()
    design = make_design(spec, data)
    n = design.n
    base = bb.sup_wald_design(design, k=1).statistic
    rng = np.random.default_rng(23)
    parts = enumerate_partitions(n, 1, 0.15, spec.q).as_array()
    worst = 0.0
    for _ in range(10):
        A = rng.normal(size=(spec.q, spec.q)) + 2.0 * np.eye(spec.q)
        ZA = design.Z @ A.T
        delta = np.linalg.solve(ZA.T @ ZA, ZA.T @ design.x)
        x_hat = ZA @ delta
        scan = scan_partitions(design.y, np.column_stack([x_hat, design.Z1]), parts, n)
        worst = max(worst, abs(float(np.max(scan.wald)) - base) / base)
    _report("criterion 7e", worst <= 1e-8, f"max relative drift {worst:.2e} over 10 maps")


def test_criterion_7f_worker_count_invariance():
    kw = dict(
        scenario="h0m0", error_case="A", T=80, N=6, B=19,
        master_seed=77, keep_reps=True,
    )
    cell1 = run_cell(McConfig(threads=1, **kw))
    cell8 = run_cell(McConfig(threads=8, **kw))
    stats1 = [r["stat"] for r in cell1.rep_records]
    stats8 = [r["stat"] for r in cell8.rep_records]
    ps1 = [r["p"] for r in cell1.rep_records]
    ps8 = [r["p"] for r in cell8.rep_records]
    exact = stats1 == stats8 and ps1 == ps8 and cell1.rates == cell8.rates
    _report("criterion 7f", exact, "run_cell bit-identical for 1 vs 8 workers")


def test_criterion_7g_pvalue_rules():
    ok = True
    # B = 4: p-value by hand, 5% level infeasible
    p, crit, rej, flags = pvalue_and_quantile(2.5, np.array([1.0, 2, 3, 4]), (0.5, 0.05))
    ok &= p == 0.5
    ok &= crit[0.5] == 3.0 and rej[0.5] is False  # (0.5)(5) = 2.5 -> 3rd order stat
    ok &= crit[0.05] == np.inf and rej[0.05] is False
    # B = 19: (0.95)(20) = 19 -> largest draw
    draws = np.linspace(1.0, 19.0, 19)
    p, crit, rej, flags = pvalue_and_quantile(18.5, draws, (0.05, 0.10))
    ok &= crit[0.05] == 19.0 and rej[0.05] is False
    ok &= crit[0.10] == 18.0 and rej[0.10] is True  # (0.9)(20) = 18
    ok &= p == pytest.approx(1 / 19)
    # B = 399: indices 360 / 380 / 396
    draws = np.arange(1.0, 400.0)
    p, crit, rej, flags = pvalue_and_quantile(380.5, draws, (0.10, 0.05, 0.01))
    ok &= (crit[0.10], crit[0.05], crit[0.01]) == (360.0, 380.0, 396.0)
    ok &= rej[0.10] is True and rej[0.05] is True and rej[0.01] is False
    ok &= p == pytest.approx(19 / 399)
    _report("criterion 7g", bool(ok), "order-statistic and p-value rules match hand values")
