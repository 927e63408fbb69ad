"""Admissible grids and the SSR dynamic program against brute force."""

import itertools
import math

import numpy as np
import pytest

import breakboot as bb
from breakboot.estimation import first_stage, make_design
from breakboot.exceptions import InfeasiblePartitionError
from breakboot.model import Dataset, ModelSpec, Role, no_breaks
from breakboot.partition_search import (
    enumerate_partitions,
    global_ssr_breaks,
    min_regime_length,
    rf_break_grid_and_fit,
    segment_ssr_table,
)


def brute_force_tuples(n, k, min_len):
    """Independent enumeration: every strictly increasing tuple with all
    k+1 regime lengths at least min_len."""
    out = []
    for tup in itertools.combinations(range(1, n), k):
        edges = (0,) + tup + (n,)
        if all(b - a >= min_len for a, b in zip(edges, edges[1:])):
            out.append(tup)
    return out


def test_min_regime_length_rule():
    # one more than max(q-1, ceil(eps*n))
    assert min_regime_length(100, 0.15, 4) == 16
    assert min_regime_length(100, 0.15, 40) == 40
    assert min_regime_length(20, 0.15, 3) == 4


def test_enumerate_k0_single_empty():
    grid = enumerate_partitions(50, 0, 0.15, 4)
    assert list(grid.candidates()) == [()]
    assert grid.count == 1


def test_enumerate_t20_eps015():
    # eps*n = 3 exactly; regimes must be strictly longer, so breaks run
    # from 4 to 16
    grid = enumerate_partitions(20, 1, 0.15, 2)
    tuples = [t[0] for t in grid.candidates()]
    assert tuples == list(range(4, 17))
    assert grid.count == 13


def test_enumerate_matches_brute_force_k2():
    grid = enumerate_partitions(30, 2, 0.2, 3)
    got = list(grid.candidates())
    want = brute_force_tuples(30, 2, grid.min_len)
    assert got == want
    assert grid.count == len(want)


def test_enumerate_infeasible():
    with pytest.raises(InfeasiblePartitionError):
        enumerate_partitions(20, 4, 0.2, 3)


def test_grid_count_formula_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(15, 45))
        k = int(rng.integers(1, 3))
        eps = float(rng.uniform(0.1, 0.25))
        q = int(rng.integers(2, 6))
        try:
            grid = enumerate_partitions(n, k, eps, q)
        except InfeasiblePartitionError:
            continue
        want = brute_force_tuples(n, k, grid.min_len)
        assert list(grid.candidates()) == want


def static_spec(p2=2):
    return ModelSpec(
        p1=1,
        p2=p2,
        se_regressors=(Role("const"), Role("r", 1)),
        rf_instruments=tuple(
            [Role("const")] + [Role("r", j) for j in range(1, p2 + 1)]
        ),
    )


def random_static_data(n, seed, jump=0.0, jump_at=None):
    rng = np.random.default_rng(seed)
    r = rng.normal(size=(n, 2))
    x = 0.7 * r[:, 1:] + 0.5 * rng.normal(size=(n, 1))
    coef = np.array([0.5, 0.5])
    y = coef[0] * x[:, 0] + coef[1] * r[:, 0] + 0.3 * rng.normal(size=n)
    if jump:
        # coefficient jump on the included exogenous regressor: clean,
        # many residual standard deviations
        y[jump_at:] += jump * r[jump_at:, 0]
    return Dataset(y=y, x=x, r=r)


def brute_force_min_ssr(y, W, n, k, min_len):
    best = (math.inf, None)
    for tup in brute_force_tuples(n, k, min_len):
        edges = (0,) + tup + (n,)
        total = 0.0
        for a, b in zip(edges, edges[1:]):
            Ws, ys = W[a:b], y[a:b]
            beta = np.linalg.lstsq(Ws, ys, rcond=None)[0]
            resid = ys - Ws @ beta
            total += float(resid @ resid)
        if total < best[0] - 1e-12:
            best = (total, tup)
    return best


def test_dp_matches_exhaustive_search_l2():
    spec = static_spec()
    data = random_static_data(40, seed=1)
    design = make_design(spec, data)
    n = design.n
    eps = 0.15
    _, x_hat, _ = first_stage(design, no_breaks(n, eps, 1))
    part, ssr = global_ssr_breaks(design, x_hat, 2, eps)
    W = np.column_stack([x_hat, design.Z1])
    ml = min_regime_length(n, eps, spec.q)
    ssr_bf, tup_bf = brute_force_min_ssr(design.y, W, n, 2, ml)
    assert part.breaks == tup_bf
    assert abs(ssr - ssr_bf) < 1e-8 * max(1.0, ssr_bf)


def test_dp_l0_full_sample_ssr():
    spec = static_spec()
    data = random_static_data(40, seed=2)
    design = make_design(spec, data)
    _, x_hat, _ = first_stage(design, no_breaks(design.n, 0.15, 1))
    part, ssr = global_ssr_breaks(design, x_hat, 0, 0.15)
    W = np.column_stack([x_hat, design.Z1])
    beta = np.linalg.lstsq(W, design.y, rcond=None)[0]
    resid = design.y - W @ beta
    assert part.breaks == ()
    assert abs(ssr - float(resid @ resid)) < 1e-9


def test_dp_finds_planted_break():
    # a 10-standard-deviation coefficient jump at t=20 in a T=40 sample
    spec = static_spec()
    data = random_static_data(40, seed=3, jump=6.0, jump_at=20)
    design = make_design(spec, data)
    _, x_hat, _ = first_stage(design, no_breaks(design.n, 0.15, 1))
    part, _ = global_ssr_breaks(design, x_hat, 1, 0.15)
    assert part.breaks == (20,)


def test_segment_table_matches_fresh_ols():
    # one target column, and two, whose SSRs the table sums (the reduced
    # form with p1 = 2)
    rng = np.random.default_rng(4)
    n, d = 60, 3
    W = rng.normal(size=(n, d))
    for y in (rng.normal(size=n), rng.normal(size=(n, 2))):
        table = segment_ssr_table(y, W, min_len=5)
        for _ in range(100):
            a = int(rng.integers(1, n - 5))
            b = int(rng.integers(a + 4, n)) + 1
            b = min(b, n)
            if b - a + 1 < 5:
                continue
            beta = np.linalg.lstsq(W[a - 1 : b], y[a - 1 : b], rcond=None)[0]
            resid = y[a - 1 : b] - W[a - 1 : b] @ beta
            want = float(np.sum(resid * resid))
            assert abs(table[a, b] - want) < 1e-10 * max(1.0, want)


def test_segment_table_marks_singular_segments_inf():
    # a regressor that is zero over rows 1..20 makes every segment inside
    # that stretch singular: those hold +inf, and every other segment still
    # matches a fresh OLS fit
    rng = np.random.default_rng(8)
    n, d, ml = 60, 3, 5
    W = rng.normal(size=(n, d))
    W[:20, 1] = 0.0
    y = rng.normal(size=n)
    table = segment_ssr_table(y, W, min_len=ml)
    for a in range(1, n - ml + 2):
        for b in range(a + ml - 1, n + 1):
            if b <= 20:
                assert table[a, b] == np.inf
                continue
            beta = np.linalg.lstsq(W[a - 1 : b], y[a - 1 : b], rcond=None)[0]
            resid = y[a - 1 : b] - W[a - 1 : b] @ beta
            want = float(resid @ resid)
            assert abs(table[a, b] - want) < 1e-10 * max(1.0, want)


def test_dp_ssr_monotone_in_l():
    spec = static_spec()
    data = random_static_data(45, seed=5)
    design = make_design(spec, data)
    _, x_hat, _ = first_stage(design, no_breaks(design.n, 0.15, 1))
    ssrs = [global_ssr_breaks(design, x_hat, l, 0.15)[1] for l in range(3)]
    assert ssrs[0] >= ssrs[1] - 1e-10 >= ssrs[2] - 2e-10


def test_dp_optimality_small_samples():
    # exhaustive optimality sweep over random instances
    spec = static_spec()
    for seed in range(6, 12):
        n_T = int(np.random.default_rng(seed).integers(34, 50))
        data = random_static_data(n_T, seed=seed)
        design = make_design(spec, data)
        n = design.n
        _, x_hat, _ = first_stage(design, no_breaks(n, 0.15, 1))
        W = np.column_stack([x_hat, design.Z1])
        for k in (1, 2):
            ml = min_regime_length(n, 0.15, spec.q)
            if (k + 1) * ml > n:
                continue
            part, ssr = global_ssr_breaks(design, x_hat, k, 0.15)
            ssr_bf, tup_bf = brute_force_min_ssr(design.y, W, n, k, ml)
            assert abs(ssr - ssr_bf) < 1e-8 * max(1.0, ssr_bf)
            assert part.breaks == tup_bf


def test_rf_dp_matches_brute_force():
    data, _ = bb.generate(bb.ScenarioConfig("h1m0", "A", T=41, seed=8))
    spec = bb.scenario_model_spec()
    design = make_design(spec, data)
    n = design.n
    ml = min_regime_length(n, 0.15, spec.q)
    part, delta, _ = rf_break_grid_and_fit(design, 2, 0.15)
    best = (math.inf, None)
    for tup in brute_force_tuples(n, 2, ml):
        edges = (0,) + tup + (n,)
        total = 0.0
        for a, b in zip(edges, edges[1:]):
            Zs, xs = design.Z[a:b], design.x[a:b]
            beta = np.linalg.lstsq(Zs, xs, rcond=None)[0]
            resid = xs - Zs @ beta
            total += float(np.sum(resid * resid))
        if total < best[0] - 1e-12:
            best = (total, tup)
    assert part.breaks == best[1]
    assert len(delta) == 3


@pytest.mark.slow
def test_rf_break_fraction_recovered():
    # scenario with one RF break at [T/4]: the 1-break DP should land
    # within 0.05 of fraction 0.25 in at least 95% of replications
    spec = bb.scenario_model_spec()
    hits = 0
    reps = 200
    for j in range(reps):
        data, truth = bb.generate(bb.ScenarioConfig("h1m0", "A", T=480, seed=1000 + j))
        design = make_design(spec, data)
        part, _, _ = rf_break_grid_and_fit(design, 1, 0.15)
        frac = part.breaks[0] / design.n
        if abs(frac - 0.25) <= 0.05:
            hits += 1
    assert hits >= 0.95 * reps
