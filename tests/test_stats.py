"""Wald and F statistics against hand computations and end-to-end oracles."""

import numpy as np
import pytest

import breakboot as bb
from breakboot import estimation
from breakboot.estimation import (
    FirstStage,
    eicker_white,
    first_stage,
    fit_regimes,
    make_design,
    second_stage,
)
from breakboot.exceptions import ConfigError, DegenerateSSRError, InfeasiblePartitionError
from breakboot.harness import test_dataset as run_dataset_test
from breakboot.model import Dataset, Partition, no_breaks
from breakboot.partition_search import (
    enumerate_partitions,
    global_ssr_breaks,
    min_regime_length,
)
from breakboot.stats import (
    ContrastMatrix,
    _first_or_default,
    _sup_case_i,
    f_at,
    restricted_fit_batch,
    scan_partitions,
    scan_partitions_batch,
    sup_f_design,
    sup_wald_seq_design,
    wald_at,
)


def ssr_null(design, l, eps):
    """The SSR-minimising l-break null partition with no RF breaks."""
    return global_ssr_breaks(design, _first_or_default(design, eps), l, eps)[0]


def test_contrast_matrix_shape_and_action():
    R = ContrastMatrix(2, 3)
    M = R.matrix
    assert M.shape == (6, 9)
    assert np.linalg.matrix_rank(M) == 6
    b = np.tile([1.0, 2.0, 3.0], 3)  # equal regime coefficients
    np.testing.assert_allclose(M @ b, 0.0)


def test_wald_zero_when_betas_equal():
    R = ContrastMatrix(1, 2)
    V = [np.eye(2), 2 * np.eye(2)]
    beta = np.array([1.0, -1.0, 1.0, -1.0])
    assert wald_at(beta, V, R, 100) == pytest.approx(0.0, abs=1e-12)


def test_wald_hand_computation_1d():
    # k=1, d=1, beta=(1,0), V=diag(1,1), T=4: 4 * 1 * (2)^-1 * 1 = 2
    R = ContrastMatrix(1, 1)
    val = wald_at(np.array([1.0, 0.0]), [np.eye(1), np.eye(1)], R, 4)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_wald_end_to_end_oracle():
    # independent script evaluating the full Wald form at one partition of
    # a synthetic 30-row effective sample
    rng = np.random.default_rng(17)
    T = 31
    r = rng.normal(size=(T, 4))
    x = (r @ np.full(4, 0.8))[:, None] + rng.normal(size=(T, 1))
    y = 0.4 * x[:, 0] + 0.6 * r[:, 0] + rng.normal(size=T)
    data = Dataset(y=y, x=x, r=r)
    spec = bb.scenario_model_spec()
    design = make_design(spec, data)
    n = design.n
    c = n // 2
    part = Partition((c,), n, 0.15, min_len=2)
    part0 = no_breaks(n, 0.15, 1)
    est = fit_regimes(design, first_stage(design, part0), part)
    blocks = eicker_white(design, est, part)
    got = wald_at(np.concatenate(est.beta), blocks, ContrastMatrix(1, 4), n)

    # oracle: plain numpy, no library calls
    Z = design.Z
    delta = np.linalg.solve(Z.T @ Z, Z.T @ design.x)
    x_hat = Z @ delta
    v_hat = design.x - x_hat
    W = np.column_stack([x_hat, design.Z1])
    Wa = np.column_stack([design.x, design.Z1])
    betas, Vs = [], []
    for sl in (slice(0, c), slice(c, n)):
        b = np.linalg.solve(W[sl].T @ W[sl], W[sl].T @ design.y[sl])
        u = design.y[sl] - Wa[sl] @ b
        s = u + v_hat[sl] @ b[:1]
        a = W[sl] * s[:, None]
        Q = W[sl].T @ W[sl] / n
        M = a.T @ a / n
        Vs.append(np.linalg.inv(Q) @ M @ np.linalg.inv(Q))
        betas.append(b)
    diff = betas[0] - betas[1]
    want = n * diff @ np.linalg.solve(Vs[0] + Vs[1], diff)
    assert got == pytest.approx(want, rel=1e-8)


def test_sup_wald_singleton_grid_equals_wald_at():
    # trimming so aggressive that exactly one candidate survives
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=41, seed=19))
    spec = bb.scenario_model_spec()
    design = make_design(spec, data)
    n = design.n  # 40
    grid = enumerate_partitions(n, 1, 0.47, spec.q)
    assert grid.count == 1
    (c,) = list(grid.candidates())[0]
    out = bb.sup_wald_design(design, k=1, eps=0.47)
    part = Partition((c,), n, 0.47, grid.min_len)
    part0 = no_breaks(n, 0.47, 1)
    est = fit_regimes(design, first_stage(design, part0), part)
    blocks = eicker_white(design, est, part)
    want = wald_at(np.concatenate(est.beta), blocks, ContrastMatrix(1, 4), n)
    assert out.statistic == pytest.approx(want, rel=1e-10)
    assert out.argmax_partition.breaks == (c,)


def test_sup_wald_matches_bruteforce_recomputation():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=61, seed=23))
    spec = bb.scenario_model_spec()
    design = make_design(spec, data)
    n = design.n
    part0 = no_breaks(n, 0.15, 1)
    # k = 2 puts a middle regime, with both mask edges inside the sample
    for k in (1, 2):
        out = bb.sup_wald_design(design, k=k, eps=0.15)
        grid = enumerate_partitions(n, k, 0.15, spec.q)
        best, best_c = -np.inf, None
        for c in grid.candidates():
            part = Partition(c, n, 0.15, grid.min_len)
            est = fit_regimes(design, first_stage(design, part0), part)
            blocks = eicker_white(design, est, part)
            w = wald_at(np.concatenate(est.beta), blocks, ContrastMatrix(k, 4), n)
            if w > best:
                best, best_c = w, c
        assert out.statistic == pytest.approx(best, rel=1e-8)
        assert out.argmax_partition.breaks == best_c


def test_sup_wald_scale_equivariance():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "B", T=81, seed=29))
    spec = bb.scenario_model_spec()
    out1 = bb.sup_wald_design(make_design(spec, data), k=1)
    data_scaled = Dataset(y=7.5 * data.y, x=data.x, r=data.r)
    out2 = bb.sup_wald_design(make_design(spec, data_scaled), k=1)
    assert out2.statistic == pytest.approx(out1.statistic, rel=1e-8)


def test_sup_wald_instrument_transformation_invariance():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=81, seed=31))
    spec = bb.scenario_model_spec()
    design = make_design(spec, data)
    n = design.n
    base = bb.sup_wald_design(design, k=1)
    rng = np.random.default_rng(7)
    parts = enumerate_partitions(n, 1, 0.15, spec.q).as_array()
    for _ in range(3):
        A = rng.normal(size=(spec.q, spec.q)) + 2.0 * np.eye(spec.q)
        ZA = design.Z @ A.T
        delta = np.linalg.solve(ZA.T @ ZA, ZA.T @ design.x)
        x_hat = ZA @ delta
        W = np.column_stack([x_hat, design.Z1])
        scan = scan_partitions(design.y, W, parts, n)
        assert np.max(scan.wald) == pytest.approx(base.statistic, rel=1e-8)


def test_score_pair_enters_whole_or_not_at_all():
    # v_rows and score_beta form one score term: either alone is an error,
    # not an input the scan silently ignores
    rng = np.random.default_rng(71)
    y, W, v = rng.normal(size=60), rng.normal(size=(60, 3)), rng.normal(size=(60, 1))
    parts = enumerate_partitions(60, 1, 0.15, 3).as_array()
    with pytest.raises(ValueError):
        scan_partitions(y, W, parts, 60, v_rows=v)
    with pytest.raises(ValueError):
        scan_partitions_batch(y[None], W[None], parts, 60, score_beta=np.zeros((1, 1)))
    wald = scan_partitions(y, W, parts, 60, v_rows=v, score_beta=np.zeros(1)).wald
    assert np.all(np.isfinite(wald))


def test_score_pair_takes_one_target_column():
    # the pair's score coefficients, score_beta minus the fit's endogenous
    # block, belong to one target column: pooled targets with the pair are
    # an error in either form, not a score built from column 0's fit
    rng = np.random.default_rng(72)
    B, n = 3, 60
    Y, W = rng.normal(size=(B, n, 2)), rng.normal(size=(B, n, 3))
    v, beta = rng.normal(size=(B, n, 1)), np.zeros((B, 1))
    parts = enumerate_partitions(n, 1, 0.15, 3).as_array()
    for b in (slice(None), slice(0, 1)):
        with pytest.raises(ValueError):
            scan_partitions_batch(Y[b], W[b], parts, n, v_rows=v[b], score_beta=beta[b])


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("pair", [False, True])
def test_shared_inverse_scan_matches_bruteforce_recomputation(monkeypatch, k, pair):
    # a batch of 6 entries with column 1 resampled takes the shared-inverse
    # form; each entry's Wald value and SSR at a few candidates equal its
    # regime fits, Q, M and V recomputed with plain np.linalg calls
    rng = np.random.default_rng(103 + 2 * k + pair)
    B, n, d, p1 = 6, 80, 4, 1
    Ws = np.repeat(np.column_stack([np.ones(n), rng.normal(size=(n, d - 1))])[None], B, axis=0)
    Ws[:, :, 1] = rng.normal(size=(B, n))
    Y = Ws @ rng.normal(size=d) + rng.normal(size=(B, n)) * (1.0 + np.abs(Ws[:, :, 2]))
    score = {}
    if pair:
        score = {"v_rows": rng.normal(size=(B, n, p1)), "score_beta": rng.normal(size=(B, p1))}
    grid = enumerate_partitions(n, k, 0.15, d).as_array()
    parts = grid[rng.choice(len(grid), 4, replace=False)]
    calls = []

    def spy(*args):
        calls.append(args[5])
        return shared_inverse(*args)

    shared_inverse = estimation._shared_inverse
    monkeypatch.setattr(estimation, "_shared_inverse", spy)
    wald, ssr, ok = scan_partitions_batch(Y, Ws, parts, n, **score)
    assert calls and all(tuple(rs) == (1,) for rs in calls)
    assert ok.all()
    R = ContrastMatrix(k, d).matrix
    for b in range(B):
        for j, breaks in enumerate(parts):
            edges = (0, *breaks, n)
            thetas, V, want_ssr = [], np.zeros(((k + 1) * d, (k + 1) * d)), 0.0
            for i, (s, e) in enumerate(zip(edges[:-1], edges[1:])):
                Wr, yr = Ws[b, s:e], Y[b, s:e]
                theta = np.linalg.solve(Wr.T @ Wr, Wr.T @ yr)
                u = yr - Wr @ theta
                want_ssr += u @ u
                if pair:
                    u = u + score["v_rows"][b, s:e] @ (score["score_beta"][b] - theta[:p1])
                Q_inv = np.linalg.inv(Wr.T @ Wr / n)
                a = Wr * u[:, None]
                V[i * d:(i + 1) * d, i * d:(i + 1) * d] = Q_inv @ (a.T @ a / n) @ Q_inv
                thetas.append(theta)
            r = R @ np.concatenate(thetas)
            want = n * r @ np.linalg.solve(R @ V @ R.T, r)
            assert wald[b, j] == pytest.approx(want, rel=1e-9)
            assert ssr[b, j] == pytest.approx(want_ssr, rel=1e-9)


def test_scan_reads_the_resampled_columns_from_the_batch(monkeypatch):
    # column 1 differs only in the last of 5 entries and column 2 arrives
    # as a broadcast view: the scan borders column 1 in and reads column 2
    # from entry 0, and gives each entry's values as a batch of one (the LU
    # form) does.  A batch that is one broadcast view resamples nothing.
    rng = np.random.default_rng(73)
    B, n = 5, 60
    W0 = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
    Ws = np.repeat(W0[None], B, axis=0)
    Ws[-1, :, 1] = rng.normal(size=n)
    Ws[:, :, 2] = np.broadcast_to(W0[:, 2], (B, n))
    Y = rng.normal(size=(B, n))
    parts = enumerate_partitions(n, 1, 0.15, 4).as_array()
    seen = []

    def spy(shared, cum_R, h, s_e, e_e, rs, bufs):
        seen.append(tuple(rs))
        return shared_inverse(shared, cum_R, h, s_e, e_e, rs, bufs)

    shared_inverse = estimation._shared_inverse
    monkeypatch.setattr(estimation, "_shared_inverse", spy)
    for batch, resampled in ((Ws, (1,)), (np.broadcast_to(W0, (B, n, 4)), ())):
        for compute_wald in (True, False):
            seen.clear()
            wald, ssr, ok = scan_partitions_batch(Y, batch, parts, n, compute_wald=compute_wald)
            assert seen and set(seen) == {resampled}
            seen.clear()
            for b in range(B):
                lu = scan_partitions_batch(Y[b:b + 1], batch[b:b + 1], parts, n,
                                           compute_wald=compute_wald)
                np.testing.assert_array_equal(ok[b], lu[2][0])
                np.testing.assert_allclose(wald[b], lu[0][0], rtol=1e-10)
                np.testing.assert_allclose(ssr[b], lu[1][0], rtol=1e-10)
            assert seen == []  # a batch of one takes the LU form


@pytest.mark.parametrize("k, eps", [(1, 0.15), (2, 0.25)])
@pytest.mark.parametrize("py", [1, 2])
def test_scan_over_several_candidate_blocks_equals_the_batch_of_one(monkeypatch, k, eps, py):
    # B = 40 entries at n = 150 take blocks of a few dozen to a few hundred
    # candidates, and each regime reads only the rows its block covers; every
    # entry must still give what its whole grid in one block (a batch of one)
    # gives.  k = 2 has a middle regime with both edges inside the sample;
    # py = 2 pools two targets (the RF form); py = 1 adds the score pair.
    # Column 1 is resampled in every entry.
    rng = np.random.default_rng(79 + k + py)
    B, n, d = 40, 150, 4
    Ws = np.repeat(np.column_stack([np.ones(n), rng.normal(size=(n, d - 1))])[None], B, axis=0)
    Ws[:, :, 1] = rng.normal(size=(B, n))
    Y = rng.normal(size=(B, n) if py == 1 else (B, n, py))
    score = {} if py > 1 else {"v_rows": rng.normal(size=(B, n, 1)),
                               "score_beta": rng.normal(size=(B, 1))}
    parts = enumerate_partitions(n, k, eps, d).as_array()
    blocks = []

    def spy(Y, Ws, sums, edges, *args):
        blocks.append((Ws.shape[0], edges.shape[0]))
        return scan_block(Y, Ws, sums, edges, *args)

    scan_block = estimation._scan_block
    monkeypatch.setattr(estimation, "_scan_block", spy)
    wald, ssr, ok = scan_partitions_batch(Y, Ws, parts, n, **score)
    assert all(bc > 1 and m < len(parts) for bc, m in blocks), blocks
    # the blocks split the grid evenly, each within the block budget
    sizes = [m for _, m in blocks]
    assert max(sizes) - min(sizes) <= 1 and max(sizes) <= estimation._CHUNK // blocks[0][0]
    for b in range(B):
        one = {key: v[b:b + 1] for key, v in score.items()}
        lu = scan_partitions_batch(Y[b:b + 1], Ws[b:b + 1], parts, n, **one)
        np.testing.assert_array_equal(ok[b], lu[2][0])
        assert ok[b].any()
        np.testing.assert_allclose(wald[b], lu[0][0], rtol=1e-10)
        np.testing.assert_allclose(ssr[b], lu[1][0], rtol=1e-10)


def test_scan_inverts_each_shared_block_once_per_scan(monkeypatch):
    # each candidate regime's shared block is inverted once per scan, before
    # the batch chunks, whatever the chunking: 8 entries scanned in one
    # chunk or in four invert every (candidate, regime) block once and give
    # the same values.  k = 2 gives three regimes, and column 1 is
    # resampled in every entry.
    rng = np.random.default_rng(97)
    B, n, d, k = 8, 60, 4, 2
    Ws = np.repeat(np.column_stack([np.ones(n), rng.normal(size=(n, d - 1))])[None], B, axis=0)
    Ws[:, :, 1] = rng.normal(size=(B, n))
    Y = rng.normal(size=(B, n))
    parts = enumerate_partitions(n, k, 0.25, d).as_array()
    solves, chunks = [], []

    def block_spy(cum_A, s_e, e_e, kept):
        solves.append(s_e.shape[0])
        return shared_block(cum_A, s_e, e_e, kept)

    def scan_spy(Y, Ws, *args):
        chunks.append(Ws.shape[0])
        return scan_block(Y, Ws, *args)

    shared_block, scan_block = estimation._shared_block, estimation._scan_block
    monkeypatch.setattr(estimation, "_shared_block", block_spy)
    monkeypatch.setattr(estimation, "_scan_block", scan_spy)
    runs = []
    for chunk_rows in (1_000_000, 2 * len(parts) * n):
        solves.clear()
        chunks.clear()
        runs.append(scan_partitions_batch(Y, Ws, parts, n, chunk_rows=chunk_rows))
        n_blocks = len(solves) // (k + 1)
        assert sum(solves) == len(parts) * (k + 1)
        assert chunks == ([B] * n_blocks if chunk_rows == 1_000_000 else [2] * 4 * n_blocks)
    np.testing.assert_array_equal(runs[0][2], runs[1][2])
    assert runs[0][2].all()
    np.testing.assert_allclose(runs[0][0], runs[1][0], rtol=1e-10)
    np.testing.assert_allclose(runs[0][1], runs[1][1], rtol=1e-10)


def test_scan_batch_chunk_wider_than_a_block():
    # a tiny grid lets a batch chunk hold more entries than a block has
    # candidates' worth of work; every candidate is still scanned
    rng = np.random.default_rng(83)
    B, n = 2100, 20
    Ws = np.repeat(np.column_stack([np.ones(n), rng.normal(size=n)])[None], B, axis=0)
    Y = rng.normal(size=(B, n))
    parts = enumerate_partitions(n, 1, 0.25, 2).as_array()
    wald, ssr, ok = scan_partitions_batch(Y, Ws, parts, n)
    lu = scan_partitions_batch(Y[-1:], Ws[-1:], parts, n)
    assert ok.all()
    np.testing.assert_allclose(wald[-1], lu[0][0], rtol=1e-10)
    np.testing.assert_allclose(ssr[-1], lu[1][0], rtol=1e-10)


def test_sup_wald_seq_matches_independent_loop():
    # null partition with two long, internally homogeneous regimes: the
    # statistic equals the max over regimes of a hand-rolled scan that
    # fits the two-regime model at every interior point
    data, _ = bb.generate(bb.ScenarioConfig("h0m1", "A", T=161, seed=37))
    spec = bb.scenario_model_spec()
    design = make_design(spec, data)
    n = design.n
    eps = 0.15
    ml = min_regime_length(n, eps, spec.q)
    out = sup_wald_seq_design(design, ssr_null(design, 1, eps))

    # oracle: recompute everything from scratch
    Z = design.Z
    delta = np.linalg.solve(Z.T @ Z, Z.T @ design.x)
    x_hat = Z @ delta
    v_hat = design.x - x_hat
    W = np.column_stack([x_hat, design.Z1])
    Wa = np.column_stack([design.x, design.Z1])
    lam, _ = global_ssr_breaks(design, FirstStage(no_breaks(n, eps, ml), [delta], x_hat, v_hat), 1,
                               eps)
    best = -np.inf
    for a, bnd in lam.regimes():
        length = bnd - a + 1
        if length < 2 * ml:
            continue
        sl = slice(a - 1, bnd)
        Wi, yi, Wai = W[sl], design.y[sl], Wa[sl]
        vi = v_hat[sl]
        b_null = np.linalg.solve(Wi.T @ Wi, Wi.T @ yi)
        for cut in range(ml, length - ml + 1):
            parts = (slice(0, cut), slice(cut, length))
            bs, Vs = [], []
            okc = True
            for ps in parts:
                G = Wi[ps].T @ Wi[ps]
                b = np.linalg.solve(G, Wi[ps].T @ yi[ps])
                u = yi[ps] - Wai[ps] @ b
                s = u + vi[ps] @ b_null[:1]
                at = Wi[ps] * s[:, None]
                Q = G / n
                M = at.T @ at / n
                Vs.append(np.linalg.inv(Q) @ M @ np.linalg.inv(Q))
                bs.append(b)
            diff = bs[0] - bs[1]
            w = n * diff @ np.linalg.solve(Vs[0] + Vs[1], diff)
            best = max(best, w)
    assert out.statistic == pytest.approx(best, rel=1e-8)


def test_sup_wald_seq_infeasible_everywhere():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=41, seed=39))
    design = make_design(bb.scenario_model_spec(), data)
    # trimming so wide that no regime of the 1-break fit admits an
    # interior candidate
    with pytest.raises(InfeasiblePartitionError):
        sup_wald_seq_design(design, ssr_null(design, 1, 0.35))


def test_alternative_without_breaks_is_a_config_error():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=60, seed=39))
    design = make_design(bb.scenario_model_spec(), data)
    with pytest.raises(ConfigError):
        bb.sup_wald_design(design, k=0)
    with pytest.raises(ConfigError):
        sup_f_design(design, k=0)
    with pytest.raises(ConfigError):
        run_dataset_test(design, bb.BootstrapConfig("wr", 9, 0), alt_breaks=0, rf_breaks=0)


def test_f_at_arithmetic():
    assert f_at(10.0, 10.0, 100, 1, 4) == pytest.approx(0.0)
    assert f_at(10.0, 8.0, 100, 1, 4) == pytest.approx(5.75)
    with pytest.raises(DegenerateSSRError):
        f_at(1.0, 0.0, 100, 1, 4)


def test_sup_f_wald_form_identity():
    # the SSR-form F equals the Wald form with the homoskedastic middle
    # V = s2 * diag(Q_i^{-1}), s2 = SSR_k / (T - (k+1) d)
    rng = np.random.default_rng(43)
    for trial in range(50):
        T = int(rng.integers(50, 91))
        data, _ = bb.generate(
            bb.ScenarioConfig("h0m0", "A", T=T, seed=int(rng.integers(1, 10_000)))
        )
        spec = bb.scenario_model_spec()
        design = make_design(spec, data)
        n = design.n
        d = spec.d_beta
        part0 = no_breaks(n, 0.15, 1)
        x_hat = first_stage(design, part0).x_hat
        W = np.column_stack([x_hat, design.Z1])
        grid = enumerate_partitions(n, 1, 0.15, spec.q)
        c = int(
            list(grid.candidates())[int(rng.integers(0, grid.count))][0]
        )
        part = Partition((c,), n, 0.15, grid.min_len)
        fit0 = second_stage(design, x_hat, part0)
        fit1 = second_stage(design, x_hat, part)
        f_ssr = f_at(fit0.ssr, fit1.ssr, n, 1, d)
        s2 = fit1.ssr / (n - 2 * d)
        Vs = []
        for a, b in part.regimes():
            Q = W[a - 1 : b].T @ W[a - 1 : b] / n
            Vs.append(s2 * np.linalg.inv(Q))
        diff = fit1.beta[0] - fit1.beta[1]
        f_wald = (n / d) * diff @ np.linalg.solve(Vs[0] + Vs[1], diff)
        assert f_ssr == pytest.approx(f_wald, rel=1e-8)


def test_sup_f_agrees_with_per_candidate_ssr_form():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=61, seed=47))
    spec = bb.scenario_model_spec()
    design = make_design(spec, data)
    n = design.n
    out = sup_f_design(design, k=1)
    part0 = no_breaks(n, 0.15, 1)
    x_hat = first_stage(design, part0).x_hat
    fit0 = second_stage(design, x_hat, part0)
    grid = enumerate_partitions(n, 1, 0.15, spec.q)
    best = -np.inf
    for (c,) in grid.candidates():
        part = Partition((c,), n, 0.15, grid.min_len)
        fit1 = second_stage(design, x_hat, part)
        best = max(best, f_at(fit0.ssr, fit1.ssr, n, 1, spec.d_beta))
    assert out.statistic == pytest.approx(best, rel=1e-9)


def test_sup_f_seq_scaling():
    # the one-more-break F uses the regime-length scaling
    data, _ = bb.generate(bb.ScenarioConfig("h0m1", "A", T=161, seed=53))
    spec = bb.scenario_model_spec()
    design = make_design(spec, data)
    n = design.n
    eps = 0.15
    ml = min_regime_length(n, eps, spec.q)
    out = sup_wald_seq_design(design, ssr_null(design, 1, eps), statistic="supf")
    Z = design.Z
    delta = np.linalg.solve(Z.T @ Z, Z.T @ design.x)
    x_hat = Z @ delta
    W = np.column_stack([x_hat, design.Z1])
    first = FirstStage(no_breaks(n, eps, ml), [delta], x_hat, design.x - x_hat)
    lam, _ = global_ssr_breaks(design, first, 1, eps)
    d = spec.d_beta
    best = -np.inf
    for a, bnd in lam.regimes():
        length = bnd - a + 1
        if length < 2 * ml:
            continue
        sl = slice(a - 1, bnd)
        Wi, yi = W[sl], design.y[sl]
        b0 = np.linalg.solve(Wi.T @ Wi, Wi.T @ yi)
        ssr0 = float(np.sum((yi - Wi @ b0) ** 2))
        for cut in range(ml, length - ml + 1):
            ssr1 = 0.0
            for ps in (slice(0, cut), slice(cut, length)):
                b = np.linalg.solve(Wi[ps].T @ Wi[ps], Wi[ps].T @ yi[ps])
                ssr1 += float(np.sum((yi[ps] - Wi[ps] @ b) ** 2))
            best = max(best, ((ssr0 - ssr1) / ssr0) * ((length - d) / d))
    assert out.statistic == pytest.approx(best, rel=1e-8)


def test_statistic_nonnegative():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "C", T=81, seed=59))
    design = make_design(bb.scenario_model_spec(), data)
    assert bb.sup_wald_design(design, k=1).statistic >= 0


def test_sup_wald_sees_in_place_edits_of_the_data():
    # make_design reads the arrays on every call and nothing caches on the
    # dataset, so a design built after an in-place edit never sees the old values
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=120, seed=23))
    spec = bb.scenario_model_spec()
    bb.sup_wald_design(make_design(spec, data), k=1)
    data.y[60:] += 3.0
    fresh = Dataset(y=data.y.copy(), x=data.x.copy(), r=data.r.copy())
    edited = bb.sup_wald_design(make_design(spec, data), k=1)
    assert edited.statistic == bb.sup_wald_design(make_design(spec, fresh), k=1).statistic


def test_restricted_fit_takes_stacked_targets():
    # Y (B, n, py) fits every column on the same rows and sums the SSR over
    # the columns, as the scan pools them; py = 1 is the (B, n) call bit for bit
    rng = np.random.default_rng(67)
    W = rng.normal(size=(5, 60, 4))
    Y = rng.normal(size=(5, 60, 2))
    y = np.ascontiguousarray(Y[:, :, 0])
    b1, ssr1 = restricted_fit_batch(y, W)
    b3, ssr3 = restricted_fit_batch(y[:, :, None], W)
    assert b3.shape == (5, 4, 1)
    assert np.array_equal(b3[:, :, 0], b1) and np.array_equal(ssr3, ssr1)
    b, ssr = restricted_fit_batch(Y, W)
    cols = [restricted_fit_batch(np.ascontiguousarray(Y[:, :, c]), W) for c in range(2)]
    np.testing.assert_allclose(b, np.stack([bc for bc, _ in cols], axis=2), rtol=1e-12)
    np.testing.assert_allclose(ssr, cols[0][1] + cols[1][1], rtol=1e-12)
    # so the case (i) sup-F reduction takes the (B, n, p1) batches the
    # reduced form comes in
    data, _ = bb.generate(bb.ScenarioConfig("h1m0", "A", T=120, seed=5))
    design = make_design(bb.scenario_model_spec(), data)
    X3, Z, q = design.x[None], design.Z[None], design.spec.q
    f3 = _sup_case_i(X3, Z, 1, 0.15, q, statistic="supf")[1]
    assert np.array_equal(f3, _sup_case_i(X3[:, :, 0], Z, 1, 0.15, q, statistic="supf")[1])
    assert np.all(np.isfinite(f3))


def test_singular_null_regime_is_skipped_not_raised():
    # a regressor that is zero over the whole first null regime: its
    # restricted fit has a singular Gram matrix, so that regime's
    # candidates fail and the sup comes from the second regime
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=240, seed=5))
    data.r[:81, 0] = 0.0
    design = make_design(bb.scenario_model_spec(), data)
    n = design.n
    ml = min_regime_length(n, 0.15, design.spec.q)
    out = sup_wald_seq_design(
        design, Partition((80,), n, 0.15, ml), first_stage(design, no_breaks(n, 0.15, ml))
    )
    assert out.argmax_regime == 2
    assert out.skipped_candidates == 80 - 2 * ml + 1
    assert out.statistic == pytest.approx(17.69356340904543, rel=1e-9)


def test_seq_extra_break_is_bounded_by_the_null_partition_min_len():
    # a null partition longer-trimmed than the design's eps: both sides of
    # the extra break keep its min_len rows.  The first regime is singular,
    # so all 80 - 2 * 39 + 1 of its candidates are skipped.
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=240, seed=5))
    data.r[:81, 0] = 0.0
    design = make_design(bb.scenario_model_spec(), data)
    n = design.n
    ml = min_regime_length(n, 0.15, design.spec.q) + 2
    assert ml == 39
    out = sup_wald_seq_design(design, Partition((80,), n, 0.15, ml))
    assert out.argmax_regime == 2
    assert out.skipped_candidates == 80 - 2 * ml + 1
    assert 80 + ml <= out.argmax_partition.breaks[1] <= n - ml
    assert out.argmax_partition.min_len == ml


def test_default_first_stage_is_no_rf_breaks_without_a_search(monkeypatch):
    # first=None means no RF breaks: the same statistic as passing that
    # first stage, reached without building a segment table
    import breakboot.partition_search as ps

    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=240, seed=7))
    spec = bb.scenario_model_spec()
    design = make_design(spec, data)
    n = design.n
    given = bb.sup_wald_design(
        design, first=first_stage(design, no_breaks(n, 0.15, min_regime_length(n, 0.15, spec.q)))
    )

    def no_table(*args, **kwargs):
        raise AssertionError("segment_ssr_table called")

    monkeypatch.setattr(ps, "segment_ssr_table", no_table)
    default = bb.sup_wald_design(design)
    assert default.statistic == given.statistic
    assert default.argmax_partition == given.argmax_partition
    run_dataset_test(design, bb.BootstrapConfig("wr", 9, 0), rf_breaks=0)
