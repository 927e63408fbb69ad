"""Least-squares kernels against independent oracles."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import breakboot as bb
from breakboot.estimation import (
    COND_CAP,
    _batched_solve,
    _middle_form,
    eicker_white,
    first_stage,
    fit_regimes,
    make_design,
    ols,
    second_stage,
)
from breakboot.exceptions import RankDeficientError
from breakboot.model import Dataset, Partition, no_breaks
from breakboot.partition_search import min_regime_length


def test_ols_exact_line():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    y = np.array([0.0, 1.0, 2.0])
    fit = ols(X, y)
    np.testing.assert_allclose(fit.coef, [0.0, 1.0], atol=1e-12)
    assert fit.ssr < 1e-24


def test_ols_zero_residuals_for_exact_model():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(20, 3))
    b = np.array([2.0, -1.0, 0.5])
    fit = ols(X, X @ b)
    np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-10)


def test_ols_matches_normal_equations_in_extended_precision():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    fit = ols(X, y)
    Xl = X.astype(np.longdouble)
    yl = y.astype(np.longdouble)
    coef_oracle = np.linalg.solve(
        (Xl.T @ Xl).astype(np.float64), (Xl.T @ yl).astype(np.float64)
    )
    np.testing.assert_allclose(fit.coef, coef_oracle, atol=1e-9)
    assert abs(fit.ssr - float(np.sum((y - X @ fit.coef) ** 2))) <= 1e-10 * max(
        1.0, fit.ssr
    )


def test_ols_rank_deficient_raises():
    X = np.ones((10, 2))
    with pytest.raises(RankDeficientError):
        ols(X, np.arange(10.0))
    with pytest.raises(RankDeficientError):
        ols(np.ones((2, 3)), np.ones(2))


def _design(T=200, seed=0, scenario="h0m0"):
    data, _ = bb.generate(bb.ScenarioConfig(scenario, "A", T=T, seed=seed))
    spec = bb.scenario_model_spec()
    return make_design(spec, data), spec


def test_first_stage_exact_linear_x():
    design, spec = _design(T=80, seed=2)
    # make x exactly linear in z
    delta = np.arange(1.0, 8.0)[:, None]
    x_lin = design.Z @ delta
    data = design.data
    d2 = Dataset(
        y=data.y,
        x=np.concatenate([[[data.x[0, 0]]], x_lin]),
        r=data.r,
    )
    des2 = make_design(spec, d2)
    # the lagged x inside z changed, refit against the new design
    delta_fit = np.linalg.lstsq(des2.Z, des2.x, rcond=None)[0]
    part = no_breaks(des2.n, 0.15, min_regime_length(des2.n, 0.15, spec.q))
    dl, x_hat, v_hat = first_stage(des2, part)
    np.testing.assert_allclose(x_hat, des2.Z @ delta_fit, atol=1e-8)
    np.testing.assert_allclose(v_hat, des2.x - x_hat, atol=1e-12)


def test_first_stage_single_regime_equals_columnwise_ols():
    design, spec = _design(T=120, seed=3)
    part = no_breaks(design.n, 0.15, min_regime_length(design.n, 0.15, spec.q))
    delta, x_hat, v_hat = first_stage(design, part)
    ref = ols(design.Z, design.x[:, 0])
    np.testing.assert_allclose(delta[0][:, 0], ref.coef, rtol=1e-9)


def test_first_stage_consistency_scenario_h1m0():
    data, truth = bb.generate(bb.ScenarioConfig("h1m0", "A", T=10_000, seed=9))
    spec = bb.scenario_model_spec()
    design = make_design(spec, data)
    n = design.n
    ml = min_regime_length(n, 0.15, spec.q)
    # impose the true RF break (effective row = original break - max_lag)
    part = Partition((truth.rf_break - 1,), n, 0.15, ml)
    delta, _, _ = first_stage(design, part)
    np.testing.assert_allclose(delta[0][:, 0], truth.rf_coef[0], atol=0.05)
    np.testing.assert_allclose(delta[1][:, 0], truth.rf_coef[1], atol=0.05)


def test_second_stage_single_regime_equals_ols():
    design, spec = _design(T=100, seed=4)
    part0 = no_breaks(design.n, 0.15, min_regime_length(design.n, 0.15, spec.q))
    _, x_hat, _ = first_stage(design, part0)
    fit = second_stage(design, x_hat, part0)
    W = np.column_stack([x_hat, design.Z1])
    ref = ols(W, design.y)
    np.testing.assert_allclose(fit.beta[0], ref.coef, rtol=1e-9)
    assert abs(fit.ssr - ref.ssr) < 1e-8 * max(1.0, ref.ssr)


def test_sample_stages_raise_on_a_bad_regime_and_keep_the_plain_solve_bits():
    design, spec = _design(T=200, seed=8)
    n = design.n
    part = Partition((90,), n, 0.15, min_regime_length(n, 0.15, spec.q))
    delta, x_hat, v_hat = first_stage(design, part)
    # the 2-worker benchmark cell compares sample statistics bit for bit
    for (a, b), d in zip(part.regimes(), delta):
        Zr = design.Z[a - 1 : b]
        plain = np.linalg.solve(Zr.T @ Zr, Zr.T @ design.x[a - 1 : b])
        assert np.array_equal(d, plain)
        assert np.array_equal(x_hat[a - 1 : b], Zr @ plain)
    assert np.array_equal(v_hat, design.x - x_hat)

    # a column that is zero over regime 2, and one scaled there so that the
    # regime's Gram exceeds COND_CAP although it still solves
    for scale in (0.0, 1e-4):
        Z = design.Z.copy()
        Z[90:, 2] *= scale
        bad_x_hat = x_hat.copy()
        bad_x_hat[90:] *= scale
        if scale:
            for X in (Z[90:], np.column_stack([bad_x_hat, design.Z1])[90:]):
                G = X.T @ X
                assert np.linalg.cond(G) > COND_CAP
                assert _batched_solve(G[None], G[None, :, :1])[1].all()
        with pytest.raises(RankDeficientError):
            first_stage(replace(design, Z=Z), part)
        with pytest.raises(RankDeficientError):
            second_stage(design, bad_x_hat, part)


def test_second_stage_mirror_halves_equal_betas():
    # with a lag-free spec, duplicating one half across a break at T/2
    # makes the two regimes literally identical, so the regime estimates
    # coincide
    from breakboot.model import ModelSpec, Role

    spec = ModelSpec(
        p1=1,
        p2=2,
        se_regressors=(Role("const"), Role("r", 1)),
        rf_instruments=(Role("const"), Role("r", 1), Role("r", 2)),
    )
    rng = np.random.default_rng(5)
    m = 40
    r_half = rng.normal(size=(m, 2))
    x_half = 0.8 * r_half[:, 1:] + rng.normal(size=(m, 1))
    y_half = 1.0 + 0.5 * x_half[:, 0] - 0.3 * r_half[:, 0] + rng.normal(size=m)
    dup = Dataset(
        y=np.concatenate([y_half, y_half]),
        x=np.concatenate([x_half, x_half]),
        r=np.concatenate([r_half, r_half]),
    )
    des = make_design(spec, dup)
    part = Partition((m,), des.n, 0.15, min_regime_length(des.n, 0.15, spec.q))
    _, x_hat, _ = first_stage(des, part)
    fit = second_stage(des, x_hat, part)
    np.testing.assert_allclose(fit.beta[0], fit.beta[1], atol=1e-10)


def test_second_stage_consistency_h0m0():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=10_000, seed=12))
    spec = bb.scenario_model_spec()
    design = make_design(spec, data)
    part0 = no_breaks(design.n, 0.15, min_regime_length(design.n, 0.15, spec.q))
    _, x_hat, _ = first_stage(design, part0)
    fit = second_stage(design, x_hat, part0)
    np.testing.assert_allclose(fit.beta[0], [0.5, 0.5, 0.5, 0.8], atol=0.05)


def test_structural_residual_uses_actual_x():
    design, spec = _design(T=90, seed=6)
    part0 = no_breaks(design.n, 0.15, min_regime_length(design.n, 0.15, spec.q))
    _, x_hat, _ = first_stage(design, part0)
    fit = second_stage(design, x_hat, part0)
    w_actual = np.column_stack([design.x, design.Z1])
    np.testing.assert_allclose(fit.u_hat, design.y - w_actual @ fit.beta[0], atol=1e-10)


def test_eicker_white_zero_scores_give_zero_meat():
    design, spec = _design(T=80, seed=7)
    n = design.n
    part0 = no_breaks(n, 0.15, min_regime_length(n, 0.15, spec.q))
    est = fit_regimes(design, part0, part0)
    # force zero residuals
    est_zero = type(est)(
        rf_partition=est.rf_partition,
        delta=est.delta,
        se_partition=est.se_partition,
        beta=est.beta,
        u_hat=np.zeros(n),
        v_hat=np.zeros_like(est.v_hat),
        x_hat=est.x_hat,
    )
    blocks = eicker_white(design, est_zero, part0)
    np.testing.assert_allclose(blocks.M[0], 0.0, atol=1e-15)


def test_eicker_white_matches_direct_summation():
    # tiny instance summed by hand: a_t = w_hat_t * (u_t + v_t' beta_x)
    design, spec = _design(T=40, seed=8)
    n = design.n
    ml = min_regime_length(n, 0.15, spec.q)
    part = Partition((n // 2,), n, 0.15, ml)
    part0 = no_breaks(n, 0.15, ml)
    est = fit_regimes(design, part0, part)
    blocks = eicker_white(design, est, part)
    W = np.column_stack([est.x_hat, design.Z1])
    for i, (a, b) in enumerate(part.regimes()):
        M_oracle = np.zeros((4, 4))
        Q_oracle = np.zeros((4, 4))
        for t in range(a, b + 1):
            s = est.u_hat[t - 1] + est.v_hat[t - 1] @ est.beta[i][:1]
            at = W[t - 1] * s
            M_oracle += np.outer(at, at)
            Q_oracle += np.outer(W[t - 1], W[t - 1])
        np.testing.assert_allclose(blocks.M[i], M_oracle / n, atol=1e-10)
        np.testing.assert_allclose(blocks.Q[i], Q_oracle / n, atol=1e-12)
        V_oracle = np.linalg.solve(
            Q_oracle / n, np.linalg.solve(Q_oracle / n, M_oracle / n).T
        )
        np.testing.assert_allclose(blocks.V[i], V_oracle, rtol=1e-8)


def test_upsilon_rows_reproduce_w_hat():
    # Ups_t' z_t = (x_hat_t', z1_t')' exactly, with Pi selecting z1 from z
    design, spec = _design(T=60, seed=9)
    part0 = no_breaks(design.n, 0.15, min_regime_length(design.n, 0.15, spec.q))
    delta, x_hat, _ = first_stage(design, part0)
    Pi = np.zeros((spec.q, spec.q1))
    for col, pos in enumerate(spec.z1_positions):
        Pi[pos, col] = 1.0
    Ups = np.concatenate([delta[0], Pi], axis=1)
    np.testing.assert_allclose(
        design.Z @ Ups, np.column_stack([x_hat, design.Z1]), atol=1e-10
    )


def test_q_blocks_match_second_stage_gram():
    design, spec = _design(T=70, seed=10)
    n = design.n
    ml = min_regime_length(n, 0.15, spec.q)
    part = Partition((n // 2,), n, 0.15, ml)
    est = fit_regimes(design, no_breaks(n, 0.15, ml), part)
    blocks = eicker_white(design, est, part)
    W = np.column_stack([est.x_hat, design.Z1])
    for i, (a, b) in enumerate(part.regimes()):
        gram = W[a - 1 : b].T @ W[a - 1 : b] / n
        np.testing.assert_allclose(blocks.Q[i], gram, atol=1e-12)


def test_ssr_monotone_under_refinement():
    design, spec = _design(T=150, seed=11)
    n = design.n
    ml = min_regime_length(n, 0.15, spec.q)
    part0 = no_breaks(n, 0.15, ml)
    _, x_hat, _ = first_stage(design, part0)
    coarse = Partition((n // 2,), n, 0.15, ml)
    fine = Partition((n // 4, n // 2), n, 0.15, min(ml, n // 4))
    ssr0 = second_stage(design, x_hat, part0).ssr
    ssr1 = second_stage(design, x_hat, coarse).ssr
    ssr2 = second_stage(design, x_hat, fine).ssr
    assert ssr0 >= ssr1 - 1e-9 >= ssr2 - 2e-9


def test_instrument_transformation_invariance_of_fit():
    # replacing z by A z for nonsingular A leaves x_hat and the SE fit alone
    design, spec = _design(T=100, seed=13)
    n = design.n
    ml = min_regime_length(n, 0.15, spec.q)
    part0 = no_breaks(n, 0.15, ml)
    _, x_hat, _ = first_stage(design, part0)
    fit = second_stage(design, x_hat, part0)
    rng = np.random.default_rng(99)
    A = rng.normal(size=(spec.q, spec.q)) + 3 * np.eye(spec.q)
    ZA = design.Z @ A.T
    delta2 = np.linalg.lstsq(ZA, design.x, rcond=None)[0]
    x_hat2 = ZA @ delta2
    np.testing.assert_allclose(x_hat2, x_hat, rtol=1e-8, atol=1e-8)


def test_batched_solve_masks_singular_systems_with_per_row_bits():
    # a batch mixing exactly singular and regular systems: regular rows
    # equal a per-row solve bit for bit, singular rows are zero and not ok
    rng = np.random.default_rng(61)
    A = rng.normal(size=(200, 7, 7))
    A[::17, :, 3] = 0.0
    B = rng.normal(size=(200, 7, 2))
    X, ok = _batched_solve(A, B)
    singular = np.zeros(200, dtype=bool)
    singular[::17] = True
    np.testing.assert_array_equal(ok, ~singular)
    assert np.all(X[singular] == 0.0)
    for i in np.flatnonzero(~singular):
        assert np.array_equal(X[i], np.linalg.solve(A[i], B[i]))


def _middle_by_lu(V, delta):
    """delta' H^{-1} delta with H = D blockdiag(V) D' for the regime difference D, by LU."""
    k1, deff = V.shape[0], V.shape[-1]
    D = np.kron(np.eye(k1 - 1, k1) - np.eye(k1 - 1, k1, 1), np.eye(deff))
    blocks = np.zeros(V.shape[1:-2] + (k1 * deff, k1 * deff))
    for a in range(k1):
        blocks[..., a * deff:(a + 1) * deff, a * deff:(a + 1) * deff] = V[a]
    H = D @ blocks @ D.T
    return np.einsum("...i,...i->...", delta, np.linalg.solve(H, delta[..., None])[..., 0])


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("py", [1, 2])
def test_middle_form_by_elimination_equals_an_lu_solve(k, py):
    # random positive definite V of k + 1 regimes over (entry, candidate)
    # stacks: the elimination gives the LU solve's delta' H^{-1} delta
    rng = np.random.default_rng(101 + 10 * k + py)
    deff, stack = 3 * py, (5, 7)
    A = rng.normal(size=(k + 1, *stack, deff, deff))
    V = A @ A.swapaxes(-1, -2) + 0.1 * np.eye(deff)
    delta = rng.normal(size=(*stack, k * deff))
    form, ok = _middle_form([v.transpose(2, 3, 0, 1) for v in V], delta.transpose(2, 0, 1))
    assert ok.all()
    np.testing.assert_allclose(form, _middle_by_lu(V, delta), rtol=1e-10)


def test_middle_form_skips_a_zero_pivot_without_a_warning():
    # a coefficient that no regime's score moves leaves a zero row and
    # column in H: its pivot is zero, the candidate is skipped, and no
    # division by zero is warned about (tier-1 makes RuntimeWarning an error)
    rng = np.random.default_rng(103)
    deff = 4
    A = rng.normal(size=(2, 4, deff, deff))
    V = A @ A.swapaxes(-1, -2)
    V[:, 0, 0, :] = V[:, 0, :, 0] = 0.0  # the first pivot
    V[:, 1, 2, :] = V[:, 1, :, 2] = 0.0  # a pivot after two elimination steps
    delta = rng.normal(size=(4, deff))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        form, ok = _middle_form([v.transpose(1, 2, 0) for v in V], delta.T)
    np.testing.assert_array_equal(ok, [False, False, True, True])
    np.testing.assert_allclose(form[2:], _middle_by_lu(V[:, 2:], delta[2:]), rtol=1e-10)
