"""Scenario generator checks: parameter values, error cases, determinism."""

import numpy as np
import pytest

import breakboot as bb
from breakboot import dgp
from breakboot.exceptions import ConfigError
from breakboot.rng import generator


def test_scenario_h0m0_parameter_values():
    _, truth = bb.generate(bb.ScenarioConfig("h0m0", "A", T=60, seed=1))
    np.testing.assert_array_equal(truth.se_coef[0], [0.5, 0.5, 0.5, 0.8])
    np.testing.assert_array_equal(
        truth.rf_coef[0], [0.5, 1.5, 1.5, 1.5, 1.5, 0.5, 0.2]
    )
    assert truth.rf_break is None and truth.se_break is None


def companion_eigenvalues(rf, se):
    """Eigenvalues, largest first, of the (y, x) VAR(1) that an RF and an SE regime make."""
    b_x, b_y1 = se[1], se[3]
    d_x1, d_y1 = rf[5], rf[6]
    A = np.array([[b_y1 + b_x * d_y1, b_x * d_x1], [d_y1, d_x1]])
    return np.sort(np.linalg.eigvals(A).real)[::-1]


def test_companion_eigenvalues_stated_in_the_module_docstring():
    np.testing.assert_allclose(
        companion_eigenvalues(dgp._RF_REGIME_2, dgp._SE_REGIME_1), [1.0, 0.4], atol=1e-12)
    np.testing.assert_allclose(
        companion_eigenvalues(dgp._RF_REGIME_1, dgp._SE_REGIME_1), [0.86, 0.09], atol=0.005)
    np.testing.assert_allclose(
        companion_eigenvalues(dgp._RF_REGIME_2, dgp._SE_REGIME_2), [0.36, 0.14], atol=0.005)


def test_scenario_h1m0_regimes_and_break():
    T = 120
    _, truth = bb.generate(bb.ScenarioConfig("h1m0", "A", T=T, seed=1))
    np.testing.assert_array_equal(
        truth.rf_coef[0], [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
    )
    np.testing.assert_array_equal(
        truth.rf_coef[1], [0.5, 1.5, 1.5, 1.5, 1.5, 0.5, 0.2]
    )
    assert truth.rf_break == T // 4
    np.testing.assert_array_equal(truth.se_coef[0], [0.5, 0.5, 0.5, 0.8])


def test_scenario_m1_second_regime():
    T = 100
    _, truth = bb.generate(bb.ScenarioConfig("h0m1", "A", T=T, seed=1))
    np.testing.assert_array_equal(truth.se_coef[1], [-0.5, -0.5, -0.5, 0.1])
    assert truth.se_break == 3 * T // 4


def test_alternative_shift_window():
    T = 100
    _, truth = bb.generate(bb.ScenarioConfig("h0m0", "A", T=T, g=-0.009, seed=1))
    assert truth.alt_break == T // 2 and truth.alt_end == T
    _, truth = bb.generate(bb.ScenarioConfig("h1m1", "A", T=T, g=0.5, seed=1))
    assert truth.alt_break == T // 2 and truth.alt_end == 3 * T // 4
    # the shifted window takes the later regime's coefficients plus g
    np.testing.assert_array_equal(
        dgp._se_coef_at(truth, T // 2 + 1), np.array([-0.5, -0.5, -0.5, 0.1]) + 0.5
    )
    np.testing.assert_array_equal(
        dgp._se_coef_at(truth, 3 * T // 4 + 1), [-0.5, -0.5, -0.5, 0.1]
    )


def test_determinism_bit_identical():
    cfg = bb.ScenarioConfig("h1m1", "D", T=80, g=0.3, seed=123)
    d1, _ = bb.generate(cfg)
    d2, _ = bb.generate(cfg)
    np.testing.assert_array_equal(d1.y, d2.y)
    np.testing.assert_array_equal(d1.x, d2.x)
    np.testing.assert_array_equal(d1.r, d2.r)


def test_residual_identity_per_regime():
    # with g=0 the SE holds exactly with the regime-matched coefficients
    cfg = bb.ScenarioConfig("h0m1", "B", T=90, seed=5)
    data, truth = bb.generate(cfg)
    for t in range(2, data.T + 1):
        se = dgp._se_coef_at(truth, t)
        pred = (
            se[0]
            + se[1] * data.x[t - 1, 0]
            + se[2] * data.r[t - 1, 0]
            + se[3] * data.y[t - 2]
        )
        assert abs(data.y[t - 1] - pred - truth.u[t - 1]) < 1e-10


def test_rf_residual_identity():
    cfg = bb.ScenarioConfig("h1m0", "A", T=90, seed=5)
    data, truth = bb.generate(cfg)
    for t in range(2, data.T + 1):
        rf = dgp._rf_coef_at(truth, t)
        pred = (
            rf[0]
            + data.r[t - 1] @ rf[1:5]
            + rf[5] * data.x[t - 2, 0]
            + rf[6] * data.y[t - 2]
        )
        assert abs(data.x[t - 1, 0] - pred - truth.v[t - 1]) < 1e-10


def test_case_b_standardisation():
    # stationary GARCH variance g0/(1-g1-g2) = 0.5, so standardised errors
    # have unit variance; check against a large simulated path
    u, v, _ = dgp.draw_errors("B", 1_000_000, generator(1, 1), generator(1, 2))
    assert abs(np.var(u) - 1.0) < 0.02
    assert abs(np.var(v) - 1.0) < 0.02


def test_case_a_moments():
    u, v, r = dgp.draw_errors("A", 1_000_000, generator(2, 1), generator(2, 2))
    assert abs(np.corrcoef(u, v)[0, 1] - 0.5) < 0.005
    assert abs(np.var(u) - 1.0) < 0.01
    assert np.allclose(np.var(r, axis=0), 1.0, atol=0.01)


def test_case_c_variance_shift():
    T = 1_000_000
    u, v, _ = dgp.draw_errors("C", T, generator(3, 1), generator(3, 2))
    cut = T // 3
    assert abs(np.var(u[:cut]) - 1.0) < 0.02
    assert abs(np.var(u[cut:]) - 2.0) < 0.02
    # covariance stays 0.5 in both segments
    assert abs(np.cov(u[:cut], v[:cut])[0, 1] - 0.5) < 0.02
    assert abs(np.cov(u[cut:], v[cut:])[0, 1] - 0.5) < 0.02


def test_case_d_regressor_shift():
    T = 500_000
    _, _, r = dgp.draw_errors("D", T, generator(4, 1), generator(4, 2))
    cut = 3 * T // 5
    assert np.allclose(np.var(r[:cut], axis=0), 1.0, atol=0.02)
    assert np.allclose(np.var(r[cut:], axis=0), 1.5, atol=0.03)


def test_endogeneity_of_x():
    # x loads one-for-one on v with Cov(u, v) = 0.5, so conditioning on the
    # instruments leaves x-variation of unit variance and covariance 0.5
    # with u: OLS on the structural equation is biased by about +0.5 on the
    # x coefficient.  (Raw moments of levels are useless here because the
    # scenario parameters put a unit root in the companion matrix.)
    cfg = bb.ScenarioConfig("h0m0", "A", T=100_000, seed=11)
    data, truth = bb.generate(cfg)
    u, v = truth.u, truth.v
    assert abs(np.corrcoef(v, u)[0, 1] - 0.5) < 0.02
    # OLS bias on the x coefficient: partialling the included regressors
    # out of x leaves roughly the r2..r4 loadings plus v, variance about
    # 1.5^2 * 3 + 1, so the bias is near 0.5 / 7.75 = 0.065; far above
    # sampling noise at this T
    spec = bb.scenario_model_spec()
    _, Z1, _ = bb.build_instrument_rows(spec, data)
    W = np.column_stack([data.x[1:], Z1])
    beta_ols = np.linalg.lstsq(W, data.y[1:], rcond=None)[0]
    assert beta_ols[0] - 0.5 > 0.03


def test_constant_unconditional_variance_cases_a_b():
    for case in ("A", "B"):
        cfg = bb.ScenarioConfig("h0m0", case, T=100_000, seed=13)
        u = bb.generate(cfg)[1].u
        half = len(u) // 2
        ratio = np.var(u[:half]) / np.var(u[half:])
        assert 0.9 < ratio < 1.1


def test_two_stage_consistency_with_true_first_stage():
    # regressing y on (true conditional x, 1, r1, y_lag) recovers the SE
    # coefficients at large T
    cfg = bb.ScenarioConfig("h0m0", "A", T=50_000, seed=21)
    data, truth = bb.generate(cfg)
    spec = bb.scenario_model_spec()
    Z, Z1, _ = bb.build_instrument_rows(spec, data)
    delta_true = np.array([0.5, 1.5, 1.5, 1.5, 1.5, 0.5, 0.2])
    x_cond = Z @ delta_true
    W = np.column_stack([x_cond, Z1])
    beta = np.linalg.lstsq(W, data.y[1:], rcond=None)[0]
    np.testing.assert_allclose(beta, [0.5, 0.5, 0.5, 0.8], atol=0.05)


def test_config_validation():
    with pytest.raises(ConfigError):
        bb.ScenarioConfig("h2m0", "A", T=100)
    with pytest.raises(ConfigError):
        bb.ScenarioConfig("h0m0", "E", T=100)
    with pytest.raises(ConfigError):
        bb.ScenarioConfig("h0m0", "A", T=30)
    with pytest.raises(ConfigError):
        bb.ScenarioConfig("h0m0", "A", T=100, g=float("inf"))
