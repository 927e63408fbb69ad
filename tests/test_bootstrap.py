"""Wild bootstrap generation, replication draws, p-value rules."""

from dataclasses import replace

import numpy as np
import pytest

import breakboot as bb
from breakboot.bootstrap import (
    BootstrapConfig,
    MultiplierStream,
    _first_stage_batch,
    _paths,
    _samples,
    bootstrap_sup_test_design,
    case_i_draws,
    pvalue_and_quantile,
    rf_case_i_draws,
    rf_case_ii_draws,
    wf_generate,
    wr_generate,
)
from breakboot.estimation import first_stage, fit_regimes, make_design
from breakboot.exceptions import ConfigError, EmptyDrawsError
from breakboot.model import Dataset, ModelSpec, Partition, Role, no_breaks
from breakboot.partition_search import (
    enumerate_partitions,
    global_ssr_breaks,
    min_regime_length,
    rf_break_grid_and_fit,
)
from breakboot.rng import STREAM_NU_RF, derive_seed
from breakboot.sequential import rf_sup_wald, rf_sup_wald_seq
from breakboot.stats import (
    STATISTICS,
    _first_or_default,
    _sup_case_i,
    _sup_case_ii,
    scan_partitions_batch,
)


def null_estimates(spec, data, eps=0.15):
    design = make_design(spec, data)
    n = design.n
    ml = min_regime_length(n, eps, spec.q)
    part0 = no_breaks(n, eps, ml)
    return design, fit_regimes(design, first_stage(design, part0), part0)


def test_identity_multiplier_reproduces_sample():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=120, seed=11))
    spec = bb.scenario_model_spec()
    design, est = null_estimates(spec, data)
    ones = np.ones(design.n)
    scale = 1.0 + float(np.abs(data.y).max())
    for gen in (wr_generate, wf_generate):
        bd = gen(spec, data, est, ones)
        assert np.abs(bd.y - data.y).max() <= 1e-12 * scale
        assert np.abs(bd.x - data.x).max() <= 1e-12 * scale
        np.testing.assert_array_equal(bd.r, data.r)


def test_negative_multiplier_flips_residuals():
    # nu = -1: errors are the negated residuals; verify the start-up value
    # and the recursion identity at the first generated row by hand
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=41, seed=13))
    spec = bb.scenario_model_spec()
    design, est = null_estimates(spec, data)
    neg = -np.ones(design.n)
    bd = wr_generate(spec, data, est, neg)
    assert bd.y[0] == data.y[0] and bd.x[0, 0] == data.x[0, 0]
    # row t=2 (first generated): z rows agree with the original because all
    # lags point at the start-up values
    z2 = np.concatenate([[1.0], data.r[1], [bd.x[0, 0]], [bd.y[0]]])
    x2 = z2 @ est.first.delta[0][:, 0] - est.first.v_hat[0, 0]
    assert bd.x[1, 0] == pytest.approx(x2, rel=1e-12)
    z1_2 = np.array([1.0, data.r[1, 0], bd.y[0]])
    y2 = x2 * est.beta[0][0] + z1_2 @ est.beta[0][1:] - est.u_hat[0]
    assert bd.y[1] == pytest.approx(y2, rel=1e-12)
    # WF: negated residuals appear directly
    bdf = wf_generate(spec, data, est, neg)
    lag = spec.max_lag
    resid = bdf.y[lag:] - (
        bdf.x[lag:] @ est.beta[0][:1] + design.Z1 @ est.beta[0][1:]
    )
    np.testing.assert_allclose(resid, -est.u_hat, atol=1e-10)


def lag_free_spec():
    return ModelSpec(
        p1=1,
        p2=3,
        se_regressors=(Role("const"), Role("r", 1)),
        rf_instruments=(Role("const"), Role("r", 1), Role("r", 2), Role("r", 3)),
    )


def lag_free_data(T=90, seed=3):
    rng = np.random.default_rng(seed)
    r = rng.normal(size=(T, 3))
    e = rng.multivariate_normal([0, 0], [[1, 0.5], [0.5, 1]], size=T)
    x = (r @ [1.0, 0.8, -0.5])[:, None] + e[:, 1:]
    y = 0.3 + 0.5 * x[:, 0] + 0.4 * r[:, 0] + e[:, 0]
    return Dataset(y=y, x=x, r=r)


def test_wr_equals_wf_bit_for_bit_without_lags():
    spec = lag_free_spec()
    data = lag_free_data()
    design, est = null_estimates(spec, data)
    nu = MultiplierStream(5, 1).column(design.n, 1)
    b_wr = wr_generate(spec, data, est, nu)
    b_wf = wf_generate(spec, data, est, nu)
    np.testing.assert_array_equal(b_wr.y, b_wf.y)
    np.testing.assert_array_equal(b_wr.x, b_wf.x)
    # and the bootstrap statistics agree bit for bit
    out_wr = bootstrap_sup_test_design(
        design, BootstrapConfig("wr", 19, 5), null_breaks=0, alt_breaks=1
    )
    out_wf = bootstrap_sup_test_design(
        design, BootstrapConfig("wf", 19, 5), null_breaks=0, alt_breaks=1
    )
    np.testing.assert_array_equal(out_wr.boot_draws, out_wf.boot_draws)
    assert out_wr.statistic == out_wf.statistic


def test_wf_two_point_average_recovers_deterministic_part():
    # averaging the nu=+1 and nu=-1 samples leaves the fitted chain
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=61, seed=17))
    spec = bb.scenario_model_spec()
    design, est = null_estimates(spec, data)
    ones = np.ones(design.n)
    b_plus = wf_generate(spec, data, est, ones)
    b_minus = wf_generate(spec, data, est, -ones)
    lag = spec.max_lag
    x_mean = (b_plus.x + b_minus.x)[lag:] / 2
    np.testing.assert_allclose(x_mean, est.first.x_hat, atol=1e-10)
    y_mean = (b_plus.y + b_minus.y)[lag:] / 2
    det = x_mean @ est.beta[0][:1] + design.Z1 @ est.beta[0][1:]
    np.testing.assert_allclose(y_mean, det, atol=1e-10)


def test_wf_keeps_lagged_instrument_rows():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=61, seed=19))
    spec = bb.scenario_model_spec()
    design, est = null_estimates(spec, data)
    nu = MultiplierStream(7, 1).column(design.n, 1)
    bd = wf_generate(spec, data, est, nu)
    # the original z rows (with original lagged y, x) are what the WF
    # estimation uses; rebuild them from the original data for comparison
    Z_orig, _, _ = bb.build_instrument_rows(spec, data)
    np.testing.assert_array_equal(Z_orig, design.Z)


def test_b1_identity_bootstrap_equals_sample_statistic():
    # one replication with nu = +1 rebuilds the sample, so the bootstrap
    # statistic equals the sample statistic exactly
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=120, seed=23))
    spec = bb.scenario_model_spec()
    design, est = null_estimates(spec, data)
    nu1 = np.ones((design.n, 1))
    for scheme in ("wr", "wf"):
        draws, fails = case_i_draws(
            design, est, 1, 0.15,
            BootstrapConfig(scheme, 1, 0, 1), nu=nu1,
        )
        assert fails == 0
        sample = bb.sup_wald_design(design, k=1)
        assert draws[0] == pytest.approx(sample.statistic, rel=1e-9)


def test_bootstrap_draws_nonnegative_and_deterministic():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "B", T=80, seed=29))
    design = make_design(bb.scenario_model_spec(), data)
    out1 = bootstrap_sup_test_design(
        design, BootstrapConfig("wr", 25, 3), null_breaks=0, alt_breaks=1
    )
    out2 = bootstrap_sup_test_design(
        design, BootstrapConfig("wr", 25, 3), null_breaks=0, alt_breaks=1
    )
    assert np.all(out1.boot_draws >= 0)
    np.testing.assert_array_equal(out1.boot_draws, out2.boot_draws)


def test_multiplier_stream_keying():
    s = MultiplierStream(11, 4)
    col1 = s.column(50, 1)
    col2 = s.column(50, 2)
    assert set(np.unique(col1)) <= {-1.0, 1.0}
    assert not np.array_equal(col1, col2)
    np.testing.assert_array_equal(col1, MultiplierStream(11, 4).column(50, 1))
    # replication index and master seed both matter
    assert not np.array_equal(col1, MultiplierStream(11, 5).column(50, 1))
    assert not np.array_equal(col1, MultiplierStream(12, 4).column(50, 1))
    M = s.matrix(50, 3)
    np.testing.assert_array_equal(M[:, 0], col1)


def test_same_multiplier_for_u_and_v():
    # contemporaneous-correlation preservation: sign(u_b * v_b) equals
    # sign(u_hat * v_hat) at every t
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=61, seed=31))
    spec = bb.scenario_model_spec()
    design, est = null_estimates(spec, data)
    nu = MultiplierStream(13, 1).column(design.n, 1)
    ub = est.u_hat * nu
    vb = est.first.v_hat[:, 0] * nu
    np.testing.assert_array_equal(
        np.sign(ub * vb), np.sign(est.u_hat * est.first.v_hat[:, 0])
    )


def test_failure_cap_enforced():
    from breakboot.bootstrap import _draws
    from breakboot.exceptions import BootstrapFailureError

    draws, failures = _draws(np.array([1.0] * 96 + [np.nan] * 4))
    assert failures == 4 and len(draws) == 96
    with pytest.raises(BootstrapFailureError):
        _draws(np.array([1.0] * 94 + [np.nan] * 6))


def test_pvalue_order_statistic_rules():
    # B=399, alpha=.05: index (1-.05)*400 = 380
    draws = np.arange(1.0, 400.0)
    p, crits, rejects, flags = pvalue_and_quantile(390.0, draws, (0.10, 0.05, 0.01))
    assert crits[0.05] == 380.0
    assert crits[0.10] == 360.0
    assert crits[0.01] == 396.0
    assert rejects[0.05] and rejects[0.10] and not rejects[0.01]
    assert flags == []

    # hand count: B=4, draws (1,2,3,4), stat 2.5 -> p = 2/4
    p, _, _, _ = pvalue_and_quantile(2.5, np.array([1.0, 2.0, 3.0, 4.0]))
    assert p == pytest.approx(0.5)

    # stat above every draw: p = 0, reject everywhere feasible
    p, crits, rejects, _ = pvalue_and_quantile(10.0, np.array([1.0, 2.0, 3.0]), (0.25,))
    assert p == 0.0 and rejects[0.25]

    # B=19, alpha=.05: index (0.95)(20) = 19 -> the largest draw
    draws19 = np.linspace(1, 19, 19)
    _, crits, _, flags = pvalue_and_quantile(5.0, draws19, (0.05,))
    assert crits[0.05] == 19.0 and flags == []

    # infeasible level: B=4 cannot give a 5% critical value
    _, crits, rejects, flags = pvalue_and_quantile(10.0, np.array([1.0, 2, 3, 4]), (0.05,))
    assert crits[0.05] == np.inf and not rejects[0.05]
    assert any("infeasible" in f for f in flags)

    with pytest.raises(EmptyDrawsError):
        pvalue_and_quantile(1.0, np.empty(0))

    # an alpha outside (0, 1) is refused; 1.5 would index the draws from
    # the end and give critical value 199 and "reject"
    for alphas in ((1.5,), (0.05, 0.0), (1.0,), (-0.1,)):
        with pytest.raises(ConfigError):
            pvalue_and_quantile(350.0, draws, alphas)


def test_p_rule_and_order_rule_agree_when_exact():
    rng = np.random.default_rng(37)
    draws = rng.chisquare(4, size=399)
    for stat in rng.chisquare(4, size=40):
        p, crits, rejects, _ = pvalue_and_quantile(stat, draws, (0.10, 0.05, 0.01))
        for a in (0.10, 0.05, 0.01):
            assert rejects[a] == (p <= a)


def test_rejection_flags_attached_to_outcome():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=80, seed=41))
    design = make_design(bb.scenario_model_spec(), data)
    out = bootstrap_sup_test_design(
        design, BootstrapConfig("wf", 39, 2), null_breaks=0, alt_breaks=1,
        alphas=(0.10, 0.05),
    )
    assert set(out.levels_rejected) == {0.10, 0.05}
    assert 0.0 <= out.p_value <= 1.0
    assert len(out.boot_draws) == 39


def test_alpha_outside_unit_interval_is_a_config_error():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=80, seed=41))
    design = make_design(bb.scenario_model_spec(), data)
    for alphas in ((1.5,), (0.10, 0.0), (-0.05,)):
        with pytest.raises(ConfigError):
            bootstrap_sup_test_design(design, BootstrapConfig("wr", 9, 2), alphas=alphas)


def test_seq_bootstrap_runs_and_is_deterministic():
    data, _ = bb.generate(bb.ScenarioConfig("h0m1", "A", T=120, seed=43))
    design = make_design(bb.scenario_model_spec(), data)
    out1 = bootstrap_sup_test_design(
        design, BootstrapConfig("wr", 19, 9), null_breaks=1, alt_breaks=2
    )
    out2 = bootstrap_sup_test_design(
        design, BootstrapConfig("wr", 19, 9), null_breaks=1, alt_breaks=2
    )
    np.testing.assert_array_equal(out1.boot_draws, out2.boot_draws)
    assert out1.argmax_regime in (1, 2)


def test_supf_bootstrap_variant():
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=80, seed=47))
    design = make_design(bb.scenario_model_spec(), data)
    out = bootstrap_sup_test_design(
        design, BootstrapConfig("wr", 39, 4), null_breaks=0, alt_breaks=1,
        statistic="supf",
    )
    assert out.statistic >= 0
    assert len(out.boot_draws) == 39


def two_endogenous_system(T=120, seed=61):
    # p1 = 2 endogenous regressors, each with its own lag in the reduced form
    spec = ModelSpec(
        p1=2,
        p2=4,
        se_regressors=(Role("const"), Role("r", 1)),
        rf_instruments=(
            Role("const"), Role("r", 1), Role("r", 2), Role("r", 3), Role("r", 4),
            Role("x", 1, 1), Role("x", 2, 1),
        ),
    )
    rng = np.random.default_rng(seed)
    r = rng.normal(size=(T, 4))
    e = rng.normal(size=(T, 3))
    x = np.zeros((T, 2))
    for t in range(1, T):
        x[t, 0] = 0.5 + r[t] @ [1.0, 0.5, -0.3, 0.2] + 0.3 * x[t - 1, 0] + e[t, 1] + 0.4 * e[t, 0]
        x[t, 1] = -0.2 + r[t] @ [0.2, -0.7, 0.6, 0.4] + 0.2 * x[t - 1, 1] + e[t, 2] + 0.3 * e[t, 0]
    y = 0.3 + x @ [0.5, -0.4] + 0.6 * r[:, 0] + e[:, 0]
    return spec, Dataset(y=y, x=x, r=r)


def two_endogenous_rf_stages(eps=0.15):
    """Design plus the (draws function, leading arguments) of both RF stages."""
    spec, data = two_endogenous_system()
    design = make_design(spec, data)
    n = design.n
    part0 = no_breaks(n, eps, min_regime_length(n, eps, spec.q))
    first1 = rf_break_grid_and_fit(design, 1, eps)
    return design, first1.partition, (
        (rf_case_i_draws, (design, first_stage(design, part0))),
        (rf_case_ii_draws, (design, first1)),
    )


def test_rf_identity_multipliers_reproduce_sample_statistics_p1_two():
    # nu = +1 rebuilds x, so each RF bootstrap statistic equals the sample one
    design, part1, stages = two_endogenous_rf_stages()
    samples = (rf_sup_wald(design), rf_sup_wald_seq(design, part1))
    ones = np.ones((design.n, 1))
    for scheme in ("wr", "wf"):
        for (fn, args), sample in zip(stages, samples):
            draws, fails = fn(*args, BootstrapConfig(scheme, 1, 0, 1), nu=ones)
            assert fails == 0
            assert draws[0] == pytest.approx(sample, rel=1e-9)


def test_rf_batched_draws_equal_single_replications_p1_two():
    design, _, stages = two_endogenous_rf_stages()
    B = 19
    nu = MultiplierStream(3, 1, STREAM_NU_RF, 0).matrix(design.n, B)
    for scheme in ("wr", "wf"):
        for fn, args in stages:
            draws, fails = fn(*args, BootstrapConfig(scheme, B, 3, 1), nu=nu)
            single = [
                fn(*args, BootstrapConfig(scheme, 1, 3, 1), nu=nu[:, [b]])[0][0]
                for b in range(B)
            ]
            assert fails == 0
            np.testing.assert_allclose(draws, single, rtol=1e-12)


@pytest.mark.slow
def test_bootstrap_distribution_covers_sample_statistic():
    # under the null the sample statistic should fall inside the central
    # 99% of the bootstrap distribution almost always
    spec = bb.scenario_model_spec()
    inside = 0
    reps = 60
    for j in range(1, reps + 1):
        data, _ = bb.generate(
            bb.ScenarioConfig("h0m0", "A", T=120, seed=derive_seed(71, j))
        )
        out = bootstrap_sup_test_design(
            make_design(spec, data), BootstrapConfig("wr", 199, 71, j),
            null_breaks=0, alt_breaks=1,
        )
        lo, hi = np.quantile(out.boot_draws, [0.005, 0.995])
        inside += int(lo <= out.statistic <= hi)
    assert inside >= 0.9 * reps


def test_singular_first_stage_fails_only_its_replication():
    # one bootstrap sample whose instrument column is identically zero has a
    # singular regime Gram: its fitted values are NaN, so that draw fails,
    # and every other sample's first stage is unchanged
    rng = np.random.default_rng(11)
    B, n, q, p1 = 5, 60, 3, 2
    Zb = rng.normal(size=(B, n, q))
    xb = rng.normal(size=(n, p1, B))
    part = Partition((30,), n, 0.15, 9)
    clean = _first_stage_batch(Zb, xb, part)
    Zb[2, :, 1] = 0.0
    xhat = _first_stage_batch(Zb, xb, part)
    assert np.all(np.isnan(xhat[2]))
    keep = [0, 1, 3, 4]
    assert np.array_equal(xhat[keep], clean[keep])


def differing_columns(batch):
    """The columns of a (B, n, c) batch that are not bitwise equal in every entry."""
    return tuple(np.flatnonzero(np.any(batch != batch[:1], axis=(0, 1))))


def test_recursion_rebuilds_only_lagged_x_and_y_columns():
    # WR overwrites the lagged-x columns of z from the bootstrap history, and
    # the lagged-y columns only when y is generated (SE); const and r columns
    # keep the sample's values, and WF keeps every row, as the sample's Z
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=61, seed=53))
    spec = bb.scenario_model_spec()
    design, est = null_estimates(spec, data)
    B = 4
    nu = MultiplierStream(9, 1).matrix(design.n, B)
    roles = spec.rf_instruments
    cx, cy = roles.index(Role("x", 1, 1)), roles.index(Role("y", lag=1))
    fixed = [c for c, role in enumerate(roles) if role.kind in ("const", "r")]
    Z = np.broadcast_to(design.Z, (B,) + design.Z.shape)

    xb, Zb, yb = _paths(design, est, nu, recursive=True)
    assert differing_columns(Zb) == (cx, cy)
    assert np.array_equal(Zb[:, 1:, cx], xb[:-1, 0, :].T)
    assert np.array_equal(Zb[:, 1:, cy], yb[:-1].T)
    assert np.array_equal(Zb[:, 0], Z[:, 0])  # lags of row 1 are start-up values
    assert np.array_equal(Zb[:, :, fixed], Z[:, :, fixed])
    assert not np.array_equal(Zb[:, 1:, cy], Z[:, 1:, cy])

    xb, Zb, yb = _paths(design, est.first, nu, recursive=True)
    assert yb is None
    assert differing_columns(Zb) == (cx,)
    assert np.array_equal(Zb[:, 1:, cx], xb[:-1, 0, :].T)
    assert not np.array_equal(Zb[:, 1:, cx], Z[:, 1:, cx])
    rest = [c for c in range(spec.q) if c != cx]
    assert np.array_equal(Zb[:, :, rest], Z[:, :, rest])

    for fit in (est, est.first):
        assert _paths(design, fit, nu, recursive=False)[1] is design.Z

    # WR of x alone, on a spec whose only lag role is lagged y, rebuilds no
    # column either
    spec_y = replace(spec, rf_instruments=tuple(r for r in roles if r.kind != "x"))
    design_y = make_design(spec_y, data)
    part0 = no_breaks(design_y.n, 0.15, min_regime_length(design_y.n, 0.15, spec_y.q))
    Zb = _paths(design_y, first_stage(design_y, part0), nu, recursive=True)[1]
    assert Zb is design_y.Z


def test_shared_first_stage_equals_per_draw_fit():
    # WF rebuilds no instrument column, so one solve of the sample's regime
    # Gram against all B right-hand sides replaces the B identical fits
    rng = np.random.default_rng(12)
    B, n, q, p1 = 6, 60, 3, 2
    Z = rng.normal(size=(n, q))
    xb = rng.normal(size=(n, p1, B))
    part = Partition((30,), n, 0.15, 9)
    shared = _first_stage_batch(Z, xb, part)
    per_draw = _first_stage_batch(np.broadcast_to(Z, (B, n, q)), xb, part)
    np.testing.assert_allclose(shared, per_draw, rtol=1e-12, atol=1e-12)
    Z[:, 1] = 0.0
    assert np.all(np.isnan(_first_stage_batch(Z, xb, part)))


def rf_samples(design, first, scheme, B=7, seed=5):
    """One RF stage's bootstrap batch: (Yb, Wb)."""
    cfg = BootstrapConfig(scheme, B, seed, 1)
    Yb, Wb, _ = _samples(design, cfg, None, first)
    return Yb, Wb


def h1m1_design(T=120, seed=7):
    data, _ = bb.generate(bb.ScenarioConfig("h1m1", "B", T=T, seed=seed))
    return make_design(bb.scenario_model_spec(), data)


def rf_stage_fits(design, eps=0.15):
    """The no-break and one-break RF first stages."""
    return _first_or_default(design, eps), rf_break_grid_and_fit(design, 1, eps)


def test_rf_stage_stream_is_keyed_by_the_partition_break_count():
    # the 2-against-3 stage draws from the RF stream of stage 2
    design = h1m1_design()
    first2 = rf_break_grid_and_fit(design, 2, 0.15)
    assert first2.partition.k == 2
    cfg = BootstrapConfig("wr", 9, 4, 3)
    nu = MultiplierStream(4, 3, STREAM_NU_RF, 2).matrix(design.n, 9)
    draws, fails = rf_case_ii_draws(design, first2, cfg)
    np.testing.assert_array_equal(
        draws, rf_case_ii_draws(design, first2, cfg, nu=nu)[0])
    assert fails == 0 and len(draws) == 9


def lu_reference(fn, Yb, Wb, *args, v_rows=None, **kwargs):
    """fn on each batch entry as a batch of one, which takes the LU form,
    joined as one batch call returns them: arrays with a batch axis
    stacked, skipped counts summed, and the candidate grid and the flags,
    equal for every entry, taken once."""
    outs = [fn(Yb[b:b + 1], Wb[b:b + 1], *args, **kwargs,
               **({} if v_rows is None else {"v_rows": v_rows[b:b + 1]}))
            for b in range(Wb.shape[0])]
    joined = []
    for first, *rest in zip(*outs):
        if isinstance(first, int):
            joined.append(first + sum(rest))
        elif isinstance(first, np.ndarray) and first.shape[0] == 1:
            joined.append(np.concatenate([first, *rest]))
        else:
            assert all(np.array_equal(first, r) for r in rest)
            joined.append(first)
    return tuple(joined)


def assert_same_scan(new, lu):
    np.testing.assert_array_equal(new[-1], lu[-1])  # ok masks
    np.testing.assert_allclose(new[1], lu[1], rtol=1e-10)


def lagged_x_columns(design):
    return tuple(c for c, role in enumerate(design.spec.rf_instruments) if role.kind == "x")


def test_rf_shared_block_scans_equal_lu_path():
    # the block inverse of the shared instrument columns gives the LU
    # path's sup values and ok masks, for WR (lagged x rebuilt) and WF
    for design in (h1m1_design(), make_design(*two_endogenous_system())):  # p1 = 1, 2
        rf0, rf1 = rf_stage_fits(design)
        q = design.spec.q
        for scheme in ("wr", "wf"):
            Yb, Wb = rf_samples(design, rf0, scheme)
            assert differing_columns(Wb) == (lagged_x_columns(design) if scheme == "wr" else ())
            for k in (1, 2):
                assert_same_scan(
                    _sup_case_i(Yb, Wb, k, 0.15, q),
                    lu_reference(_sup_case_i, Yb, Wb, k, 0.15, q),
                )
            parts = enumerate_partitions(design.n, 1, 0.15, q).as_array()
            ssr = scan_partitions_batch(Yb, Wb, parts, design.n, compute_wald=False)[1]
            lu = lu_reference(scan_partitions_batch, Yb, Wb, parts, design.n,
                              compute_wald=False)[1]
            np.testing.assert_allclose(ssr, lu, rtol=1e-10)  # the SSR-only path
            Yb, Wb = rf_samples(design, rf1, scheme)
            new = _sup_case_ii(Yb, Wb, rf1.partition)
            lu = lu_reference(_sup_case_ii, Yb, Wb, rf1.partition)
            np.testing.assert_allclose(new[0], lu[0], rtol=1e-10)
            assert all(np.array_equal(a, b) for a, b in zip(new[1:3], lu[1:3]))
            assert new[3] == lu[3] and new[4] == lu[4]


def test_rf_shared_block_singular_policy():
    # a shared instrument that is zero over rows 1-40 makes every regime
    # inside those rows singular in every draw; a rebuilt column zeroed in
    # one draw does so for that draw alone.  Both skip exactly the LU
    # path's candidates and nothing raises.
    design = h1m1_design(T=241)
    rf0, _ = rf_stage_fits(design)
    q = design.spec.q
    Z = design.Z.copy()
    Z[:40, 1] = 0.0
    zeroed = replace(design, Z=Z)
    Yb, Wb = rf_samples(zeroed, rf0, "wr")
    parts, vals, ok = _sup_case_i(Yb, Wb, 1, 0.15, q)
    assert_same_scan((parts, vals, ok), lu_reference(_sup_case_i, Yb, Wb, 1, 0.15, q))
    inside = parts[:, 0] <= 40
    assert inside.any() and not inside.all()
    assert np.array_equal(ok, np.broadcast_to(~inside, ok.shape))

    Yb, Wb = rf_samples(design, rf0, "wr")
    Wb = Wb.copy()
    Wb[2, :40, lagged_x_columns(design)[0]] = 0.0
    parts, vals, ok = _sup_case_i(Yb, Wb, 1, 0.15, q)
    assert_same_scan((parts, vals, ok), lu_reference(_sup_case_i, Yb, Wb, 1, 0.15, q))
    assert np.array_equal(ok[2], parts[:, 0] > 40)
    assert ok[[0, 1, 3, 4, 5, 6]].all()


def scenario_design(T=120, seed=53):
    data, _ = bb.generate(bb.ScenarioConfig("h0m0", "A", T=T, seed=seed))
    return make_design(bb.scenario_model_spec(), data)


def se_samples(design, scheme, null_partition=None, B=7, seed=5):
    """One SE bootstrap batch, no RF breaks: (Yb, Wb, v_hat_b)."""
    n = design.n
    part0 = no_breaks(n, 0.15, min_regime_length(n, 0.15, design.spec.q))
    est = fit_regimes(design, first_stage(design, part0), null_partition or part0)
    return _samples(design, BootstrapConfig(scheme, B, seed, 1), None, est)


def test_se_samples_share_the_columns_they_do_not_rebuild():
    # W = (x_hat, z1): every draw refits the first stage, and WR rebuilds
    # lagged y, the scenario's fourth column of W.  Every other column is
    # the sample's, bit for bit, in every batch entry.
    for design, wr, wf in ((scenario_design(), (0, 3), (0,)),  # p1 = 1
                           (make_design(*two_endogenous_system()), (0, 1), (0, 1))):
        p1 = design.spec.p1
        for scheme, expected in (("wr", wr), ("wf", wf)):
            _, Wb, _ = se_samples(design, scheme)
            assert differing_columns(Wb) == expected
            for c in set(range(p1, design.spec.d_beta)) - set(expected):
                assert np.array_equal(Wb[0, :, c], design.Z1[:, c - p1])


def assert_close_to_lu(new, lu, sup_tol):
    """Scan values against the LU path's: rtol 1e-10, or within sup_tol of
    each batch entry's sup when sup_tol is given."""
    assert np.array_equal(np.isfinite(new), np.isfinite(lu))
    if sup_tol is None:
        np.testing.assert_allclose(new, lu, rtol=1e-10)
        return
    finite = np.isfinite(lu)
    scale = np.abs(np.where(finite, lu, 0.0))
    if lu.ndim == 2:
        scale = scale.max(axis=1, keepdims=True)
    assert np.all(np.abs(np.where(finite, new - lu, 0.0)) <= sup_tol * scale)


def test_se_shared_block_scans_equal_lu_path():
    # the bordered inverse of the SE bootstrap batches gives the LU path's
    # ok masks and argmax exactly.  On the p1 = 2 system its values agree
    # within rtol 1e-10.  The scenario's regime Grams reach a condition
    # number of 1e8 (a constant next to x_hat and lagged y of means about
    # 110 and 280), where the LU values themselves carry errors near 1e-9,
    # so there they agree within 1e-8 of each draw's sup; without the
    # refinement step of b, sup-F misses that by a factor of ten.
    for design, sup_tol in ((scenario_design(), 1e-8),
                            (make_design(*two_endogenous_system()), None)):
        q = design.spec.q
        null, _ = global_ssr_breaks(design, _first_or_default(design, 0.15), 1, 0.15)
        for scheme in ("wr", "wf"):
            Yb, Wb, _ = se_samples(design, scheme)
            for k in (1, 2):
                for statistic in STATISTICS:
                    new = _sup_case_i(Yb, Wb, k, 0.15, q, statistic=statistic)
                    lu = lu_reference(_sup_case_i, Yb, Wb, k, 0.15, q, statistic=statistic)
                    np.testing.assert_array_equal(new[2], lu[2])
                    np.testing.assert_array_equal(np.argmax(new[1], axis=1),
                                                  np.argmax(lu[1], axis=1))
                    assert_close_to_lu(new[1], lu[1], sup_tol)
            Yb, Wb, vb = se_samples(design, scheme, null)
            for statistic in STATISTICS:
                new = _sup_case_ii(Yb, Wb, null, statistic=statistic, v_rows=vb)
                lu = lu_reference(_sup_case_ii, Yb, Wb, null, statistic=statistic, v_rows=vb)
                assert_close_to_lu(new[0], lu[0], sup_tol)
                assert all(np.array_equal(a, b) for a, b in zip(new[1:3], lu[1:3]))
                assert new[3] == lu[3] and new[4] == lu[4]


def test_se_shared_block_singular_policy():
    # lagged y, the second column bordered in, zeroed over rows 1-40 of one
    # draw makes every first regime inside those rows singular in that draw
    # alone.  Its pivot is then zero, so exactly the LU path's candidates
    # are skipped, on the Wald and the SSR-only path, and nothing raises.
    design = scenario_design(T=241)
    q = design.spec.q
    Yb, Wb, _ = se_samples(design, "wr")
    Wb[2, :40, 3] = 0.0
    for statistic in STATISTICS:
        parts, vals, ok = _sup_case_i(Yb, Wb, 1, 0.15, q, statistic=statistic)
        lu = lu_reference(_sup_case_i, Yb, Wb, 1, 0.15, q, statistic=statistic)
        np.testing.assert_array_equal(ok, lu[2])
        np.testing.assert_array_equal(np.isfinite(vals), np.isfinite(lu[1]))
        inside = parts[:, 0] <= 40
        assert inside.any() and not inside.all()
        assert np.array_equal(ok[2], ~inside)
        assert ok[[0, 1, 3, 4, 5, 6]].all()
