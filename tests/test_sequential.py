"""Sequential reduced-form break-count estimation."""

import pytest

import breakboot as bb
from breakboot.bootstrap import BootstrapConfig
from breakboot.exceptions import ConfigError, SingularMiddleError
from breakboot.partition_search import min_regime_length
from breakboot.rng import derive_seed
from breakboot.sequential import estimate_rf_breaks_design, rf_sup_wald


def test_max_breaks_zero_rejected():
    data, _ = bb.generate(bb.ScenarioConfig("h1m0", "A", T=80, seed=1))
    spec = bb.scenario_model_spec()
    with pytest.raises(ConfigError):
        estimate_rf_breaks_design(bb.make_design(spec, data), max_breaks=0)


def test_every_failed_candidate_raises_like_the_sample_statistics():
    # r2 is zero in every candidate's first regime, so each one-break
    # candidate's RF Gram is singular, while the no-break fit is not
    data, _ = bb.generate(bb.ScenarioConfig("h1m0", "A", T=80, seed=1))
    spec = bb.scenario_model_spec()
    n = bb.make_design(spec, data).n
    r = data.r.copy()
    r[spec.max_lag : spec.max_lag + n - min_regime_length(n, 0.15, spec.q), 1] = 0.0
    design = bb.make_design(spec, bb.Dataset(y=data.y, x=data.x, r=r))
    with pytest.raises(SingularMiddleError):
        rf_sup_wald(design)
    with pytest.raises(SingularMiddleError):
        estimate_rf_breaks_design(design, boot=BootstrapConfig("wr", 19, 0))


def test_detects_planted_rf_break(monkeypatch):
    import breakboot.sequential as seq

    grid_and_fit = seq.rf_break_grid_and_fit
    calls = []

    def counted(design, h, eps):
        calls.append(h)
        return grid_and_fit(design, h, eps)

    monkeypatch.setattr(seq, "rf_break_grid_and_fit", counted)
    data, _ = bb.generate(bb.ScenarioConfig("h1m0", "A", T=240, seed=5))
    spec = bb.scenario_model_spec()
    design = bb.make_design(spec, data)
    res = estimate_rf_breaks_design(
        design, max_breaks=2, boot=BootstrapConfig("wr", 99, 5, 1)
    )
    assert res.chosen_breaks == 1
    # break fraction near 1/4
    frac = res.first.partition.breaks[0] / res.first.partition.n
    assert abs(frac - 0.25) < 0.08
    # trail: stage 0 rejected, stage 1 not
    assert res.trail[0][2] <= 0.05 < res.trail[1][2]
    # the stopping stage's first stage is kept, not searched for again
    assert calls == [1]
    assert res.first.partition == grid_and_fit(design, 1, 0.15).partition


def test_trail_reproducible_and_partition_consistent():
    data, _ = bb.generate(bb.ScenarioConfig("h1m0", "B", T=120, seed=7))
    design = bb.make_design(bb.scenario_model_spec(), data)
    boot = BootstrapConfig("wf", 49, 11, 3)
    r1 = estimate_rf_breaks_design(design, max_breaks=2, boot=boot)
    r2 = estimate_rf_breaks_design(design, max_breaks=2, boot=boot)
    assert r1.trail == r2.trail
    assert r1.chosen_breaks == r2.chosen_breaks
    assert len(r1.first.partition.breaks) == r1.chosen_breaks
    assert r1.chosen_breaks <= 2


def test_break_free_rf_usually_stops_at_zero():
    # size of the first-stage test: stop at zero breaks about 95% of the
    # time; desk-scale Monte Carlo with a generous band
    spec = bb.scenario_model_spec()
    stops = 0
    reps = 40
    for j in range(1, reps + 1):
        data, _ = bb.generate(
            bb.ScenarioConfig("h0m0", "A", T=120, seed=derive_seed(31, j))
        )
        res = estimate_rf_breaks_design(
            bb.make_design(spec, data), max_breaks=2, boot=BootstrapConfig("wr", 99, 31, j)
        )
        stops += int(res.chosen_breaks == 0)
    assert stops >= 0.80 * reps
