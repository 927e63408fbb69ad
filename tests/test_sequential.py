"""Sequential reduced-form break-count estimation."""

import math

import numpy as np
import pytest

import breakboot as bb
from breakboot.bootstrap import (
    ALPHA_SEQ,
    BootstrapConfig,
    pvalue_and_quantile,
    rf_case_i_draws,
    rf_case_ii_draws,
)
from breakboot.exceptions import SingularMiddleError
from breakboot.partition_search import min_regime_length, rf_break_grid_and_fit
from breakboot.rng import derive_seed
from breakboot.sequential import (
    MAX_BREAKS,
    estimate_rf_breaks_design,
    rf_sup_wald,
    rf_sup_wald_seq,
)
from breakboot.stats import _first_or_default


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
        design, boot=BootstrapConfig("wr", 99, 5, 1)
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
    r1 = estimate_rf_breaks_design(design, boot=boot)
    r2 = estimate_rf_breaks_design(design, boot=boot)
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
            bb.make_design(spec, data), boot=BootstrapConfig("wr", 99, 31, j)
        )
        stops += int(res.chosen_breaks == 0)
    assert stops >= 0.80 * reps


def full_run_reference(design, boot, eps=0.15):
    """The pre-test with every stage scoring all B draws: (chosen partition,
    [(statistic, early draws, full draws) per stage])."""
    stages = []
    for level in range(MAX_BREAKS):
        first = (rf_break_grid_and_fit(design, level, eps) if level > 0
                 else _first_or_default(design, eps))
        stat = rf_sup_wald_seq(design, first.partition)
        full, _ = rf_case_ii_draws(design, first, boot, stat=math.inf)
        early, _ = rf_case_ii_draws(design, first, boot, stat=stat)
        stages.append((stat, early, full))
        if pvalue_and_quantile(stat, full, ())[0] > ALPHA_SEQ:
            return first.partition, stages
    return rf_break_grid_and_fit(design, MAX_BREAKS, eps).partition, stages


def test_early_exit_keeps_every_stage_decision():
    # a stage stops scoring once its decision is known, so the pre-test
    # chooses what a run that scores every draw chooses
    spec = bb.scenario_model_spec()
    stopped = 0
    for scenario in ("h0m0", "h1m0", "h1m1"):
        data, _ = bb.generate(bb.ScenarioConfig(scenario, "A", T=120, seed=4))
        design = bb.make_design(spec, data)
        for scheme in ("wr", "wf"):
            boot = BootstrapConfig(scheme, 99, 17, 2)
            res = estimate_rf_breaks_design(design, boot=boot)
            partition, stages = full_run_reference(design, boot)
            assert res.chosen_breaks == partition.k
            assert res.first.partition == partition
            assert [t[1] for t in res.trail] == [stat for stat, _, _ in stages]
            for (_, _, p, scored), (stat, early, full) in zip(res.trail, stages):
                assert scored == len(early)
                np.testing.assert_array_equal(early, full[:len(early)])
                assert (p > ALPHA_SEQ) == (pvalue_and_quantile(stat, full, ())[0] > ALPHA_SEQ)
                if len(early) < len(full):
                    assert p > ALPHA_SEQ
                    stopped += 1
    assert stopped > 0


def test_no_break_entries_equal_the_l_zero_stage():
    # rf_sup_wald and rf_case_i_draws (no RF breaks against one, over the
    # full grid) give the bits of the l-against-l+1 pair at l = 0, which
    # the pre-test runs as its stage 0: the statistic, every draw scored
    # and the failure count, whether a stage scores all B or stops early
    for scenario, T in (("h1m1", 240), ("h0m0", 120)):
        data, _ = bb.generate(bb.ScenarioConfig(scenario, "B", T=T, seed=7))
        design = bb.make_design(bb.scenario_model_spec(), data)
        first = _first_or_default(design, 0.15)
        stat = rf_sup_wald(design)
        assert stat == rf_sup_wald_seq(design, first.partition)
        for scheme in ("wr", "wf"):
            boot = BootstrapConfig(scheme, 99, 3, 2)
            for until in (math.inf, stat):
                draws_i, fails_i = rf_case_i_draws(design, first, boot, stat=until)
                draws_ii, fails_ii = rf_case_ii_draws(design, first, boot, stat=until)
                np.testing.assert_array_equal(draws_i, draws_ii)
                assert fails_i == fails_ii
