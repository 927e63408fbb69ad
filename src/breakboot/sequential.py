"""Sequential bootstrap determination of the reduced-form break count.

The RF is a linear model estimated by OLS, so the structural-change
machinery applies with x as the dependent block and no second stage.
Stage l = 0, 1, ... tests l breaks against l+1 with the bootstrap
one-more-break sup-Wald, with the first stage fitted once on the stage's
l-break partition, a :class:`breakboot.estimation.FirstStage`: no breaks
at l = 0, the SSR-minimising l breaks after.  That fit's partition carries
everything else the stage needs: its break count keys the stage's
multiplier stream, and its min_len bounds the extra break.  Testing stops
at the first p-value above ALPHA_SEQ, keeping that stage's first stage,
or at the cap of MAX_BREAKS breaks, whose first stage is estimated then.
The test that follows reads the kept first stage and fits no other.

A stage needs only its decision, so it stops scoring its bootstrap draws
once more than ALPHA_SEQ * B of them reach its statistic (see
:mod:`breakboot.bootstrap`): its full-B p-value then exceeds ALPHA_SEQ,
and the chosen break count is a full run's.  Each trail entry records the
draws its stage scored; a stopped stage's p-value is taken over those and
still exceeds ALPHA_SEQ.  Failures count against the full B's cap, and
those among the unscored draws go unseen.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bootstrap import (
    ALPHA_SEQ,
    DEFAULT_BOOT,
    BootstrapConfig,
    pvalue_and_quantile,
    rf_case_ii_draws,
)
from .estimation import Design, FirstStage
from .model import Partition, no_breaks
from .partition_search import min_regime_length, rf_break_grid_and_fit
from .stats import _first_or_default, _seq_outcome, _sup_case_ii

MAX_BREAKS = 2  # the pre-test's break cap: it runs stages 0 .. MAX_BREAKS - 1


@dataclass(frozen=True)
class SequentialResult:
    first: FirstStage  # the stopping stage's
    trail: list[tuple[int, float, float, int]]  # (null breaks, statistic, p-value, draws scored)

    @property
    def chosen_breaks(self) -> int:
        return self.first.partition.k


def rf_sup_wald(design: Design, eps: float = 0.15) -> float:
    """:func:`rf_sup_wald_seq` on the no-break partition of trimming eps,
    kept only as a name that perfbench/tracer.py binds; no package code
    calls it (ROADMAP item 7)."""
    n = design.n
    return rf_sup_wald_seq(design, no_breaks(n, eps, min_regime_length(n, eps, design.spec.q)))


def rf_sup_wald_seq(design: Design, null_partition: Partition) -> float:
    """Sample one-more-break sup-Wald within the regimes of null_partition,
    whose min_len bounds the extra break; a no-break null_partition gives
    no RF breaks against one."""
    return _seq_outcome(null_partition,
                        *_sup_case_ii(design.x[None], design.Z[None], null_partition)).statistic


def estimate_rf_breaks_design(
    design: Design,
    boot: BootstrapConfig = DEFAULT_BOOT,
    eps: float = 0.15,
) -> SequentialResult:
    """Select the RF break count by sequential bootstrap testing.

    design is ``make_design(spec, data)``.
    """
    trail: list[tuple[int, float, float, int]] = []
    for level in range(MAX_BREAKS):
        first = (rf_break_grid_and_fit(design, level, eps) if level > 0
                 else _first_or_default(design, eps))
        stat = rf_sup_wald_seq(design, first.partition)
        draws, failures = rf_case_ii_draws(design, first, boot, stat=stat)
        p = pvalue_and_quantile(stat, draws, ())[0]
        trail.append((level, stat, p, len(draws) + failures))
        if p > ALPHA_SEQ:
            return SequentialResult(first=first, trail=trail)
    return SequentialResult(first=rf_break_grid_and_fit(design, MAX_BREAKS, eps), trail=trail)
