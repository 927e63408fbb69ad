"""Sequential bootstrap determination of the reduced-form break count.

The RF is a linear model estimated by OLS, so the structural-change
machinery applies with x as the dependent block and no second stage.
Stage l tests l breaks against l+1 with the bootstrap sup-Wald, with the
first stage fitted once on the stage's l-break partition, a
:class:`breakboot.estimation.FirstStage`.  That fit's partition carries
everything else the stage needs: its break count keys the stage's
multiplier stream, and its trim (stage 0) or min_len (later stages) bounds
the extra break.  Testing stops at the first p-value above ALPHA_SEQ,
keeping that stage's first stage, or at the break cap, whose first stage
is estimated then.  The test that follows reads the kept first stage and
fits no other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bootstrap import (
    DEFAULT_BOOT,
    BootstrapConfig,
    pvalue_and_quantile,
    rf_case_i_draws,
    rf_case_ii_draws,
)
from .estimation import Design, FirstStage
from .exceptions import ConfigError, SingularMiddleError
from .model import Partition
from .partition_search import rf_break_grid_and_fit
from .stats import _first_or_default, _sup_case_i, _sup_case_ii

ALPHA_SEQ = 0.05  # level of every stage's test


@dataclass(frozen=True)
class SequentialResult:
    first: FirstStage  # the stopping stage's
    trail: list[tuple[int, float, float]]  # (null breaks, statistic, p-value)

    @property
    def chosen_breaks(self) -> int:
        return self.first.partition.k


def rf_sup_wald(design: Design, eps: float = 0.15) -> float:
    """Sample sup-Wald for no RF breaks against one."""
    _, vals, _ = _sup_case_i(design.x[None], design.Z[None], 1, eps, design.spec.q)
    if not np.any(np.isfinite(vals)):
        raise SingularMiddleError("every candidate partition failed")
    return float(np.max(vals[0]))


def rf_sup_wald_seq(design: Design, null_partition: Partition) -> float:
    """Sample one-more-break sup-Wald within the regimes of null_partition,
    whose min_len bounds the extra break."""
    best, *_ = _sup_case_ii(design.x[None], design.Z[None], null_partition)
    if not np.isfinite(best[0]):
        raise SingularMiddleError("every within-regime candidate failed")
    return float(best[0])


def estimate_rf_breaks_design(
    design: Design,
    max_breaks: int = 2,
    boot: BootstrapConfig = DEFAULT_BOOT,
    eps: float = 0.15,
) -> SequentialResult:
    """Select the RF break count by sequential bootstrap testing.

    design is ``make_design(spec, data)``.
    """
    if max_breaks < 1:
        raise ConfigError("max_breaks must be >= 1")
    trail: list[tuple[int, float, float]] = []
    for level in range(max_breaks):
        if level == 0:
            first = _first_or_default(design, eps)
            stat = rf_sup_wald(design, eps)
            draws, _ = rf_case_i_draws(design, first, boot)
        else:
            first = rf_break_grid_and_fit(design, level, eps)
            stat = rf_sup_wald_seq(design, first.partition)
            draws, _ = rf_case_ii_draws(design, first, boot)
        p = pvalue_and_quantile(stat, draws, ())[0]
        trail.append((level, stat, p))
        if p > ALPHA_SEQ:
            return SequentialResult(first=first, trail=trail)
    return SequentialResult(first=rf_break_grid_and_fit(design, max_breaks, eps), trail=trail)
