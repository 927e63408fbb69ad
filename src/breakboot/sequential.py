"""Sequential bootstrap determination of the reduced-form break count.

The RF is a linear model estimated by OLS, so the structural-change
machinery applies with x as the dependent block and no second stage.
Stage l tests l breaks against l+1 with the bootstrap sup-Wald, with the
first stage fitted once on the stage's l-break partition; testing stops
at the first p-value above ALPHA_SEQ, keeping that stage's partition, or
at the break cap, whose partition is estimated then.
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
from .estimation import Design, first_stage
from .exceptions import ConfigError, SingularMiddleError
from .model import Partition, no_breaks
from .partition_search import min_regime_length, rf_break_grid_and_fit
from .stats import _sup_case_i, _sup_case_ii

ALPHA_SEQ = 0.05  # level of every stage's test


@dataclass(frozen=True)
class SequentialResult:
    chosen_breaks: int
    partition: Partition
    trail: list[tuple[int, float, float]]  # (null breaks, statistic, p-value)


def rf_sup_wald(design: Design, eps: float = 0.15) -> float:
    """Sample sup-Wald for no RF breaks against one."""
    _, vals, _ = _sup_case_i(design.x[None], design.Z[None], 1, eps, design.spec.q)
    if not np.any(np.isfinite(vals)):
        raise SingularMiddleError("every candidate partition failed")
    return float(np.max(vals[0]))


def rf_sup_wald_seq(
    design: Design, rf_partition: Partition, eps: float = 0.15
) -> float:
    """Sample one-more-break sup-Wald within the regimes of rf_partition."""
    min_len = min_regime_length(design.n, eps, design.spec.q)
    best, *_ = _sup_case_ii(design.x[None], design.Z[None], rf_partition, min_len)
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
    n = design.n
    trail: list[tuple[int, float, float]] = []
    for level in range(max_breaks):
        if level == 0:
            partition = no_breaks(n, eps, min_regime_length(n, eps, design.spec.q))
            delta, _, v_hat = first_stage(design, partition)
            stat = rf_sup_wald(design, eps)
            draws, _ = rf_case_i_draws(
                design, delta, v_hat, eps, boot, stage=0
            )
        else:
            partition, delta, v_hat = rf_break_grid_and_fit(design, level, eps)
            stat = rf_sup_wald_seq(design, partition, eps)
            draws, _ = rf_case_ii_draws(
                design, delta, v_hat, partition, eps, boot, stage=level
            )
        p = pvalue_and_quantile(stat, draws, ())[0]
        trail.append((level, stat, p))
        if p > ALPHA_SEQ:
            return SequentialResult(chosen_breaks=level, partition=partition, trail=trail)
    final, _, _ = rf_break_grid_and_fit(design, max_breaks, eps)
    return SequentialResult(chosen_breaks=max_breaks, partition=final, trail=trail)
