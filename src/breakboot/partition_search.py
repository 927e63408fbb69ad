"""Admissible partition enumeration and global-SSR break estimation.

A regime must be strictly longer than max(q - 1, eps * n); with eps * n
rounded up this gives the minimum admissible length

    min_len = max(q - 1, ceil(eps * n)) + 1.

The fraction constraints (first break >= eps, last break <= 1 - eps,
adjacent fractions at least eps apart) are implied by the length bound,
which is the stricter of the two at any sample size.

The global minimiser of the second-stage SSR over all admissible l-break
partitions is found by dynamic programming over a table of segment SSRs,
with ties broken toward the lexicographically smallest break tuple.  The
table is a scan of one-regime candidates (k = 0) on the segment
least-squares kernel of :mod:`breakboot.estimation`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .estimation import Design, FirstStage, _scan, first_stage
from .exceptions import InfeasiblePartitionError, RankDeficientError
from .model import Partition


def min_regime_length(n: int, eps: float, q: int) -> int:
    """Smallest admissible regime length: max(q - 1, ceil(eps*n)) + 1."""
    return max(q - 1, math.ceil(eps * n)) + 1


@dataclass(frozen=True)
class AdmissibleGrid:
    """All k-break tuples on 1..T_eff with every regime >= min_len long."""

    T_eff: int
    k: int
    min_len: int

    def __post_init__(self):
        if self.k < 0:
            raise InfeasiblePartitionError("k must be >= 0")
        if (self.k + 1) * self.min_len > self.T_eff:
            raise InfeasiblePartitionError(
                f"no admissible {self.k}-break partition: need "
                f"{(self.k + 1) * self.min_len} rows, have {self.T_eff}"
            )

    @property
    def count(self) -> int:
        """Number of admissible tuples (stars and bars)."""
        free = self.T_eff - (self.k + 1) * self.min_len
        return math.comb(free + self.k, self.k)

    def as_array(self) -> np.ndarray:
        """The break tuples as an int array of shape (count, k), in
        lexicographic order.

        Break i (0-based) is (i + 1) * min_len + c_i over the nondecreasing
        offsets c in 0..free, so every regime is at least min_len rows long.
        """
        free = self.T_eff - (self.k + 1) * self.min_len
        offsets = itertools.combinations_with_replacement(range(free + 1), self.k)
        out = np.fromiter(itertools.chain.from_iterable(offsets),
                          dtype=np.int64, count=self.count * self.k)
        return out.reshape(self.count, self.k) + self.min_len * np.arange(1, self.k + 1)


def enumerate_partitions(T_eff: int, k: int, eps: float, q: int) -> AdmissibleGrid:
    """Admissible grid for the given trimming and instrument count."""
    return AdmissibleGrid(T_eff=T_eff, k=k, min_len=min_regime_length(T_eff, eps, q))


def segment_ssr_table(y: np.ndarray, X: np.ndarray, min_len: int) -> np.ndarray:
    """SSR of OLS on every admissible row segment.

    Returns an (n+1, n+1) array with table[a, b] the SSR of regressing
    y[a..b] on X[a..b] (1-based inclusive); inadmissible or rank-deficient
    segments hold +inf.  y may have several columns, in which case SSRs
    are summed across columns.  Every segment is a one-regime candidate of
    the scan kernel, with regime edges (a - 1, b).
    """
    n = X.shape[0]
    edges = np.arange(n + 1)
    s, e = np.nonzero(edges[None, :] - edges[:, None] >= min_len)
    # SSR only, on a batch of one (the LU form): no score inputs, no Wald
    _, ssr, _ = _scan(y[None], X[None], np.column_stack([s, e]), n, None, None, False, 1)
    table = np.full((n + 1, n + 1), np.inf)
    table[s + 1, e] = ssr[0]
    return table


def dp_breaks(table: np.ndarray, k: int) -> tuple[tuple[int, ...], float]:
    """Minimise total segment SSR over admissible k-break partitions.

    Works on an (n+1, n+1) segment table from :func:`segment_ssr_table`,
    whose +inf entries mark inadmissible and rank-deficient segments, so
    the optimum is +inf exactly when no partition is both admissible and
    of finite SSR.  Ties are broken by the lexicographically smallest break
    tuple (reconstruction walks forward choosing the smallest first break
    attaining the optimum).
    """
    n = table.shape[0] - 1
    if k == 0:
        ssr = table[1, n]
        if not np.isfinite(ssr):
            raise RankDeficientError("full-sample segment is rank deficient")
        return (), float(ssr)
    # suffix[j][s] = min SSR of covering rows s..n with j segments; segment
    # [s, b] plus a suffix of j-1 segments from b+1, +inf where none fits
    suffix = {1: np.append(table[:, n], np.inf)}
    for j in range(2, k + 2):
        suffix[j] = np.append(np.min(table + suffix[j - 1][1:], axis=1), np.inf)
    total = suffix[k + 1][1]
    if not np.isfinite(total):
        raise InfeasiblePartitionError(
            f"no admissible {k}-break partition of {n} rows, or none with a finite SSR"
        )
    breaks: list[int] = []
    s = 1
    for j in range(k + 1, 1, -1):
        b = int(np.argmax(table[s] + suffix[j - 1][1:] == suffix[j][s]))
        breaks.append(b)
        s = b + 1
    return tuple(breaks), float(total)


def _ssr_partition(design: Design, y: np.ndarray, X: np.ndarray, n_breaks: int,
                   eps: float) -> tuple[Partition, float]:
    """The partition of design's rows that minimises the SSR of y on X over
    n_breaks admissible breaks at trimming eps, and that SSR."""
    if n_breaks < 0:
        raise InfeasiblePartitionError(f"the break count must be >= 0, got {n_breaks}")
    n = design.n
    min_len = min_regime_length(n, eps, design.spec.q)
    breaks, ssr = dp_breaks(segment_ssr_table(y, X, min_len), n_breaks)
    return Partition(breaks, n, eps, min_len), ssr


def global_ssr_breaks(
    design: Design, first: FirstStage, n_breaks: int, eps: float
) -> tuple[Partition, float]:
    """Second-stage SSR-minimising partition.

    The regression is y on w_hat = (x_hat, z1), with x_hat from the first
    stage first, whose RF partition stays fixed during the search.  With
    n_breaks = l >= 1 this is the null partition of an l-against-l+1 test.
    """
    return _ssr_partition(design, design.y, np.column_stack([first.x_hat, design.Z1]),
                          n_breaks, eps)


def rf_break_grid_and_fit(design: Design, h: int, eps: float) -> FirstStage:
    """RF analogue: minimise the x-on-z SSR (summed over x columns).

    Returns the first stage fitted on the h-break partition.
    """
    return first_stage(design, _ssr_partition(design, design.x, design.Z, h, eps)[0])
