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

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .estimation import Design, _scan, first_stage
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

    def candidates(self) -> Iterator[tuple[int, ...]]:
        """Yield break tuples in lexicographic order; k=0 yields ()."""
        n, k, m = self.T_eff, self.k, self.min_len

        def rec(prefix: tuple[int, ...], lo: int, remaining: int):
            if remaining == 0:
                yield prefix
                return
            hi = n - remaining * m
            for b in range(lo, hi + 1):
                yield from rec(prefix + (b,), b + m, remaining - 1)

        yield from rec((), m, k)

    def as_array(self) -> np.ndarray:
        """Materialise candidates as an int array of shape (count, k)."""
        if self.k == 0:
            return np.zeros((1, 0), dtype=np.int64)
        out = np.fromiter(
            (b for tup in self.candidates() for b in tup),
            dtype=np.int64,
            count=self.count * self.k,
        )
        return out.reshape(self.count, self.k)


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


def dp_breaks(table: np.ndarray, n: int, k: int, min_len: int) -> tuple[tuple[int, ...], float]:
    """Minimise total segment SSR over admissible k-break partitions.

    Works on a segment table from :func:`segment_ssr_table`.  Ties are
    broken by the lexicographically smallest break tuple (reconstruction
    walks forward choosing the smallest first break attaining the
    optimum).
    """
    if k == 0:
        ssr = table[1, n]
        if not np.isfinite(ssr):
            raise RankDeficientError("full-sample segment is rank deficient")
        return (), float(ssr)
    if (k + 1) * min_len > n:
        raise InfeasiblePartitionError(
            f"no admissible {k}-break partition of {n} rows"
        )
    # suffix[j][s] = min SSR of covering rows s..n with j segments
    suffix = [np.full(n + 2, np.inf) for _ in range(k + 2)]
    suffix[1][1 : n - min_len + 2] = table[1 : n - min_len + 2, n]
    for j in range(2, k + 2):
        # segment [s, b] + suffix of j-1 segments from b+1
        prev = suffix[j - 1]
        cur = suffix[j]
        for s in range(1, n - j * min_len + 2):
            bs = np.arange(s + min_len - 1, n - (j - 1) * min_len + 1)
            vals = table[s, bs] + prev[bs + 1]
            best = np.min(vals) if bs.size else np.inf
            cur[s] = best
    total = suffix[k + 1][1]
    if not np.isfinite(total):
        raise InfeasiblePartitionError("all candidate partitions are rank deficient")
    breaks: list[int] = []
    s = 1
    for j in range(k + 1, 1, -1):
        bs = np.arange(s + min_len - 1, n - (j - 1) * min_len + 1)
        vals = table[s, bs] + suffix[j - 1][bs + 1]
        target = suffix[j][s]
        hit = bs[vals == target]
        b = int(hit[0]) if hit.size else int(bs[np.argmin(vals)])
        breaks.append(b)
        s = b + 1
    return tuple(breaks), float(total)


def global_ssr_breaks(
    design: Design, x_hat: np.ndarray, n_breaks: int, eps: float
) -> tuple[Partition, float]:
    """Second-stage SSR-minimising partition.

    The regression is y on w_hat = (x_hat, z1); x_hat must come from a
    first stage whose RF partition is held fixed during the search.
    """
    n = design.n
    min_len = min_regime_length(n, eps, design.spec.q)
    W = np.column_stack([x_hat, design.Z1])
    table = segment_ssr_table(design.y, W, min_len)
    breaks, ssr = dp_breaks(table, n, n_breaks, min_len)
    return Partition(breaks, n, eps, min_len), ssr


def rf_break_grid_and_fit(
    design: Design, h: int, eps: float
) -> tuple[Partition, list[np.ndarray], np.ndarray]:
    """RF analogue: minimise the x-on-z SSR (summed over x columns).

    Returns the h-break partition with the first stage fitted on it: the
    regime coefficients delta and the residuals v_hat.
    """
    if h < 0:
        raise InfeasiblePartitionError("h must be >= 0")
    n = design.n
    min_len = min_regime_length(n, eps, design.spec.q)
    table = segment_ssr_table(design.x, design.Z, min_len)
    breaks, _ = dp_breaks(table, n, h, min_len)
    partition = Partition(breaks, n, eps, min_len)
    delta, _, v_hat = first_stage(design, partition)
    return partition, delta, v_hat
