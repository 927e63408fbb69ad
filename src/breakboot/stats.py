"""Sup-Wald and sup-F statistics over admissible break partitions.

The heteroskedasticity-robust Wald form for a candidate partition with
regimes I_1..I_{k+1} is

    Wald = n * b' R' (R V R')^{-1} R b,
    V    = diag(V_1, ..., V_{k+1}),   V_i = Q_i^{-1} M_i Q_i^{-1},
    Q_i  = n^{-1} sum_{t in I_i} w_t w_t',
    M_i  = n^{-1} sum_{t in I_i} s_t^2 w_t w_t',

where b stacks the regime coefficient vectors, R differences adjacent
regimes, and the score s_t combines the structural residual with the
first-stage residual weighted by the endogenous-block coefficients.  When
the score's coefficient source coincides with the regime fit, s_t reduces
to the second-stage residual; the scan exploits that identity.

This module holds the statistics and their sup reductions.  The candidate
scans run on the segment least-squares kernel of
:mod:`breakboot.estimation`; :func:`scan_partitions_batch` is its entry for
break tuples.

Every statistic is computed over a batch of datasets that share one
candidate grid.  The sample is a batch of one, whose argmax also gives the
break estimate; the bootstrap passes its B samples.  :func:`_sup_case_i`
scans the full k-break grid (no break against k) and :func:`_sup_case_ii`
adds one break within each regime of a null partition (l against l+1).

The sample statistics read the first stage from their ``first`` argument,
a :class:`breakboot.estimation.FirstStage`, and fit none of their own;
``first=None`` means no RF breaks, a default built only by
:func:`_first_or_default`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimation import Design, FirstStage, RobustBlocks, _regime_fit, _scan, first_stage
from .exceptions import (
    ConfigError,
    DegenerateSSRError,
    InfeasiblePartitionError,
    SingularMiddleError,
)
from .model import Partition, no_breaks
from .partition_search import AdmissibleGrid, min_regime_length

STATISTICS = ("supwald", "supf")


@dataclass(frozen=True)
class ContrastMatrix:
    """R_k = Rtilde_k (x) I_d with Rtilde_k(i,i)=1, Rtilde_k(i,i+1)=-1."""

    k: int
    d: int

    @property
    def matrix(self) -> np.ndarray:
        rt = np.zeros((self.k, self.k + 1))
        idx = np.arange(self.k)
        rt[idx, idx] = 1.0
        rt[idx, idx + 1] = -1.0
        return np.kron(rt, np.eye(self.d))


@dataclass
class TestOutcome:
    """A test statistic with its search and bootstrap context."""

    statistic: float
    argmax_partition: Partition | None = None
    argmax_regime: int | None = None
    rf_partition: Partition | None = None  # the first stage's, set by harness.test_dataset
    boot_draws: np.ndarray = field(default_factory=lambda: np.empty(0))
    p_value: float | None = None
    levels_rejected: dict[float, bool] | None = None
    critical_values: dict[float, float] | None = None
    skipped_candidates: int = 0
    failed_replications: int = 0
    flags: list[str] = field(default_factory=list)


def wald_at(
    beta_stack: np.ndarray,
    V_blocks: list[np.ndarray] | RobustBlocks,
    R: ContrastMatrix,
    T: int,
) -> float:
    """Evaluate the Wald quadratic form at one partition.

    beta_stack concatenates the k+1 regime coefficient vectors; V_blocks
    are the per-regime sandwich blocks.
    """
    blocks = V_blocks.V if isinstance(V_blocks, RobustBlocks) else V_blocks
    Rm = R.matrix
    d = R.d
    V = np.zeros((len(blocks) * d, len(blocks) * d))
    for i, Vi in enumerate(blocks):
        V[i * d : (i + 1) * d, i * d : (i + 1) * d] = Vi
    r = Rm @ np.asarray(beta_stack, dtype=np.float64)
    mid = Rm @ V @ Rm.T
    try:
        sol = np.linalg.solve(mid, r)
    except np.linalg.LinAlgError as exc:
        raise SingularMiddleError("R V R' is singular") from exc
    return float(T * r @ sol)


# ---------------------------------------------------------------------------
# Batched partition scan
# ---------------------------------------------------------------------------


@dataclass
class ScanResult:
    parts: np.ndarray        # (m, k) candidate break tuples (local rows)
    wald: np.ndarray         # (m,), -inf where skipped
    ssr: np.ndarray          # (m,) alternative-model SSR, +inf where failed
    n_skipped: int


def scan_partitions(
    y: np.ndarray,
    W: np.ndarray,
    parts: np.ndarray,
    n_global: int,
    *,
    v_rows: np.ndarray | None = None,
    score_beta: np.ndarray | None = None,
    compute_wald: bool = True,
) -> ScanResult:
    """Evaluate the Wald statistic (and SSR) at every candidate partition.

    One dataset, run as a batch of one through the kernel of
    :func:`scan_partitions_batch`: y is (n,) or (n, py), W is (n, d),
    v_rows is (n, p1) and score_beta (p1,).
    """
    wald, ssr, ok = _scan(
        y[None],
        W[None],
        _edges(parts, W.shape[0]),
        n_global,
        None if v_rows is None else v_rows[None],
        None if score_beta is None else np.asarray(score_beta)[None],
        compute_wald,
        1,
    )
    return ScanResult(parts=parts, wald=wald[0], ssr=ssr[0], n_skipped=int(np.sum(~ok)))


def scan_partitions_batch(
    Y: np.ndarray,
    Ws: np.ndarray,
    parts: np.ndarray,
    n_global: int,
    *,
    v_rows: np.ndarray | None = None,
    score_beta: np.ndarray | None = None,
    compute_wald: bool = True,
    chunk_rows: int = 1_000_000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scan one candidate grid over a batch of datasets at once.

    Parameters
    ----------
    Y : (B, n) or (B, n, py) targets; py > 1 pools equations with a joint
        stacked contrast (used for the reduced-form tests).
    Ws : (B, n, d) regressor rows.
    parts : (m, k) int array of candidate break tuples (1-based local rows).
    n_global : normalisation length (the full effective sample, even when
        Y/Ws are a regime slice of it).
    v_rows, score_beta : (B, n, p1) first-stage residual rows and (B, p1)
        fixed endogenous-block coefficients, which enter the score together
        (the endogenous block is the first p1 columns of Ws); passing only
        one of them, or the pair with pooled targets (py > 1), raises
        ValueError.  Neither (the default) scores with the candidate fit's
        own coefficients, so the score is the fit residual.
    chunk_rows : bound on batch x candidates x rows per batch chunk; with
        per = chunk_rows // (m * n), chunks hold min(B, per) entries and
        the candidates are scanned in ceil(m / (2048 // per)) blocks (up to
        2048 candidates each for a batch of one) whose sizes differ by at
        most one, whatever B is.

    A batch of one solves every candidate's Gram and middle matrix by LU
    and forms its score in three steps, y - b'w plus the score pair's
    term, keeping the rounding that the benchmark's 2-worker cell compares
    bit for bit.  A larger batch inverts each candidate regime's block of
    the columns that are equal in every entry once per scan, borders the
    others in, forms each score as one product of the rows [y, w, v]
    against [1, -b, score_beta - b_x] and V as (G^{-1} M) G^{-1}, and
    eliminates the middle matrix (see :mod:`breakboot.estimation`); a
    candidate is then also skipped where a bordering pivot or a pivot of
    its middle matrix is not positive.

    Returns (wald, ssr, ok), each (B, m); wald is -inf and ssr +inf where
    a candidate failed.
    """
    return _scan(Y, Ws, _edges(parts, Ws.shape[1]), n_global, v_rows, score_beta,
                 compute_wald, chunk_rows)


def _edges(parts: np.ndarray, n: int) -> np.ndarray:
    """The (m, k+2) regime edges of (m, k) break tuples on n rows: 0, the breaks, n."""
    return np.pad(parts, ((0, 0), (1, 1)), constant_values=(0, n))


def restricted_fit_batch(Y: np.ndarray, Ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-regime OLS per batch entry; NaN coefficients where the Gram is singular.

    Y (B, n) gives coefficients (B, d) and SSR (B,).  Y (B, n, py) fits each
    column on the same Ws: coefficients (B, d, py), and the SSR summed over
    the columns, as the scan pools them.  A one-regime :func:`_regime_fit`;
    the SSR sums its residuals, not the cancelling sum(y^2) - b'h.
    """
    Y3 = Y if Y.ndim == 3 else Y[:, :, None]
    (b,), fitted = _regime_fit(Ws, Y3, [(1, Ws.shape[1])])
    resid = Y3 - fitted
    return (b if Y.ndim == 3 else b[:, :, 0]), np.einsum("bnc,bnc->b", resid, resid)


# ---------------------------------------------------------------------------
# Sup reductions over a batch: case (i) H0 m=0 vs H1 m=k, case (ii) m=l vs l+1
# ---------------------------------------------------------------------------


def _sup_case_i(Y, Ws, k, min_len, *, statistic="supwald"):
    """Case (i) values at every candidate of the full k-break grid, whose
    regimes are at least min_len rows long.

    Y is (B, n) or (B, n, py) and Ws (B, n, d) over the whole effective
    sample; statistic is "supwald" or "supf".  The score is each
    candidate fit's own residual.  Returns (parts (m, k), values (B, m),
    ok (B, m)); a failed candidate holds -inf.
    """
    _, n, d = Ws.shape
    parts = AdmissibleGrid(n, k, min_len).as_array()
    if statistic == "supf":
        _, ssr0 = restricted_fit_batch(Y, Ws)
        _, ssr, ok = scan_partitions_batch(Y, Ws, parts, n, compute_wald=False)
        vals = _f_ratio((n - (k + 1) * d) / (k * d) * (ssr0[:, None] - ssr), ssr,
                        np.isfinite(ssr) & (ssr > 0))
        return parts, vals, ok
    vals, _, ok = scan_partitions_batch(Y, Ws, parts, n)
    return parts, vals, ok


def _f_ratio(num, den, defined):
    """num / den where defined, -inf elsewhere, dividing only where defined."""
    return np.divide(num, den, out=np.full(num.shape, -np.inf), where=defined)


def _sup_case_ii(Y, Ws, null_partition, *, statistic="supwald", v_rows=None):
    """Case (ii): the sup over one extra break within each null regime.

    The extra break leaves both sub-regimes at least null_partition.min_len
    rows long.  Each regime's restricted single-regime fit supplies the score's
    endogenous-block coefficients (when v_rows, (B, n, p1), is given) and,
    for statistic="supf", the restricted SSR.  Returns (best, regime, row,
    skipped, flags): per batch entry the sup, its 1-based regime and its
    break row on the full sample (-inf, 0, 0 where every candidate
    failed), then the failed candidate count and notes on regimes that
    cannot take a break.
    """
    B, n, d = Ws.shape
    min_len = null_partition.min_len
    best = np.full(B, -np.inf)
    regime = np.zeros(B, dtype=np.int64)
    row = np.zeros(B, dtype=np.int64)
    skipped = 0
    flags: list[str] = []
    feasible = 0
    for i, (a, bnd) in enumerate(null_partition.regimes(), start=1):
        length = bnd - a + 1
        if length < 2 * min_len:
            flags.append(f"regime {i} infeasible (length {length})")
            continue
        feasible += 1
        sl = slice(a - 1, bnd)
        Y_i = np.ascontiguousarray(Y[:, sl])
        W_i = np.ascontiguousarray(Ws[:, sl])
        local = np.arange(min_len, length - min_len + 1, dtype=np.int64)
        if statistic == "supf":
            _, ssr0 = restricted_fit_batch(Y_i, W_i)
            if np.any(ssr0 <= 0):
                flags.append(f"regime {i} degenerate restricted SSR")
            _, ssr, ok = scan_partitions_batch(Y_i, W_i, local[:, None], n,
                                               compute_wald=False)
            vals = _f_ratio((length - d) / d * (ssr0[:, None] - ssr), ssr0[:, None],
                            np.isfinite(ssr) & (ssr0[:, None] > 0))
        else:
            v_i = score_beta = None
            if v_rows is not None:
                v_i = np.ascontiguousarray(v_rows[:, sl])
                score_beta = restricted_fit_batch(Y_i, W_i)[0][:, :v_rows.shape[2]]
            vals, _, ok = scan_partitions_batch(
                Y_i, W_i, local[:, None], n, v_rows=v_i, score_beta=score_beta
            )
        skipped += int(np.sum(~ok))
        j = np.argmax(vals, axis=1)
        top = vals[np.arange(B), j]
        better = top > best
        best[better] = top[better]
        regime[better] = i
        row[better] = a - 1 + local[j[better]]
    if feasible == 0:
        raise InfeasiblePartitionError(
            "no regime of the null partition admits an extra break"
        )
    return best, regime, row, skipped, flags


# ---------------------------------------------------------------------------
# Sample statistics: the sample as a batch of one
# ---------------------------------------------------------------------------


def _first_or_default(design: Design, eps: float, first: FirstStage | None = None) -> FirstStage:
    """first, or when None the first stage with no RF breaks, every test's default."""
    if first is not None:
        return first
    n = design.n
    return first_stage(design, no_breaks(n, eps, min_regime_length(n, eps, design.spec.q)))


def _case_i_outcome(design, k, eps, first, statistic):
    if k < 1:
        raise ConfigError(f"the alternative needs at least one break, got {k}")
    n = design.n
    min_len = min_regime_length(n, eps, design.spec.q)
    W = np.column_stack([_first_or_default(design, eps, first).x_hat, design.Z1])
    parts, vals, ok = _sup_case_i(design.y[None], W[None], k, min_len, statistic=statistic)
    if not np.any(np.isfinite(vals)):
        error = DegenerateSSRError if statistic == "supf" else SingularMiddleError
        raise error("every candidate partition failed")
    idx = int(np.argmax(vals[0]))
    return TestOutcome(
        statistic=float(vals[0, idx]),
        argmax_partition=Partition(tuple(parts[idx]), n, eps, min_len),
        skipped_candidates=int(np.sum(~ok)),
    )


def sup_wald_design(
    design: Design,
    k: int = 1,
    eps: float = 0.15,
    first: FirstStage | None = None,
) -> TestOutcome:
    """Sup-Wald test of no SE breaks against k breaks.

    design is ``make_design(spec, data)``.  The first stage is the fit
    first; None means no RF breaks.
    """
    return _case_i_outcome(design, k, eps, first, "supwald")


def f_at(ssr0: float, ssrk: float, T_eff: int, k: int, d_beta: int) -> float:
    """F statistic from restricted/unrestricted SSRs."""
    if ssrk <= 0.0:
        raise DegenerateSSRError("unrestricted SSR must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    return ((T_eff - (k + 1) * d_beta) / (k * d_beta)) * ((ssr0 - ssrk) / ssrk)


def sup_f_design(
    design: Design,
    k: int = 1,
    eps: float = 0.15,
    first: FirstStage | None = None,
) -> TestOutcome:
    """Sup-F test of no SE breaks against k breaks (as sup_wald_design)."""
    return _case_i_outcome(design, k, eps, first, "supf")


def _seq_outcome(null_partition: Partition, best, regime, row, skipped, flags) -> TestOutcome:
    if not np.isfinite(best[0]):
        raise SingularMiddleError("every within-regime candidate failed")
    merged = tuple(sorted(null_partition.breaks + (int(row[0]),)))
    part = Partition(merged, null_partition.n, null_partition.trim, null_partition.min_len)
    return TestOutcome(
        statistic=float(best[0]),
        argmax_partition=part,
        argmax_regime=int(regime[0]),
        skipped_candidates=skipped,
        flags=flags,
    )


def sup_wald_seq_design(
    design: Design,
    null_partition: Partition,
    first: FirstStage | None = None,
    statistic: str = "supwald",
) -> TestOutcome:
    """Sup-Wald or sup-F test of the SE breaks of null_partition against one more.

    The paper's null partition is the SSR-minimising one,
    ``global_ssr_breaks(design, first, l, eps)[0]``; first is as in
    sup_wald_design.  The extra break leaves both sub-regimes at least
    null_partition.min_len rows long: the design's for every partition the
    package builds, and its own for a hand-built one.
    """
    if statistic not in STATISTICS:
        raise ConfigError(f"statistic must be one of {STATISTICS}")
    if null_partition.k < 1:
        raise InfeasiblePartitionError("the null must impose at least one break")
    first = _first_or_default(design, null_partition.trim, first)
    W = np.column_stack([first.x_hat, design.Z1])
    found = _sup_case_ii(design.y[None], W[None], null_partition, statistic=statistic,
                         v_rows=first.v_hat[None])
    return _seq_outcome(null_partition, *found)
