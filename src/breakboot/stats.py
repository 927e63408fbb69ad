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
to the second-stage residual; the scan below exploits that identity.

All candidate partitions of a scan are evaluated in one batched pass:
regime Gram matrices come from prefix sums, the final quadratic forms are
stacked solves, and the outer-product terms are single matrix products
against the row-wise regressor cross products.  Each block of candidates
forms its masked score rows in place, in one buffer that every regime
reuses.

The regime coefficients and sandwich blocks take one of two forms.  The
reduced-form bootstrap batches of the pre-test declare which regressor
columns they resample: only the lagged x that WR rebuilds, none under WF.
Every other column is the sample's in every batch entry, so the scan
inverts each candidate regime's shared block once and factors only the
small per-entry Schur complement, and b and V come from G^{-1} by matrix
products.  Every other batch, that is each sample statistic (a batch of
one) and every structural-equation bootstrap batch, solves each (entry,
candidate) Gram by LU, once for b and twice for V.  The two forms agree to
about 1e-11 relative, but only the LU form reproduces the recorded
outputs bit for bit, and the benchmark compares its 2-worker
structural-equation cell bit for bit with a recorded reference; so that
path keeps its rounding until the comparison goes through tolerances.

Every statistic is computed over a batch of datasets that share one
candidate grid.  The sample is a batch of one, whose argmax also gives the
break estimate; the bootstrap passes its B samples.  :func:`_sup_case_i`
scans the full k-break grid (no break against k) and :func:`_sup_case_ii`
adds one break within each regime of a null partition (l against l+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimation import Design, RobustBlocks, _batched_solve, first_stage
from .exceptions import (
    ConfigError,
    DegenerateSSRError,
    InfeasiblePartitionError,
    SingularMiddleError,
)
from .model import Partition, no_breaks
from .partition_search import enumerate_partitions, global_ssr_breaks, min_regime_length

_CHUNK = 2048  # candidates per block of a scan
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
    rf_partition: Partition | None = None  # the first stage's, set by the bootstrap test
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
    p1: int = 0,
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
        parts,
        n_global,
        None if v_rows is None else v_rows[None],
        None if score_beta is None else np.asarray(score_beta)[None],
        p1,
        compute_wald,
        1,
        None,
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
    p1: int = 0,
    compute_wald: bool = True,
    chunk_rows: int = 1_000_000,
    resampled: tuple[int, ...] | None = None,
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
    v_rows : (B, n, p1) first-stage residual rows entering the score
        together with score_beta.
    score_beta : (B, p1) fixed endogenous-block coefficients for the score;
        None means the candidate fit's own (the score is then the fit
        residual and v_rows does not enter).
    p1 : width of the endogenous block at the front of Ws.
    chunk_rows : bound on batch x candidates x rows per batch chunk.
    resampled : the columns of Ws that differ across the batch; every other
        column must be bitwise equal in every batch entry.  When given, each
        candidate regime's shared block is inverted once, from batch entry
        0, and only the Schur complement of the resampled columns is
        factored per entry; G^{-1} then gives b and V by matrix products.
        A candidate is skipped where the shared block is singular or the
        Schur complement is not positive definite.  None (the default)
        solves every (entry, candidate) Gram by LU.

    Returns (wald, ssr, ok), each (B, m); wald is -inf and ssr +inf where
    a candidate failed.
    """
    return _scan(Y, Ws, parts, n_global, v_rows, score_beta, p1, compute_wald, chunk_rows,
                 resampled)


def _prefix(a: np.ndarray) -> np.ndarray:
    """Cumulative sums over the row axis, with a leading zero row."""
    out = np.zeros((a.shape[0], a.shape[1] + 1) + a.shape[2:])
    np.cumsum(a, axis=1, out=out[:, 1:])
    return out


def _scan(Y, Ws, parts, n_global, v_rows, score_beta, p1, compute_wald, chunk_rows,
          resampled):
    """The one scan kernel: batch chunks of chunk_rows, candidate blocks of _CHUNK."""
    Y = Y if Y.ndim == 3 else Y[:, :, None]
    B, n, d = Ws.shape
    m = parts.shape[0]
    edges = np.concatenate(
        [np.zeros((m, 1), dtype=np.int64), parts, np.full((m, 1), n, dtype=np.int64)],
        axis=1,
    )
    wald = np.empty((B, m))
    ssr = np.empty((B, m))
    ok = np.empty((B, m), dtype=bool)
    # keep the (batch, candidates, rows) work arrays around L2/L3 size
    bc = max(1, min(B, chunk_rows // max(1, m * n)))
    for b0 in range(0, B, bc):
        sb = slice(b0, min(b0 + bc, B))
        Yc, Wc = Y[sb], Ws[sb]
        cross = (Wc[:, :, :, None] * Wc[:, :, None, :]).reshape(-1, n, d * d)
        sums = (cross, _prefix(cross), _prefix(Wc[:, :, :, None] * Yc[:, :, None, :]),
                _prefix(Yc * Yc))
        vc = None if v_rows is None else v_rows[sb]
        betac = None if score_beta is None else score_beta[sb]
        for c0 in range(0, m, _CHUNK):
            sc = slice(c0, min(c0 + _CHUNK, m))
            wald[sb, sc], ssr[sb, sc], ok[sb, sc] = _scan_block(
                Yc, Wc, sums, edges[sc], n_global, vc, betac, p1, compute_wald, resampled
            )
    return wald, ssr, ok


def _shared_inverse(cum_G, s_e, e_e, resampled, out):
    """G^{-1} of every (entry, candidate) regime Gram by the block formula.

    The columns outside resampled are shared by the batch, so their block A
    is read from entry 0 and inverted once per candidate.  With C and D the
    shared-by-resampled and resampled blocks, S = D - C'A^{-1}C the Schur
    complement and U = [-A^{-1}C; I] (rows in column order),
    G^{-1} = A^{-1} (zero-padded) + U S^{-1} U'.  Returns (G^{-1}, ok):
    (Bc, m, d, d) written into out and (Bc, m), or (1, m, d, d) and (1, m)
    when nothing is resampled.  ok is False where _batched_solve flags A
    singular or S is not positive definite.
    """
    m, d = s_e.shape[0], out.shape[-1]
    rs = np.asarray(resampled, dtype=np.int64)
    sh = np.setdiff1d(np.arange(d), rs)
    A = (cum_G[0, e_e] - cum_G[0, s_e]).reshape(m, d, d)[:, sh[:, None], sh]
    A_inv, ok = _batched_solve(A, np.broadcast_to(np.eye(sh.size), A.shape))
    A_pad = np.zeros((1, m, d, d))
    A_pad[0][:, sh[:, None], sh] = A_inv
    if rs.size == 0:
        return A_pad, ok[None]
    cols = (np.arange(d)[:, None] * d + rs).ravel()  # G[:, rs] in the flat d*d layout
    Gr = (cum_G[:, e_e[:, None], cols] - cum_G[:, s_e[:, None], cols]).reshape(
        -1, m, d, rs.size
    )
    U = np.eye(d)[:, rs] - A_pad @ Gr
    S = Gr.transpose(0, 1, 3, 2) @ U
    pd = S[:, :, 0, 0] > 0
    for j in range(2, rs.size + 1):  # the other leading minors (Sylvester)
        pd &= np.linalg.det(S[:, :, :j, :j]) > 0
    S[~pd] = np.eye(rs.size)
    np.matmul(U @ np.linalg.inv(S), U.transpose(0, 1, 3, 2), out=out)
    out += A_pad
    return out, ok & pd


def _scan_block(Y, Ws, sums, edges, n_global, v_rows, score_beta, p1, compute_wald,
                resampled):
    """One block of candidates on one batch chunk: (wald, ssr, ok), each (Bc, m)."""
    cross, cum_G, cum_h, cum_yy = sums
    Bc, n, d = Ws.shape
    py = Y.shape[2]
    m, deff = edges.shape[0], d * py
    k = edges.shape[1] - 2
    rows = np.arange(1, n + 1)
    ok = np.ones((Bc, m), dtype=bool)
    ssr = np.zeros((Bc, m))
    thetas: list[np.ndarray] = []
    Vs: list[np.ndarray] = []
    inverse = resampled is not None
    if inverse:  # work arrays of the inverse form, written in place by every regime
        G_inv_buf = np.empty((Bc, m, d, d))
    if compute_wald:
        buf = np.empty((py, Bc, m, n))  # the score rows, reused by every regime
        M = np.empty((Bc, m, py, d, py, d))
        if inverse:
            GM = np.empty((Bc, m, py, d, deff))
            V_all = np.empty((k + 1, Bc, m, deff, deff))
    for i in range(k + 1):
        s_e, e_e = edges[:, i], edges[:, i + 1]
        h = cum_h[:, e_e] - cum_h[:, s_e]
        if inverse:
            G_inv, ok_i = _shared_inverse(cum_G, s_e, e_e, resampled, G_inv_buf)
            b = G_inv @ h
            ok &= ok_i
        else:
            G = (cum_G[:, e_e] - cum_G[:, s_e]).reshape(Bc * m, d, d)
            b, ok_i = _batched_solve(G, h.reshape(Bc * m, d, py))
            b = b.reshape(Bc, m, d, py)
            ok &= ok_i.reshape(Bc, m)
        ssr += np.sum(cum_yy[:, e_e] - cum_yy[:, s_e], axis=2) - np.einsum(
            "bmdc,bmdc->bm", b, h
        )
        thetas.append(b.transpose(0, 1, 3, 2).reshape(Bc, m, deff))
        if not compute_wald:
            continue
        mask = ((rows > s_e[:, None]) & (rows <= e_e[:, None])).astype(np.float64)
        for c in range(py):  # masked scores; a 0/1 mask before the product is exact
            np.matmul(b[..., c], Ws.transpose(0, 2, 1), out=buf[c])
            np.subtract(Y[:, None, :, c], buf[c], out=buf[c])
            if v_rows is not None and score_beta is not None:
                g = score_beta[:, None, :] - b[:, :, :p1, 0]
                buf[c] += g @ v_rows.transpose(0, 2, 1)
            buf[c] *= mask
        for c in range(py):
            for cc in range(py - 1, c - 1, -1):  # (c, c) last: it squares buf[c] in place
                sq = np.multiply(buf[c], buf[cc], out=buf[c] if cc == c else None)
                blk = (sq @ cross).reshape(Bc, m, d, d)
                if cc != c:
                    M[:, :, cc, :, c] = blk.transpose(0, 1, 3, 2)
                M[:, :, c, :, cc] = blk
        Mf = M.reshape(Bc, m, deff, deff)
        Mf /= n_global
        if inverse:
            # V = Q^{-1} M Q^{-1} with Q^{-1} = n G^{-1}, one d-row block at a time
            np.matmul(G_inv[:, :, None], M.reshape(Bc, m, py, d, deff), out=GM)
            V = V_all[i]
            GMt = GM.reshape(Bc, m, deff, deff).transpose(0, 1, 3, 2)
            np.matmul(G_inv[:, :, None], GMt.reshape(Bc, m, py, d, deff),
                      out=V.reshape(Bc, m, py, d, deff))
            V *= n_global * n_global
            Vs.append(V)
            continue
        # Q \ M and Q \ (Q \ M)' one d-row block of the stacked equations at a time
        Q = (G / n_global)[:, None]
        QM, ok_q = _batched_solve(Q, Mf.reshape(Bc * m, py, d, deff))
        QMt = QM.reshape(Bc * m, deff, deff).transpose(0, 2, 1)
        V, ok_v = _batched_solve(Q, QMt.reshape(Bc * m, py, d, deff))
        ok &= ok_q.reshape(Bc, m)
        ok &= ok_v.reshape(Bc, m)
        Vs.append(V.reshape(Bc, m, deff, deff))
    if compute_wald:
        delta = np.concatenate([thetas[i] - thetas[i + 1] for i in range(k)], axis=2)
        mid = np.zeros((Bc, m, k * deff, k * deff))
        for a in range(k):
            sa = slice(a * deff, (a + 1) * deff)
            mid[:, :, sa, sa] = Vs[a] + Vs[a + 1]
            if a + 1 < k:
                sb = slice((a + 1) * deff, (a + 2) * deff)
                mid[:, :, sa, sb] = -Vs[a + 1]
                mid[:, :, sb, sa] = -Vs[a + 1].transpose(0, 1, 3, 2)
        sol, ok_m = _batched_solve(
            mid.reshape(Bc * m, k * deff, k * deff),
            delta.reshape(Bc * m, k * deff, 1),
        )
        ok &= ok_m.reshape(Bc, m)
        wald = n_global * np.einsum(
            "bmi,bmi->bm", delta, sol[:, :, 0].reshape(Bc, m, k * deff)
        )
        ok &= np.isfinite(wald) & (wald > -1e-6)
        wald = np.maximum(wald, 0.0)
    else:
        wald = np.zeros((Bc, m))
    wald[~ok] = -np.inf
    ssr = np.maximum(ssr, 0.0)
    ssr[~ok] = np.inf
    return wald, ssr, ok


def restricted_fit_batch(Y: np.ndarray, Ws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-regime OLS per batch entry; NaN coefficients where the Gram is singular.

    Y (B, n) gives coefficients (B, d) and SSR (B,).  Y (B, n, py) fits each
    column on the same Ws: coefficients (B, d, py), and the SSR summed over
    the columns, as the scan pools them.
    """
    Y3 = Y if Y.ndim == 3 else Y[:, :, None]
    G = np.einsum("bni,bnj->bij", Ws, Ws)
    b = np.empty((Ws.shape[0], Ws.shape[2], Y3.shape[2]))
    ssr = np.zeros(Y.shape[0])
    for c in range(Y3.shape[2]):
        h = np.einsum("bni,bn->bi", Ws, Y3[:, :, c])
        bc, ok = _batched_solve(G, h[:, :, None])
        b[:, :, c] = np.where(ok[:, None], bc[:, :, 0], np.nan)
        resid = Y3[:, :, c] - np.einsum("bnd,bd->bn", Ws, b[:, :, c])
        ssr += np.einsum("bn,bn->b", resid, resid)
    return (b if Y.ndim == 3 else b[:, :, 0]), ssr


# ---------------------------------------------------------------------------
# Sup reductions over a batch: case (i) H0 m=0 vs H1 m=k, case (ii) m=l vs l+1
# ---------------------------------------------------------------------------


def _sup_case_i(Y, Ws, k, eps, q, *, statistic="supwald", v_rows=None, beta_source="alt",
                p1=0, resampled=None):
    """Case (i) values at every candidate of the full k-break grid.

    Y is (B, n) or (B, n, py) and Ws (B, n, d) over the whole effective
    sample; v_rows is (B, n, p1).  statistic is "supwald" or "supf".  With
    beta_source="null" the score's endogenous-block coefficients are held
    at the no-break fit.  resampled is passed to every scan (see
    :func:`scan_partitions_batch`).  Returns (parts (m, k), values (B, m),
    ok (B, m)); a failed candidate holds -inf.
    """
    _, n, d = Ws.shape
    parts = enumerate_partitions(n, k, eps, q).as_array()
    if statistic == "supf":
        _, ssr0 = restricted_fit_batch(Y, Ws)
        _, ssr, ok = scan_partitions_batch(
            Y, Ws, parts, n, compute_wald=False, resampled=resampled
        )
        vals = np.where(
            np.isfinite(ssr) & (ssr > 0),
            ((n - (k + 1) * d) / (k * d)) * (ssr0[:, None] - ssr) / ssr,
            -np.inf,
        )
        return parts, vals, ok
    score_beta = None
    if beta_source == "null":
        score_beta = restricted_fit_batch(Y, Ws)[0][:, :p1]
    vals, _, ok = scan_partitions_batch(
        Y, Ws, parts, n, v_rows=v_rows, score_beta=score_beta, p1=p1, resampled=resampled
    )
    return parts, vals, ok


def _sup_case_ii(Y, Ws, null_partition, min_len, *, statistic="supwald", v_rows=None, p1=0,
                 resampled=None):
    """Case (ii): the sup over one extra break within each null regime.

    Each regime's restricted single-regime fit supplies the score's
    endogenous-block coefficients (when v_rows is given) and, for
    statistic="supf", the restricted SSR; resampled is as in
    :func:`_sup_case_i`.  Returns (best, regime, row,
    skipped, flags): per batch entry the sup, its 1-based regime and its
    break row on the full sample (-inf, 0, 0 where every candidate
    failed), then the failed candidate count and notes on regimes that
    cannot take a break.
    """
    B, n, d = Ws.shape
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
            _, ssr, ok = scan_partitions_batch(
                Y_i, W_i, local[:, None], n, compute_wald=False, resampled=resampled
            )
            vals = np.where(
                np.isfinite(ssr) & (ssr0[:, None] > 0),
                (length - d) / d * (ssr0[:, None] - ssr) / ssr0[:, None],
                -np.inf,
            )
        else:
            v_i = score_beta = None
            if v_rows is not None:
                v_i = np.ascontiguousarray(v_rows[:, sl])
                score_beta = restricted_fit_batch(Y_i, W_i)[0][:, :p1]
            vals, _, ok = scan_partitions_batch(
                Y_i, W_i, local[:, None], n, v_rows=v_i, score_beta=score_beta, p1=p1,
                resampled=resampled,
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


def _rf_partition(design: Design, eps: float, rf_partition: Partition | None) -> Partition:
    """The first stage's RF partition: rf_partition, or no RF breaks when None."""
    if rf_partition is not None:
        return rf_partition
    n = design.n
    return no_breaks(n, eps, min_regime_length(n, eps, design.spec.q))


def ssr_null_partition(design: Design, n_breaks: int, eps: float = 0.15,
                       rf_partition: Partition | None = None) -> Partition:
    """The n_breaks SE partition minimising the second-stage SSR.

    This is the null partition of an l-against-l+1 test (see
    :func:`sup_wald_seq_design`).  The first stage is fixed at rf_partition
    (None: no RF breaks).
    """
    if n_breaks < 1:
        raise InfeasiblePartitionError("the null must impose at least one break")
    _, x_hat, _ = first_stage(design, _rf_partition(design, eps, rf_partition))
    return global_ssr_breaks(design, x_hat, n_breaks, eps)[0]


def _sample_batch(design: Design, eps: float, rf_partition: Partition | None):
    """(y, w_hat rows, v_hat rows) with a leading batch axis of one.

    The first stage is fixed once, at rf_partition (None: no RF breaks).
    """
    _, x_hat, v_hat = first_stage(design, _rf_partition(design, eps, rf_partition))
    W = np.column_stack([x_hat, design.Z1])
    return design.y[None], W[None], v_hat[None]


def _case_i_outcome(design, k, eps, rf_partition, statistic, beta_source="alt"):
    if k < 1:
        raise ConfigError(f"the alternative needs at least one break, got {k}")
    n, q = design.n, design.spec.q
    Y, W, v_hat = _sample_batch(design, eps, rf_partition)
    parts, vals, ok = _sup_case_i(
        Y, W, k, eps, q, statistic=statistic, v_rows=v_hat, beta_source=beta_source,
        p1=design.spec.p1,
    )
    if not np.any(np.isfinite(vals)):
        error = DegenerateSSRError if statistic == "supf" else SingularMiddleError
        raise error("every candidate partition failed")
    idx = int(np.argmax(vals[0]))
    return TestOutcome(
        statistic=float(vals[0, idx]),
        argmax_partition=Partition(tuple(parts[idx]), n, eps, min_regime_length(n, eps, q)),
        skipped_candidates=int(np.sum(~ok)),
    )


def sup_wald_design(
    design: Design,
    k: int = 1,
    eps: float = 0.15,
    rf_partition: Partition | None = None,
    beta_source: str = "alt",
) -> TestOutcome:
    """Sup-Wald test of no SE breaks against k breaks.

    design is ``make_design(spec, data)``.  The first stage is fixed once,
    at rf_partition; None means no RF breaks.  beta_source="null" holds the
    score's endogenous-block coefficients at the no-break fit.
    """
    if beta_source not in ("alt", "null"):
        raise ConfigError("beta_source must be 'alt' or 'null'")
    return _case_i_outcome(design, k, eps, rf_partition, "supwald", beta_source)


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
    rf_partition: Partition | None = None,
) -> TestOutcome:
    """Sup-F test of no SE breaks against k breaks (as sup_wald_design)."""
    return _case_i_outcome(design, k, eps, rf_partition, "supf")


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
    eps: float = 0.15,
    rf_partition: Partition | None = None,
    statistic: str = "supwald",
) -> TestOutcome:
    """Sup-Wald or sup-F test of the SE breaks of null_partition against one more.

    The paper's null partition is the SSR-minimising one,
    ``ssr_null_partition(design, l, eps, rf_partition)``; rf_partition is as
    in sup_wald_design.
    """
    if statistic not in STATISTICS:
        raise ConfigError(f"statistic must be one of {STATISTICS}")
    if null_partition.k < 1:
        raise InfeasiblePartitionError("the null must impose at least one break")
    Y, W, v_hat = _sample_batch(design, eps, rf_partition)
    min_len = min_regime_length(design.n, eps, design.spec.q)
    found = _sup_case_ii(
        Y, W, null_partition, min_len, statistic=statistic, v_rows=v_hat, p1=design.spec.p1
    )
    return _seq_outcome(null_partition, *found)
