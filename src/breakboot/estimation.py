"""Least-squares kernels: OLS, regime-wise 2SLS pipeline, robust covariance,
and the segment scan.

All estimation runs on the effective sample (see :mod:`breakboot.model`).
Moment matrices are normalised by the full effective length n, not by
regime length; the choice cancels in the sandwich but is fixed for
comparability with hand computations.

:func:`_scan` is the package's one segment least-squares kernel.  It fits
every regime of a batch of candidates, each given by its regime edges, and
optionally forms the robust Wald statistic of :mod:`breakboot.stats` at
each candidate.  The sup statistics' break scans and the break search's
segment SSR table (a scan of one-regime candidates) both run on it.

All candidates of a scan are evaluated in one batched pass: regime Gram
matrices and cross moments come from prefix sums, the SSR is
sum(y^2) - b'h with sum(y^2) summed over the target columns before its
prefix sum, and the outer-product terms are single matrix products against
the row-wise regressor cross products.  Each block of candidates forms its
masked score rows in place, in one buffer that every regime reuses, and a
regime of a block reads only the rows (min s, max e] that some candidate's
regime (s, e] covers: every other row scores zero after the mask, so
skipping it changes no value beyond the rounding of the row sums.  A scan
of m candidates on n rows works in batch chunks of up to per =
chunk_rows // (m * n) entries, and a block holds at most _CHUNK // per
candidates, a fixed amount of (entry, candidate) work, so that the
bootstrap's k = 1 batches take blocks of a few dozen consecutive break
dates, whose spans exceed a regime by only that many rows.  The m
candidates are split into ceil(m / (_CHUNK // per)) blocks whose sizes
differ by at most one, so no block is a remainder of a few candidates that
still pays a block's fixed cost.  The blocks follow from m and n alone, so
a bootstrap sample's statistic has the same bits in a batch of any size
above one, a pre-test stage's slices included.  A batch of one (the sample
statistic, a segment table) takes blocks of up to _CHUNK candidates, its
whole grid at k = 1: the matrix product over a regime's rows may round
differently in another block shape, and the benchmark's 2-worker cell
compares the sample statistic bit for bit.

The regime coefficients, sandwich blocks and Wald forms take one of two
forms, picked by the batch size.  A batch of one, the sample statistic or
a segment table, has nothing to share across entries: it solves each
candidate's Gram by LU, once for b and, with the Wald form, twice for V,
and solves the middle matrix by LU; its score takes three steps, b'w, y
minus that, and the score pair's term added.  A larger batch, the
bootstrap's B samples, shares every regressor column that its scheme
keeps: WR rebuilds lagged y and lagged x inside z on every draw, WF keeps
every regressor row, and the structural equation refits x_hat on every
draw.  The scan reads that set from the batch, a column counting as
resampled where it is not equal in every entry.  Before its first batch
chunk it inverts the shared block of each candidate regime once, from
entry 0's Gram; each chunk then borders its resampled columns in one at a
time and takes b from G^{-1} by vector operations.  Each chunk also stacks
its rows [y, w, v] once, so that a candidate's score is one matrix product
of those rows against the coefficients [1, -b, score_beta - b_x], and V is
(G^{-1} M) G^{-1}, two matrix products whose operands are contiguous.  The
Wald form is a symmetric elimination without pivoting of the middle
matrix, run over the (entry, candidate) axes, and a candidate is skipped
where a pivot of its middle matrix is not positive.  Bootstrap draws
reach the outputs only through the p-value count and the order-statistic
critical values, so their rounding may move.  The sample statistic keeps
the LU sequence and the three-step score, which sum in another order and
round differently, until the benchmark's 2-worker cell, compared bit for
bit with a recorded reference, is compared through tolerances.

:func:`first_stage` returns a :class:`FirstStage`, the RF partition with
its fit (delta, x_hat, v_hat).  A test fits it once and passes that value
on: the sample statistic, the null partition's search, the null fit
(:class:`RegimeEstimates` holds it next to the second stage) and the
bootstrap samples all read the same x_hat and v_hat.

:func:`_regime_fit` is the one least-squares fit on a fixed partition:
the sample first and second stages (a batch of one, after each regime's
COND_CAP check), every bootstrap sample's first stage, and the one-regime
restricted fit.  On a batch of one it gives the bits of a plain per-regime
Z_r'Z_r solve, which the benchmark's 2-worker cell compares bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import RankDeficientError, SingularQError
from .model import Dataset, ModelSpec, Partition, build_instrument_rows

# Gram matrices with condition number above this cap are treated as rank
# deficient; there is no silent pseudo-inverse fallback.
COND_CAP = 1e10
_CHUNK = 2048  # (entry, candidate) pairs per block of a scan


@dataclass(frozen=True)
class OlsFit:
    """A single least-squares fit.

    coef minimises ||y - X coef||^2; xtx_inv is the Gram inverse used for
    covariance assembly; ssr is the sum of squared residuals.
    """

    coef: np.ndarray
    residuals: np.ndarray
    ssr: float
    xtx_inv: np.ndarray
    n_obs: int


@dataclass(frozen=True)
class RobustBlocks:
    """Per-regime sandwich pieces: V_i = Q_i^{-1} M_i Q_i^{-1}."""

    Q: list[np.ndarray]
    M: list[np.ndarray]
    V: list[np.ndarray]


@dataclass(frozen=True)
class SecondStageFit:
    """Per-regime SE coefficients, the second-stage SSR and the structural residuals.

    ssr sums the second-stage residuals y - w_hat' beta; u_hat are the
    structural residuals y - w' beta computed with the actual x, the
    (non-centered) residuals used by the bootstrap.
    """

    beta: list[np.ndarray]
    ssr: float
    u_hat: np.ndarray


@dataclass(frozen=True)
class FirstStage:
    """The reduced-form fit a test conditions on: regime-wise OLS of x on z.

    delta holds the q x p1 coefficients of each regime of partition; x_hat
    stitches the regime fits and v_hat = x - x_hat exactly.
    """

    partition: Partition
    delta: list[np.ndarray]
    x_hat: np.ndarray
    v_hat: np.ndarray


@dataclass(frozen=True)
class RegimeEstimates:
    """A null-imposed model fit: its first stage and the second stage on se_partition."""

    first: FirstStage
    se_partition: Partition
    beta: list[np.ndarray]
    u_hat: np.ndarray


@dataclass(frozen=True)
class Design:
    """Effective-sample matrices shared by every estimation routine."""

    spec: ModelSpec
    y: np.ndarray          # (n,)
    x: np.ndarray          # (n, p1) actual endogenous regressors
    Z: np.ndarray          # (n, q)
    Z1: np.ndarray         # (n, q1)
    data: Dataset = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def w_actual(self) -> np.ndarray:
        return np.column_stack([self.x, self.Z1])


def make_design(spec: ModelSpec, data: Dataset) -> Design:
    """Build the effective-sample bundle for a dataset."""
    Z, Z1, _ = build_instrument_rows(spec, data)
    lag = spec.max_lag
    return Design(
        spec=spec,
        y=data.y[lag:].copy(),
        x=data.x[lag:].copy(),
        Z=Z,
        Z1=Z1,
        data=data,
    )


def _check_gram(G: np.ndarray, what: str) -> None:
    eig = np.linalg.eigvalsh(G)
    if eig[0] <= 0 or eig[-1] / eig[0] > COND_CAP:
        raise RankDeficientError(
            f"{what}: Gram condition number exceeds cap {COND_CAP:.0e}"
        )


def ols(X: np.ndarray, y: np.ndarray) -> OlsFit:
    """OLS with a hard condition-number cap on X'X.

    Raises RankDeficientError when n < p or the Gram matrix is singular
    or worse conditioned than COND_CAP.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    if n < p:
        raise RankDeficientError(f"n={n} < p={p}")
    G = X.T @ X
    _check_gram(G, "ols")
    xtx_inv = np.linalg.inv(G)
    coef = xtx_inv @ (X.T @ y)
    resid = y - X @ coef
    return OlsFit(
        coef=coef,
        residuals=resid,
        ssr=float(resid @ resid),
        xtx_inv=xtx_inv,
        n_obs=n,
    )


def _batched_solve(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve stacked systems, masking singular rows instead of raising.

    Returns (X, ok); ok is False where a system is exactly singular or its
    solution is not finite.  When the batch holds an exactly singular
    system (an LU pivot of zero, so slogdet's sign is 0), those systems are
    swapped for the identity, the batch is solved once more, and every row
    that is not ok holds zeros.
    """
    try:
        X = np.linalg.solve(A, B)
        ok = np.all(np.isfinite(X.reshape(X.shape[0], -1)), axis=1)
        return X, ok
    except np.linalg.LinAlgError:
        pass
    singular = np.linalg.slogdet(A)[0] == 0  # A's stack shape, may be (m, 1)
    A = A.copy()
    A[singular] = np.eye(A.shape[-1])
    X = np.linalg.solve(A, B)
    ok = ~np.any(singular.reshape(X.shape[0], -1), axis=1)
    ok &= np.all(np.isfinite(X.reshape(X.shape[0], -1)), axis=1)
    X[~ok] = 0.0
    return X, ok


def _prefix(a: np.ndarray) -> np.ndarray:
    """Cumulative sums over the row axis, with a leading zero row."""
    out = np.zeros((a.shape[0], a.shape[1] + 1) + a.shape[2:])
    np.cumsum(a, axis=1, out=out[:, 1:])
    return out


def _scan(Y, Ws, edges, n_global, v_rows, score_beta, compute_wald, chunk_rows):
    """The one segment least-squares kernel, over candidates given by their regime edges.

    Y is (B, n) or (B, n, py) and Ws (B, n, d); edges (m, k+2) holds each
    candidate's regime bounds, regime i covering rows edges[:, i] + 1 to
    edges[:, i + 1].  The other arguments are those of
    :func:`breakboot.stats.scan_partitions_batch`.  Works in batch chunks
    of min(B, per) entries, per = chunk_rows // (m * n), and in
    ceil(m / (_CHUNK // per)) candidate blocks (ceil(m / _CHUNK) for a
    batch of one) whose sizes differ by at most one, scoring each regime
    of a block over the rows the block's regimes cover (see the module
    docstring); returns (wald, ssr, ok), each (B, m).

    The batch size picks the form (see the module docstring).  A batch of
    one keeps the LU form, whose rounding the benchmark's 2-worker cell
    compares bit for bit.  A larger batch takes the shared-inverse form
    over the columns of Ws that are not equal in every entry.  The columns
    equal in every entry are read from entry 0: before the first batch
    chunk, each block's regimes get their Gram and the inverse of its
    shared block once (:func:`_shared_block`), and every chunk borders its
    own resampled columns in (:func:`_shared_inverse`) and stacks the rows
    [y, w, v] that each score takes in one product.  The score pair's
    coefficients score_beta - b_x belong to one target column, so the pair
    with pooled targets (py > 1) raises ValueError.
    """
    if (v_rows is None) != (score_beta is None):
        raise ValueError("v_rows and score_beta enter the score together")
    Y = Y if Y.ndim == 3 else Y[:, :, None]
    if v_rows is not None and Y.shape[2] > 1:
        raise ValueError("v_rows and score_beta score one target column, not pooled targets")
    B, n, d = Ws.shape
    m, k = edges.shape[0], edges.shape[1] - 2
    wald = np.empty((B, m))
    ssr = np.empty((B, m))
    ok = np.empty((B, m), dtype=bool)
    # keep the (batch, candidates, rows) work arrays around L2/L3 size, and
    # the (entry, candidate) work of a block fixed, so that its spans stay
    # tight; the blocks follow from m and n alone, not from B
    per = max(1, chunk_rows // max(1, m * n))
    bc = min(B, per)
    n_blocks = -(-m // max(1, _CHUNK // (per if B > 1 else 1)))
    blocks = [slice(m * j // n_blocks, m * (j + 1) // n_blocks) for j in range(n_blocks)]
    shared = [None] * n_blocks
    if B > 1:
        resampled = np.flatnonzero(np.ptp(Ws, axis=0).any(axis=0))
        kept = np.setdiff1d(np.arange(d), resampled)
        cum_A = _prefix((Ws[0, :, :, None] * Ws[0, :, None, :])[None])[0]
        shared = [(resampled, [_shared_block(cum_A, edges[sc, i], edges[sc, i + 1], kept)
                               for i in range(k + 1)]) for sc in blocks]
    for b0 in range(0, B, bc):
        sb = slice(b0, min(b0 + bc, B))
        Yc, Wc = Y[sb], Ws[sb]
        cross = (Wc[:, :, :, None] * Wc[:, :, None, :]).reshape(-1, n, d * d)
        if B == 1:
            cum_G = _prefix(cross)
        else:  # the resampled rows of the Gram, for every entry
            cum_G = _prefix(cross[:, :, (resampled[:, None] * d + np.arange(d)).ravel()])
        vc = None if v_rows is None else v_rows[sb]
        betac = None if score_beta is None else score_beta[sb]
        score_rows = None
        if B > 1 and compute_wald:  # the score's rows [y, w, v], each row contiguous
            parts = [a.transpose(0, 2, 1) for a in (Yc, Wc, vc) if a is not None]
            score_rows = np.empty((Wc.shape[0], sum(a.shape[1] for a in parts), n))
            np.concatenate(parts, axis=1, out=score_rows)
        sums = (cross, cum_G, _prefix(Wc[:, :, :, None] * Yc[:, :, None, :]),
                _prefix(np.sum(Yc * Yc, axis=2)), score_rows)
        for sc, sh in zip(blocks, shared):
            wald[sb, sc], ssr[sb, sc], ok[sb, sc] = _scan_block(
                Yc, Wc, sums, edges[sc], n_global, vc, betac, compute_wald, sh
            )
    return wald, ssr, ok


def _shared_block(cum_A, s_e, e_e, kept):
    """Entry 0's Gram of each candidate regime and the inverse of its block of the kept columns.

    cum_A is entry 0's prefix of the Gram, (n+1, d, d).  Returns (G
    (d, d, 1, m); G^{-1} (d, d, 1, m), zero outside the kept block; ok
    (1, m), False where _batched_solve flags that block singular), the
    start of :func:`_shared_inverse`'s bordering.
    """
    m, d = s_e.shape[0], cum_A.shape[-1]
    G = (cum_A[e_e] - cum_A[s_e]).transpose(1, 2, 0)[:, :, None]
    G_inv = np.zeros((d, d, 1, m))
    ok = np.ones((1, m), dtype=bool)
    if kept.size:
        A = G[kept[:, None], kept, 0].transpose(2, 0, 1)
        A_inv, ok[0] = _batched_solve(A, np.broadcast_to(np.eye(kept.size), A.shape))
        G_inv[kept[:, None], kept, 0] = A_inv.transpose(1, 2, 0)
    return G, G_inv, ok


def _shared_inverse(shared, cum_R, h, s_e, e_e, rs, bufs):
    """G^{-1} and b = G^{-1} h of every (entry, candidate) regime, by bordering.

    shared is :func:`_shared_block`'s (G, G^{-1}, ok) of the regime, rs the
    resampled columns and cum_R every entry's prefix of their rows of the
    Gram, (Bc, n+1, len(rs)*d).  The resampled columns are bordered into
    the shared block's inverse one at a time.
    With G^{-1} the zero-padded inverse so far, g column r of the Gram,
    u = G^{-1} g and the pivot s = g_rr - g'u, G^{-1} += w w'/s with
    w = u - e_r.  A Gram of condition 1e8 (a constant next to a lagged y of
    mean 280 and sd 50) makes G^{-1} h ten times less accurate than an LU
    solve, so b takes one step of iterative refinement against G.
    Returns (G^{-1} (Bc, m, d, d), in bufs[0]; b (Bc, m, d, py); ok
    (Bc, m)), with a leading axis of 1 for G^{-1} and ok when nothing is
    resampled.  G^{-1} is returned with the (entry, candidate) axes first
    and each d x d matrix contiguous, the layout of the two matrix products
    that form V = (G^{-1} M) G^{-1} in :func:`_scan_block`.  ok is False
    where the shared block is singular or a pivot is not positive, that is
    where the Schur complement of the resampled columns is not positive
    definite.  The work keeps the (entry, candidate) axes last, in bufs
    (3, Bc, m, d, d), so every step is a long vector operation; the
    refinement's right-hand sides h are copied into that layout once, so
    its three mat-vecs read contiguous vectors.
    """
    G, G_inv, ok = shared
    m, d = s_e.shape[0], bufs.shape[-1]
    R = np.ascontiguousarray((cum_R[:, e_e] - cum_R[:, s_e]).transpose(2, 0, 1))
    R = R.reshape(rs.size, d, *R.shape[1:])  # the resampled rows, equal to the columns
    work, G_all = bufs[1].reshape(d, d, -1, m), bufs[2].reshape(d, d, -1, m)
    if rs.size:
        np.copyto(G_all, G)
        G_all[rs], G_all[:, rs] = R, R.transpose(1, 0, 2, 3)
        G = G_all
    for g, r in zip(R, rs):
        w = _mv(G_inv, g)
        s = g[r] - np.einsum("d...,d...->...", g, w)
        pd = s > 0
        ok = ok & pd
        s[~pd] = 1.0
        w[r] = -1.0
        update = np.multiply(w[:, None], w / s, out=None if G_inv is work else work)
        G_inv = np.add(G_inv, update, out=work)
    b = np.empty(h.shape)
    for c, hc in enumerate(np.ascontiguousarray(h.transpose(3, 2, 0, 1))):
        bc = _mv(G_inv, hc)
        bc += _mv(G_inv, hc - _mv(G, bc))
        b[..., c] = bc.transpose(1, 2, 0)
    if rs.size:
        bufs[0] = G_inv.transpose(2, 3, 0, 1)
        return bufs[0], b, ok
    return G_inv.transpose(2, 3, 0, 1), b, ok


def _middle_form(Vs, delta):
    """delta' H^{-1} delta for the middle matrix H of each (entry, candidate), by elimination.

    Vs holds the k+1 regimes' V, each (deff, deff, ...), and delta the
    k*deff coefficient differences, (k*deff, ...), with the (entry,
    candidate) axes last.  H is block tridiagonal: V_a + V_{a+1} on the
    diagonal and -V_{a+1} beside it.  A symmetric elimination without
    pivoting, H = L D L', with the same steps on delta (y = L^{-1} delta)
    gives the form sum_j y_j^2 / p_j over the pivots p_j = D_jj.  H is a sum
    of positive semi-definite sandwich matrices, so a candidate is skipped
    where a pivot of its middle matrix is not positive, the bordering
    step's rule.  Returns (form, ok).
    """
    k, deff = len(Vs) - 1, Vs[0].shape[0]
    H = np.zeros((k, deff, k, deff) + delta.shape[1:])
    for a in range(k):
        np.add(Vs[a], Vs[a + 1], out=H[a, :, a])
        if a + 1 < k:
            np.negative(Vs[a + 1], out=H[a, :, a + 1])
            np.negative(Vs[a + 1].swapaxes(0, 1), out=H[a + 1, :, a])
    H = H.reshape((k * deff, k * deff) + delta.shape[1:])
    y = np.array(delta)
    form = np.zeros(delta.shape[1:])
    ok = np.ones(delta.shape[1:], dtype=bool)
    for j in range(k * deff):
        p = H[j, j]
        pos = p > 0
        ok &= pos
        p = np.where(pos, p, 1.0)
        l = H[j + 1:, j] / p
        H[j + 1:, j + 1:] -= l[:, None] * H[j, j + 1:]
        y[j + 1:] -= l * y[j]
        form += y[j] * y[j] / p
    return form, ok


def _mv(A, x):
    """A @ x for (d, d, ...) matrices and (d, ...) vectors, stacked on the last axes."""
    return np.einsum("ij...,j...->i...", A, x)


def _scan_block(Y, Ws, sums, edges, n_global, v_rows, score_beta, compute_wald, shared):
    """One block of candidates on one batch chunk: (wald, ssr, ok), each (Bc, m).

    shared is None in the LU form, and in the shared-inverse form the
    resampled columns with each regime's :func:`_shared_block`.  sums holds
    the chunk's cross products, prefix sums and, in the shared-inverse
    form with the Wald statistic, its score rows [y, w, v] (Bc, py+d+p1, n).
    The shared-inverse form scores each target column c with one product
    of those rows against [e_c, -b_c, score_beta - b_x] and forms V as
    (G^{-1} M) G^{-1}; the LU form keeps its three-step score, y - b'w plus
    the score pair's term, and its two LU solves for V, whose rounding the
    benchmark's 2-worker cell compares bit for bit.
    """
    cross, cum_G, cum_h, cum_yy, score_rows = sums
    Bc, n, d = Ws.shape
    py = Y.shape[2]
    m, deff = edges.shape[0], d * py
    k = edges.shape[1] - 2
    ok = np.ones((Bc, m), dtype=bool)
    ssr = np.zeros((Bc, m))
    thetas: list[np.ndarray] = []
    Vs: list[np.ndarray] = []
    inverse = shared is not None
    if inverse:  # work arrays of the inverse form, written in place by every regime
        rs, inverses = shared
        inv_bufs = np.empty((3, Bc, m, d, d))
    if compute_wald:
        # regime i of the block covers only rows spans[i][0] + 1 to spans[i][1]
        spans = [(int(edges[:, i].min()), int(edges[:, i + 1].max())) for i in range(k + 1)]
        # the score rows, reused by every regime
        buf = np.empty(py * Bc * m * max(hi - lo for lo, hi in spans))
        M = np.empty((Bc, m, py, d, py, d))
        if inverse:
            coef = np.empty((Bc, m, score_rows.shape[1]))
            GM = np.empty((Bc, m, py, d, deff))
            V_all = np.empty((k + 1, Bc, m, deff, deff))
    for i in range(k + 1):
        s_e, e_e = edges[:, i], edges[:, i + 1]
        h = cum_h[:, e_e] - cum_h[:, s_e]
        if inverse:
            G_inv, b, ok_i = _shared_inverse(inverses[i], cum_G, h, s_e, e_e, rs, inv_bufs)
            ok &= ok_i
        else:
            G = (cum_G[:, e_e] - cum_G[:, s_e]).reshape(Bc * m, d, d)
            b, ok_i = _batched_solve(G, h.reshape(Bc * m, d, py))
            b = b.reshape(Bc, m, d, py)
            ok &= ok_i.reshape(Bc, m)
        ssr += cum_yy[:, e_e] - cum_yy[:, s_e] - np.einsum("bmdc,bmdc->bm", b, h)
        thetas.append(b.transpose(0, 1, 3, 2).reshape(Bc, m, deff))
        if not compute_wald:
            continue
        lo, hi = spans[i]  # every other row scores zero
        rows = np.arange(lo + 1, hi + 1)
        mask = ((rows > s_e[:, None]) & (rows <= e_e[:, None])).astype(np.float64)
        score = buf[:py * Bc * m * (hi - lo)].reshape(py, Bc, m, hi - lo)
        for c in range(py):  # masked scores; a 0/1 mask before the product is exact
            if inverse:  # the rows [y, w, v] against [e_c, -b_c, score_beta - b_x]
                coef[..., :py] = np.arange(py) == c
                np.negative(b[..., c], out=coef[..., py:py + d])
                if score_beta is not None:
                    np.subtract(score_beta[:, None], b[:, :, :score_beta.shape[1], 0],
                                out=coef[..., py + d:])
                np.matmul(coef, score_rows[:, :, lo:hi], out=score[c])
            else:
                np.matmul(b[..., c], Ws[:, lo:hi].transpose(0, 2, 1), out=score[c])
                np.subtract(Y[:, None, lo:hi, c], score[c], out=score[c])
                if score_beta is not None:
                    g = score_beta[:, None, :] - b[:, :, :score_beta.shape[1], 0]
                    score[c] += g @ v_rows[:, lo:hi].transpose(0, 2, 1)
            score[c] *= mask
        for c in range(py):
            for cc in range(py - 1, c - 1, -1):  # (c, c) last: it squares score[c] in place
                sq = np.multiply(score[c], score[cc], out=score[c] if cc == c else None)
                blk = (sq @ cross[:, lo:hi]).reshape(Bc, m, d, d)
                if cc != c:
                    M[:, :, cc, :, c] = blk.transpose(0, 1, 3, 2)
                M[:, :, c, :, cc] = blk
        Mf = M.reshape(Bc, m, deff, deff)
        Mf /= n_global
        if inverse:
            # V = (Q^{-1} M) Q^{-1} with Q^{-1} = n G^{-1}: G^{-1} M one d-row block
            # at a time, then that times G^{-1} one d-column block at a time
            np.matmul(G_inv[:, :, None], M.reshape(Bc, m, py, d, deff), out=GM)
            V = V_all[i]
            np.matmul(GM.reshape(Bc, m, deff * py, d), G_inv,
                      out=V.reshape(Bc, m, deff * py, d))
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
        if inverse:
            form, ok_m = _middle_form([V.transpose(2, 3, 0, 1) for V in Vs],
                                      delta.transpose(2, 0, 1))
        else:
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
            ok_m = ok_m.reshape(Bc, m)
            form = np.einsum("bmi,bmi->bm", delta, sol[:, :, 0].reshape(Bc, m, k * deff))
        ok &= ok_m
        wald = n_global * form
        ok &= np.isfinite(wald) & (wald > -1e-6)
        wald = np.maximum(wald, 0.0)
    else:
        wald = np.zeros((Bc, m))
    wald[~ok] = -np.inf
    ssr = np.maximum(ssr, 0.0)
    ssr[~ok] = np.inf
    return wald, ssr, ok


def _regime_fit(X: np.ndarray, Y: np.ndarray, regimes) -> tuple[list[np.ndarray], np.ndarray]:
    """Least squares of Y (B, n, c) on X (B, n, d) within each regime, over a batch.

    regimes holds 1-based inclusive (start, end) row pairs, as
    :meth:`Partition.regimes`.  A system that :func:`_batched_solve` flags
    gets NaN coefficients.  Returns ((B, d, c) coefficients per regime,
    fitted values (B, n, c)).
    """
    coef: list[np.ndarray] = []
    fitted = np.empty(X.shape[:2] + Y.shape[2:])
    for s, t in regimes:
        Xr = X[:, s - 1 : t]
        Xt = Xr.transpose(0, 2, 1)
        b, ok = _batched_solve(Xt @ Xr, Xt @ Y[:, s - 1 : t])
        b[~ok] = np.nan
        coef.append(b)
        np.matmul(Xr, b, out=fitted[:, s - 1 : t])
    return coef, fitted


def _sample_fit(X: np.ndarray, Y: np.ndarray, partition: Partition, what: str):
    """:func:`_regime_fit` of Y (n, c) on X (n, d), raising where a Gram fails COND_CAP."""
    for s, t in partition.regimes():
        _check_gram(X[s - 1 : t].T @ X[s - 1 : t], what)
    coef, fitted = _regime_fit(X[None], Y[None], partition.regimes())
    return [c[0] for c in coef], fitted[0]


def first_stage(design: Design, partition: Partition) -> FirstStage:
    """Regime-wise OLS of x on z over the RF regimes of partition."""
    delta, x_hat = _sample_fit(design.Z, design.x, partition, "first_stage")
    return FirstStage(partition, delta, x_hat, design.x - x_hat)


def second_stage(
    design: Design, x_hat: np.ndarray, se_partition: Partition
) -> SecondStageFit:
    """Regime-wise OLS of y on w_hat = (x_hat, z1)."""
    W = np.column_stack([x_hat, design.Z1])
    y, Wa = design.y, design.w_actual
    beta, fitted = _sample_fit(W, y[:, None], se_partition, "second_stage")
    beta = [b[:, 0] for b in beta]
    e = y - fitted[:, 0]
    u_hat = np.concatenate([y[s - 1 : t] - Wa[s - 1 : t] @ b
                            for (s, t), b in zip(se_partition.regimes(), beta)])
    return SecondStageFit(beta=beta, ssr=float(e @ e), u_hat=u_hat)


def fit_regimes(design: Design, first: FirstStage, se_partition: Partition) -> RegimeEstimates:
    """The second stage on se_partition, on top of the given first stage."""
    fit = second_stage(design, first.x_hat, se_partition)
    return RegimeEstimates(first=first, se_partition=se_partition, beta=fit.beta, u_hat=fit.u_hat)


def eicker_white(
    design: Design,
    estimates: RegimeEstimates,
    se_partition: Partition,
) -> RobustBlocks:
    """Per-regime heteroskedasticity-robust blocks for the Wald form.

    For regime i the outer-product term is

        M_i = n^{-1} sum_{t in I_i} a_t a_t',
        a_t = Ups_t' z_t (u_t + v_t' beta_x),

    where Ups_t = (Delta_t, Pi) with Pi selecting z1 out of z, so that
    Ups_t' z_t equals w_hat_t.  beta_x is regime i's coefficient on x in
    estimates (the H1 regime-wise fit).

    Q_i = n^{-1} sum_{t in I_i} w_hat_t w_hat_t'; V_i = Q_i^{-1} M_i Q_i^{-1}.
    """
    n = design.n
    p1 = design.spec.p1
    W = np.column_stack([estimates.first.x_hat, design.Z1])
    v_hat = estimates.first.v_hat
    Q: list[np.ndarray] = []
    M: list[np.ndarray] = []
    V: list[np.ndarray] = []
    regimes = se_partition.regimes()
    if len(regimes) != len(estimates.beta):
        raise ValueError("se_partition does not match estimates")
    for i, (s, t) in enumerate(regimes):
        sl = slice(s - 1, t)
        Wr = W[sl]
        Qi = (Wr.T @ Wr) / n
        eig = np.linalg.eigvalsh(Qi)
        if eig[0] <= 0:
            raise SingularQError(f"Q block {i + 1} is not positive definite")
        score = estimates.u_hat[sl] + v_hat[sl] @ estimates.beta[i][:p1]
        a = Wr * score[:, None]
        Mi = (a.T @ a) / n
        Qinv = np.linalg.inv(Qi)
        Q.append(Qi)
        M.append(Mi)
        V.append(Qinv @ Mi @ Qinv)
    return RobustBlocks(Q=Q, M=M, V=V)
