"""Least-squares kernels: OLS, regime-wise 2SLS pipeline, robust covariance.

All estimation runs on the effective sample (see :mod:`breakboot.model`).
Moment matrices are normalised by the full effective length n, not by
regime length; the choice cancels in the sandwich but is fixed for
comparability with hand computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, RankDeficientError, SingularQError
from .model import Dataset, ModelSpec, Partition, build_instrument_rows

# Gram matrices with condition number above this cap are treated as rank
# deficient; there is no silent pseudo-inverse fallback.
COND_CAP = 1e10


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
    """Per-regime SE coefficients plus both residual kinds.

    resid2 are second-stage residuals y - w_hat' beta; u_hat are the
    structural residuals y - w' beta computed with the actual x, the
    (non-centered) residuals used by the bootstrap.
    """

    beta: list[np.ndarray]
    ssr: float
    resid2: np.ndarray
    u_hat: np.ndarray


@dataclass(frozen=True)
class RegimeEstimates:
    """Everything a null-imposed model fit produces, for reuse downstream."""

    rf_partition: Partition
    delta: list[np.ndarray]
    se_partition: Partition
    beta: list[np.ndarray]
    u_hat: np.ndarray
    v_hat: np.ndarray
    x_hat: np.ndarray


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


def _regime_slices(partition: Partition) -> list[slice]:
    return [slice(a - 1, b) for a, b in partition.regimes()]


def first_stage(
    design: Design, rf_partition: Partition
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Regime-wise OLS of x on z; returns (delta list, x_hat, v_hat).

    Delta_(j) is q x p1 for RF regime j; x_hat stitches the regime fits,
    v_hat = x - x_hat exactly.
    """
    Z, x = design.Z, design.x
    delta: list[np.ndarray] = []
    x_hat = np.empty_like(x)
    for sl in _regime_slices(rf_partition):
        Zr = Z[sl]
        G = Zr.T @ Zr
        _check_gram(G, "first_stage")
        d = np.linalg.solve(G, Zr.T @ x[sl])
        delta.append(d)
        x_hat[sl] = Zr @ d
    return delta, x_hat, x - x_hat


def second_stage(
    design: Design, x_hat: np.ndarray, se_partition: Partition
) -> SecondStageFit:
    """Regime-wise OLS of y on w_hat = (x_hat, z1)."""
    W = np.column_stack([x_hat, design.Z1])
    Wa = design.w_actual
    y = design.y
    beta: list[np.ndarray] = []
    resid2 = np.empty_like(y)
    u_hat = np.empty_like(y)
    ssr = 0.0
    for sl in _regime_slices(se_partition):
        Wr = W[sl]
        G = Wr.T @ Wr
        _check_gram(G, "second_stage")
        b = np.linalg.solve(G, Wr.T @ y[sl])
        beta.append(b)
        e = y[sl] - Wr @ b
        resid2[sl] = e
        u_hat[sl] = y[sl] - Wa[sl] @ b
        ssr += float(e @ e)
    return SecondStageFit(beta=beta, ssr=ssr, resid2=resid2, u_hat=u_hat)


def fit_regimes(
    design: Design, rf_partition: Partition, se_partition: Partition
) -> RegimeEstimates:
    """Run the full two-stage pipeline for a fixed pair of partitions."""
    delta, x_hat, v_hat = first_stage(design, rf_partition)
    fit = second_stage(design, x_hat, se_partition)
    return RegimeEstimates(
        rf_partition=rf_partition,
        delta=delta,
        se_partition=se_partition,
        beta=fit.beta,
        u_hat=fit.u_hat,
        v_hat=v_hat,
        x_hat=x_hat,
    )


def eicker_white(
    design: Design,
    estimates: RegimeEstimates,
    se_partition: Partition,
    *,
    beta_source: str = "alt",
) -> RobustBlocks:
    """Per-regime heteroskedasticity-robust blocks for the Wald form.

    For regime i the outer-product term is

        M_i = n^{-1} sum_{t in I_i} a_t a_t',
        a_t = Ups_t' z_t (u_t + v_t' beta_x),

    where Ups_t = (Delta_t, Pi) with Pi selecting z1 out of z, so that
    Ups_t' z_t equals w_hat_t.  beta_x comes from estimates (the H1
    regime-wise fit) when beta_source="alt", or from a fresh fit imposing
    no SE breaks when beta_source="null".

    Q_i = n^{-1} sum_{t in I_i} w_hat_t w_hat_t'; V_i = Q_i^{-1} M_i Q_i^{-1}.
    """
    if beta_source not in ("alt", "null"):
        raise ConfigError("beta_source must be 'alt' or 'null'")
    n = design.n
    p1 = design.spec.p1
    W = np.column_stack([estimates.x_hat, design.Z1])
    v_hat = estimates.v_hat
    if beta_source == "null":
        null_fit = second_stage(
            design,
            estimates.x_hat,
            Partition((), n, se_partition.trim, min_len=1),
        )
        beta_x_fixed = null_fit.beta[0][:p1]
    Q: list[np.ndarray] = []
    M: list[np.ndarray] = []
    V: list[np.ndarray] = []
    slices = _regime_slices(se_partition)
    if len(slices) != len(estimates.beta):
        raise ValueError("se_partition does not match estimates")
    for i, sl in enumerate(slices):
        Wr = W[sl]
        Qi = (Wr.T @ Wr) / n
        eig = np.linalg.eigvalsh(Qi)
        if eig[0] <= 0:
            raise SingularQError(f"Q block {i + 1} is not positive definite")
        beta_x = estimates.beta[i][:p1] if beta_source == "alt" else beta_x_fixed
        u = estimates.u_hat[sl]
        score = u + v_hat[sl] @ beta_x
        a = Wr * score[:, None]
        Mi = (a.T @ a) / n
        Qinv = np.linalg.inv(Qi)
        Q.append(Qi)
        M.append(Mi)
        V.append(Qinv @ Mi @ Qinv)
    return RobustBlocks(Q=Q, M=M, V=V)
