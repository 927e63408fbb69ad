"""Wild bootstrap: sample generation, batched bootstrap statistics, p-values.

This module holds a test's bootstrap samples, its draws and their p-value;
:func:`breakboot.harness.test_dataset` runs a whole test on them.

Bootstrap residuals are u_b = u_hat * nu and v_b = v_hat * nu with the
same Rademacher multiplier nu_t applied to both, preserving their
contemporaneous correlation.  Two schemes differ in how regressors are
treated when rebuilding the sample:

  WR  (wild recursive)  lagged y and x inside the instrument vector are
      replaced by their bootstrap values, so the sample is regenerated
      through the estimated recursion from the original start-up values;
  WF  (wild fixed)      every regressor row is kept at its sample value
      and only the errors are redrawn.

One path builder serves both equations.  The structural equation's
bootstrap generates x and y, so its WR rebuilds lagged x and lagged y.  The
reduced-form pre-test bootstraps x alone, so its WR rebuilds only lagged x
and holds lagged y at its sample values.  WR without lags is WF.  Where a
scheme rebuilds no instrument column, the B samples share the sample's
instrument rows, and every draw's first stage solves the same regime
Grams.

Replication b of Monte Carlo repetition j draws its multipliers from the
stream seeded by derive_seed(master_seed, j, STREAM_NU, b); a reduced-form
pre-test stage's stream is keyed by its null break count, which selects
STREAM_NU_RF and is appended: derive_seed(master_seed, j, STREAM_NU_RF,
l, b).  Every sample is built from one fit: a
:class:`breakboot.estimation.FirstStage` for the reduced form, or the
:class:`breakboot.estimation.RegimeEstimates` of a null-imposed model,
which holds the first stage the test fitted once.  The number and location
of reduced-form breaks are held at their sample estimates across
replications; reduced-form coefficients are re-estimated in every
bootstrap sample.  The B samples of a test form one batch, scored by the
same sup reductions as the sample statistic (see :mod:`breakboot.stats`).

A test builds its B samples at once.  A test's p-value is an output, so
the structural-equation draws score the whole batch in one scan.  Only a
reduced-form pre-test stage passes a finite stat, its sample statistic:
it needs only to know whether its p-value exceeds ALPHA_SEQ, so it scores
in slices of about SLICE, whose draws equal the whole batch's bit for
bit, and stops after the slice in which more than ALPHA_SEQ * B finite
draws reach stat, when the p-value over every finite draw must exceed
ALPHA_SEQ (the sequential stopping rule of Besag and Clifford).  A test
returns the draws it scored and the failures among them.  The failure cap
keeps its full-B meaning: a test raises once the failures it has seen
exceed MAX_FAILURE_RATE * B, as a run that scores every draw would, and
failures among the unscored draws go unseen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import Design, FirstStage, RegimeEstimates, _regime_fit
from .exceptions import BootstrapFailureError, ConfigError, EmptyDrawsError
from .model import Dataset, Partition
from .rng import STREAM_NU, STREAM_NU_RF, generator, rademacher
from .stats import _sup_case_i, _sup_case_ii

SCHEMES = ("wr", "wf")
MAX_FAILURE_RATE = 0.05  # largest share of the B replications a test may lose
ALPHA_SEQ = 0.05  # level of every reduced-form pre-test stage's test
SLICE = 50  # about this many samples per slice of a pre-test stage's draws


@dataclass(frozen=True)
class BootstrapConfig:
    """Scheme, replication count and seed path for one test."""

    scheme: str
    B: int
    master_seed: int
    rep_index: int = 1

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}")
        if self.B < 1:
            raise ConfigError("B must be >= 1")


DEFAULT_BOOT = BootstrapConfig("wr", 399, 0)  # WR, B = 399, master seed 0, rep_index 1


@dataclass(frozen=True)
class MultiplierStream:
    """Rademacher multipliers keyed by (master_seed, rep_index, b): the
    structural-equation stream STREAM_NU, or, when stage is a pre-test
    stage's null break count, the reduced-form stream STREAM_NU_RF."""

    master_seed: int
    rep_index: int
    stage: int | None = None

    def _parts(self, b: int) -> tuple[int, ...]:
        if self.stage is None:
            return (self.rep_index, STREAM_NU, b)
        return (self.rep_index, STREAM_NU_RF, self.stage, b)

    def column(self, n: int, b: int) -> np.ndarray:
        """Multipliers for bootstrap replication b (1-based)."""
        return rademacher(generator(self.master_seed, *self._parts(b)), n)

    def matrix(self, n: int, B: int) -> np.ndarray:
        """(n, B) matrix whose column b-1 is replication b's stream."""
        out = np.empty((n, B))
        for b in range(1, B + 1):
            out[:, b - 1] = self.column(n, b)
        return out


# ---------------------------------------------------------------------------
# Bootstrap paths and samples
# ---------------------------------------------------------------------------


def _row_regimes(partition: Partition) -> np.ndarray:
    """0-based regime index of each effective row 1..n."""
    breaks = np.asarray(partition.breaks, dtype=np.int64)
    return np.searchsorted(breaks, np.arange(1, partition.n + 1), side="left")


def _paths(design: Design, fit: FirstStage | RegimeEstimates, nu: np.ndarray, *,
           recursive: bool):
    """Bootstrap rows for all multiplier columns nu (n, B): (xb, Zb, yb).

    x (xb, (n, p1, B)) follows the RF of the first stage, fit or fit.first,
    with errors v_hat * nu.  y (yb, (n, B)) follows the SE with errors
    u_hat * nu, and is generated only when fit is a null-imposed model
    fit, RegimeEstimates; else yb is None.  Zb (B, n, q) holds the
    instrument rows.  Under WR each row starts as the sample's, and its
    lagged x columns, plus its lagged y columns when y is generated, are
    overwritten from the bootstrap history that starts at the first
    max_lag original observations.  Where no column is overwritten (WF, WR
    without lags, and WR with no live lag role), every row stays the
    sample's and Zb is the sample's Z, (n, q).  Under WF and without lags,
    x is the first stage's x_hat plus the errors.
    """
    spec, data = design.spec, design.data
    n, B = nu.shape
    lag, p1 = spec.max_lag, spec.p1
    est = fit if isinstance(fit, RegimeEstimates) else None
    first = fit if est is None else est.first
    vb = first.v_hat[:, :, None] * nu[:, None, :]
    if est is not None:
        beta = np.array(est.beta)[_row_regimes(est.se_partition)]
        bx, bz = beta[:, :p1].copy(), beta[:, p1:].copy()
        ub = est.u_hat[:, None] * nu
    if not recursive or lag == 0:
        xb = first.x_hat[:, :, None] + vb
        yb = None
        if est is not None:
            fixed = np.einsum("nq,nq->n", design.Z1, bz)
            yb = np.einsum("npb,np->nb", xb, bx) + fixed[:, None] + ub
        return xb, design.Z, yb

    live = [(c, role) for c, role in enumerate(spec.rf_instruments)
            if role.kind == "x" or (role.kind == "y" and est is not None)]
    z1 = list(spec.z1_positions)
    d_idx = _row_regimes(first.partition)
    x_hist = np.empty((lag + n, p1, B))
    y_hist = np.empty((lag + n, B))
    x_hist[:lag] = data.x[:lag, :, None]
    y_hist[:lag] = data.y[:lag, None]
    Zb = np.empty((B, n, design.Z.shape[1]))
    zrow = np.empty((B, design.Z.shape[1]))
    for i in range(n):
        zrow[:] = design.Z[i]
        for c, role in live:
            if role.kind == "x":
                zrow[:, c] = x_hist[lag + i - role.lag, role.index - 1]
            else:
                zrow[:, c] = y_hist[lag + i - role.lag]
        Zb[:, i, :] = zrow
        x_t = zrow @ first.delta[d_idx[i]] + vb[i].T  # (B, p1)
        x_hist[lag + i] = x_t.T
        if est is not None:
            y_hist[lag + i] = x_t @ bx[i] + zrow[:, z1] @ bz[i] + ub[i]
    return x_hist[lag:], Zb if live else design.Z, None if est is None else y_hist[lag:]


def bootstrap_dataset(
    design: Design,
    estimates: RegimeEstimates,
    cfg: BootstrapConfig,
    nu: np.ndarray,
) -> Dataset:
    """One bootstrap dataset from null-imposed estimates, by cfg.scheme.

    nu (n,) holds the multipliers of the effective rows; the first max_lag
    rows are the sample's start-up values.  cfg's B and seed path are not
    read: nu is given.
    """
    data, lag = design.data, design.spec.max_lag
    xb, _, yb = _paths(design, estimates, np.asarray(nu, dtype=np.float64)[:, None],
                       recursive=cfg.scheme == "wr")
    return Dataset(
        y=np.concatenate([data.y[:lag], yb[:, 0]]),
        x=np.concatenate([data.x[:lag], xb[:, :, 0]]),
        r=data.r.copy(),
    )


def _first_stage_batch(Zb, xb, partition: Partition):
    """Per-replication RF fits: w-block fitted values (B, n, p1).

    Zb is (B, n, q), the bootstrap instrument rows, or (n, q), the sample's
    rows shared by every replication, whose regime Grams are then solved
    once against all B right-hand sides; xb is (n, p1, B).  A replication
    whose :func:`_regime_fit` system is singular gets NaN there, so it fails.
    """
    n, p1, B = xb.shape
    regimes = partition.regimes()
    if Zb.ndim == 2:
        _, xhat = _regime_fit(Zb[None], xb.reshape(1, n, p1 * B), regimes)
        return xhat[0].reshape(n, p1, B).transpose(2, 0, 1)
    return _regime_fit(Zb, xb.transpose(2, 0, 1), regimes)[1]


def _samples(design: Design, cfg: BootstrapConfig, nu: np.ndarray | None,
             fit: FirstStage | RegimeEstimates):
    """The B bootstrap samples of one test as a batch: (Yb, Wb, v_hat_b).

    Structural equation (fit a null-imposed RegimeEstimates): Yb (B, n) is
    y, Wb (B, n, d) holds the first stage re-estimated on each sample over
    fit.first.partition next to z1, and v_hat_b (B, n, p1) its residuals.
    Reduced form (fit a FirstStage): Yb (B, n, p1) is x, Wb (B, n, q) is z,
    a read-only view, and v_hat_b is None.  Multipliers come from the SE
    stream, or the RF stream keyed by fit.partition.k, the pre-test stage's
    null break count, unless nu (n, B) is passed.
    """
    n, spec = design.n, design.spec
    rf = isinstance(fit, FirstStage)
    if nu is None:
        stage = fit.partition.k if rf else None
        nu = MultiplierStream(cfg.master_seed, cfg.rep_index, stage).matrix(n, cfg.B)
    xb, Zb, yb = _paths(design, fit, nu, recursive=cfg.scheme == "wr")
    B = nu.shape[1]
    if rf:
        return (np.ascontiguousarray(xb.transpose(2, 0, 1)),
                np.broadcast_to(Zb, (B,) + design.Z.shape), None)
    what = _first_stage_batch(Zb, xb, fit.first.partition)
    Wb = np.empty((B, n, spec.d_beta))
    Wb[:, :, : spec.p1] = what
    Wb[:, :, spec.p1 :] = Zb[..., list(spec.z1_positions)]
    return yb.T.copy(), Wb, xb.transpose(2, 0, 1) - what


def _slices(B: int) -> list[slice]:
    """The slices a pre-test stage scores its B samples in: ceil(B / SLICE)
    of them, whose sizes differ by at most one (the candidate blocks' split).

    Every slice holds at least min(B, 25) entries, so none is a batch of
    one, which the scan would take in its LU form, unless B is 1.  The
    scan blocks a batch's candidates by their count and rows alone, so a
    slice's draws equal the whole batch's bit for bit.
    """
    n = -(-B // SLICE)
    return [slice(B * j // n, B * (j + 1) // n) for j in range(n)]


def _draws(design: Design, fit: FirstStage | RegimeEstimates, cfg: BootstrapConfig,
           nu: np.ndarray | None, stat: float, score) -> tuple[np.ndarray, int]:
    """One test's draws, scored slice by slice until its decision is known.

    score maps a slice's samples (Yb, Wb, v_hat_b) to one statistic per
    entry; v_hat_b is None for the RF.  The B samples are built at once.
    stat = +inf scores them as one slice, so each scan's setup runs once;
    a finite stat scores the slices of :func:`_slices` until more than
    ALPHA_SEQ * B finite draws reach it.  A draw fails when its
    statistic is not finite, and BootstrapFailureError is raised once the
    failures seen exceed MAX_FAILURE_RATE * B (see the module docstring).
    Returns the finite scored draws and the failures among them.
    """
    Yb, Wb, vb = _samples(design, cfg, nu, fit)
    B = Yb.shape[0]
    draws: list[np.ndarray] = []
    failures = reached = 0
    for sl in _slices(B) if math.isfinite(stat) else [slice(0, B)]:
        vals = score(Yb[sl], Wb[sl], None if vb is None else vb[sl])
        finite = np.isfinite(vals)
        failures += int(np.sum(~finite))
        if failures > MAX_FAILURE_RATE * B:
            raise BootstrapFailureError(f"{failures} of {B} bootstrap replications failed")
        draws.append(vals[finite])
        reached += int(np.sum(draws[-1] >= stat))
        if reached / B > ALPHA_SEQ:
            break
    return np.concatenate(draws), failures


def case_i_draws(
    design: Design,
    est: RegimeEstimates,
    k: int,
    cfg: BootstrapConfig,
    *,
    statistic: str = "supwald",
    nu: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """B bootstrap sup statistics for the no-break null.

    Each replication re-runs the sample pipeline on its bootstrap data:
    first stage on the fixed RF regimes, second stage over the same grid,
    whose min_len is est.se_partition's, and the robust blocks built from
    the re-estimated residuals.
    """
    min_len = est.se_partition.min_len
    return _draws(design, est, cfg, nu, math.inf, lambda Y, W, _: np.max(
        _sup_case_i(Y, W, k, min_len, statistic=statistic)[1], axis=1))


def case_ii_draws(
    design: Design,
    est: RegimeEstimates,
    cfg: BootstrapConfig,
    *,
    statistic: str = "supwald",
    nu: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """B bootstrap one-more-break statistics for an l-break null.

    est must impose the l-break null: its se_partition is reused as the
    regime frame for every replication, and its min_len bounds the extra
    break.
    """
    return _draws(design, est, cfg, nu, math.inf, lambda Y, W, v: _sup_case_ii(
        Y, W, est.se_partition, statistic=statistic, v_rows=v)[0])


def rf_case_i_draws(
    design: Design,
    first: FirstStage,
    cfg: BootstrapConfig,
    *,
    stat: float = math.inf,
    nu: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """:func:`rf_case_ii_draws` at l = 0, kept only as a name that
    perfbench/tracer.py binds; no package code calls it (ROADMAP item 7)."""
    return rf_case_ii_draws(design, first, cfg, stat=stat, nu=nu)


def rf_case_ii_draws(
    design: Design,
    first: FirstStage,
    cfg: BootstrapConfig,
    *,
    stat: float = math.inf,
    nu: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Bootstrap draws for l RF breaks against l+1, l = 0 included.

    l is first.partition.k, which also keys the multiplier stream; the
    partition's min_len bounds the extra break.  stat is the stage's
    sample statistic, at which scoring may stop early (see
    :func:`_draws`); the default scores all B draws.
    """
    return _draws(design, first, cfg, nu, stat,
                  lambda Y, W, _: _sup_case_ii(Y, W, first.partition)[0])


# ---------------------------------------------------------------------------
# P-values and rejection rules
# ---------------------------------------------------------------------------


def _check_alphas(alphas: tuple[float, ...]) -> None:
    """Raise ConfigError unless every level lies in (0, 1)."""
    if not all(0 < a < 1 for a in alphas):
        raise ConfigError(f"every alpha must lie in (0, 1), got {alphas}")


def pvalue_and_quantile(
    sample_stat: float,
    boot_draws: np.ndarray,
    alphas: tuple[float, ...] = (0.10, 0.05, 0.01),
) -> tuple[float, dict[float, float], dict[float, bool], list[str]]:
    """Bootstrap p-value and order-statistic critical values.

    The p-value is the fraction of draws at least as large as the sample
    statistic.  The level-alpha critical value is the (1-alpha)(B+1)-th
    order statistic of the B draws; when that index is not an integer it
    is rounded up and flagged, and when it exceeds B the level is
    infeasible (critical value +inf, never reject).  An alpha outside
    (0, 1) raises ConfigError.
    """
    _check_alphas(alphas)
    draws = np.asarray(boot_draws, dtype=np.float64)
    if draws.size == 0:
        raise EmptyDrawsError("no bootstrap draws")
    B = draws.size
    p = float(np.mean(draws >= sample_stat))
    ordered = np.sort(draws)
    crits: dict[float, float] = {}
    rejects: dict[float, bool] = {}
    flags: list[str] = []
    for a in alphas:
        pos = (1.0 - a) * (B + 1)
        idx = int(round(pos))
        if abs(pos - idx) > 1e-9:
            idx = math.ceil(pos)
            flags.append(f"alpha={a}: order-statistic index {pos:.2f} rounded up")
        if idx > B:
            crits[a] = math.inf
            rejects[a] = False
            flags.append(f"alpha={a}: infeasible with B={B}")
            continue
        crit = float(ordered[idx - 1])
        crits[a] = crit
        rejects[a] = bool(sample_stat >= crit)
    return p, crits, rejects, flags
