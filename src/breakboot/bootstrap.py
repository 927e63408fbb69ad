"""Wild bootstrap: sample generation, batched bootstrap statistics, p-values.

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
stream seeded by derive_seed(master_seed, j, STREAM_NU, b); reduced-form
pre-test stages use STREAM_NU_RF with the stage's null break count
appended.  Every sample is built from one fit: a
:class:`breakboot.estimation.FirstStage` for the reduced form, or the
:class:`breakboot.estimation.RegimeEstimates` of a null-imposed model,
which holds the first stage the test fitted once.  The number and location
of reduced-form breaks are held at their sample estimates across
replications; reduced-form coefficients are re-estimated in every
bootstrap sample.  The B samples of a test form one batch, scored by the
same sup reductions as the sample statistic (see :mod:`breakboot.stats`).

A test's p-value is an output, so the structural-equation draws score all
B samples.  A reduced-form pre-test stage needs only to know whether its
p-value exceeds ALPHA_SEQ, so its draws take the stage's sample statistic,
stat, and score the B samples, built at once, in slices of about SLICE:
they stop after the slice in which more than ALPHA_SEQ * B finite draws
reach stat, when the p-value over every finite draw must exceed ALPHA_SEQ
(the sequential stopping rule of Besag and Clifford).  They return the
draws scored and the failures among them.  The failure cap keeps its
full-B meaning: a stage raises once the failures it has seen exceed
MAX_FAILURE_RATE * B, as a run that scores every draw would, and failures
among the unscored draws go unseen.  stat=+inf, the default, scores all B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import (
    Design,
    FirstStage,
    RegimeEstimates,
    _regime_fit,
    fit_regimes,
    make_design,
)
from .exceptions import BootstrapFailureError, ConfigError, EmptyDrawsError
from .model import Dataset, ModelSpec, Partition, no_breaks
from .partition_search import global_ssr_breaks, min_regime_length
from .rng import STREAM_NU, STREAM_NU_RF, generator, rademacher
from .stats import (
    STATISTICS,
    TestOutcome,
    _first_or_default,
    _sup_case_i,
    _sup_case_ii,
    sup_f_design,
    sup_wald_design,
    sup_wald_seq_design,
)

SCHEMES = ("wr", "wf")
MAX_FAILURE_RATE = 0.05  # largest share of the B replications a test may lose
ALPHA_SEQ = 0.05  # level of every reduced-form pre-test stage's test
SLICE = 50  # about this many samples per slice of a pre-test stage


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
    """Rademacher multipliers keyed by (master_seed, rep_index, b)."""

    master_seed: int
    rep_index: int
    purpose: int = STREAM_NU
    stage: int | None = None

    def _parts(self, b: int) -> tuple[int, ...]:
        if self.stage is None:
            return (self.rep_index, self.purpose, b)
        return (self.rep_index, self.purpose, self.stage, b)

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


def _generate(spec: ModelSpec, data: Dataset, est: RegimeEstimates, nu: np.ndarray,
              recursive: bool) -> Dataset:
    design = make_design(spec, data)
    nu = np.asarray(nu, dtype=np.float64)[:, None]
    xb, _, yb = _paths(design, est, nu, recursive=recursive)
    lag = spec.max_lag
    return Dataset(
        y=np.concatenate([data.y[:lag], yb[:, 0]]),
        x=np.concatenate([data.x[:lag], xb[:, :, 0]]),
        r=data.r.copy(),
    )


def wr_generate(
    spec: ModelSpec,
    data: Dataset,
    estimates: RegimeEstimates,
    nu: np.ndarray,
) -> Dataset:
    """One wild-recursive bootstrap dataset from null-imposed estimates."""
    return _generate(spec, data, estimates, nu, recursive=True)


def wf_generate(
    spec: ModelSpec,
    data: Dataset,
    estimates: RegimeEstimates,
    nu: np.ndarray,
) -> Dataset:
    """One wild-fixed bootstrap dataset from null-imposed estimates."""
    return _generate(spec, data, estimates, nu, recursive=False)


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
        stream = (
            MultiplierStream(cfg.master_seed, cfg.rep_index, STREAM_NU_RF, fit.partition.k) if rf
            else MultiplierStream(cfg.master_seed, cfg.rep_index)
        )
        nu = stream.matrix(n, cfg.B)
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


def _check_failures(failures: int, B: int) -> None:
    """Raise BootstrapFailureError when failures exceed MAX_FAILURE_RATE * B."""
    if failures > MAX_FAILURE_RATE * B:
        raise BootstrapFailureError(f"{failures} of {B} bootstrap replications failed")


def _draws(stats: np.ndarray) -> tuple[np.ndarray, int]:
    """Finite bootstrap statistics and the count of failed replications.

    stats holds one statistic per replication, B in all.  A replication
    fails when its statistic is not finite; more than MAX_FAILURE_RATE * B
    failures raise BootstrapFailureError.
    """
    finite = np.isfinite(stats)
    failures = int(np.sum(~finite))
    _check_failures(failures, stats.size)
    return stats[finite], failures


def case_i_draws(
    design: Design,
    est: RegimeEstimates,
    k: int,
    eps: float,
    cfg: BootstrapConfig,
    *,
    statistic: str = "supwald",
    nu: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """B bootstrap sup statistics for the no-break null.

    Each replication re-runs the sample pipeline on its bootstrap data:
    first stage on the fixed RF regimes, second stage over the same grid,
    and the robust blocks built from the re-estimated residuals.
    """
    Yb, Wb, _ = _samples(design, cfg, nu, est)
    _, vals, _ = _sup_case_i(Yb, Wb, k, eps, design.spec.q, statistic=statistic)
    return _draws(np.max(vals, axis=1))


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
    Yb, Wb, vb = _samples(design, cfg, nu, est)
    best, *_ = _sup_case_ii(Yb, Wb, est.se_partition, statistic=statistic, v_rows=vb)
    return _draws(best)


def _slices(B: int) -> list[slice]:
    """The slices a pre-test stage scores its B samples in: ceil(B / SLICE)
    of them, whose sizes differ by at most one (the candidate blocks' split).

    Every slice holds at least min(B, 25) entries, so none is a batch of
    one, which the scan would take in its LU form, unless B is 1.  A scan
    whose chunk_rows admits a batch chunk larger than a slice (few
    candidates on few rows) blocks a slice's candidates otherwise than the
    whole batch's, so its draws may differ from the whole batch's in the
    last bits; elsewhere they are equal.
    """
    n = -(-B // SLICE)
    return [slice(B * j // n, B * (j + 1) // n) for j in range(n)]


def _rf_draws(design: Design, first: FirstStage, cfg: BootstrapConfig,
              nu: np.ndarray | None, stat: float, score) -> tuple[np.ndarray, int]:
    """One pre-test stage's draws, scored slice by slice until its decision is known.

    score maps a slice's samples (Yb, Wb) to one statistic per entry.  The
    B samples are built at once and scored in the slices of :func:`_slices`
    until more than ALPHA_SEQ * B finite draws reach stat, with the
    failure cap counted against the full B (see the module docstring).
    Returns the finite scored draws and the failures among the scored ones.
    """
    Yb, Wb, _ = _samples(design, cfg, nu, first)
    B = Yb.shape[0]
    draws: list[np.ndarray] = []
    failures = reached = 0
    for sl in _slices(B):
        vals = score(Yb[sl], Wb[sl])
        finite = np.isfinite(vals)
        failures += int(np.sum(~finite))
        _check_failures(failures, B)
        draws.append(vals[finite])
        reached += int(np.sum(draws[-1] >= stat))
        if reached / B > ALPHA_SEQ:
            break
    return np.concatenate(draws), failures


def rf_case_i_draws(
    design: Design,
    first: FirstStage,
    cfg: BootstrapConfig,
    *,
    stat: float = math.inf,
    nu: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Bootstrap sup-Wald draws for no RF breaks against one; the no-break
    first stage's partition keys the multiplier stream and its trim sets
    the grid.  stat is the stage's sample statistic, at which scoring may
    stop early (see :func:`_rf_draws`); the default scores all B draws."""
    trim, q = first.partition.trim, design.spec.q
    return _rf_draws(design, first, cfg, nu, stat,
                     lambda Y, W: np.max(_sup_case_i(Y, W, 1, trim, q)[1], axis=1))


def rf_case_ii_draws(
    design: Design,
    first: FirstStage,
    cfg: BootstrapConfig,
    *,
    stat: float = math.inf,
    nu: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Bootstrap draws for l RF breaks against l+1.

    l is first.partition.k, which also keys the multiplier stream; the
    partition's min_len bounds the extra break.  stat is as in
    :func:`rf_case_i_draws`.
    """
    return _rf_draws(design, first, cfg, nu, stat,
                     lambda Y, W: _sup_case_ii(Y, W, first.partition)[0])


# ---------------------------------------------------------------------------
# P-values and rejection rules
# ---------------------------------------------------------------------------


def _check_alphas(alphas: tuple[float, ...]) -> None:
    """Raise ConfigError unless every level lies in (0, 1)."""
    if not all(0 < a < 1 for a in alphas):
        raise ConfigError(f"every alpha must lie in (0, 1), got {alphas}")


def _check_test(statistic: str, null_breaks: int, alt_breaks: int,
                alphas: tuple[float, ...]) -> None:
    """Raise ConfigError unless the statistic, break counts and levels make a test."""
    if statistic not in STATISTICS:
        raise ConfigError(f"statistic must be one of {STATISTICS}")
    _check_alphas(alphas)
    if null_breaks < 0:
        raise ConfigError("null_breaks must be >= 0")
    if alt_breaks < 1:
        raise ConfigError(f"the alternative needs at least one break, got {alt_breaks}")
    if null_breaks > 0 and alt_breaks != null_breaks + 1:
        raise ConfigError("with a breaking null, alt_breaks must equal null_breaks + 1")


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


# ---------------------------------------------------------------------------
# One-call test drivers
# ---------------------------------------------------------------------------


def bootstrap_sup_test_design(
    design: Design,
    boot: BootstrapConfig = DEFAULT_BOOT,
    *,
    null_breaks: int = 0,
    alt_breaks: int = 1,
    statistic: str = "supwald",
    eps: float = 0.15,
    first: FirstStage | None = None,
    alphas: tuple[float, ...] = (0.10, 0.05, 0.01),
) -> TestOutcome:
    """Run one structural-change test end to end with bootstrap inference.

    design is ``make_design(spec, data)`` and boot the bootstrap's scheme,
    B and seed path.  null_breaks=0 tests no change against alt_breaks
    changes; null_breaks = l >= 1 tests l against l+1 (alt_breaks must then
    be l+1), with the null partition at the SSR-minimising l breaks
    (:func:`breakboot.partition_search.global_ssr_breaks`).  The first
    stage is the fit first, which the sample statistic, the null partition,
    the null fit and the B samples all read; None means no RF breaks.  The
    outcome records its RF partition in the rf_partition field.
    """
    _check_test(statistic, null_breaks, alt_breaks, alphas)
    n = design.n
    first = _first_or_default(design, eps, first)

    if null_breaks == 0:
        if statistic == "supwald":
            outcome = sup_wald_design(design, alt_breaks, eps, first)
        else:
            outcome = sup_f_design(design, alt_breaks, eps, first)
        null_partition = no_breaks(n, eps, min_regime_length(n, eps, design.spec.q))
        est = fit_regimes(design, first, null_partition)
        draws, failures = case_i_draws(design, est, alt_breaks, eps, boot, statistic=statistic)
    else:
        null_partition, _ = global_ssr_breaks(design, first, null_breaks, eps)
        outcome = sup_wald_seq_design(design, null_partition, first, statistic)
        est = fit_regimes(design, first, null_partition)
        draws, failures = case_ii_draws(design, est, boot, statistic=statistic)

    p, crits, rejects, flags = pvalue_and_quantile(outcome.statistic, draws, alphas)
    outcome.rf_partition = first.partition
    outcome.boot_draws = draws
    outcome.p_value = p
    outcome.critical_values = crits
    outcome.levels_rejected = rejects
    outcome.failed_replications = failures
    outcome.flags.extend(flags)
    return outcome
