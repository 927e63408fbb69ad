"""Synthetic data generation for the simulation study.

Four scenarios indexed by (h, m), the number of reduced-form and
structural-equation breaks, crossed with four error cases:

  A  homoskedastic jointly normal errors
  B  standardised GARCH(1,1) errors
  C  a variance shift in the errors one third into the sample
  D  case C errors plus a variance shift in the exogenous regressors

The structural equation is y_t = a_y + b_x x_t + b_r1 r_{1,t}
+ b_y1 y_{t-1} + u_t and the reduced form is x_t = a_x + r_t' d_r
+ d_x1 x_{t-1} + d_y1 y_{t-1} + v_t, with regime-specific coefficients.
A nonzero shift g adds g to every SE coefficient on a window starting
after [T/2], creating one extra break for power experiments.

Putting the RF into the SE makes (y_t, x_t) a VAR(1) with companion matrix

  [[b_y1 + b_x d_y1, b_x d_x1],
   [d_y1,            d_x1    ]].

Its eigenvalues for the (RF regime, SE regime) pairs that the scenarios
use, at g = 0:

  RF 2 with SE 1  1.0 and 0.4, a unit root (all of an h0m0 sample and
                  its burn-in, before the SE break in h0m1, and from the
                  RF break to any SE break in h1m0 and h1m1);
  RF 1 with SE 1  0.86 and 0.09 (before the RF break, burn-in included,
                  in h1m0 and h1m1);
  RF 2 with SE 2  0.36 and 0.14 (after the SE break).

Innovation streams are keyed only by the seed and a purpose tag, never by
g, so experiments under the null and the alternative share random
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .model import Dataset, ModelSpec, Role
from .rng import STREAM_R, STREAM_UV, generator

SCENARIOS = ("h0m0", "h1m0", "h0m1", "h1m1")
ERROR_CASES = ("A", "B", "C", "D")

# GARCH(1,1) parameters for case B; the stationary variance
# g0 / (1 - g1 - g2) = 0.5 standardises the reported errors to unit
# variance.
_GARCH_G0, _GARCH_G1, _GARCH_G2 = 0.1, 0.4, 0.4
_GARCH_VAR = _GARCH_G0 / (1.0 - _GARCH_G1 - _GARCH_G2)

# SE coefficients (a_y, b_x, b_r1, b_y1) per regime.
_SE_REGIME_1 = np.array([0.5, 0.5, 0.5, 0.8])
_SE_REGIME_2 = np.array([-0.5, -0.5, -0.5, 0.1])
# RF coefficients (a_x, d_r (4), d_x1, d_y1) per regime.
_RF_REGIME_1 = np.array([0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
_RF_REGIME_2 = np.array([0.5, 1.5, 1.5, 1.5, 1.5, 0.5, 0.2])

# Cholesky factor of [[1, 0.5], [0.5, 1]]: errors are L @ (iid normals),
# documented so replay scripts can reproduce the streams.
_L_UNIT = np.linalg.cholesky(np.array([[1.0, 0.5], [0.5, 1.0]]))
# After the case C variance shift the covariance matrix is
# [[2, 0.5], [0.5, 2]]: variances double, the covariance stays 0.5.
_L_SHIFT = np.linalg.cholesky(np.array([[2.0, 0.5], [0.5, 2.0]]))


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    error_case: str
    T: int
    g: float = 0.0
    burn_in: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}")
        if self.error_case not in ERROR_CASES:
            raise ConfigError(f"error case must be one of {ERROR_CASES}")
        if self.T < 40:
            raise ConfigError("T must be at least 40")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be >= 0")
        if not math.isfinite(self.g):
            raise ConfigError("g must be finite")

    @property
    def h(self) -> int:
        return int(self.scenario[1])

    @property
    def m(self) -> int:
        return int(self.scenario[3])


@dataclass(frozen=True)
class ScenarioTruth:
    """True parameters and break locations of a generated dataset."""

    se_coef: tuple[np.ndarray, ...]       # per SE regime: (a_y, b_x, b_r1, b_y1)
    rf_coef: tuple[np.ndarray, ...]       # per RF regime: (a_x, d_r.., d_x1, d_y1)
    rf_break: int | None                  # [T/4] when h=1
    se_break: int | None                  # [3T/4] when m=1
    alt_break: int | None                 # [T/2] when g != 0
    alt_end: int | None                   # last shifted index
    g: float = 0.0


def scenario_model_spec() -> ModelSpec:
    """The SE/RF role layout shared by all four scenarios."""
    return ModelSpec(
        p1=1,
        p2=4,
        se_regressors=(Role("const"), Role("r", 1), Role("y", lag=1)),
        rf_instruments=(
            Role("const"),
            Role("r", 1),
            Role("r", 2),
            Role("r", 3),
            Role("r", 4),
            Role("x", 1, lag=1),
            Role("y", lag=1),
        ),
    )


def _error_paths(
    case: str,
    total: int,
    shift_uv_at: int,
    shift_r_at: int,
    rng_uv: np.random.Generator,
    rng_r: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (u, v, r) over total periods with variance shifts at the given
    0-based positions; the raw normal streams never depend on the case's
    variance profile."""
    eps = rng_uv.standard_normal((total, 2))
    r = rng_r.standard_normal((total, 4))

    if case == "B":
        # correlate the innovations, then run two GARCH recursions
        # initialised at the stationary variance, and standardise
        th = eps @ _L_UNIT.T
        u = np.empty(total)
        v = np.empty(total)
        s2u = s2v = _GARCH_VAR
        prev_u = prev_v = 0.0
        have_prev = False
        for t in range(total):
            if have_prev:
                s2u = _GARCH_G0 + _GARCH_G1 * prev_u * prev_u + _GARCH_G2 * s2u
                s2v = _GARCH_G0 + _GARCH_G1 * prev_v * prev_v + _GARCH_G2 * s2v
            prev_u = math.sqrt(s2u) * th[t, 0]
            prev_v = math.sqrt(s2v) * th[t, 1]
            have_prev = True
            u[t] = prev_u
            v[t] = prev_v
        scale = math.sqrt(_GARCH_VAR)
        return u / scale, v / scale, r

    uv = eps @ _L_UNIT.T
    u, v = uv[:, 0].copy(), uv[:, 1].copy()
    if case in ("C", "D"):
        late = eps[shift_uv_at:] @ _L_SHIFT.T
        u[shift_uv_at:] = late[:, 0]
        v[shift_uv_at:] = late[:, 1]
    if case == "D":
        r[shift_r_at:] *= math.sqrt(1.5)
    return u, v, r


def draw_errors(
    case: str, T: int, rng_uv: np.random.Generator, rng_r: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (u, v, r) of length T for one error case.

    Case A: unit-variance jointly normal with covariance 0.5 and
    r ~ N(0, I_4).  Case B: standardised GARCH(1,1) errors.  Case C: the
    error variances jump from 1 to 2 after [T/3], covariance 0.5
    throughout.  Case D: case C errors and the r variance jumps from I_4
    to 1.5 I_4 after [3T/5].
    """
    if case not in ERROR_CASES:
        raise ConfigError(f"error case must be one of {ERROR_CASES}")
    return _error_paths(case, T, T // 3, 3 * T // 5, rng_uv, rng_r)


def _truth(cfg: ScenarioConfig) -> ScenarioTruth:
    T = cfg.T
    se = (
        (_SE_REGIME_1,)
        if cfg.m == 0
        else (_SE_REGIME_1, _SE_REGIME_2)
    )
    rf = (
        (_RF_REGIME_2,)
        if cfg.h == 0
        else (_RF_REGIME_1, _RF_REGIME_2)
    )
    alt_break = T // 2 if cfg.g != 0.0 else None
    alt_end = None
    if cfg.g != 0.0:
        alt_end = T if cfg.m == 0 else (3 * T) // 4
    return ScenarioTruth(
        se_coef=se,
        rf_coef=rf,
        rf_break=(T // 4 if cfg.h == 1 else None),
        se_break=((3 * T) // 4 if cfg.m == 1 else None),
        alt_break=alt_break,
        alt_end=alt_end,
        g=cfg.g,
    )


def _se_coef_at(truth: ScenarioTruth, t: int) -> np.ndarray:
    """SE coefficients in force at kept-sample index t (t <= 0 in burn-in).

    Under the alternative the window (alt_break, alt_end] takes the
    coefficients of the regime holding at alt_end, shifted by g.
    """
    if truth.alt_break is not None and truth.alt_break < t <= truth.alt_end:
        base = truth.se_coef[-1] if len(truth.se_coef) > 1 else truth.se_coef[0]
        return base + truth.g
    if truth.se_break is not None and t > truth.se_break:
        return truth.se_coef[1]
    return truth.se_coef[0]


def _rf_coef_at(truth: ScenarioTruth, t: int) -> np.ndarray:
    if truth.rf_break is not None and t > truth.rf_break:
        return truth.rf_coef[1]
    # a one-regime RF uses the base coefficients; a breaking RF starts in
    # its first regime (also during burn-in)
    return truth.rf_coef[0]


def generate(
    cfg: ScenarioConfig, return_errors: bool = False
) -> tuple[Dataset, ScenarioTruth] | tuple[Dataset, ScenarioTruth, np.ndarray, np.ndarray]:
    """Generate one dataset for the configured scenario.

    The recursion starts from y_0 = x_0 = 0, runs for burn_in extra
    periods under the first-regime parameters, and discards them.  Break
    locations refer to the kept sample.
    """
    truth = _truth(cfg)
    total = cfg.burn_in + cfg.T
    rng_uv = generator(cfg.seed, STREAM_UV)
    rng_r = generator(cfg.seed, STREAM_R)
    u_all, v_all, r_all = _error_paths(
        cfg.error_case,
        total,
        cfg.burn_in + cfg.T // 3,
        cfg.burn_in + 3 * cfg.T // 5,
        rng_uv,
        rng_r,
    )

    y = np.empty(total)
    x = np.empty(total)
    y_prev = 0.0
    x_prev = 0.0
    for i in range(total):
        t = i + 1 - cfg.burn_in  # kept-sample index; <= 0 during burn-in
        rf = _rf_coef_at(truth, t)
        se = _se_coef_at(truth, t)
        x_t = (
            rf[0]
            + float(r_all[i] @ rf[1:5])
            + rf[5] * x_prev
            + rf[6] * y_prev
            + v_all[i]
        )
        y_t = se[0] + se[1] * x_t + se[2] * r_all[i, 0] + se[3] * y_prev + u_all[i]
        y[i] = y_t
        x[i] = x_t
        y_prev, x_prev = y_t, x_t

    keep = slice(cfg.burn_in, total)
    data = Dataset(y=y[keep], x=x[keep, None], r=r_all[keep])
    if return_errors:
        return data, truth, u_all[keep], v_all[keep]
    return data, truth
