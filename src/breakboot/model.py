"""Domain types: model specification, data container, partitions, regimes.

The structural equation (SE) explains a scalar outcome ``y_t`` with
endogenous regressors ``x_t``, an intercept, contemporaneously exogenous
regressors ``r_t`` and lags; the reduced form (RF) explains ``x_t`` with
the full instrument vector ``z_t``.  Variable roles are declared
explicitly so that instrument rows can be built mechanically from the
observed series.

Index conventions
-----------------
Observed series run over original time ``t = 1..T``.  Lags consume the
first ``max_lag`` observations, so all estimation happens on the
effective sample ``t = max_lag+1..T`` of length ``n = T - max_lag``.
Partitions, break points and break fractions always refer to effective
rows ``1..n``; a break point is the last row of the regime it closes.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError

_ROLE_RE = re.compile(r"^(const|r(\d+)|x(\d+)_lag(\d+)|y_lag(\d+)|r(\d+)_lag(\d+))$")


@dataclass(frozen=True)
class Role:
    """One regressor/instrument role.

    kind is one of ``"const"``, ``"r"``, ``"x"``, ``"y"``; ``index`` is the
    1-based column of x or r (0 for const/y); ``lag`` is 0 only for
    contemporaneous r and the constant.
    """

    kind: str
    index: int = 0
    lag: int = 0

    def __post_init__(self):
        if self.kind not in ("const", "r", "x", "y"):
            raise ConfigError(f"unknown role kind {self.kind!r}")
        if self.kind in ("x", "y") and self.lag < 1:
            raise ConfigError(f"{self.kind} roles must be lagged (got lag={self.lag})")
        if self.kind in ("x", "r") and self.index < 1:
            raise ConfigError(f"{self.kind} roles need a 1-based column index")

    @classmethod
    def parse(cls, text: str) -> "Role":
        """Parse a role string: const | r<j> | r<j>_lag<l> | x<j>_lag<l> | y_lag<l>."""
        m = _ROLE_RE.match(text.strip())
        if not m:
            raise ConfigError(f"cannot parse role {text!r}")
        if m.group(1) == "const":
            return cls("const")
        if m.group(2) is not None:
            return cls("r", int(m.group(2)), 0)
        if m.group(3) is not None:
            return cls("x", int(m.group(3)), int(m.group(4)))
        if m.group(5) is not None:
            return cls("y", 0, int(m.group(5)))
        return cls("r", int(m.group(6)), int(m.group(7)))

    def __str__(self) -> str:
        if self.kind == "const":
            return "const"
        if self.kind == "y":
            return f"y_lag{self.lag}"
        if self.lag == 0:
            return f"{self.kind}{self.index}"
        return f"{self.kind}{self.index}_lag{self.lag}"


@dataclass(frozen=True)
class ModelSpec:
    """Variable roles and lag structure of the SE/RF system.

    Parameters
    ----------
    p1 : int
        Number of endogenous regressors (columns of x).
    p2 : int
        Number of contemporaneously exogenous regressors (columns of r).
    se_regressors : tuple of Role
        Roles forming the included-exogenous block z1 of the SE.  The SE
        regressor vector is w = (x, z1), of dimension d = p1 + q1.
    rf_instruments : tuple of Role
        Roles forming the instrument vector z of the RF, dimension q.
    """

    p1: int
    p2: int
    se_regressors: tuple[Role, ...]
    rf_instruments: tuple[Role, ...]

    def __post_init__(self):
        if self.p1 < 1:
            raise ConfigError("p1 must be >= 1")
        if self.p2 < 0:
            raise ConfigError("p2 must be >= 0")
        z1, z = set(self.se_regressors), set(self.rf_instruments)
        if len(z1) != len(self.se_regressors) or len(z) != len(self.rf_instruments):
            raise ConfigError("duplicate roles in a role list")
        if not z1 < z:
            raise ConfigError("se_regressors must be a strict subset of rf_instruments")
        for role in self.rf_instruments:
            top = {"x": self.p1, "r": self.p2}.get(role.kind)
            if top is not None and role.index > top:
                raise ConfigError(f"role {role} exceeds declared column count")
        if self.q < self.p1 + self.q1:
            raise ConfigError("order condition violated: q < p1 + q1")
        if self.d_beta <= 0:
            raise ConfigError("d_beta must be positive")

    @property
    def q(self) -> int:
        return len(self.rf_instruments)

    @property
    def q1(self) -> int:
        return len(self.se_regressors)

    @property
    def d_beta(self) -> int:
        return self.p1 + self.q1

    @property
    def max_lag(self) -> int:
        return max(role.lag for role in self.rf_instruments)

    @property
    def z1_positions(self) -> tuple[int, ...]:
        """Columns of z holding the z1 roles, in se_regressors order."""
        return tuple(self.rf_instruments.index(role) for role in self.se_regressors)

    def to_dict(self) -> dict:
        return {
            "p1": self.p1,
            "p2": self.p2,
            "se_regressors": [str(r) for r in self.se_regressors],
            "rf_instruments": [str(r) for r in self.rf_instruments],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        try:
            fields = dict(
                p1=int(d["p1"]),
                p2=int(d["p2"]),
                se_regressors=tuple(Role.parse(s) for s in d["se_regressors"]),
                rf_instruments=tuple(Role.parse(s) for s in d["rf_instruments"]),
            )
        except KeyError as exc:
            raise ConfigError(f"model spec missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:  # not an object, or a bad value
            raise ConfigError(f"malformed model spec: {exc}") from exc
        return cls(**fields)

    @classmethod
    def from_json(cls, path: str) -> "ModelSpec":
        with open(path) as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"model spec {path} is not JSON: {exc}") from exc
        return cls.from_dict(d)

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


@dataclass(frozen=True)
class Dataset:
    """Observed series of length T: y (T,), x (T, p1), r (T, p2)."""

    y: np.ndarray
    x: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        r = np.atleast_2d(np.asarray(self.r, dtype=np.float64))
        if x.shape[0] != y.shape[0]:
            x = x.T
        if r.shape[0] != y.shape[0]:
            r = r.T
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "r", r)
        if y.ndim != 1:
            raise ConfigError("y must be one-dimensional")
        if x.shape[0] != y.shape[0] or r.shape[0] != y.shape[0]:
            raise ConfigError("y, x, r must share the same length")
        for name, arr in (("y", y), ("x", x), ("r", r)):
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"non-finite values in {name}")

    @property
    def T(self) -> int:
        return self.y.shape[0]

    @property
    def p1(self) -> int:
        return self.x.shape[1]

    @property
    def p2(self) -> int:
        return self.r.shape[1]

    def to_csv(self, path: str) -> None:
        """Write ``y,x1..xp1,r1..rp2`` with a header row."""
        header = (
            ["y"]
            + [f"x{j}" for j in range(1, self.p1 + 1)]
            + [f"r{j}" for j in range(1, self.p2 + 1)]
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for t in range(self.T):
                writer.writerow(
                    [repr(float(self.y[t]))]
                    + [repr(float(v)) for v in self.x[t]]
                    + [repr(float(v)) for v in self.r[t]]
                )

    @classmethod
    def from_csv(cls, path: str) -> "Dataset":
        """Read what :meth:`to_csv` writes; a malformed file raises ConfigError."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                cols = [c.strip() for c in next(reader)]
            except StopIteration:
                raise ConfigError(f"{path}: empty file") from None
            if not cols or cols[0] != "y":
                raise ConfigError(f"{path}: header must start with 'y'")
            p1 = sum(1 for c in cols if re.fullmatch(r"x\d+", c))
            p2 = sum(1 for c in cols if re.fullmatch(r"r\d+", c))
            if 1 + p1 + p2 != len(cols):
                raise ConfigError(f"{path}: header must be y,x1..xp1,r1..rp2")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(cols):
                    raise ConfigError(
                        f"{path}:{lineno}: {len(row)} fields, the header has {len(cols)}")
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        if not rows:
            raise ConfigError(f"{path}: no data rows")
        data = np.asarray(rows, dtype=np.float64)
        return cls(y=data[:, 0], x=data[:, 1 : 1 + p1], r=data[:, 1 + p1 :])


@dataclass(frozen=True)
class Partition:
    """Break points on the effective sample.

    ``breaks`` holds the last row index of each regime except the final
    one, strictly increasing with ``0 < T_1 < ... < T_k < n``.  ``min_len``
    is the smallest admissible regime length (one more than
    ``max(q - 1, ceil(eps * n))``, see :mod:`breakboot.partition_search`).
    """

    breaks: tuple[int, ...]
    n: int
    trim: float
    min_len: int

    def __post_init__(self):
        object.__setattr__(self, "breaks", tuple(int(b) for b in self.breaks))
        if not (0.0 < self.trim < 0.5):
            raise ConfigError(f"trim must lie in (0, 0.5), got {self.trim}")
        if self.n < self.min_len:
            raise ConfigError("sample shorter than one admissible regime")
        edges = (0,) + self.breaks + (self.n,)
        for a, b in zip(edges, edges[1:]):
            if b <= a:
                raise ConfigError(f"break points not strictly increasing: {self.breaks}")
            if b - a < self.min_len:
                raise ConfigError(
                    f"regime ({a + 1}..{b}) shorter than min length {self.min_len}"
                )

    @property
    def k(self) -> int:
        return len(self.breaks)

    @property
    def fractions(self) -> tuple[float, ...]:
        """Break fractions T_i / n, derived on demand."""
        return tuple(b / self.n for b in self.breaks)

    def regimes(self) -> list[tuple[int, int]]:
        """(start, end) row pairs, 1-based inclusive, one per regime."""
        edges = (0,) + self.breaks + (self.n,)
        return [(a + 1, b) for a, b in zip(edges, edges[1:])]


def no_breaks(n: int, trim: float = 0.15, min_len: int = 1) -> Partition:
    """The zero-break partition of an effective sample of length n."""
    return Partition(breaks=(), n=n, trim=trim, min_len=min_len)


def regime_of(t: int, p: Partition) -> int:
    """Regime index i (1-based) with T_{i-1} < t <= T_i."""
    if not 1 <= t <= p.n:
        raise ValueError(f"t={t} outside 1..{p.n}")
    return int(np.searchsorted(np.asarray(p.breaks), t, side="left")) + 1


def _role_column(role: Role, data: Dataset, t0: np.ndarray) -> np.ndarray:
    # t0 holds 0-based original indices of the effective rows.
    if role.kind == "const":
        return np.ones(t0.shape[0])
    if role.kind == "y":
        return data.y[t0 - role.lag]
    if role.kind == "x":
        return data.x[t0 - role.lag, role.index - 1]
    return data.r[t0 - role.lag, role.index - 1]


def build_instrument_rows(
    spec: ModelSpec, data: Dataset
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble instrument rows on the effective sample.

    Returns
    -------
    Z : ndarray, shape (n, q)
        Rows z_t' for t = max_lag+1..T, columns in rf_instruments order.
    Z1 : ndarray, shape (n, q1)
        Rows z1_t', columns in se_regressors order.
    offsets : ndarray, shape (n,)
        Original (1-based) time index of each matrix row.
    """
    if data.p1 != spec.p1 or data.p2 != spec.p2:
        raise ConfigError(
            f"data has (p1={data.p1}, p2={data.p2}), spec declares "
            f"(p1={spec.p1}, p2={spec.p2})"
        )
    lag = spec.max_lag
    if data.T <= lag:
        raise ConfigError(f"T={data.T} leaves no effective rows after {lag} lags")
    t0 = np.arange(lag, data.T)  # 0-based original indices of effective rows
    Z = np.column_stack([_role_column(role, data, t0) for role in spec.rf_instruments])
    Z1 = Z[:, list(spec.z1_positions)]
    return Z, Z1, t0 + 1
