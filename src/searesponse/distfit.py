"""Maximum-likelihood fits of peak-response samples and training-table
construction.

The M simulator runs of one design point come from one `simulate` call
with M seeds. Each run is fitted with Gumbel, Rayleigh, and Weibull
distributions; the M per-run parameter estimates at one design point are
aggregated into means and standard deviations (the Table-style training
schema), with the standard deviations later serving as per-point noise
levels for the surrogate GPs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from searesponse.errors import (
    ConfigurationError,
    DegenerateFitError,
    DomainError,
    InsufficientDataError,
    NumericError,
    ParseError,
)
from searesponse.fileio import parse_float, read_csv, write_csv
from searesponse.seeding import TAG_SIM, TAG_SPLIT, derive_seed
from searesponse.simulator import SimConfig, check_weather, simulate
from searesponse.weather import Weather

logger = logging.getLogger(__name__)

NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 100
WEIBULL_SHAPE_CAP = 100.0

TRAIN_FRACTION = 0.8


class DistFamily(str, Enum):
    GUMBEL = "gumbel"
    RAYLEIGH = "rayleigh"
    WEIBULL = "weibull"

    @property
    def param_names(self) -> tuple[str, ...]:
        return _PARAM_NAMES[self]

    @property
    def hazard(self) -> "Hazard":
        return _HAZARDS[self]


_PARAM_NAMES = {
    DistFamily.GUMBEL: ("mu", "beta"),
    DistFamily.RAYLEIGH: ("sigma",),
    DistFamily.WEIBULL: ("k", "lambda"),
}


class Hazard(NamedTuple):
    """A family's cumulative hazard H(x; theta) = -log S(x; theta) and its
    inverse in x, both over the rows of an (n, p) theta array, and the
    bottom of its support."""

    cumulative: Callable[[np.ndarray, np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray, np.ndarray], np.ndarray]
    support_min: float


def _log1mexp(a: np.ndarray) -> np.ndarray:
    """log(1 - exp(-a)) for a >= 0, accurate at both ends (Maechler 2012)."""
    with np.errstate(divide="ignore"):
        return np.where(a < math.log(2.0), np.log(-np.expm1(-a)), np.log1p(-np.exp(-a)))


# Gumbel S = 1 - exp(-e^{-z}), z = (x - mu) / beta; Rayleigh H = x^2 / (2 sigma^2);
# Weibull H = (x / lambda)^k.
_HAZARDS = {
    DistFamily.GUMBEL: Hazard(lambda x, t: -_log1mexp(np.exp((t[:, 0] - x) / t[:, 1])),
                              lambda h, t: t[:, 0] - t[:, 1] * np.log(-_log1mexp(h)), -math.inf),
    DistFamily.RAYLEIGH: Hazard(lambda x, t: 0.5 * (x / t[:, 0]) ** 2,
                                lambda h, t: t[:, 0] * np.sqrt(2.0 * h), 0.0),
    DistFamily.WEIBULL: Hazard(lambda x, t: (x / t[:, 1]) ** t[:, 0],
                               lambda h, t: t[:, 1] * h ** (1.0 / t[:, 0]), 0.0),
}


_FAMILY_COLUMNS = {fam: tuple(f"{fam.value}_{name}{suffix}" for name in fam.param_names
                               for suffix in ("", "_std"))
                   for fam in DistFamily}
TABLE_COLUMNS = ("hs", "tp", "vw", *(c for cols in _FAMILY_COLUMNS.values() for c in cols),
                 "l_mean", "l_std", "split")


@dataclass(eq=False)
class TrainingTable:
    """The training table, one row per design point: the (n, 3) inputs
    (hs, tp, vw); per family, the (n, p) means and standard deviations of
    its parameters over the M runs, ordered as its param_names, NaN where
    the family's fit failed; the mean and standard deviation of the M peak
    counts; and the test-split mask."""

    inputs: np.ndarray
    means: dict[DistFamily, np.ndarray]
    stds: dict[DistFamily, np.ndarray]
    l_mean: np.ndarray
    l_std: np.ndarray
    test: np.ndarray

    def usable(self, family: DistFamily) -> np.ndarray:
        """The rows where every mean and std of the family's fit is finite."""
        return np.isfinite(self.means[family]).all(axis=1) & np.isfinite(self.stds[family]).all(axis=1)


def _check_sample(data: np.ndarray, positive: bool) -> np.ndarray:
    data = np.asarray(data, dtype=float).ravel()
    if len(data) < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {len(data)}")
    if positive and np.any(data <= 0.0):
        raise DomainError("all observations must be positive")
    return data


def fit_rayleigh(data: Sequence[float]) -> tuple[float]:
    """Closed-form Rayleigh MLE: (sigma,) with sigma = sqrt(sum(x^2) / (2n))."""
    x = _check_sample(np.asarray(data), positive=True)
    return (math.sqrt(float(np.sum(x * x)) / (2.0 * len(x))),)


def fit_gumbel(data: Sequence[float]) -> tuple[float, float]:
    """Gumbel MLE (mu, beta) by Newton iteration on the scale.

    The scale equation g(beta) = beta - mean(x) + sum(x w)/sum(w) with
    w = exp(-x/beta) is strictly increasing (g' = 1 + Var_w(x)/beta^2), so
    Newton from the moment initializer beta0 = s*sqrt(6)/pi converges to the
    unique root; the location then follows in closed form.
    """
    x = _check_sample(np.asarray(data), positive=False)
    xbar = float(np.mean(x))
    s = float(np.std(x, ddof=1))
    if s == 0.0:
        raise DegenerateFitError("constant data: Gumbel scale would be zero")
    beta = s * math.sqrt(6.0) / math.pi
    x0 = float(np.min(x))
    shifted = x - x0
    trace = [beta]
    for _ in range(NEWTON_MAX_ITER):
        w = np.exp(-shifted / beta)
        total = float(np.sum(w))
        mean_w = float(np.sum(x * w)) / total
        var_w = float(np.sum((x - mean_w) ** 2 * w)) / total
        g = beta - xbar + mean_w
        gprime = 1.0 + var_w / (beta * beta)
        step = g / gprime
        new_beta = beta - step
        if new_beta <= 0.0:
            new_beta = beta / 2.0
        trace.append(new_beta)
        if abs(new_beta - beta) < NEWTON_TOL * beta:
            beta = new_beta
            break
        beta = new_beta
    else:
        raise NumericError("Gumbel MLE did not converge", trace=trace)
    mu = x0 - beta * math.log(float(np.mean(np.exp(-shifted / beta))))
    return mu, beta


def fit_weibull(data: Sequence[float]) -> tuple[float, float]:
    """Weibull MLE (k, lambda): Newton on the shape profile equation, scale
    closed-form.

    Works on centered log-data, so the profile equation is scale-invariant
    and safe against overflow; the shape is capped at 100.
    """
    x = _check_sample(np.asarray(data), positive=True)
    logx = np.log(x)
    center = float(np.mean(logx))
    t = logx - center
    s_log = float(np.std(t, ddof=1))
    if s_log == 0.0:
        raise DegenerateFitError("constant data: Weibull fit is degenerate")
    k = min(math.pi / (s_log * math.sqrt(6.0)), WEIBULL_SHAPE_CAP)
    trace = [k]
    for _ in range(NEWTON_MAX_ITER):
        e = np.exp(k * t)
        a = float(np.mean(e))
        b = float(np.mean(t * e))
        c = float(np.mean(t * t * e))
        f = b / a - 1.0 / k  # mean(t) = 0 by construction
        fprime = (c * a - b * b) / (a * a) + 1.0 / (k * k)
        new_k = k - f / fprime
        if new_k <= 0.0:
            new_k = k / 2.0
        new_k = min(new_k, WEIBULL_SHAPE_CAP)
        trace.append(new_k)
        if abs(new_k - k) < NEWTON_TOL * k:
            k = new_k
            break
        k = new_k
    else:
        raise NumericError("Weibull MLE did not converge", trace=trace)
    lam = math.exp(center) * float(np.mean(np.exp(k * t))) ** (1.0 / k)
    return k, lam


_FITTERS = {
    DistFamily.GUMBEL: fit_gumbel,
    DistFamily.RAYLEIGH: fit_rayleigh,
    DistFamily.WEIBULL: fit_weibull,
}


def fit_family(family: DistFamily, data: Sequence[float]) -> tuple[float, ...]:
    """The family's MLE parameters, ordered as family.param_names."""
    return _FITTERS[family](data)


def build_training_table(
    design: Weather,
    m_runs: int,
    cfg: SimConfig,
    seed: int,
) -> TrainingTable:
    """Simulate each design point once with M seeds, fit all three
    families per run, and aggregate into one row per point. Every point is
    checked against cfg before any is simulated.

    A family that fails on any of the M runs is NaN in that row (the other
    families keep their data). Rows come back in design order, and the
    80/20 split is a seeded shuffle, so the table is a pure function of
    (design, m_runs, cfg, seed).
    """
    if m_runs < 2:
        raise ConfigurationError(f"m_runs must be >= 2 (std undefined), got {m_runs}")
    check_weather(design, cfg, label="design point")
    n = len(design)
    means = {fam: np.full((n, len(fam.param_names)), np.nan) for fam in DistFamily}
    stds = {fam: np.full((n, len(fam.param_names)), np.nan) for fam in DistFamily}
    l_mean, l_std = np.empty(n), np.empty(n)
    for i in range(n):
        outputs = simulate(design.record(i), cfg,
                           [derive_seed(seed, TAG_SIM, i, m) for m in range(m_runs)])
        counts = np.array([out.count for out in outputs], dtype=float)
        l_mean[i], l_std[i] = counts.mean(), counts.std(ddof=1)
        for fam in DistFamily:
            try:
                params = np.array([fit_family(fam, out.peaks) for out in outputs])
            except (InsufficientDataError, DomainError, DegenerateFitError, NumericError):
                continue
            means[fam][i] = params.mean(axis=0)
            stds[fam][i] = params.std(axis=0, ddof=1)
    test = np.zeros(n, dtype=bool)
    if n:
        rng = np.random.default_rng(derive_seed(seed, TAG_SPLIT))
        test[rng.permutation(n)[int(round(TRAIN_FRACTION * n)):]] = True
    logger.info("built training table: %d rows (%d train / %d test), M=%d",
                n, n - test.sum(), test.sum(), m_runs)
    return TrainingTable(design.inputs, means, stds, l_mean, l_std, test)


def write_training_table(path: str | Path, table: TrainingTable) -> None:
    """Write the table in the shared CSV format (see fileio); a failed fit
    (NaN) is an empty cell."""
    n = len(table.test)
    values = np.column_stack([
        table.inputs,
        *(np.dstack((table.means[fam], table.stds[fam])).reshape(n, -1) for fam in DistFamily),
        table.l_mean, table.l_std,
    ])
    write_csv(path, TABLE_COLUMNS,
              ([None if math.isnan(v) else v for v in row] + ["test" if t else "train"]
               for row, t in zip(values.tolist(), table.test.tolist())))


def load_training_table(path: str | Path) -> TrainingTable:
    """Read a table in the shared CSV format (see fileio). split must be
    train or test, and only the family columns may be empty, each family's
    either all or none in a row."""
    rows, test = [], []
    for line, record in read_csv(path, TABLE_COLUMNS):
        row = []
        for col, text in zip(TABLE_COLUMNS[:-1], record):
            if text:
                row.append(parse_float(path, line, col, text))
            elif col in ("hs", "tp", "vw", "l_mean", "l_std"):
                raise ParseError(f"column {col} may not be empty", line=line, path=path)
            else:
                row.append(math.nan)
        if record[-1] not in ("train", "test"):
            raise ParseError(f"split must be train or test, got {record[-1]!r}",
                             line=line, path=path)
        cells = dict(zip(TABLE_COLUMNS, record))
        for fam, cols in _FAMILY_COLUMNS.items():
            if len({bool(cells[col]) for col in cols}) > 1:
                raise ParseError(f"{fam.value} columns must be all set or all empty",
                                 line=line, path=path)
        rows.append(row)
        test.append(record[-1] == "test")
    values = np.array(rows).reshape(len(rows), len(TABLE_COLUMNS) - 1)
    ends = np.cumsum([3, *(len(cols) for cols in _FAMILY_COLUMNS.values())])
    inputs, *blocks, counts = np.split(values, ends, axis=1)
    return TrainingTable(inputs, {fam: b[:, 0::2] for fam, b in zip(DistFamily, blocks)},
                         {fam: b[:, 1::2] for fam, b in zip(DistFamily, blocks)},
                         counts[:, 0], counts[:, 1], np.array(test, dtype=bool))
