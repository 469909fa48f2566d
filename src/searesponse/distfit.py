"""Maximum-likelihood fits of peak-response samples and training-table
construction.

The M simulator runs of one design point come from one `simulate` call
with M seeds. Each run is fitted with Gumbel, Rayleigh, and Weibull
distributions, the M runs of a point together: one family's M fits are
one Newton iteration over the M samples laid end to end in one flat
array. The M per-run parameter estimates at one design point are
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


class _Runs(NamedTuple):
    """M samples laid end to end: the flat values, each run's start offset
    and each run's length."""

    flat: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-run sums of a flat array, each in sequence."""
        return np.add.reduceat(values, self.starts)

    def spread(self, per_run: np.ndarray) -> np.ndarray:
        """A per-run array broadcast to the flat layout."""
        return np.repeat(per_run, self.lengths)


def _newton(step: Callable[[np.ndarray], np.ndarray], theta: np.ndarray, name: str) -> np.ndarray:
    """Iterate theta <- step(theta) over all runs at once; each run stops
    when its relative change is below NEWTON_TOL and keeps that value while
    the others iterate."""
    active = np.ones(len(theta), dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        new = step(theta)
        done = np.abs(new - theta) < NEWTON_TOL * theta
        theta = np.where(active, new, theta)
        active &= ~done
        if not active.any():
            return theta
    raise NumericError(f"{name} MLE did not converge")


def _fit_rayleigh_runs(runs: _Runs) -> np.ndarray:
    """Closed-form Rayleigh MLE: sigma = sqrt(sum(x^2) / (2n))."""
    return np.sqrt(runs.sums(runs.flat * runs.flat) / (2.0 * runs.lengths))[:, None]


def _fit_gumbel_runs(runs: _Runs) -> np.ndarray:
    """Gumbel MLE (mu, beta) by Newton iteration on the scale.

    The scale equation g(beta) = beta - mean(x) + sum(x w)/sum(w) with
    w = exp(-x/beta) is strictly increasing (g' = 1 + Var_w(x)/beta^2), so
    Newton from the moment initializer beta0 = s*sqrt(6)/pi converges to the
    unique root; the location then follows in closed form.
    """
    x, n = runs.flat, runs.lengths
    xbar = runs.sums(x) / n
    dev = x - runs.spread(xbar)
    s = np.sqrt(runs.sums(dev * dev) / (n - 1))
    x0 = np.minimum.reduceat(x, runs.starts)
    neg_shifted = runs.spread(x0) - x

    def step(beta):
        w = np.exp(neg_shifted / runs.spread(beta))
        total = runs.sums(w)
        mean_w = runs.sums(x * w) / total
        dev = x - runs.spread(mean_w)
        var_w = runs.sums(dev * dev * w) / total
        new = beta - (beta - xbar + mean_w) / (1.0 + var_w / (beta * beta))
        return np.where(new <= 0.0, beta / 2.0, new)

    beta = _newton(step, s * math.sqrt(6.0) / math.pi, "Gumbel")
    mu = x0 - beta * np.log(runs.sums(np.exp(neg_shifted / runs.spread(beta))) / n)
    return np.column_stack((mu, beta))


def _fit_weibull_runs(runs: _Runs) -> np.ndarray:
    """Weibull MLE (k, lambda): Newton on the shape profile equation, scale
    closed-form.

    Works on centered log-data, so the profile equation is scale-invariant
    and safe against overflow; the shape is capped at 100.
    """
    n = runs.lengths
    logx = np.log(runs.flat)
    center = runs.sums(logx) / n
    t = logx - runs.spread(center)
    tt = t * t
    s_log = np.sqrt(runs.sums(tt) / (n - 1))

    def step(k):
        e = np.exp(runs.spread(k) * t)
        a = runs.sums(e) / n
        b = runs.sums(t * e) / n
        c = runs.sums(tt * e) / n
        f = b / a - 1.0 / k  # mean(t) = 0 by construction
        fprime = (c * a - b * b) / (a * a) + 1.0 / (k * k)
        new = k - f / fprime
        return np.minimum(np.where(new <= 0.0, k / 2.0, new), WEIBULL_SHAPE_CAP)

    k = _newton(step, np.minimum(math.pi / (s_log * math.sqrt(6.0)), WEIBULL_SHAPE_CAP),
                "Weibull")
    lam = np.exp(center) * (runs.sums(np.exp(runs.spread(k) * t)) / n) ** (1.0 / k)
    return np.column_stack((k, lam))


_RUN_FITTERS = {
    DistFamily.GUMBEL: _fit_gumbel_runs,
    DistFamily.RAYLEIGH: _fit_rayleigh_runs,
    DistFamily.WEIBULL: _fit_weibull_runs,
}


def fit_runs(family: DistFamily, runs: Sequence[Sequence[float]]) -> np.ndarray:
    """The family's MLE parameters for each of the M samples in runs, an
    (M, p) array whose columns are ordered as family.param_names.

    All M samples are fitted together, on one flat array, by one Newton
    iteration. Every sample needs at least 2 values, all positive for
    Rayleigh and Weibull, and a spread: its values (their logs for
    Weibull) not all equal for Gumbel and Weibull. One sample that breaks a
    rule fails the whole call.
    """
    samples = [np.asarray(r, dtype=float).ravel() for r in runs]
    if not samples:
        raise InsufficientDataError("need at least one sample")
    lengths = np.array([len(x) for x in samples])
    if lengths.min() < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {lengths.min()}")
    flat = np.concatenate(samples)
    if family is not DistFamily.GUMBEL and np.any(flat <= 0.0):
        raise DomainError("all observations must be positive")
    starts = np.cumsum(lengths) - lengths
    if family is not DistFamily.RAYLEIGH:
        hi, lo = np.maximum.reduceat(flat, starts), np.minimum.reduceat(flat, starts)
        if family is DistFamily.WEIBULL:  # log is monotone: these are the extremes of log x
            hi, lo = np.log(hi), np.log(lo)
        if np.any(hi == lo):
            raise DegenerateFitError(f"constant data: {family.value} fit is degenerate")
    return _RUN_FITTERS[family](_Runs(flat, starts, lengths))


def _fit_one(family: DistFamily, data: Sequence[float]) -> tuple[float, ...]:
    return tuple(fit_runs(family, [data])[0].tolist())


def fit_rayleigh(data: Sequence[float]) -> tuple[float]:
    """Rayleigh MLE of one sample: (sigma,)."""
    return _fit_one(DistFamily.RAYLEIGH, data)


def fit_gumbel(data: Sequence[float]) -> tuple[float, float]:
    """Gumbel MLE of one sample: (mu, beta)."""
    return _fit_one(DistFamily.GUMBEL, data)


def fit_weibull(data: Sequence[float]) -> tuple[float, float]:
    """Weibull MLE of one sample: (k, lambda)."""
    return _fit_one(DistFamily.WEIBULL, data)


_FITTERS = {
    DistFamily.GUMBEL: fit_gumbel,
    DistFamily.RAYLEIGH: fit_rayleigh,
    DistFamily.WEIBULL: fit_weibull,
}


def fit_family(family: DistFamily, data: Sequence[float]) -> tuple[float, ...]:
    """One sample's MLE parameters, ordered as family.param_names."""
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
        peaks = [out.peaks for out in outputs]
        counts = np.array([len(p) for p in peaks], dtype=float)
        l_mean[i], l_std[i] = counts.mean(), counts.std(ddof=1)
        for fam in DistFamily:
            try:
                params = fit_runs(fam, peaks)
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
