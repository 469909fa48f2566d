"""Hourly weather inputs: CSV ingestion, synthetic multi-year sequences,
and uniform training designs over the input box.

Each hour is one sea state: significant wave height ``hs`` [m], peak wave
period ``tp`` [s], and mean wind speed ``vw`` [m/s]. A sequence of hours
is one Weather value of columns, and `simulate` takes one of its rows. A
WeatherRecord is one hour as a named tuple; no code here builds one, and
it stays only because the benchmark's tests pass one to `simulate`.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from searesponse.errors import ConfigurationError, DataError, ParseError
from searesponse.fileio import parse_float, read_csv, read_csv_array, write_csv
from searesponse.seeding import TAG_WEATHER, derive_seed

logger = logging.getLogger(__name__)

WEATHER_COLUMNS = ("index", "hs", "tp", "vw")
_WEATHER_DTYPE = np.dtype([("index", np.int64), ("hs", float), ("tp", float), ("vw", float)])

# Hour-to-hour persistence of the synthetic sequence, applied in logit space.
AR1_COEFF = 0.95


class WeatherRecord(NamedTuple):
    """One hour of sea state, kept only for the benchmark's tests, which pass one to `simulate`."""

    hs: float
    tp: float
    vw: float
    index: int


@dataclass(eq=False)
class Weather:
    """A sequence of hours as columns: the (n,) int64 hour index and the
    (n, 3) C-ordered float64 inputs in the column order (hs, tp, vw), as
    TrainingTable.inputs."""

    index: np.ndarray
    inputs: np.ndarray

    def __len__(self) -> int:
        return len(self.index)


@dataclass(frozen=True)
class InputBox:
    """Per-variable (min, max) bounds on the weather inputs."""

    hs: tuple[float, float] = (0.2, 12.0)
    tp: tuple[float, float] = (4.0, 20.0)
    vw: tuple[float, float] = (0.0, 30.0)

    def __post_init__(self):
        for name, (lo, hi) in self.bounds().items():
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ConfigurationError(f"{name} bounds must be finite, got ({lo}, {hi})")
            if lo >= hi:
                raise ConfigurationError(f"{name} bounds degenerate: min {lo} >= max {hi}")
            if name == "vw" and lo < 0.0:
                raise ConfigurationError(f"vw min must be >= 0.0, got {lo}")
            if name != "vw" and lo <= 0.0:
                raise ConfigurationError(f"{name} min must be positive, got {lo}")

    def bounds(self) -> dict[str, tuple[float, float]]:
        return {"hs": self.hs, "tp": self.tp, "vw": self.vw}


DEFAULT_BOX = InputBox()


def _check_row(path: Path, line: int, row: list[str]) -> None:
    """Raise the ParseError for a weather row that int() and float() cannot
    parse, or whose values are out of range."""
    try:
        int(row[0])
    except ValueError:
        raise ParseError(f"non-integer value {row[0]!r} in column index",
                         line=line, path=path) from None
    hs, tp, vw = (parse_float(path, line, col, text)
                  for col, text in zip(WEATHER_COLUMNS[1:], row[1:]))
    if hs <= 0.0:
        raise ParseError(f"hs must be positive, got {hs}", line=line, path=path)
    if tp <= 0.0:
        raise ParseError(f"tp must be positive, got {tp}", line=line, path=path)
    if vw < 0.0:
        raise ParseError(f"vw must be non-negative, got {vw}", line=line, path=path)


def _bad_file(path: Path, reason: str) -> ParseError:
    """For a file that load_weather's one-pass parse or range check
    rejected, raise the error of its first bad row, or return one that
    names the file alone."""
    for line, row in read_csv(path, WEATHER_COLUMNS):
        _check_row(path, line, row)
    # numpy counts its row and column from the first row after the header,
    # not as the file's lines are counted; the message names the cell instead.
    reason = re.sub(r" at row \d+, column \d+\.$", "", reason)
    return ParseError(f"cells must be plain decimal numerals and the index must fit "
                      f"in int64: {reason}", path=path)


def load_weather(path: str | Path) -> Weather:
    """Load an hourly weather CSV with header ``index,hs,tp,vw``, in the
    shared file format (see fileio), in one vectorized pass. Cells are plain
    decimal numerals and the index fits in int64; hs and tp must be positive
    and vw non-negative, and the file must hold at least one hour; a file
    without one raises DataError.
    """
    path = Path(path)
    try:
        body = read_csv_array(path, WEATHER_COLUMNS, _WEATHER_DTYPE)
    except ValueError as exc:
        raise _bad_file(path, str(exc)) from None
    hs, tp, vw = body["hs"], body["tp"], body["vw"]
    # Range checks written so that NaN and inf fail them too.
    good = ((0.0 < hs) & (hs < math.inf) & (0.0 < tp) & (tp < math.inf)
            & (0.0 <= vw) & (vw < math.inf))
    if not good.all():
        raise _bad_file(path, "a value out of range")
    if not len(body):
        raise DataError(f"{path}: no weather records")
    logger.info("loaded %d weather records from %s", len(body), path)
    return Weather(body["index"].copy(), np.column_stack((hs, tp, vw)))


def write_weather(path: str | Path, weather: Weather) -> None:
    """Write the hours in the shared CSV format (see fileio)."""
    write_csv(path, WEATHER_COLUMNS,
              ([index, *inputs] for index, inputs in zip(weather.index.tolist(),
                                                         weather.inputs.tolist())))


def _ar1_series(n: int, coeff: float, rng: np.random.Generator) -> np.ndarray:
    # Stationary AR(1) with N(0,1) marginals: x0 ~ N(0,1), innovations
    # scaled by sqrt(1-coeff^2); the float recurrence is lfilter's, bit for bit.
    eps = rng.standard_normal(n)
    eps[1:] *= np.sqrt(1.0 - coeff * coeff)
    out = eps.tolist()
    for i in range(1, n):
        out[i] += coeff * out[i - 1]
    return np.array(out)


def _logistic(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) in float arithmetic, scipy's expit bit for bit; exp
    # overflows only for x < -709, far out in the AR(1)'s N(0,1) tail.
    return np.array([1.0 / (1.0 + math.exp(-x)) for x in z.tolist()])


def synthesize_weather(n_hours: int, box: InputBox = DEFAULT_BOX, seed: int = 0) -> Weather:
    """Generate a correlated synthetic hourly sequence inside the box.

    Each variable follows an independent stationary AR(1) process
    (coefficient 0.95) in logit space, squashed into its box interval, so
    consecutive hours are strongly positively correlated while marginals
    stay strictly inside the bounds. Deterministic for a fixed seed.
    """
    if n_hours < 1:
        raise ConfigurationError(f"n_hours must be >= 1, got {n_hours}")
    columns = []
    for j, (lo, hi) in enumerate(box.bounds().values()):
        rng = np.random.default_rng(derive_seed(seed, TAG_WEATHER, j))
        columns.append(lo + (hi - lo) * _logistic(_ar1_series(n_hours, AR1_COEFF, rng)))
    return Weather(np.arange(n_hours, dtype=np.int64), np.column_stack(columns))


def sample_uniform_inputs(n: int, box: InputBox = DEFAULT_BOX, seed: int = 0) -> Weather:
    """Draw n independent design points, each coordinate uniform on its interval."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(derive_seed(seed, TAG_WEATHER))
    draws = [rng.uniform(lo, hi, size=n) for lo, hi in box.bounds().values()]
    return Weather(np.arange(n, dtype=np.int64), np.column_stack(draws))
