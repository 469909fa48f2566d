"""Hourly weather inputs: CSV ingestion, synthetic multi-year sequences,
and uniform training designs over the input box.

Each record is one hour of sea state: significant wave height ``hs`` [m],
peak wave period ``tp`` [s], and mean wind speed ``vw`` [m/s].
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from searesponse.errors import ConfigurationError, DataError, ParseError
from searesponse.fileio import parse_float, read_csv, write_csv
from searesponse.seeding import TAG_WEATHER, derive_seed

logger = logging.getLogger(__name__)

WEATHER_COLUMNS = ("index", "hs", "tp", "vw")

# Hour-to-hour persistence of the synthetic sequence, applied in logit space.
AR1_COEFF = 0.95


class WeatherRecord(NamedTuple):
    """One hour of sea state; a tuple, so that a year of hours is cheap to
    build and to stack."""

    hs: float
    tp: float
    vw: float
    index: int


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
            floor = 0.0 if name == "vw" else None
            if floor is not None:
                if lo < floor:
                    raise ConfigurationError(f"{name} min must be >= {floor}, got {lo}")
            elif lo <= 0.0:
                raise ConfigurationError(f"{name} min must be positive, got {lo}")

    def bounds(self) -> dict[str, tuple[float, float]]:
        return {"hs": self.hs, "tp": self.tp, "vw": self.vw}


DEFAULT_BOX = InputBox()


def _row_error(path: Path, line: int, row: list[str]) -> ParseError:
    """The error for a weather row that failed load_weather's one-pass parse."""
    try:
        int(row[0])
    except ValueError:
        return ParseError(f"non-integer value {row[0]!r} in column index", line=line, path=path)
    hs, tp, vw = (parse_float(path, line, col, text)
                  for col, text in zip(WEATHER_COLUMNS[1:], row[1:]))
    if hs <= 0.0:
        return ParseError(f"hs must be positive, got {hs}", line=line, path=path)
    if tp <= 0.0:
        return ParseError(f"tp must be positive, got {tp}", line=line, path=path)
    return ParseError(f"vw must be non-negative, got {vw}", line=line, path=path)


def load_weather(path: str | Path) -> list[WeatherRecord]:
    """Load an hourly weather CSV with header ``index,hs,tp,vw``, in the
    shared file format (see fileio). hs and tp must be positive and vw
    non-negative, and the file must hold at least one hour; a file without
    one raises DataError.
    """
    path = Path(path)
    records = []
    for line, row in read_csv(path, WEATHER_COLUMNS):
        # One try per row, and chained range checks that NaN and inf fail too.
        try:
            index, hs, tp, vw = int(row[0]), float(row[1]), float(row[2]), float(row[3])
        except ValueError:
            raise _row_error(path, line, row) from None
        if not (0.0 < hs < math.inf and 0.0 < tp < math.inf and 0.0 <= vw < math.inf):
            raise _row_error(path, line, row)
        records.append(WeatherRecord(hs, tp, vw, index))
    if not records:
        raise DataError(f"{path}: no weather records")
    logger.info("loaded %d weather records from %s", len(records), path)
    return records


def write_weather(path: str | Path, records: Sequence[WeatherRecord]) -> None:
    """Write records in the shared CSV format (see fileio)."""
    write_csv(path, WEATHER_COLUMNS,
              ([r.index, float(r.hs), float(r.tp), float(r.vw)] for r in records))


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


def synthesize_weather(n_hours: int, box: InputBox = DEFAULT_BOX, seed: int = 0) -> list[WeatherRecord]:
    """Generate a correlated synthetic hourly sequence inside the box.

    Each variable follows an independent stationary AR(1) process
    (coefficient 0.95) in logit space, squashed into its box interval, so
    consecutive hours are strongly positively correlated while marginals
    stay strictly inside the bounds. Deterministic for a fixed seed.
    """
    if n_hours < 1:
        raise ConfigurationError(f"n_hours must be >= 1, got {n_hours}")
    columns = {}
    for j, (name, (lo, hi)) in enumerate(box.bounds().items()):
        rng = np.random.default_rng(derive_seed(seed, TAG_WEATHER, j))
        columns[name] = lo + (hi - lo) * _logistic(_ar1_series(n_hours, AR1_COEFF, rng))
    return [WeatherRecord(*hour) for hour in zip(
        columns["hs"].tolist(), columns["tp"].tolist(), columns["vw"].tolist(), range(n_hours))]


def sample_uniform_inputs(n: int, box: InputBox = DEFAULT_BOX, seed: int = 0) -> list[WeatherRecord]:
    """Draw n independent design points, each coordinate uniform on its interval."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(derive_seed(seed, TAG_WEATHER))
    draws = {name: rng.uniform(lo, hi, size=n) for name, (lo, hi) in box.bounds().items()}
    return [WeatherRecord(*hour) for hour in zip(
        draws["hs"].tolist(), draws["tp"].tolist(), draws["vw"].tolist(), range(n))]


def records_to_array(records: Sequence[WeatherRecord]) -> np.ndarray:
    """Stack records into an (n, 3) array of columns (hs, tp, vw)."""
    return np.column_stack([[r.hs for r in records], [r.tp for r in records],
                            [r.vw for r in records]]).astype(float, copy=False)
