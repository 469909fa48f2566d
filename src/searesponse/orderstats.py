"""Brute-force order statistics over a weather sequence.

Estimates the distribution of Y_k over M realizations from each one's k
largest peaks (simulator or surrogate, as run_qoi's model says, on derived
seeds), taken once, and compares candidate results against a reference run.
The hour count is the weather's. The simulator sweeps contiguous hour blocks
on one thread per usable CPU, all M realizations of an hour in one
`simulate` call, one seed per (realization, hour), each block streaming its
peaks through one bounded top-k accumulator per realization; a surrogate
gets one generator per realization and draws over all hours only the few
hundred peaks that can reach the top k.
Only the surrogate branch of run_qoi imports searesponse.surrogate, so a
simulator run and compare_qoi never load the GP layer or scipy.linalg.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

from searesponse.errors import ConfigurationError, DataError, InsufficientDataError, SchemaError
from searesponse.fileio import parse_float, read_csv, read_json_object, write_csv
from searesponse.seeding import TAG_QOI, derive_seed
from searesponse.simulator import HourWork, SimConfig, check_weather, map_blocks, simulate
from searesponse.weather import Weather

if TYPE_CHECKING:
    from searesponse.surrogate import SurrogateModel

logger = logging.getLogger(__name__)

SOURCE_SIMULATOR = "simulator"
SOURCE_SURROGATE = "surrogate"

YK_SAMPLES_COLUMNS = ("realization", "yk")
RANK_SUMMARY_COLUMNS = ("rank", "mean", "p2.5", "p97.5")

# A surrogate run's draw modes; here, so the CLI need not load the GP layer.
MODE_POINT = "point"
MODE_SAMPLE = "sample"
MODE_FROZEN = "frozen"
MODES = (MODE_POINT, MODE_SAMPLE, MODE_FROZEN)


class TopK:
    """Bounded collection of the k largest values seen so far, kept in one
    array whose first entry, once it holds k values, is the k-th largest.

    Ties among equal values are kept arbitrarily; the retained multiset
    always equals the k largest of everything inserted.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.k = k
        self._top = np.empty(0)

    def __len__(self) -> int:
        return len(self._top)

    def update(self, batch: Sequence[float]) -> "TopK":
        values = np.asarray(batch, dtype=float).ravel()
        if len(self._top) == self.k:
            # Nothing at or below the floor can enter; most hours offer nothing else.
            values = values[values > self._top[0]]
        if len(values):
            values = np.concatenate([self._top, values])
            if len(values) >= self.k:
                # This leaves the k-th largest at index 0, even at exactly k.
                values = np.partition(values, -self.k)[-self.k:]
            self._top = values
        return self

    def values_descending(self) -> np.ndarray:
        return np.sort(self._top)[::-1]


@dataclass(frozen=True)
class QoiConfig:
    """k: order-statistic rank; mode: how a surrogate draws its parameters,
    one of MODES, which a simulator ignores. run_qoi takes the hour count
    from the weather and the source from the model."""

    k: int = 100
    realizations: int = 1
    base_seed: int = 0
    mode: str = MODE_SAMPLE

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.realizations < 1:
            raise ConfigurationError(f"realizations must be >= 1, got {self.realizations}")
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")


@dataclass
class QoiResult:
    """M realized values of Y_k plus per-rank summaries across realizations;
    workers is the number of threads the sweep ran on (1 for a surrogate or
    a result loaded from disk)."""

    k: int
    source: str
    base_seed: int
    yk_samples: np.ndarray    # (M,)
    rank_means: np.ndarray    # (k,), rank 1 first
    rank_p025: np.ndarray
    rank_p975: np.ndarray
    total_count: int
    workers: int = 1


def _sweep_hours(
    cfg: QoiConfig, weather: Weather, model: SimConfig, start: int, stop: int,
) -> tuple[list[np.ndarray], int]:
    """Each realization's k largest peaks, and the peak total of all
    realizations, over hours start..stop-1, realization m of hour i on the
    seed derived from (base seed, m, i), all through one HourWork."""
    accs = [TopK(cfg.k) for _ in range(cfg.realizations)]
    total = 0
    work = HourWork(model, cfg.realizations)
    for i in range(start, stop):
        seeds = [derive_seed(cfg.base_seed, TAG_QOI, m, i) for m in range(cfg.realizations)]
        for acc, peaks in zip(accs, simulate(weather.inputs[i].tolist(), model, seeds, work)):
            total += len(peaks)
            acc.update(peaks)
    return [acc.values_descending() for acc in accs], total


def run_qoi(
    cfg: QoiConfig,
    weather: Weather,
    model: Union[SimConfig, SurrogateModel],
) -> QoiResult:
    """Estimate the distribution of Y_k from M realizations of the weather
    sequence, from each realization's k largest peaks and the peak total.

    After checking every hour against the config, the simulator splits the
    hours into one contiguous block per worker thread, min(usable CPUs,
    hours) of them, and sweeps each block in hour order, running all M
    realizations of an hour together, realization m on the seed derived
    from (base seed, m, hour); each realization's peaks are its blocks'
    k largest, joined. The k largest values of a multiset do not depend on
    the order they arrive in, so results do not depend on the worker count.
    A surrogate draws each realization from one generator seeded by (base
    seed, realization), after predicting the GP moments once for the whole
    sequence; its peaks are only those that can reach the top k (its peak
    total counts every hour's L). Either way each realization's k largest
    are then taken once, and results are a pure function of (cfg, weather,
    model). The weather sequence, of at least one hour, is fixed across
    realizations; only the seeds vary. The result's source is the model's:
    "simulator" for a SimConfig, "surrogate" for a SurrogateModel.
    """
    if len(weather) < 1:
        raise ConfigurationError("weather must hold at least one hour")
    workers = 1
    if isinstance(model, SimConfig):
        source = SOURCE_SIMULATOR
        check_weather(weather, model)
        blocks = map_blocks(partial(_sweep_hours, cfg, weather, model), len(weather))
        workers = len(blocks)
        kept = [np.concatenate(parts) for parts in zip(*(peaks for peaks, _ in blocks))]
        total = sum(block_total for _, block_total in blocks)
    else:
        # Here, so that only a surrogate run loads the GP layer and scipy.linalg.
        from searesponse.surrogate import (
            SurrogateModel,
            generate_from_moments,
            predict_moments_batch,
        )
        if not isinstance(model, SurrogateModel):
            raise ConfigurationError(
                f"model must be SimConfig or SurrogateModel, got {type(model)!r}")
        source = SOURCE_SURROGATE
        moments = predict_moments_batch(model, weather.inputs)
        kept, total = [], 0
        for m in range(cfg.realizations):
            rng = np.random.default_rng(derive_seed(cfg.base_seed, TAG_QOI, m))
            draw = generate_from_moments(model.family, moments, cfg.mode, rng, cfg.k)
            kept.append(draw.peaks)
            total += int(draw.counts.sum())

    ranks = np.empty((cfg.realizations, cfg.k))   # (M, k), rank 1 first
    for m, peaks in enumerate(kept):
        if len(peaks) < cfg.k:
            raise InsufficientDataError(
                f"realization {m}: only {len(peaks)} peaks total, need {cfg.k} for Y_{cfg.k}"
            )
        ranks[m] = np.sort(np.partition(peaks, -cfg.k)[-cfg.k:])[::-1]
    p025, p975 = np.percentile(ranks, [2.5, 97.5], axis=0)
    logger.info("qoi %s: k=%d M=%d hours=%d workers=%d, %d responses processed",
                source, cfg.k, cfg.realizations, len(weather), workers, total)
    return QoiResult(
        k=cfg.k, source=source, base_seed=cfg.base_seed,
        yk_samples=ranks[:, cfg.k - 1].copy(),
        rank_means=ranks.mean(axis=0), rank_p025=p025, rank_p975=p975,
        total_count=total, workers=workers,
    )


@dataclass(frozen=True)
class YkSummary:
    mean: float
    std: float
    p025: float
    p50: float
    p975: float


def _yk_summary(samples: np.ndarray) -> YkSummary:
    p = np.percentile(samples, [2.5, 50.0, 97.5])
    std = float(samples.std(ddof=1)) if len(samples) > 1 else 0.0
    return YkSummary(mean=float(samples.mean()), std=std,
                     p025=float(p[0]), p50=float(p[1]), p975=float(p[2]))


@dataclass
class ComparisonReport:
    """Candidate (a) vs reference (b) comparison of two Y_k estimates."""

    k: int
    a_source: str
    b_source: str
    a_yk: YkSummary
    b_yk: YkSummary
    relative_mean_difference: float
    conservative: bool
    band_overlap_fraction: float
    closest_rank: int
    rank_in_band: np.ndarray  # per rank: a's mean inside b's 2.5-97.5% band


def compare_qoi(a: QoiResult, b: QoiResult) -> ComparisonReport:
    """Compare candidate a against reference b (same k).

    The signed relative difference is positive when the candidate's mean
    Y_k exceeds the reference's (a conservative estimate); closest_rank is
    the rank in b whose mean across realizations best matches a's mean
    Y_k, with ties resolved toward the deepest rank.
    """
    if a.k != b.k:
        raise ConfigurationError(f"cannot compare k={a.k} against k={b.k}")
    a_yk = _yk_summary(a.yk_samples)
    b_yk = _yk_summary(b.yk_samples)
    if b_yk.mean == 0.0:
        raise DataError("reference mean Y_k is 0; the relative difference is undefined")
    diff = (a_yk.mean - b_yk.mean) / abs(b_yk.mean)
    in_band = (a.rank_means >= b.rank_p025) & (a.rank_means <= b.rank_p975)
    gaps = np.abs(b.rank_means - a_yk.mean)
    closest = a.k - int(np.argmin(gaps[::-1]))
    return ComparisonReport(
        k=a.k, a_source=a.source, b_source=b.source,
        a_yk=a_yk, b_yk=b_yk,
        relative_mean_difference=float(diff),
        conservative=diff > 0.0,
        band_overlap_fraction=float(np.mean(in_band)),
        closest_rank=closest,
        rank_in_band=in_band,
    )


def save_qoi_result(directory: str | Path, result: QoiResult) -> list[Path]:
    """Write yk_samples.csv, rank_summary.csv, and summary.json; returns
    their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = [directory / name for name in ("yk_samples.csv", "rank_summary.csv", "summary.json")]
    write_csv(written[0], YK_SAMPLES_COLUMNS, enumerate(result.yk_samples.tolist()))
    write_csv(written[1], RANK_SUMMARY_COLUMNS,
              zip(range(1, result.k + 1), result.rank_means.tolist(),
                  result.rank_p025.tolist(), result.rank_p975.tolist()))
    summary = {
        "k": result.k,
        "source": result.source,
        "base_seed": result.base_seed,
        "realizations": len(result.yk_samples),
        "total_count": result.total_count,
        "yk": _yk_summary(result.yk_samples).__dict__,
    }
    written[2].write_text(json.dumps(summary, indent=2) + "\n")
    return written


def _read_floats(path: Path, columns: Sequence[str]) -> np.ndarray:
    """The cells of a result CSV as a (rows, columns) array."""
    rows = [[parse_float(path, line, col, text) for col, text in zip(columns, row)]
            for line, row in read_csv(path, columns)]
    return np.array(rows).reshape(-1, len(columns))


def load_qoi_result(directory: str | Path) -> QoiResult:
    """Read a directory written by save_qoi_result; its CSV files must hold
    one row per realization and per rank of summary.json, numbered
    0..M-1 and 1..k in order."""
    directory = Path(directory)
    summary_path = directory / "summary.json"
    if not summary_path.exists():
        raise SchemaError(f"{directory}: missing summary.json")
    summary = read_json_object(summary_path)
    kinds = {"source": str, "k": int, "realizations": int, "base_seed": int, "total_count": int}
    # Exact JSON types: int() would also take 2.9, true, "3" and 1e309.
    bad = [key for key, kind in kinds.items() if type(summary.get(key)) is not kind]
    if bad:
        raise SchemaError(f"{summary_path}: malformed summary: missing or mistyped {bad}")
    source, k, realizations, base_seed, total_count = (summary[key] for key in kinds)
    if k < 1 or realizations < 1:
        raise SchemaError(f"{summary_path}: k and realizations must be >= 1")
    yk = _read_floats(directory / "yk_samples.csv", YK_SAMPLES_COLUMNS)
    ranks = _read_floats(directory / "rank_summary.csv", RANK_SUMMARY_COLUMNS)
    # Counts stay Python ints: len(range(count)) would overflow C ssize_t.
    for name, rows, first, count in (("yk_samples.csv", yk, 0, realizations),
                                     ("rank_summary.csv", ranks, 1, k)):
        if len(rows) != count:
            raise SchemaError(f"{directory / name}: expected {count} rows, got {len(rows)}")
        if not np.array_equal(rows[:, 0], np.arange(first, first + count)):
            raise SchemaError(f"{directory / name}: first column must count "
                              f"{first}..{first + count - 1} in order")
    return QoiResult(
        k=k, source=source, base_seed=base_seed,
        yk_samples=yk[:, 1],
        rank_means=ranks[:, 1], rank_p025=ranks[:, 2], rank_p975=ranks[:, 3],
        total_count=total_count,
    )
