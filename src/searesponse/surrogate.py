"""GP surrogate for the simulator: predict distribution parameters and the
peak count from weather inputs, then regenerate synthetic peak samples.

One GP per target (target_names: each distribution parameter, then the
count L), trained on the table's per-point means with the per-point
standard deviations squared as heteroscedastic noise. predict_moments_batch
evaluates every GP once, into (n, p+1) mean and std arrays in target order;
evaluate_surrogate scores them on test rows. generate_from_moments draws
one realization over a weather sequence from a single generator, in the
run's mode: parameters are the posterior means ("point"), drawn per hour
from each GP's predictive Gaussian ("sample"), or shifted once per
realization ("frozen"). Only the peaks that can reach the top k are drawn,
over a threshold (Coles, An Introduction to Statistical Modeling of Extreme
Values, 2001, ch. 4), which leaves the law of the k largest unchanged.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from searesponse.distfit import DistFamily, Hazard, TrainingTable
from searesponse.errors import ConfigurationError, InsufficientDataError, SchemaError
from searesponse.fileio import FORMAT_VERSIONS, read_json_object
from searesponse.gp import (
    GPModel,
    fit_hyperparams,
    load_model,
    predict_batch,
    save_model,
    subsample_cap,
    train,
)
from searesponse.orderstats import MODE_FROZEN, MODE_POINT
from searesponse.seeding import derive_seed

logger = logging.getLogger(__name__)

MIN_TRAIN_ROWS = 20

# Cap on GP training points; larger tables are subsampled with a seeded
# draw, since exact GP inference costs O(n^3).
MAX_TRAIN_POINTS = 2000

# Peaks expected above a draw's threshold, per unit of k: fewer than k
# exceed it only rarely, and drawing them is cheap. The bisection for the
# threshold stops within 10% of its target, in about ten of at most
# THRESHOLD_BISECTIONS steps.
EXCEEDANCE_TARGET_PER_K = 4
THRESHOLD_BISECTIONS = 60

# Relative positivity floors per parameter (fraction of the predicted mean
# magnitude), applied with a resample-once policy in sample mode. Scale-type
# parameters get a nominal 1e-6 floor; the Weibull shape gets a larger 0.1
# floor because draws near zero produce numerically explosive tails; location
# parameters (Gumbel mu) are unconstrained (None).
SCALE_FLOOR_FACTOR = 1e-6
SHAPE_FLOOR_FACTOR = 0.1

Z95 = 1.959963984540054   # standard-normal 0.975 quantile: mean +- Z95 std covers 95%

_FLOOR_FACTORS: dict[DistFamily, tuple] = {
    DistFamily.GUMBEL: (None, SCALE_FLOOR_FACTOR),
    DistFamily.RAYLEIGH: (SCALE_FLOOR_FACTOR,),
    DistFamily.WEIBULL: (SHAPE_FLOOR_FACTOR, SCALE_FLOOR_FACTOR),
}


def target_names(family: DistFamily) -> tuple[str, ...]:
    """A surrogate's GP targets, in order: the family's parameters, then L."""
    return (*family.param_names, "l_count")


def target_table(table: TrainingTable, family: DistFamily, rows) -> tuple[np.ndarray, np.ndarray]:
    """The (n, p+1) means and stds of the target_names(family) on the rows."""
    return (np.column_stack([table.means[family][rows], table.l_mean[rows]]),
            np.column_stack([table.stds[family][rows], table.l_std[rows]]))


@dataclass
class SurrogateModel:
    """One GP per target, keyed and ordered as target_names(family)."""

    family: DistFamily
    models: dict[str, GPModel]

    def __post_init__(self):
        expected = target_names(self.family)
        if tuple(self.models) != expected:
            raise ConfigurationError(f"{self.family.value} needs one model per target {expected}, "
                                     f"got {tuple(self.models)}")
        for name, gp_model in self.models.items():
            if gp_model.train_inputs.shape[1] != 3:
                raise ConfigurationError(f"the {name} GP takes {gp_model.train_inputs.shape[1]} "
                                         f"inputs, not the 3 of (hs, tp, vw)")


def train_surrogate(table: TrainingTable, family: DistFamily, restarts: int = 5,
                    seed: int = 0) -> SurrogateModel:
    """Fit one GP per distribution parameter and one for the peak count.

    Uses the train-split rows whose fits for `family` are present; requires
    at least 20 of them, and a seeded subsample of MAX_TRAIN_POINTS of
    them when there are more. Hyperparameters are optimized per target from
    `restarts` seeded starts.
    """
    rows = np.flatnonzero(~table.test & table.usable(family))
    if len(rows) < MIN_TRAIN_ROWS:
        raise InsufficientDataError(
            f"{family.value}: need >= {MIN_TRAIN_ROWS} rows with fits, got {len(rows)}"
        )
    rows = rows[subsample_cap(len(rows), MAX_TRAIN_POINTS, seed)]
    inputs = table.inputs[rows]
    means, stds = target_table(table, family, rows)
    models = {}
    for j, name in enumerate(target_names(family)):
        y, noise = means[:, j], stds[:, j] ** 2
        kernel = fit_hyperparams(inputs, y, noise,
                                 restarts=restarts, seed=derive_seed(seed, j))
        models[name] = train(inputs, y, noise, kernel)
        logger.info("trained %s/%s GP on %d rows: %s", family.value, name, len(inputs), kernel)
    return SurrogateModel(family, models)


class SurrogateDraw(NamedTuple):
    """The parameters and counts one realization drew, per hour, and its
    peaks that can be among the k largest."""

    theta: np.ndarray        # (n_hours, p)
    counts: np.ndarray       # (n_hours,), int
    peaks: np.ndarray        # (n,), in no particular order


def predict_moments_batch(model: SurrogateModel, inputs: np.ndarray,
                          include_noise: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Predictive (mean, std) of every target over an (n, 3) input array:
    two (n, p+1) arrays whose column j is target_names(family)[j], from one
    predict_batch call per GP."""
    moments = [predict_batch(gp_model, inputs, include_noise=include_noise)
               for gp_model in model.models.values()]
    return (np.column_stack([mean for mean, _ in moments]),
            np.column_stack([std for _, std in moments]))


def hours_outside_training_box(model: SurrogateModel, inputs: np.ndarray) -> int:
    """The number of rows of an (n, 3) input array outside the per-column
    min-max box of the training inputs, where the GPs extrapolate. Every GP
    of a bundle has the same training inputs; the rows are standardized as
    predict_batch standardizes them, so a row on the box's edge is inside."""
    gp_model = next(iter(model.models.values()))
    points = (inputs - gp_model.input_mean) / gp_model.input_scale
    train = gp_model.train_inputs
    outside = (points < train.min(axis=0)) | (points > train.max(axis=0))
    return int(outside.any(axis=1).sum())


def exceedance_threshold(hazard: Hazard, theta: np.ndarray, counts: np.ndarray,
                         target: float) -> float:
    """A threshold that 90-100% of `target` peaks are expected to exceed,
    by bisection on sum_h L_h S_h(u) between the hours' quantiles at
    S = target / sum_h L_h; the bottom of the support if sum_h L_h <= target."""
    counts = counts.astype(float)
    total = counts.sum()
    if total <= target:
        return hazard.support_min
    quantiles = hazard.inverse(np.full(len(counts), math.log(total / target)), theta)
    lo, hi = quantiles.min(), min(quantiles.max(), np.finfo(float).max)
    for _ in range(THRESHOLD_BISECTIONS):
        mid = lo + 0.5 * (hi - lo)
        expected = counts @ np.exp(-hazard.cumulative(mid, theta))
        if expected > target:
            lo = mid
        elif expected < 0.9 * target:
            hi = mid
        else:
            return mid
    return hi


def generate_from_moments(family: DistFamily, moments: tuple[np.ndarray, np.ndarray], mode: str,
                          rng: np.random.Generator, k: int) -> SurrogateDraw:
    """Draw one realization over all hours of `moments`, the (mean, std)
    pair of predict_moments_batch: its peaks that can be among the k largest.

    From the one generator `rng`, in this order: the parameter shifts
    (frozen mode), theta for all hours (sample mode), all counts, the
    counts above the threshold, the peaks above it, then, only if fewer
    than k, the peaks below it. Point mode uses the posterior means as
    theta; sample mode draws each parameter from its predictive Gaussian;
    frozen mode shifts it by a per-realization standard-normal multiple of
    its std. A sample-mode draw below its parameter's relative floor is
    drawn once more; every mode then clamps theta to the floor.
    Each count L_h is N(l_mean, l_std) rounded and clamped at zero.

    Given theta and the counts, and a threshold u set from them alone, hour
    h has Binomial(L_h, S_h(u)) peaks above u, each H^{-1}(H(u) + E) with
    E ~ Exp(1). The k largest of all peaks are among them when there are at
    least k; otherwise the other peaks are drawn below u by the inverse CDF
    on [0, F_h(u)], completing the stream.
    """
    mean, std = (m[:, :-1] for m in moments)
    l_mean, l_std = (m[:, -1] for m in moments)
    factors = _FLOOR_FACTORS[family]
    floor = np.where([f is not None for f in factors],
                     np.array([f or 0.0 for f in factors]) * np.abs(mean), -np.inf)
    if mode == MODE_POINT:
        theta = mean
    elif mode == MODE_FROZEN:
        theta = mean + rng.standard_normal(mean.shape[1]) * std
    else:
        theta = rng.normal(mean, std)
        low = theta < floor
        theta[low] = rng.normal(mean[low], std[low])
    theta = np.maximum(theta, floor)
    counts = np.maximum(np.rint(rng.normal(l_mean, l_std)), 0.0).astype(np.int64)
    hazard = family.hazard
    with np.errstate(over="ignore", divide="ignore"):
        u = exceedance_threshold(hazard, theta, counts, EXCEEDANCE_TARGET_PER_K * k)
        h_u = hazard.cumulative(u, theta)
        exceed = rng.binomial(counts, np.exp(-h_u))
        rows = np.repeat(np.arange(len(counts)), exceed)
        peaks = hazard.inverse(h_u[rows] + rng.standard_exponential(len(rows)), theta[rows])
        if exceed.sum() < k:
            rows = np.repeat(np.arange(len(counts)), counts - exceed)
            below = -np.log1p(rng.random(len(rows)) * np.expm1(-h_u[rows]))
            peaks = np.concatenate([peaks, hazard.inverse(below, theta[rows])])
    return SurrogateDraw(theta=theta, counts=counts, peaks=peaks)


@dataclass
class TargetEval:
    """Hold-out diagnostics for one GP target."""

    target: str
    true: np.ndarray
    pred_mean: np.ndarray
    pred_std: np.ndarray
    rmse: float
    coverage95: float


def evaluate_surrogate(model: SurrogateModel, table: TrainingTable,
                       include_noise: bool = False) -> list[TargetEval]:
    """Predicted-vs-true comparison of every GP target on the table's test
    rows.

    Rows missing the model's family fits are skipped. Each target reports
    RMSE and the empirical coverage of the 95% predictive interval
    mean +- Z95 std.
    """
    rows = table.test & table.usable(model.family)
    if not rows.any():
        raise InsufficientDataError(f"no usable test rows with {model.family.value} fits")
    truths, _ = target_table(table, model.family, rows)
    means, stds = predict_moments_batch(model, table.inputs[rows], include_noise=include_noise)
    out = []
    for j, name in enumerate(model.models):
        true, mean, std = truths[:, j], means[:, j], stds[:, j]
        rmse = float(np.sqrt(np.mean((true - mean) ** 2)))
        coverage = float(np.mean(np.abs(true - mean) <= Z95 * std))
        out.append(TargetEval(target=name, true=true, pred_mean=mean, pred_std=std,
                              rmse=rmse, coverage95=coverage))
    return out


def save_surrogate(directory: str | Path, model: SurrogateModel) -> list[Path]:
    """Persist the bundle: one GP file per target plus a manifest. Returns
    the paths written: the GP files in target order, then bundle.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    targets = list(model.models)
    manifest = {
        "format_version": FORMAT_VERSIONS["surrogate_bundle"],
        "family": model.family.value,
        "targets": targets,
        "files": {name: f"gp_{name}.json" for name in targets},
    }
    written = [directory / f"gp_{name}.json" for name in targets]
    for path, gp_model in zip(written, model.models.values()):
        save_model(path, gp_model)
    written.append(directory / "bundle.json")
    written[-1].write_text(json.dumps(manifest, indent=2) + "\n")
    return written


def load_surrogate(directory: str | Path) -> SurrogateModel:
    directory = Path(directory)
    manifest_path = directory / "bundle.json"
    if not manifest_path.exists():
        raise SchemaError(f"{directory}: missing bundle.json")
    manifest = read_json_object(manifest_path)
    if (version := manifest.get("format_version")) != FORMAT_VERSIONS["surrogate_bundle"]:
        raise SchemaError(f"{directory}: unsupported bundle version {version!r}; run train again")
    try:
        family = DistFamily(manifest["family"])
        files = manifest["files"]
        return SurrogateModel(family, {name: load_model(directory / files[name])
                                       for name in target_names(family)})
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise SchemaError(f"{directory}: malformed bundle: {exc}")
