"""Exact Gaussian Process regression with a Matern-5/2 ARD kernel and
per-observation (heteroscedastic) noise.

Inputs and targets are z-scored internally; per-point noise variances are
rescaled accordingly. Inference is a dense Cholesky factorization of
K + diag(noise) + jitter*I, with jitter escalating from 1e-8 of the mean
diagonal by factors of 100 (at most 3 times) on factorization failure.
A trained model keeps the inverse L^{-1} of the Cholesky factor L, so that
prediction needs matrix products only.
Hyperparameters are chosen by maximizing the log marginal likelihood with
scipy's bounded quasi-Newton L-BFGS-B over log-parameters, restarted from
seeded log-uniform initializations. The optimizer is given the analytic
gradient 1/2 tr((alpha alpha^T - A^{-1}) dA/dtheta) (Rasmussen & Williams,
Gaussian Processes for Machine Learning, section 5.4.1), so each step costs
one Cholesky factorization and the inverse built from it.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError, cholesky, lapack
from scipy.spatial.distance import cdist

from searesponse.errors import ConfigurationError, NumericError, SchemaError
from searesponse.fileio import FORMAT_VERSIONS, json_float, json_floats, read_json_object
from searesponse.seeding import TAG_GP_INIT, TAG_SUBSAMPLE, derive_seed

logger = logging.getLogger(__name__)

SQRT5 = math.sqrt(5.0)

JITTER_INITIAL = 1e-8
JITTER_GROWTH = 100.0
JITTER_MAX_ESCALATIONS = 3

LENGTHSCALE_BOUNDS = (1e-2, 1e2)
SIGNAL_VARIANCE_BOUNDS = (1e-3, 1e3)

PREDICT_BLOCK_ROWS = 512


@dataclass(frozen=True)
class KernelParams:
    """Matern-5/2 hyperparameters: signal variance and one lengthscale per
    input dimension, in standardized units."""

    signal_variance: float
    lengthscales: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 < self.signal_variance < math.inf:
            raise ConfigurationError(f"signal_variance must be positive and finite, got {self.signal_variance}")
        if not all(0.0 < l < math.inf for l in self.lengthscales):
            raise ConfigurationError(f"lengthscales must be positive and finite, got {self.lengthscales}")


@dataclass
class GPModel:
    """A trained GP: standardized training data, factorized covariance, and
    the standardization constants needed to map back to raw units."""

    kernel: KernelParams
    train_inputs: np.ndarray      # (n, d), standardized
    train_targets: np.ndarray     # (n,), standardized
    noise_variances: np.ndarray   # (n,), standardized
    input_mean: np.ndarray
    input_scale: np.ndarray
    target_mean: float
    target_scale: float
    factor_inverse: np.ndarray    # L^{-1}, L the lower Cholesky factor of K + D + jitter I
    weights: np.ndarray           # (K + D + jitter I)^{-1} y, standardized
    jitter: float


def matern52_matrix(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    """Cross-covariance matrix between row sets a (n, d) and b (m, d):
    sv (1 + sqrt5 r + 5/3 r r) exp(-sqrt5 r), built in place in r and two
    work arrays with the closed form's operations in its order, so every
    entry has the closed form's bits."""
    ell = np.asarray(params.lengthscales, dtype=float)
    r = cdist(a / ell, b / ell)
    quad = np.multiply(5.0 / 3.0, r)
    quad *= r
    r *= SQRT5
    decay = np.negative(r)
    np.exp(decay, out=decay)
    r += 1.0
    r += quad
    r *= params.signal_variance
    r *= decay
    return r


def _factorize(gram: np.ndarray, noise_variances: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky of K + diag(noise) + jitter*I with escalating jitter, K the
    gram given. The system is built in the gram's own storage: its diagonal
    is overwritten with the last one tried, the rest is left as it is."""
    jitter = JITTER_INITIAL * float(np.mean(np.diag(gram)))
    diag = np.einsum("ii->i", gram)  # a writeable view of the diagonal
    base_diag = diag + noise_variances
    for _ in range(1 + JITTER_MAX_ESCALATIONS):
        np.add(base_diag, jitter, out=diag)
        try:
            return cholesky(gram, lower=True, check_finite=False), jitter
        except LinAlgError:
            jitter *= JITTER_GROWTH
    raise NumericError(
        f"covariance factorization failed even at jitter {jitter / JITTER_GROWTH:.3e}"
    )


def _solve_factor(factor: np.ndarray, rhs: np.ndarray, trans: int) -> np.ndarray:
    """L^{-1} rhs (trans 0) or L^{-T} rhs (trans 1), L the lower factor in
    the Fortran order cholesky returns: the dtrtrs call that scipy's
    solve_triangular makes for L and for L.T."""
    solution, info = lapack.dtrtrs(factor, rhs, lower=1, trans=trans)
    if info != 0:
        raise NumericError(f"solving with the covariance factor failed (dtrtrs info {info})")
    return solution


def _check_consistent(inputs_std: np.ndarray, targets_std: np.ndarray,
                      noise_std: np.ndarray) -> None:
    # Identical inputs with different targets and zero noise make the system
    # singular regardless of jitter; report it instead of silently averaging.
    order = np.lexsort(inputs_std.T)
    x_sorted = inputs_std[order]
    same = np.all(x_sorted[1:] == x_sorted[:-1], axis=1)
    for idx in np.nonzero(same)[0]:
        i, j = order[idx], order[idx + 1]
        if targets_std[i] != targets_std[j] and noise_std[i] == 0.0 and noise_std[j] == 0.0:
            raise NumericError(
                "singular system: duplicated input with conflicting noise-free targets"
            )


def _assemble(kernel: KernelParams, inputs_std: np.ndarray, targets_std: np.ndarray,
              noise_std: np.ndarray, input_mean: np.ndarray, input_scale: np.ndarray,
              target_mean: float, target_scale: float) -> GPModel:
    _check_consistent(inputs_std, targets_std, noise_std)
    gram = matern52_matrix(inputs_std, inputs_std, kernel)
    factor, jitter = _factorize(gram, noise_std)
    weights = _solve_factor(factor, _solve_factor(factor, targets_std, 0), 1)
    # dtrtri writes L^{-1} into the lower triangle; the upper triangle keeps
    # the zeros of cholesky's lower factor.
    factor_inverse, info = lapack.dtrtri(factor, lower=1)
    if info != 0:
        raise NumericError(f"inverting the covariance factor failed (dtrtri info {info})")
    return GPModel(
        kernel=kernel, train_inputs=inputs_std, train_targets=targets_std,
        noise_variances=noise_std, input_mean=input_mean, input_scale=input_scale,
        target_mean=target_mean, target_scale=target_scale,
        factor_inverse=factor_inverse, weights=weights, jitter=jitter,
    )


def _standardize(inputs: np.ndarray, targets: np.ndarray, noise_variances: np.ndarray):
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float).ravel()
    noise_variances = np.asarray(noise_variances, dtype=float).ravel()
    if inputs.ndim != 2:
        raise ConfigurationError("inputs must be a 2-d array (n, d)")
    n = len(inputs)
    if len(targets) != n or len(noise_variances) != n:
        raise ConfigurationError("inputs, targets, and noise_variances must have equal length")
    if np.any(noise_variances < 0.0):
        raise ConfigurationError("noise variances must be non-negative")
    input_mean = inputs.mean(axis=0)
    input_scale = inputs.std(axis=0)
    input_scale[input_scale == 0.0] = 1.0
    target_mean = float(targets.mean())
    target_scale = float(targets.std())
    if target_scale == 0.0:
        target_scale = 1.0
    inputs_std = (inputs - input_mean) / input_scale
    targets_std = (targets - target_mean) / target_scale
    noise_std = noise_variances / (target_scale * target_scale)
    return inputs_std, targets_std, noise_std, input_mean, input_scale, target_mean, target_scale


def train(inputs: np.ndarray, targets: np.ndarray, noise_variances: np.ndarray,
          kernel: KernelParams) -> GPModel:
    """Condition a GP with the given (standardized-space) kernel on data in
    raw units; noise variances are given per observation in raw target
    units squared."""
    parts = _standardize(inputs, targets, noise_variances)
    if len(parts[1]) < 2:
        raise ConfigurationError("need at least 2 training points")
    return _assemble(kernel, *parts)


def log_marginal_likelihood(inputs_std: np.ndarray, targets_std: np.ndarray,
                            noise_std: np.ndarray, kernel: KernelParams) -> float:
    """LML of standardized data under the GP prior; -inf when the covariance
    cannot be factorized."""
    gram = matern52_matrix(inputs_std, inputs_std, kernel)
    try:
        return _lml_from_gram(gram, targets_std, noise_std)[0]
    except NumericError:
        return -math.inf


def _lml_from_gram(gram: np.ndarray, targets_std: np.ndarray,
                   noise_std: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """LML of the targets under N(0, A), A = gram + diag(noise) + jitter*I
    built in gram's storage (see _factorize), with A's Cholesky factor L
    and L^{-1} y. Raises NumericError when A cannot be factorized."""
    factor, _ = _factorize(gram, noise_std)
    half = _solve_factor(factor, targets_std, 0)
    n = len(targets_std)
    lml = float(-0.5 * np.dot(half, half) - np.sum(np.log(np.diag(factor)))
                - 0.5 * n * math.log(2.0 * math.pi))
    return lml, factor, half


class _LMLObjective:
    """Negative LML and its gradient over log-hyperparameters (log signal
    variance, then one log lengthscale per dimension), with the
    per-dimension squared-difference matrices precomputed once (the
    optimizer evaluates the objective many times per restart on the same
    point set), and the n x n work arrays made once and refilled in place
    by every call, each entry with the operations of the closed form in
    its order.

    With alpha = A^{-1} y and W = alpha alpha^T - A^{-1}, each gradient
    entry is 1/2 sum(W * dA/dtheta) (GPML section 5.4.1):
    - The jitter is proportional to the signal variance, so
      dA/dlog(sv) = A - diag(noise), and sum(W * A) = y^T alpha - n.
    - dk/dlog(l_d) = sv (5/3)(1 + sqrt5 r) exp(-sqrt5 r) diff_d^2 / l_d^2.
    """

    def __init__(self, inputs_std: np.ndarray, targets_std: np.ndarray, noise_std: np.ndarray):
        self.targets = targets_std
        self.noise = noise_std
        n = len(inputs_std)
        diff = inputs_std[:, None, :] - inputs_std[None, :, :]
        self.sqdiff = diff * diff  # (n, n, d)
        self.sqdiff_rows = self.sqdiff.reshape(n * n, -1)
        self.r, self.decay, self.slope, self.gram, self.weights = (np.empty((n, n)) for _ in range(5))

    def __call__(self, log_vec: np.ndarray) -> tuple[float, np.ndarray]:
        r, decay, slope, gram, weights = self.r, self.decay, self.slope, self.gram, self.weights
        sv = math.exp(log_vec[0])
        inv_sq = np.exp(-2.0 * np.asarray(log_vec[1:]))
        np.sqrt(np.matmul(self.sqdiff, inv_sq, out=r), out=r)
        np.exp(np.multiply(-SQRT5, r, out=decay), out=decay)
        # slope = (1 + sqrt5 r) decay, gram = sv (slope + 5/3 r r decay)
        np.multiply(SQRT5, r, out=slope)
        slope += 1.0
        slope *= decay
        np.multiply(5.0 / 3.0, r, out=gram)
        gram *= r
        gram *= decay
        gram += slope
        gram *= sv
        try:
            lml, factor, half = _lml_from_gram(gram, self.targets, self.noise)
        except NumericError:
            # +inf never wins a restart: fit_hyperparams keeps only strictly
            # higher LMLs.
            return math.inf, np.zeros(len(log_vec))
        alpha = _solve_factor(factor, half, 1)
        # dpotri writes the lower triangle of A^{-1} over the factor; the
        # upper triangle keeps the zeros of cholesky's lower factor.
        inverse, _ = lapack.dpotri(factor, lower=1, overwrite_c=1)
        n = len(alpha)
        grad = np.empty(len(log_vec))
        grad[0] = 0.5 * (np.dot(half, half) - n
                         - np.dot(self.noise, alpha * alpha - np.diag(inverse)))
        # The squared differences vanish on the diagonal, so the strict lower
        # triangle of A^{-1} counted twice stands for the whole matrix.
        np.outer(alpha, alpha, out=weights)
        weights -= np.multiply(2.0, inverse, out=r)  # r is free once the gram is built
        slope *= 5.0 / 3.0 * sv
        weights *= slope
        grad[1:] = 0.5 * (weights.ravel() @ self.sqdiff_rows) * inv_sq
        return -lml, -grad


def fit_hyperparams(inputs: np.ndarray, targets: np.ndarray, noise_variances: np.ndarray,
                    restarts: int = 5, seed: int = 0) -> KernelParams:
    """Maximize the log marginal likelihood over log-hyperparameters.

    Each restart runs scipy's L-BFGS-B (analytic gradient, GPML section
    5.4.1; default tolerances) within the log bounds; the best of `restarts`
    initializations wins, ties broken by the lowest restart index. Restart
    0 is anchored at unit hyperparameters, the rest are log-uniform over
    the bounds.
    """
    inputs_std, targets_std, noise_std, *_ = _standardize(inputs, targets, noise_variances)
    n, dim = inputs_std.shape
    if n < 5:
        raise ConfigurationError(f"need at least 5 points to fit hyperparameters, got {n}")
    if restarts < 1:
        raise ConfigurationError("restarts must be >= 1")

    log_bounds = [(math.log(SIGNAL_VARIANCE_BOUNDS[0]), math.log(SIGNAL_VARIANCE_BOUNDS[1]))]
    log_bounds += [(math.log(LENGTHSCALE_BOUNDS[0]), math.log(LENGTHSCALE_BOUNDS[1]))] * dim

    def to_params(log_vec: np.ndarray) -> KernelParams:
        return KernelParams(signal_variance=math.exp(log_vec[0]),
                            lengthscales=tuple(math.exp(v) for v in log_vec[1:]))

    from scipy.optimize import minimize  # here, so that only `train` loads the optimizer
    objective = _LMLObjective(inputs_std, targets_std, noise_std)

    best_vec = None
    best_lml = -math.inf
    for restart in range(restarts):
        if restart == 0:
            vec = np.zeros(dim + 1)
        else:
            rng = np.random.default_rng(derive_seed(seed, TAG_GP_INIT, restart))
            vec = np.array([rng.uniform(lo, hi) for lo, hi in log_bounds])
        result = minimize(objective, vec, jac=True, method="L-BFGS-B", bounds=log_bounds)
        if -result.fun > best_lml:
            best_lml = -result.fun
            best_vec = result.x
    if best_vec is None or not math.isfinite(best_lml):
        raise NumericError("hyperparameter search failed: no factorizable candidate found")
    logger.debug("fit_hyperparams: lml=%.4f params=%s", best_lml, to_params(best_vec))
    return to_params(best_vec)


def predict_batch(model: GPModel, points: np.ndarray,
                  include_noise: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and std at many points (raw units).

    The predictive variance is epistemic only; include_noise adds the mean
    training noise variance as a homoscedastic stand-in. Rows are evaluated
    PREDICT_BLOCK_ROWS at a time, which bounds the (n_train, rows) kernel
    matrices for long weather sequences. Each block's variance reduction is
    |L^{-1} k*|^2, one matrix product with the stored inverse factor.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    points_std = (points - model.input_mean) / model.input_scale
    mean_std = np.empty(len(points_std))
    var = np.empty(len(points_std))
    for start in range(0, len(points_std), PREDICT_BLOCK_ROWS):
        rows = slice(start, start + PREDICT_BLOCK_ROWS)
        kstar = matern52_matrix(model.train_inputs, points_std[rows], model.kernel)
        mean_std[rows] = kstar.T @ model.weights
        half = model.factor_inverse @ kstar
        var[rows] = model.kernel.signal_variance - np.einsum("ij,ij->j", half, half)
    if include_noise:
        var = var + float(np.mean(model.noise_variances))
    var = np.maximum(var, 0.0)
    mean = model.target_mean + model.target_scale * mean_std
    std = model.target_scale * np.sqrt(var)
    return mean, std


def subsample_cap(n: int, n_max: int, seed: int) -> np.ndarray:
    """Sorted indices of a seeded subsample, identity when n <= n_max."""
    if n <= n_max:
        return np.arange(n)
    rng = np.random.default_rng(derive_seed(seed, TAG_SUBSAMPLE))
    idx = np.sort(rng.choice(n, size=n_max, replace=False))
    logger.info("capping GP training set: %d -> %d points", n, n_max)
    return idx


def save_model(path: str | Path, model: GPModel) -> None:
    """Persist a model as self-describing JSON; floats round-trip exactly."""
    payload = {
        "format_version": FORMAT_VERSIONS["gp_model"],
        "kernel": {
            "signal_variance": model.kernel.signal_variance,
            "lengthscales": list(model.kernel.lengthscales),
        },
        "standardization": {
            "input_mean": model.input_mean.tolist(),
            "input_scale": model.input_scale.tolist(),
            "target_mean": model.target_mean,
            "target_scale": model.target_scale,
        },
        "train_inputs": model.train_inputs.tolist(),
        "train_targets": model.train_targets.tolist(),
        "noise_variances": model.noise_variances.tolist(),
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def load_model(path: str | Path) -> GPModel:
    path = Path(path)
    payload = read_json_object(path)
    version = payload.get("format_version")
    # An exact JSON integer: true and 1.0 also equal 1.
    if type(version) is not int or version != FORMAT_VERSIONS["gp_model"]:
        raise SchemaError(f"{path}: unsupported format version {version!r}")
    try:
        kernel = KernelParams(
            signal_variance=json_float(payload["kernel"]["signal_variance"]),
            lengthscales=tuple(json_float(v) for v in payload["kernel"]["lengthscales"]),
        )
        std = payload["standardization"]
        arrays = [json_floats(v) for v in (
            payload["train_inputs"], payload["train_targets"], payload["noise_variances"],
            std["input_mean"], std["input_scale"])]
        target_mean, target_scale = json_float(std["target_mean"]), json_float(std["target_scale"])
        d = len(kernel.lengthscales)
        if arrays[0].ndim != 2 or arrays[0].shape[1] != d or {a.shape for a in arrays[3:]} != {(d,)}:
            raise ValueError(f"train_inputs of shape {arrays[0].shape} need one column per "
                             f"lengthscale, input_mean and input_scale entry ({d})")
        if {a.shape for a in arrays[1:3]} != {(len(arrays[0]),)}:
            raise ValueError(f"train_targets and noise_variances need one entry per train_inputs "
                             f"row ({len(arrays[0])}), got shapes {arrays[1].shape}, {arrays[2].shape}")
        if not all(np.isfinite(a).all() for a in [*arrays, target_mean, target_scale]):
            raise ValueError("non-finite values")
        noise_variances, input_scale = arrays[2], arrays[4]
        if (noise_variances < 0.0).any() or (input_scale <= 0.0).any() or target_scale <= 0.0:
            raise ValueError("negative noise variance or non-positive scale")
        return _assemble(kernel, *arrays, target_mean, target_scale)
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise SchemaError(f"{path}: malformed model file: {exc}")
