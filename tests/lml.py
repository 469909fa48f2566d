"""The negative log marginal likelihood of a GP and its gradient over
log-hyperparameters, the oracle the objective's tests hold
gp._LMLObjective to bit for bit: the closed forms of the Matern-5/2 gram,
the jitter escalation and the GPML section 5.4.1 gradient, written with
fresh arrays at every step, scipy's cholesky and solve_triangular."""

import math

import numpy as np
from scipy.linalg import LinAlgError, cholesky, lapack, solve_triangular

from searesponse import gp

SQRT5 = math.sqrt(5.0)


def factorize(gram: np.ndarray, noise: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of gram + diag(noise) + jitter I, the jitter
    escalating as gp's does; None when every jitter fails."""
    system = gram + np.diag(noise)
    jitter = gp.JITTER_INITIAL * float(np.mean(np.diag(gram)))
    diag = np.diag_indices_from(system)
    base_diag = system[diag].copy()
    for _ in range(1 + gp.JITTER_MAX_ESCALATIONS):
        system[diag] = base_diag + jitter
        try:
            return cholesky(system, lower=True, check_finite=False)
        except LinAlgError:
            jitter *= gp.JITTER_GROWTH
    return None


def negative_lml(inputs_std: np.ndarray, targets_std: np.ndarray, noise_std: np.ndarray,
                 log_vec: np.ndarray) -> tuple[float, np.ndarray]:
    """(-LML, -gradient) at log_vec = (log sv, log lengthscales...), and
    (inf, zeros) where the covariance cannot be factorized."""
    sv = math.exp(log_vec[0])
    inv_sq = np.exp(-2.0 * np.asarray(log_vec[1:]))
    diff = inputs_std[:, None, :] - inputs_std[None, :, :]
    sqdiff = diff * diff
    r = np.sqrt(sqdiff @ inv_sq)
    decay = np.exp(-SQRT5 * r)
    slope = (1.0 + SQRT5 * r) * decay
    gram = sv * (slope + 5.0 / 3.0 * r * r * decay)
    factor = factorize(gram, noise_std)
    if factor is None:
        return math.inf, np.zeros(len(log_vec))
    n = len(targets_std)
    half = solve_triangular(factor, targets_std, lower=True, check_finite=False)
    lml = float(-0.5 * np.dot(half, half) - np.sum(np.log(np.diag(factor)))
                - 0.5 * n * math.log(2.0 * math.pi))
    alpha = solve_triangular(factor.T, half, lower=False, check_finite=False)
    inverse, _ = lapack.dpotri(factor, lower=1)  # lower triangle of A^{-1}
    grad = np.empty(len(log_vec))
    grad[0] = 0.5 * (np.dot(half, half) - n
                     - np.dot(noise_std, alpha * alpha - np.diag(inverse)))
    weights = np.outer(alpha, alpha)
    weights -= 2.0 * inverse
    weights *= (5.0 / 3.0 * sv) * slope
    grad[1:] = 0.5 * (weights.ravel() @ sqdiff.reshape(n * n, -1)) * inv_sq
    return -lml, -grad
