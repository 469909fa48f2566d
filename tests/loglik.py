"""Log-likelihoods of the fitted families, the oracle the fitters' tests
score an MLE against: each is the sum of the family's log density in
nats, in the parameter order of DistFamily.param_names."""

import math

import numpy as np

from searesponse.distfit import DistFamily


def rayleigh_loglik(x: np.ndarray, sigma: float) -> float:
    n = len(x)
    return float(np.sum(np.log(x)) - 2.0 * n * math.log(sigma) - np.sum(x * x) / (2.0 * sigma * sigma))


def gumbel_loglik(x: np.ndarray, mu: float, beta: float) -> float:
    z = (x - mu) / beta
    return float(-len(x) * math.log(beta) - np.sum(z) - np.sum(np.exp(-z)))


def weibull_loglik(x: np.ndarray, k: float, lam: float) -> float:
    n = len(x)
    return float(
        n * math.log(k) - n * k * math.log(lam)
        + (k - 1.0) * np.sum(np.log(x)) - np.sum((x / lam) ** k)
    )


LOGLIKS = {
    DistFamily.GUMBEL: gumbel_loglik,
    DistFamily.RAYLEIGH: rayleigh_loglik,
    DistFamily.WEIBULL: weibull_loglik,
}
