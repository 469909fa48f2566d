"""Reference values computed apart from the program under test.

Everything here is rebuilt from the documented model, not imported from
`searesponse`:

- the simulator's JONSWAP wave spectrum (peak enhancement 3.3, m0 = Hs^2/16
  by trapezoid on the transform grid), its single-DOF transfer function and
  its thrust-curve wind offset, combined with Rice's up-crossing rate
  (Rice, "Mathematical Analysis of Random Noise", 1944-45) to predict peak
  counts and the exceedance curve of the peaks;
- the GP predictive moments, log marginal likelihood and residuals at the
  training inputs of a saved model file (Rasmussen & Williams, GPML, 2006,
  Alg. 2.1), from its stored standardized training data and kernel;
- the expected Y_k of a Weibull surrogate, from the exceedance curve
  integrated over Gaussian parameter draws by Gauss-Legendre quadrature
  in probability space.

Y_k is read off an exceedance curve Lambda(y) (expected number of peaks
above y over the whole sequence) as the level where Lambda(y) = k; its
spread across realizations is about sqrt(k) / |Lambda'(y)|, the Poisson
count spread mapped through the curve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.optimize import brentq
from scipy.stats import norm

PEAK_ENHANCEMENT = 3.3
SQRT5 = math.sqrt(5.0)
# Quadrature orders of the Weibull shape and scale draws in `weibull_yk`.
# When the shape's std is a sizeable share of its mean, draws near the floor
# carry the tail and 16 shape nodes are not enough.
SHAPE_NODES = 64
SCALE_NODES = 16

# The structure model the benchmark hands to the program as --sim-config;
# every key is documented in the program's README.
SIM_CONFIG = {
    "dt": 0.5, "duration": 3600.0,
    "omega0": 0.65, "zeta": 0.10, "gain": 3.2e4,
    "rated_speed": 11.0, "cutout_speed": 25.0, "rated_force": 100.0,
    "lever_arm": 50.0,
}


@dataclass(frozen=True)
class Curve:
    """Y_k read off an exceedance curve, with its expected spread."""

    yk: float
    yk_std: float  # std of Y_k across realizations (Poisson approximation)


def omega_grid(cfg: dict) -> np.ndarray:
    """rfft bin frequencies for duration/dt samples padded to a power of two."""
    n_fft = 1 << math.ceil(math.log2(round(cfg["duration"] / cfg["dt"])))
    return 2.0 * np.pi * np.fft.rfftfreq(n_fft, d=cfg["dt"])


def jonswap(hs: float, tp: float, omega: np.ndarray) -> np.ndarray:
    """JONSWAP density on the grid, rescaled so its trapezoid m0 is hs^2/16."""
    wp = 2.0 * np.pi / tp
    w = omega[1:]
    sigma = np.where(w > wp, 0.09, 0.07)
    shape = (w**-5.0 * np.exp(-1.25 * (wp / w) ** 4)
             * PEAK_ENHANCEMENT ** np.exp(-0.5 * ((w - wp) / (sigma * wp)) ** 2))
    density = np.concatenate([[0.0], shape])
    return density * (hs * hs / 16.0) / np.trapezoid(density, omega)


def sdof_gain_sq(omega: np.ndarray, cfg: dict) -> np.ndarray:
    w0sq = cfg["omega0"] ** 2
    return (cfg["gain"] ** 2 * w0sq * w0sq
            / ((w0sq - omega**2) ** 2 + (2.0 * cfg["zeta"] * cfg["omega0"] * omega) ** 2))


def wind_offset(vw: float, cfg: dict) -> float:
    if vw < cfg["rated_speed"]:
        force = cfg["rated_force"] * (vw / cfg["rated_speed"]) ** 3
    elif vw <= cfg["cutout_speed"]:
        force = cfg["rated_force"]
    else:
        force = 0.0
    return force * cfg["lever_arm"]


def response_moments(hs: np.ndarray, tp: np.ndarray, cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """(m0, m2) of the realized response for each (hs, tp).

    The realization gives every bin but DC and Nyquist the power S(w) dw, so
    the moments are those bin sums, not the trapezoid integral.
    """
    omega = omega_grid(cfg)
    domega = omega[1]
    gain = sdof_gain_sq(omega, cfg)[1:-1]
    w2 = omega[1:-1] ** 2
    m0 = np.empty(len(hs))
    m2 = np.empty(len(hs))
    for i, (h, t) in enumerate(zip(hs, tp)):
        s = jonswap(float(h), float(t), omega)[1:-1] * gain
        m0[i] = s.sum() * domega
        m2[i] = (s * w2).sum() * domega
    return m0, m2


def crossings(m0: np.ndarray, m2: np.ndarray, cfg: dict) -> np.ndarray:
    """Expected mean-level up-crossings per run, T sqrt(m2/m0) / 2pi."""
    return cfg["duration"] * np.sqrt(m2 / m0) / (2.0 * np.pi)


def _solve(log_excess, k: int, lo: float, hi: float) -> float:
    """Root of log Lambda(y) - log k on [lo, hi], widening hi as needed."""
    target = math.log(k)
    while log_excess(hi) > target:
        hi = lo + 2.0 * (hi - lo)
    return brentq(lambda y: log_excess(y) - target, lo, hi, xtol=1e-12, rtol=1e-12)


def rice_yk(count: np.ndarray, m0: np.ndarray, offset: np.ndarray, k: int) -> Curve:
    """Y_k of a sequence of runs whose peaks exceed y about
    count * exp(-(y - offset)^2 / 2 m0) times each (Rice; Rayleigh peaks)."""

    def terms(y):
        return np.log(count) - (y - offset) ** 2 / (2.0 * m0)

    def log_excess(y):
        t = terms(y)
        top = t.max()
        return top + math.log(np.exp(t - top).sum())

    lo = float(offset.max())
    if log_excess(lo) <= math.log(k):
        raise ValueError(f"fewer than {k} expected peaks above the largest offset")
    yk = _solve(log_excess, k, lo, lo + 10.0 * math.sqrt(float(m0.max())))
    slope = float(np.sum(np.exp(terms(yk)) * (yk - offset) / m0))
    return Curve(yk=yk, yk_std=math.sqrt(k) / slope)


def simulator_yk(hs: np.ndarray, tp: np.ndarray, vw: np.ndarray, k: int, cfg: dict) -> Curve:
    """Y_k of the simulator over an hourly sequence by Rice's formula: hour h
    has T nu_h mean-level up-crossings, nu_h = sqrt(m2/m0) / 2pi, and the
    wind offset w_h."""
    m0, m2 = response_moments(hs, tp, cfg)
    offset = np.array([wind_offset(float(v), cfg) for v in vw])
    return rice_yk(crossings(m0, m2, cfg), m0, offset, k)


def load_gp(path: str | Path) -> dict:
    """Arrays of one saved GP model file (standardized units)."""
    raw = json.loads(Path(path).read_text())
    std = raw["standardization"]
    return {
        "signal_variance": float(raw["kernel"]["signal_variance"]),
        "lengthscales": np.asarray(raw["kernel"]["lengthscales"], dtype=float),
        "x": np.asarray(raw["train_inputs"], dtype=float),
        "y": np.asarray(raw["train_targets"], dtype=float),
        "noise": np.asarray(raw["noise_variances"], dtype=float),
        "input_mean": np.asarray(std["input_mean"], dtype=float),
        "input_scale": np.asarray(std["input_scale"], dtype=float),
        "target_mean": float(std["target_mean"]),
        "target_scale": float(std["target_scale"]),
    }


def matern52(a: np.ndarray, b: np.ndarray, sv: float, ell: np.ndarray) -> np.ndarray:
    r = np.sqrt((((a[:, None, :] - b[None, :, :]) / ell) ** 2).sum(axis=-1))
    return sv * (1.0 + SQRT5 * r + 5.0 / 3.0 * r * r) * np.exp(-SQRT5 * r)


def _factor(gp: dict, sv: float, ell: np.ndarray) -> np.ndarray:
    """Cholesky of K + diag(noise) + jitter I; the jitter starts at 1e-8 of
    the mean kernel diagonal and grows by 100 at most three times."""
    system = matern52(gp["x"], gp["x"], sv, ell) + np.diag(gp["noise"])
    jitter = 1e-8 * sv
    for _ in range(4):
        try:
            return cholesky(system + jitter * np.eye(len(system)), lower=True)
        except np.linalg.LinAlgError:
            jitter *= 100.0
    raise np.linalg.LinAlgError("covariance not positive definite at any jitter")


def gp_lml(gp: dict, sv: float | None = None, ell: np.ndarray | None = None) -> float:
    """Log marginal likelihood of the model's standardized data; the stored
    hyperparameters unless others are given."""
    sv = gp["signal_variance"] if sv is None else sv
    ell = gp["lengthscales"] if ell is None else ell
    factor = _factor(gp, sv, ell)
    half = solve_triangular(factor, gp["y"], lower=True)
    n = len(gp["y"])
    return float(-0.5 * half @ half - np.log(np.diag(factor)).sum() - 0.5 * n * math.log(2 * math.pi))


def gp_moments(gp: dict, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and epistemic std at raw-unit points, in raw units."""
    sv, ell = gp["signal_variance"], gp["lengthscales"]
    factor = _factor(gp, sv, ell)
    alpha = solve_triangular(factor.T, solve_triangular(factor, gp["y"], lower=True), lower=False)
    kstar = matern52(gp["x"], (points - gp["input_mean"]) / gp["input_scale"], sv, ell)
    v = solve_triangular(factor, kstar, lower=True)
    var = np.maximum(sv - (v * v).sum(axis=0), 0.0)
    return gp["target_mean"] + gp["target_scale"] * (kstar.T @ alpha), gp["target_scale"] * np.sqrt(var)


def training_residuals(gp: dict) -> np.ndarray:
    """|posterior mean - target| at each training input, in units of the
    posterior std combined with that point's noise std (raw units, so the
    model file's standardization is exercised too)."""
    points = gp["x"] * gp["input_scale"] + gp["input_mean"]
    mean, std = gp_moments(gp, points)
    target = gp["target_mean"] + gp["target_scale"] * gp["y"]
    return np.abs(mean - target) / np.sqrt(std * std + gp["noise"] * gp["target_scale"] ** 2)


def floored_draw(mean: np.ndarray, std: np.ndarray, floor: np.ndarray,
                 nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights, one row per hour, for a value drawn from
    N(mean, std), drawn once more if below the floor and then clamped to it.

    With p = P(N < floor) that value has density (1 + p) N(v) above the floor
    and mass p^2 at it. The density part is integrated by Gauss-Legendre in
    the normal's probability u over [p, 1], at v = mean + std Phi^-1(u), which
    puts nodes in both tails. A zero std gives the single value
    max(mean, floor).
    """
    z, w = np.polynomial.legendre.leggauss(nodes)
    spread = std > 0
    p = np.where(spread, norm.cdf((floor - mean) / np.where(spread, std, 1.0)), 0.0)
    u = p[:, None] + (1.0 - p)[:, None] * 0.5 * (z + 1.0)
    x = mean[:, None] + std[:, None] * norm.ppf(u)
    weight = np.where(spread[:, None], (1.0 - p * p)[:, None] * 0.5 * w, 0.0)
    x = np.column_stack([x, np.where(spread, floor, np.maximum(mean, floor))])
    weight = np.column_stack([weight, np.where(spread, p * p, 1.0)])
    return x, weight


def weibull_yk(shape: tuple[np.ndarray, np.ndarray], scale: tuple[np.ndarray, np.ndarray],
               count: tuple[np.ndarray, np.ndarray], k: int) -> Curve:
    """Y_k of Weibull peaks with per-hour Gaussian parameter draws.

    Each argument is (mean, std) per hour. In every hour the shape and scale
    are drawn independently (floors 0.1 |mean| and 1e-6 |mean|, see
    `floored_draw`) and the count L from its Gaussian clamped at zero, so
    with S the survival exp(-(y / scale)^shape), Lambda(y) = sum_h E[L] E[S].
    An hour's exceedance count is Binomial(L, S) with L and S random, so its
    variance E[L]E[S] - E[L]E[S^2] + E[L^2]E[S^2] - (E[L]E[S])^2 exceeds
    the Poisson value when a draw fattens the tail; Y_k's spread uses it.
    """
    k_x, k_w = floored_draw(*shape, 0.1 * np.abs(shape[0]), SHAPE_NODES)
    lam_x, lam_w = floored_draw(*scale, 1e-6 * np.abs(scale[0]), SCALE_NODES)
    mu, sd = count
    ratio = np.divide(mu, sd, out=np.full_like(mu, np.inf), where=sd > 0)
    mean_count = np.where(sd > 0, mu * norm.cdf(ratio) + sd * norm.pdf(ratio), np.maximum(mu, 0.0))
    kk = k_x[:, :, None]                      # (hours, shape node, 1)
    log_lam = np.log(lam_x)[:, None, :]       # (hours, 1, scale node)
    weights = k_w[:, :, None] * lam_w[:, None, :]

    def survival(y, power=1):
        out = np.empty(len(kk))
        for i in range(0, len(kk), 512):  # bounds the temporaries' memory
            part = slice(i, i + 512)
            tail = np.exp(-power * np.exp(kk[part] * (math.log(y) - log_lam[part])))
            out[part] = (weights[part] * tail).sum(axis=(1, 2))
        return out

    def excess(y):
        return float(mean_count @ survival(y))

    total = float(mean_count.sum())
    if total <= k:
        raise ValueError(f"expected {total:.1f} peaks in all, fewer than k={k}")
    top = float(lam_x.max())
    yk = _solve(lambda y: math.log(max(excess(y), 1e-300)), k, 1e-12 * top, top)
    s1, s2 = survival(yk), survival(yk, 2)
    var = mean_count * (s1 - s2) + (mu * mu + sd * sd) * s2 - (mean_count * s1) ** 2
    step = 1e-4 * yk
    slope = (excess(yk - step) - excess(yk + step)) / (2.0 * step)
    return Curve(yk=yk, yk_std=math.sqrt(float(var.sum())) / slope)
