"""The benchmark's references against sampled truth and the documented model."""

import math

import numpy as np
import pytest

import reference
from searesponse import gp as program_gp
from searesponse.simulator import SimConfig, wave_spectrum

CFG = reference.SIM_CONFIG


def test_rice_yk_matches_rayleigh_peak_stream():
    # Rice's exceedance curve is exact for Rayleigh peaks above an offset:
    # 300 runs of 40 peaks each with known m0 and offset give a known Y_k.
    rng = np.random.default_rng(5)
    hours, per_hour, k, reps = 300, 40, 50, 400
    m0 = rng.uniform(0.5, 2.0, hours)
    offset = rng.uniform(0.0, 1.0, hours)
    curve = reference.rice_yk(np.full(hours, float(per_hour)), m0, offset, k)
    samples = np.empty(reps)
    for r in range(reps):
        peaks = offset[:, None] + rng.rayleigh(np.sqrt(m0)[:, None], size=(hours, per_hour))
        samples[r] = np.partition(peaks.ravel(), -k)[-k]
    assert samples.mean() == pytest.approx(curve.yk, abs=4.0 * samples.std() / math.sqrt(reps))
    assert samples.std() == pytest.approx(curve.yk_std, rel=0.2)


def test_crossings_match_a_sampled_gaussian_series():
    # A random-phase series with the reference's response spectrum crosses
    # its mean about T sqrt(m2/m0) / 2pi times.
    omega = reference.omega_grid(CFG)
    density = reference.jonswap(4.0, 9.0, omega) * reference.sdof_gain_sq(omega, CFG)
    n_fft = 2 * (len(omega) - 1)
    n = int(CFG["duration"] / CFG["dt"])
    rng = np.random.default_rng(3)
    counts = []
    for _ in range(40):
        spectrum = (n_fft / 2.0) * np.sqrt(2.0 * density * omega[1]) * np.exp(
            2j * np.pi * rng.uniform(size=len(omega)))
        spectrum[0] = spectrum[-1] = 0.0
        x = np.fft.irfft(spectrum, n=n_fft)[:n]
        x -= x.mean()
        counts.append(np.count_nonzero((x[:-1] <= 0.0) & (x[1:] > 0.0)))
    m0, m2 = reference.response_moments(np.array([4.0]), np.array([9.0]), CFG)
    assert np.mean(counts) == pytest.approx(reference.crossings(m0, m2, CFG)[0], rel=0.02)


@pytest.mark.parametrize("hs,tp", [(0.5, 4.5), (3.0, 10.0), (11.0, 19.0)])
def test_jonswap_is_the_documented_spectrum(hs, tp):
    omega = reference.omega_grid(CFG)
    assert np.array_equal(omega, SimConfig().omega_grid)
    ours = reference.jonswap(hs, tp, omega)
    assert np.trapezoid(ours, omega) == pytest.approx(hs * hs / 16.0, rel=1e-12)
    np.testing.assert_allclose(ours, wave_spectrum(hs, tp, omega).density,
                               rtol=1e-12, atol=1e-12 * ours.max())


def test_wind_offset_follows_the_thrust_curve():
    assert reference.wind_offset(0.0, CFG) == 0.0
    assert reference.wind_offset(5.5, CFG) == pytest.approx(100.0 * 50.0 / 8.0)
    assert reference.wind_offset(25.0, CFG) == 100.0 * 50.0
    assert reference.wind_offset(25.1, CFG) == 0.0


@pytest.fixture(scope="module")
def saved_gp(tmp_path_factory):
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 5.0, size=(40, 3))
    y = np.sin(x[:, 0]) + 0.3 * x[:, 1] * x[:, 2]
    noise = rng.uniform(0.001, 0.01, 40)
    kernel = program_gp.KernelParams(signal_variance=1.7, lengthscales=(0.8, 1.3, 2.1))
    model = program_gp.train(x, y, noise, kernel)
    path = tmp_path_factory.mktemp("gp") / "gp_target.json"
    program_gp.save_model(path, model)
    return model, path


def test_gp_moments_match_program_prediction(saved_gp):
    model, path = saved_gp
    points = np.random.default_rng(2).uniform(0.0, 5.0, size=(25, 3))
    mean, std = reference.gp_moments(reference.load_gp(path), points)
    want_mean, want_std = program_gp.predict_batch(model, points)
    np.testing.assert_allclose(mean, want_mean, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(std, want_std, rtol=1e-6, atol=1e-10)


def test_gp_lml_matches_program(saved_gp):
    model, path = saved_gp
    gp = reference.load_gp(path)
    for sv, ell in ((None, None), (1.0, np.ones(3))):
        kernel = program_gp.KernelParams(
            signal_variance=model.kernel.signal_variance if sv is None else sv,
            lengthscales=model.kernel.lengthscales if ell is None else tuple(ell))
        want = program_gp.log_marginal_likelihood(
            model.train_inputs, model.train_targets, model.noise_variances, kernel)
        assert reference.gp_lml(gp, sv, ell) == pytest.approx(want, rel=1e-9)


def test_training_residuals_are_standardized_by_predictive_and_noise_std(saved_gp):
    model, path = saved_gp
    gp = reference.load_gp(path)
    mean, std = program_gp.predict_batch(model, model.train_inputs * model.input_scale
                                         + model.input_mean)
    target = gp["target_mean"] + gp["target_scale"] * gp["y"]
    noise_std = np.sqrt(gp["noise"]) * gp["target_scale"]
    np.testing.assert_allclose(reference.training_residuals(gp),
                               np.abs(mean - target) / np.hypot(std, noise_std), rtol=1e-6)


def test_weibull_yk_without_parameter_spread_is_closed_form():
    hours, per_hour, k = 500, 30.0, 100
    shape, scale = 1.8, 2.0e5
    curve = reference.weibull_yk((np.full(hours, shape), np.zeros(hours)),
                                 (np.full(hours, scale), np.zeros(hours)),
                                 (np.full(hours, per_hour), np.zeros(hours)), k)
    assert curve.yk == pytest.approx(scale * math.log(hours * per_hour / k) ** (1.0 / shape), rel=1e-9)


def floored(rng, mean, std, floor):
    """The surrogate's draw: N(mean, std), once more if below the floor, then clamped."""
    value = rng.normal(mean, std)
    again = value < floor
    value[again] = rng.normal(mean[again], std[again])
    return np.maximum(value, floor)


def test_floored_draw_weights_are_a_distribution():
    mean = np.array([2.0, 0.3, 1.0, 0.05])
    std = np.array([0.5, 0.4, 0.0, 0.0])
    floor = np.array([0.2, 0.25, 0.1, 0.1])
    x, w = reference.floored_draw(mean, std, floor, 16)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=1e-9)
    assert x[2, -1] == 1.0 and w[2, -1] == 1.0 and x[3, -1] == 0.1
    draws = floored(np.random.default_rng(4), np.full(400_000, 0.3), np.full(400_000, 0.4), 0.25)
    assert (w[1] * x[1]).sum() == pytest.approx(draws.mean(), rel=3e-3)
    assert w[1, -1] == pytest.approx(np.mean(draws == 0.25), rel=0.05)


@pytest.mark.parametrize("shape_mean,shape_std", [((1.5, 2.5), (0.02, 0.2)), ((1.4, 1.8), (0.3, 0.4))])
def test_weibull_yk_matches_sampled_surrogate_draws(shape_mean, shape_std):
    # Per run: shape and scale drawn from their Gaussians with the floors,
    # the count from its Gaussian rounded and clamped at zero, then Weibull
    # values. Wide shape draws in the second case fatten some hours' tails.
    rng = np.random.default_rng(9)
    hours, k, reps = 200, 60, 300
    shape = (rng.uniform(*shape_mean, hours), rng.uniform(*shape_std, hours))
    scale = (rng.uniform(1.0, 3.0, hours), rng.uniform(0.01, 0.2, hours))
    count = (rng.uniform(20.0, 60.0, hours), rng.uniform(0.5, 5.0, hours))
    curve = reference.weibull_yk(shape, scale, count, k)
    samples = np.empty(reps)
    for r in range(reps):
        kk = floored(rng, *shape, 0.1 * shape[0])
        lam = floored(rng, *scale, 1e-6 * scale[0])
        n = np.maximum(np.rint(rng.normal(*count)), 0).astype(int)
        values = np.concatenate([l * rng.weibull(s, size=c) for s, l, c in zip(kk, lam, n)])
        samples[r] = np.partition(values, -k)[-k]
    assert samples.mean() == pytest.approx(curve.yk, abs=4.0 * samples.std() / math.sqrt(reps))
    assert samples.std() == pytest.approx(curve.yk_std, rel=0.3)
