import json
import math

import numpy as np
import pytest
from scipy import stats

from searesponse import gp, surrogate
from searesponse.distfit import DistFamily, TrainingTable, fit_family
from searesponse.errors import ConfigurationError, InsufficientDataError
from searesponse.orderstats import MODE_FROZEN, MODE_POINT, MODE_SAMPLE
from searesponse.simulator import simulate
from searesponse.surrogate import (
    SCALE_FLOOR_FACTOR,
    evaluate_surrogate,
    exceedance_threshold,
    generate_from_moments,
    hours_outside_training_box,
    load_surrogate,
    predict_moments_batch,
    save_surrogate,
    train_surrogate,
)
from searesponse.weather import (
    WeatherRecord,
    sample_uniform_inputs,
    synthesize_weather,
)

from loglik import LOGLIKS

RESTARTS = 2


def fixed_moments(theta, l_moments, n_hours=1):
    """The same (mean, std) per parameter and for L at every hour."""
    targets = np.array([*theta, l_moments], dtype=float)   # (p+1, 2)
    return np.tile(targets[:, 0], (n_hours, 1)), np.tile(targets[:, 1], (n_hours, 1))


# A k beyond every count in these tests: the threshold sits at the bottom of
# the support, so a draw returns every peak of its realization.
ALL_PEAKS = 10**9


def draw(family, moments, mode, seed):
    """One realization from generate_from_moments: the draw and all values."""
    result = generate_from_moments(family, moments, mode, np.random.default_rng(seed), ALL_PEAKS)
    return result, result.peaks


def moments_at(model, *points):
    return predict_moments_batch(model, np.array(points, dtype=float))


def synthetic_table(n=30, include_gumbel=True, seed=0):
    """A train-split table with smooth parameter surfaces and small noise,
    no simulator."""
    rng = np.random.default_rng(seed)
    inputs = np.array([[rng.uniform(1, 8), rng.uniform(5, 15), rng.uniform(0, 20)]
                       for _ in range(n)])
    hs = inputs[:, 0]
    sigma = 1000.0 * hs + 50.0 * inputs[:, 1]
    gumbel = np.column_stack([0.9 * sigma, 0.5 * sigma, 0.01 * sigma, 0.005 * sigma])
    if not include_gumbel:
        gumbel[:] = np.nan
    return TrainingTable(
        inputs=inputs,
        means={DistFamily.GUMBEL: gumbel[:, :2], DistFamily.RAYLEIGH: sigma[:, None],
               DistFamily.WEIBULL: np.column_stack([2.0 + 0.05 * hs, sigma * math.sqrt(2.0)])},
        stds={DistFamily.GUMBEL: gumbel[:, 2:], DistFamily.RAYLEIGH: 0.01 * sigma[:, None],
              DistFamily.WEIBULL: np.column_stack([np.full(n, 0.02), 0.01 * sigma])},
        l_mean=300.0 + 10.0 * hs, l_std=np.full(n, 5.0), test=np.zeros(n, dtype=bool),
    )


@pytest.fixture(scope="module")
def rayleigh_model(small_table):
    return train_surrogate(small_table, DistFamily.RAYLEIGH, RESTARTS, seed=7)


class TestTrainSurrogate:
    def test_gumbel_arity(self):
        model = train_surrogate(synthetic_table(), DistFamily.GUMBEL, RESTARTS, seed=1)
        assert tuple(model.models) == ("mu", "beta", "l_count")

    def test_rayleigh_arity(self):
        model = train_surrogate(synthetic_table(), DistFamily.RAYLEIGH, RESTARTS, seed=1)
        assert tuple(model.models) == ("sigma", "l_count")

    def test_table_values_consumed_verbatim(self):
        table = synthetic_table(25)
        table.inputs[0] = 3.2, 11.3, 1.2
        table.means[DistFamily.GUMBEL][0] = 75371.0, 20983.0
        table.stds[DistFamily.GUMBEL][0] = 891.0, 530.0
        model = train_surrogate(table, DistFamily.GUMBEL, RESTARTS, seed=1)
        mu_gp = model.models["mu"]
        raw_targets = mu_gp.target_mean + mu_gp.target_scale * mu_gp.train_targets
        raw_inputs = mu_gp.train_inputs * mu_gp.input_scale + mu_gp.input_mean
        i = int(np.argmin(np.abs(raw_inputs[:, 0] - 3.2)))
        assert raw_inputs[i] == pytest.approx([3.2, 11.3, 1.2], rel=1e-9)
        assert raw_targets[i] == pytest.approx(75371.0, rel=1e-9)
        raw_noise = mu_gp.noise_variances * mu_gp.target_scale**2
        assert raw_noise[i] == pytest.approx(891.0**2, rel=1e-9)
        beta_gp = model.models["beta"]
        raw_beta = beta_gp.target_mean + beta_gp.target_scale * beta_gp.train_targets
        assert raw_beta[i] == pytest.approx(20983.0, rel=1e-9)

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            train_surrogate(synthetic_table(10), DistFamily.RAYLEIGH, RESTARTS, seed=1)

    def test_missing_family_rows_excluded(self):
        table = synthetic_table(40, include_gumbel=False)
        with pytest.raises(InsufficientDataError):
            train_surrogate(table, DistFamily.GUMBEL, RESTARTS, seed=1)
        model = train_surrogate(table, DistFamily.WEIBULL, RESTARTS, seed=1)
        assert tuple(model.models) == ("k", "lambda", "l_count")

    def test_test_rows_excluded(self):
        table = synthetic_table(30)
        table.test[:15] = True
        with pytest.raises(InsufficientDataError, match="got 15$"):
            train_surrogate(table, DistFamily.RAYLEIGH, RESTARTS, seed=1)

    def test_count_trained_on_l_columns(self):
        # The last target column is L: its GP sees l_mean and l_std^2.
        table = synthetic_table(25)
        model = train_surrogate(table, DistFamily.RAYLEIGH, RESTARTS, seed=1)
        l_gp = model.models["l_count"]
        raw = l_gp.target_mean + l_gp.target_scale * l_gp.train_targets
        assert sorted(raw) == pytest.approx(sorted(table.l_mean), rel=1e-12)
        assert l_gp.noise_variances * l_gp.target_scale**2 == pytest.approx(np.full(25, 25.0))

    def test_targets_out_of_order_rejected(self):
        model = train_surrogate(synthetic_table(), DistFamily.RAYLEIGH, RESTARTS, seed=1)
        with pytest.raises(ConfigurationError, match="one model per target"):
            surrogate.SurrogateModel(DistFamily.RAYLEIGH, dict(reversed(model.models.items())))


class TestPredictParams:
    """Parameter and count draws of generate_from_moments."""

    def test_deterministic_in_sample_mode(self, rayleigh_model):
        moments = moments_at(rayleigh_model, [4.0, 10.0, 5.0], [3.0, 9.0, 2.0])
        a, _ = draw(DistFamily.RAYLEIGH, moments, MODE_SAMPLE, seed=5)
        b, _ = draw(DistFamily.RAYLEIGH, moments, MODE_SAMPLE, seed=5)
        c, _ = draw(DistFamily.RAYLEIGH, moments, MODE_SAMPLE, seed=6)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert not np.array_equal(a.theta, c.theta)

    def test_point_mode_theta_equals_gp_predict(self, small_table):
        model = train_surrogate(small_table, DistFamily.RAYLEIGH, RESTARTS, seed=7)
        inputs = sample_uniform_inputs(12, seed=41).inputs
        result, _ = draw(DistFamily.RAYLEIGH, predict_moments_batch(model, inputs), MODE_POINT, seed=5)
        expected, _ = gp.predict_batch(model.models["sigma"], inputs)
        np.testing.assert_array_equal(result.theta[:, 0], expected)

    def test_point_mode_theta_constant_across_seeds(self, small_table):
        model = train_surrogate(small_table, DistFamily.RAYLEIGH, RESTARTS, seed=7)
        moments = moments_at(model, [3.0, 9.0, 2.0])
        draws = [draw(DistFamily.RAYLEIGH, moments, MODE_POINT, seed=s)[0] for s in range(10)]
        assert len({float(d.theta[0, 0]) for d in draws}) == 1
        assert len({int(d.counts[0]) for d in draws}) > 1

    def test_count_rounding(self):
        # L predictive mean 350.4 with std 0 must round to 350.
        result, values = draw(DistFamily.RAYLEIGH, fixed_moments([(2.0, 0.0)], (350.4, 0.0)),
                              MODE_POINT, seed=3)
        assert result.counts.tolist() == [350]
        assert len(values) == 350

    def test_negative_count_clamped_to_zero(self):
        moments = fixed_moments([(2.0, 0.0)], (-25.0, 0.0), n_hours=3)
        result, values = draw(DistFamily.RAYLEIGH, moments, MODE_POINT, seed=3)
        assert result.counts.tolist() == [0, 0, 0]
        assert values.shape == (0,)

    def test_scale_floor_clamp(self):
        # Predictive mean far below zero: the draw and resample both land
        # negative, so the scale clamps to the relative floor.
        result, values = draw(DistFamily.RAYLEIGH, fixed_moments([(-5.0, 0.0)], (10.0, 0.0)),
                              MODE_SAMPLE, seed=3)
        assert result.theta[0, 0] == SCALE_FLOOR_FACTOR * 5.0
        assert len(values) == 10
        assert np.all(values >= 0.0)

    def test_resample_once_then_clamp(self):
        # About a third of N(1, 2) draws fall below the floor: each is drawn
        # once more, after all first draws, and clamped if still below.
        moments = fixed_moments([(1.0, 2.0)], (3.0, 1.0), n_hours=200)
        result, _ = draw(DistFamily.RAYLEIGH, moments, MODE_SAMPLE, seed=8)
        rng = np.random.default_rng(8)
        floor = SCALE_FLOOR_FACTOR * 1.0
        theta = rng.normal(1.0, 2.0, size=200)
        low = np.nonzero(theta < floor)[0]
        assert len(low) > 20
        for i in low:
            theta[i] = max(rng.normal(1.0, 2.0), floor)
        counts = [max(int(np.rint(rng.normal(3.0, 1.0))), 0) for _ in range(200)]
        np.testing.assert_array_equal(result.theta[:, 0], theta)
        assert result.counts.tolist() == counts


class TestGenerateResponses:
    def test_deterministic(self, rayleigh_model):
        moments = moments_at(rayleigh_model, [5.0, 11.0, 3.0], [2.0, 8.0, 9.0])
        _, a = draw(DistFamily.RAYLEIGH, moments, MODE_SAMPLE, seed=11)
        _, b = draw(DistFamily.RAYLEIGH, moments, MODE_SAMPLE, seed=11)
        np.testing.assert_array_equal(a, b)
        _, c = draw(DistFamily.RAYLEIGH, moments, MODE_SAMPLE, seed=12)
        assert not np.array_equal(a, c)

    def test_rayleigh_moment_identity(self):
        # Pooled draws at fixed sigma: RMS must equal sigma * sqrt(2).
        sigma = 3.0
        _, pool = draw(DistFamily.RAYLEIGH, fixed_moments([(sigma, 0.0)], (1000.0, 0.0), 100),
                       MODE_POINT, seed=0)
        assert len(pool) == 100_000
        rms = math.sqrt(float(np.mean(pool**2)))
        assert rms == pytest.approx(sigma * math.sqrt(2.0), rel=0.01)

    def test_weibull_and_gumbel_generation_laws(self):
        _, wei = draw(DistFamily.WEIBULL, fixed_moments([(2.0, 0.0), (4.0, 0.0)], (20000.0, 0.0)),
                      MODE_POINT, seed=9)
        ks = stats.kstest(wei, "weibull_min", args=(2.0, 0.0, 4.0))
        assert ks.pvalue > 0.001
        _, gum = draw(DistFamily.GUMBEL, fixed_moments([(10.0, 0.0), (2.0, 0.0)], (20000.0, 0.0)),
                      MODE_POINT, seed=9)
        ks = stats.kstest(gum, "gumbel_r", args=(10.0, 2.0))
        assert ks.pvalue > 0.001

    def test_interface_matches_simulator_output(self, rayleigh_model, fast_sim_config):
        # The peaks come as the simulator's do, one flat float array; with
        # k = 5 they are the few that can rank, a subset of the counted ones.
        x = WeatherRecord(hs=4.0, tp=10.0, vw=2.0, index=0)
        result = generate_from_moments(DistFamily.RAYLEIGH, moments_at(rayleigh_model, [4.0, 10.0, 2.0]),
                                       MODE_SAMPLE, np.random.default_rng(1), 5)
        sim = simulate(x, fast_sim_config, seed=1)
        assert isinstance(result.peaks, np.ndarray)
        assert result.peaks.dtype == sim.peaks.dtype and result.peaks.ndim == 1
        assert 5 <= len(result.peaks) < int(result.counts.sum())
        assert sim.count == len(sim.peaks)

    def test_frozen_shifts_reproduce_theta(self, rayleigh_model):
        moments = moments_at(rayleigh_model, [4.0, 10.0, 2.0], [6.0, 12.0, 8.0])
        result, _ = draw(DistFamily.RAYLEIGH, moments, MODE_FROZEN, seed=1)
        shift = np.random.default_rng(1).standard_normal(1)
        mean, std = moments
        expected = mean[:, :-1] + shift * std[:, :-1]
        np.testing.assert_allclose(result.theta, expected, rtol=1e-12)


# Seeds of the law tests below, fixed before any of them was first run.
LAW_SEED = 7411
FALLBACK_SEED = 7413
TAIL_SEED = 7415
LAW_K = 10
LAW_REALIZATIONS = 400

SCIPY_LAWS = {
    DistFamily.GUMBEL: lambda t: stats.gumbel_r(loc=t[0], scale=t[1]),
    DistFamily.RAYLEIGH: lambda t: stats.rayleigh(scale=t[0]),
    DistFamily.WEIBULL: lambda t: stats.weibull_min(t[0], scale=t[1]),
}
LAW_THETAS = {
    DistFamily.GUMBEL: [(3.0, 2.0), (-5.0, 0.5), (9.0e5, 2.0e5)],
    DistFamily.RAYLEIGH: [(2.0,), (30.0,), (4.0e5,)],
    DistFamily.WEIBULL: [(0.7, 2.0), (2.5, 40.0), (1.6, 5.0e5)],
}
# numpy's own sampler per family: the full draw that the threshold replaced.
NUMPY_SAMPLERS = {
    DistFamily.GUMBEL: lambda rng, t: rng.gumbel(t[:, 0], t[:, 1]),
    DistFamily.RAYLEIGH: lambda rng, t: rng.rayleigh(t[:, 0]),
    DistFamily.WEIBULL: lambda rng, t: t[:, 1] * rng.weibull(t[:, 0]),
}


def weather_moments(family, n_hours=24, seed=73):
    """Moments over a short synthetic weather set: the parameter surfaces of
    synthetic_table with a 10% predictive std, and L near 300 per hour."""
    hs, tp, _ = synthesize_weather(n_hours, seed=seed).inputs.T
    sigma = 1000.0 * hs + 50.0 * tp
    theta = {
        DistFamily.GUMBEL: [0.9 * sigma, 0.5 * sigma],
        DistFamily.RAYLEIGH: [sigma],
        DistFamily.WEIBULL: [2.0 + 0.05 * hs, sigma * math.sqrt(2.0)],
    }[family]
    theta_mean = np.column_stack(theta)
    return (np.column_stack([theta_mean, 300.0 + 10.0 * hs]),
            np.column_stack([0.1 * theta_mean, np.full(n_hours, 20.0)]))


def full_draw_yk(family, moments, mode, rng, k):
    """Y_k of one realization drawn in full: theta and the counts as
    generate_from_moments draws them first, then every one of the
    sum_h L_h peaks from numpy's own sampler."""
    drawn = generate_from_moments(family, moments, mode, rng, k)
    peaks = NUMPY_SAMPLERS[family](rng, np.repeat(drawn.theta, drawn.counts, axis=0))
    return np.sort(peaks)[-k]


def threshold_yk_samples(family, moments, mode, seed):
    """Y_k over LAW_REALIZATIONS realizations of the threshold draw, and
    how many of them fell back to drawing below the threshold."""
    yk, fallbacks = [], 0
    for m in range(LAW_REALIZATIONS):
        drawn = generate_from_moments(family, moments, mode, np.random.default_rng([seed, m]),
                                      LAW_K)
        yk.append(np.sort(drawn.peaks)[-LAW_K])
        fallbacks += len(drawn.peaks) == drawn.counts.sum()
    return np.array(yk), fallbacks


class TestThresholdDraw:
    """Peaks over a threshold: the law of Y_k is the full draw's."""

    @pytest.mark.parametrize("family", list(DistFamily))
    def test_hazard_matches_scipy(self, family):
        hazard = family.hazard
        for t in LAW_THETAS[family]:
            law = SCIPY_LAWS[family](t)
            x = law.ppf(np.concatenate([np.geomspace(1e-12, 0.5, 40), 1.0 - np.geomspace(1e-12, 0.5, 40)]))
            x = np.append(x, law.isf(1e-200))
            rows = np.tile(t, (len(x), 1))
            h = hazard.cumulative(x, rows)
            np.testing.assert_allclose(-np.expm1(-h), law.cdf(x), rtol=1e-9, atol=1e-300)
            np.testing.assert_allclose(-h, law.logsf(x), rtol=1e-9, atol=1e-300)
            np.testing.assert_allclose(hazard.inverse(h, rows), x, rtol=1e-9, atol=1e-9 * law.std())
        assert hazard.cumulative(hazard.support_min, rows[:1]) == 0.0

    @pytest.mark.parametrize("family", list(DistFamily))
    def test_tail_draw_matches_rejection_sampling(self, family):
        hazard = family.hazard
        rng = np.random.default_rng(TAIL_SEED)
        for t in LAW_THETAS[family]:
            law = SCIPY_LAWS[family](t)
            u = law.isf(0.05)
            pool = law.rvs(size=100_000, random_state=rng)
            accepted = pool[pool > u]
            rows = np.tile(t, (4000, 1))
            tail = hazard.inverse(hazard.cumulative(u, rows) + rng.standard_exponential(4000), rows)
            assert tail.min() > u
            assert stats.ks_2samp(tail, accepted).pvalue > 0.01

    # Each id names where theta comes from, then whether it is frozen per realization.
    @pytest.mark.parametrize("mode", [MODE_POINT, MODE_SAMPLE, MODE_FROZEN],
                             ids=["point-False", "sample-False", "sample-True"])
    @pytest.mark.parametrize("family", list(DistFamily))
    def test_yk_law_matches_full_draw(self, family, mode):
        moments = weather_moments(family)
        yk, fallbacks = threshold_yk_samples(family, moments, mode, LAW_SEED)
        full = [full_draw_yk(family, moments, mode, np.random.default_rng([LAW_SEED + 1, m]),
                             LAW_K) for m in range(LAW_REALIZATIONS)]
        assert fallbacks == 0
        assert stats.ks_2samp(yk, full).pvalue > 0.01

    @pytest.mark.parametrize("family", list(DistFamily))
    def test_fallback_below_threshold_matches_full_draw(self, family, monkeypatch):
        # Expecting k/4 exceedances, nearly every realization has fewer
        # than k above the threshold and draws the rest below it.
        monkeypatch.setattr(surrogate, "EXCEEDANCE_TARGET_PER_K", 0.25)
        moments = weather_moments(family)
        yk, fallbacks = threshold_yk_samples(family, moments, MODE_SAMPLE, FALLBACK_SEED)
        full = [full_draw_yk(family, moments, MODE_SAMPLE,
                             np.random.default_rng([FALLBACK_SEED + 1, m]), LAW_K)
                for m in range(LAW_REALIZATIONS)]
        assert fallbacks > 0.9 * LAW_REALIZATIONS
        assert stats.ks_2samp(yk, full).pvalue > 0.01

    @pytest.mark.parametrize("family", list(DistFamily))
    def test_threshold_hits_expected_count(self, family):
        drawn = generate_from_moments(family, weather_moments(family), MODE_SAMPLE,
                                      np.random.default_rng(5), LAW_K)
        hazard = family.hazard
        target = surrogate.EXCEEDANCE_TARGET_PER_K * LAW_K
        u = exceedance_threshold(hazard, drawn.theta, drawn.counts, target)
        expected = drawn.counts @ np.exp(-hazard.cumulative(u, drawn.theta))
        assert 0.9 * target <= expected <= target
        assert len(drawn.peaks) < drawn.counts.sum()
        assert exceedance_threshold(hazard, drawn.theta, drawn.counts,
                                    drawn.counts.sum()) == hazard.support_min


class TestBatchedMoments:
    @pytest.mark.parametrize("include_noise", [False, True])
    def test_columns_are_the_targets_in_order(self, rayleigh_model, include_noise):
        inputs = sample_uniform_inputs(8, seed=77).inputs
        means, stds = predict_moments_batch(rayleigh_model, inputs, include_noise=include_noise)
        assert means.shape == stds.shape == (8, 2)
        for j, name in enumerate(surrogate.target_names(DistFamily.RAYLEIGH)):
            mean, std = gp.predict_batch(rayleigh_model.models[name], inputs,
                                         include_noise=include_noise)
            assert means[:, j].tobytes() == mean.tobytes()
            assert stds[:, j].tobytes() == std.tobytes()

    def test_batch_equals_per_record_generation(self, rayleigh_model):
        inputs = sample_uniform_inputs(8, seed=77).inputs
        batch = predict_moments_batch(rayleigh_model, inputs)
        rows = [predict_moments_batch(rayleigh_model, x) for x in inputs]
        per_record = tuple(np.concatenate(parts) for parts in zip(*rows))
        # Batch shapes change BLAS rounding, and the std carries cancellation.
        for a, b in zip(batch, per_record):
            np.testing.assert_allclose(a, b, rtol=1e-9)
        _, direct = draw(DistFamily.RAYLEIGH, per_record, MODE_SAMPLE, seed=900)
        _, batched = draw(DistFamily.RAYLEIGH, batch, MODE_SAMPLE, seed=900)
        np.testing.assert_allclose(direct, batched, rtol=1e-9)


class TestTrainingBox:
    def test_counts_rows_outside_the_training_inputs(self, small_table, rayleigh_model):
        # The training rows themselves, the box's edges included, are inside.
        train = small_table.inputs[~small_table.test & small_table.usable(DistFamily.RAYLEIGH)]
        assert hours_outside_training_box(rayleigh_model, train) == 0
        beyond = train.copy()
        beyond[0, 0] = train[:, 0].max() + 0.1
        beyond[1, 2] = train[:, 2].min() - 0.1
        beyond[2, 1:] = train[:, 1].max() + 0.1, train[:, 2].max() + 0.1
        assert hours_outside_training_box(rayleigh_model, beyond) == 3


class TestDistributionalMatch:
    def test_two_sample_ks_against_simulator(self, small_table, fast_sim_config):
        # At a training input, pooled surrogate samples must be
        # indistinguishable (KS at 0.001) from pooled simulator peaks for
        # the best-fitting family there.
        train = np.flatnonzero(~small_table.test)
        point = small_table.inputs[train[np.argmax(small_table.l_mean[train])]].tolist()
        x = WeatherRecord(*point, index=0)
        sim_pool = np.concatenate([simulate(x, fast_sim_config, seed=s).peaks for s in range(60)])
        scores = {}
        for family in DistFamily:
            scores[family] = LOGLIKS[family](sim_pool, *fit_family(family, sim_pool))
        best = max(scores, key=scores.get)
        model = train_surrogate(small_table, best, RESTARTS, seed=3)
        moments = moments_at(model, *[point] * 60)
        _, sur_pool = draw(best, moments, MODE_POINT, seed=1000)
        result = stats.ks_2samp(sim_pool, sur_pool)
        assert result.pvalue > 0.001


class TestEvaluateSurrogate:
    def test_perfect_model_near_zero_rmse(self):
        table = synthetic_table(60, seed=4)
        table.stds[DistFamily.RAYLEIGH][:] = 0.0
        table.l_std[:] = 0.0
        table.test[45:] = True
        model = train_surrogate(table, DistFamily.RAYLEIGH, RESTARTS, seed=2)
        evals = {e.target: e for e in evaluate_surrogate(model, table)}
        sigma_eval = evals["sigma"]
        assert sigma_eval.true.tolist() == table.means[DistFamily.RAYLEIGH][45:, 0].tolist()
        spread = float(np.std(sigma_eval.true))
        assert sigma_eval.rmse < 0.02 * spread

    def test_no_usable_rows(self, rayleigh_model):
        table = synthetic_table(5, include_gumbel=False)
        table.test[:] = True
        table.means[DistFamily.RAYLEIGH][:] = np.nan
        with pytest.raises(InsufficientDataError):
            evaluate_surrogate(rayleigh_model, table)
        with pytest.raises(InsufficientDataError):
            evaluate_surrogate(rayleigh_model, synthetic_table(5))  # no test rows


class TestBundlePersistence:
    def test_round_trip(self, tmp_path, rayleigh_model):
        save_surrogate(tmp_path / "bundle", rayleigh_model)
        files = sorted(p.name for p in (tmp_path / "bundle").iterdir())
        assert files == ["bundle.json", "gp_l_count.json", "gp_sigma.json"]
        loaded = load_surrogate(tmp_path / "bundle")
        assert loaded.family is DistFamily.RAYLEIGH
        assert tuple(loaded.models) == ("sigma", "l_count")
        manifest = json.loads((tmp_path / "bundle" / "bundle.json").read_text())
        assert manifest["format_version"] == 2
        assert "mode" not in manifest
        inputs = sample_uniform_inputs(6, seed=31).inputs
        for a, b in zip(predict_moments_batch(rayleigh_model, inputs),
                        predict_moments_batch(loaded, inputs)):
            np.testing.assert_array_equal(a, b)

    def test_gumbel_bundle_has_three_model_files(self, tmp_path):
        model = train_surrogate(synthetic_table(), DistFamily.GUMBEL, RESTARTS, seed=1)
        save_surrogate(tmp_path / "b", model)
        names = sorted(p.name for p in (tmp_path / "b").glob("gp_*.json"))
        assert names == ["gp_beta.json", "gp_l_count.json", "gp_mu.json"]

    def test_missing_manifest(self, tmp_path):
        from searesponse.errors import SchemaError
        with pytest.raises(SchemaError):
            load_surrogate(tmp_path)
