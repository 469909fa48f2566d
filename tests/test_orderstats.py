import numpy as np
import pytest

from searesponse.distfit import DistFamily
from searesponse.errors import ConfigurationError, DataError, InsufficientDataError, SchemaError
from searesponse.orderstats import (
    MODE_FROZEN,
    MODE_SAMPLE,
    QoiConfig,
    QoiResult,
    TopK,
    compare_qoi,
    load_qoi_result,
    run_qoi,
    save_qoi_result,
)
from searesponse import simulator
from searesponse.seeding import TAG_QOI, derive_seed
from searesponse.simulator import simulate
from searesponse.surrogate import (
    EXCEEDANCE_TARGET_PER_K,
    SCALE_FLOOR_FACTOR,
    SHAPE_FLOOR_FACTOR,
    exceedance_threshold,
    predict_moments_batch,
    train_surrogate,
)
from searesponse.weather import Weather, synthesize_weather


class TestTopK:
    def test_hand_checked_insertions(self):
        # The cases run in one test, so the test keeps its id. In the second,
        # the first batch fills the accumulator to exactly k; the floor it
        # leaves must be the smallest of those k, or the 5s are turned away.
        for k, batches, expected in [
            (2, [[5.0, 1.0, 9.0, 3.0, 9.0]], [9.0, 9.0]),
            (3, [[5.0, 1.0, 9.0], [2.0, 5.0, 5.0]], [9.0, 5.0, 5.0]),
        ]:
            acc = TopK(k)
            for batch in batches:
                acc.update(batch)
            assert acc.values_descending().tolist() == expected
            assert acc.values_descending()[-1] == expected[-1]

    def test_streaming_matches_full_sort(self, rng):
        values = rng.uniform(0.0, 1.0, 1_000_000)
        acc = TopK(100)
        for chunk in np.array_split(values, 997):
            acc.update(chunk)
        expected = np.sort(values)[::-1][:100]
        np.testing.assert_array_equal(acc.values_descending(), expected)
        assert acc.values_descending()[-1] == expected[-1]

    def test_random_streams_with_ties(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 30))
            n = int(rng.integers(k, 500))
            values = rng.integers(0, 50, n).astype(float)  # many ties
            acc = TopK(k)
            split = int(rng.integers(0, n + 1))
            acc.update(values[:split])
            acc.update(values[split:])
            np.testing.assert_array_equal(acc.values_descending(), np.sort(values)[::-1][:k])

    def test_empty_batch_unchanged(self):
        acc = TopK(3)
        acc.update([4.0, 2.0])
        before = sorted(acc.values_descending())
        acc.update([])
        assert sorted(acc.values_descending()) == before

    def test_uniform_draws_match_sorted_oracle(self, rng):
        values = rng.uniform(0.0, 1.0, 100_000)
        acc = TopK(100).update(values)
        assert acc.values_descending()[-1] == np.sort(values)[::-1][99]

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            TopK(0)


@pytest.fixture(scope="module")
def short_weather():
    return synthesize_weather(10, seed=71)


@pytest.fixture(scope="module")
def weibull_model(small_table):
    return train_surrogate(small_table, DistFamily.WEIBULL, restarts=2, seed=7)


class TestRunQoi:
    def test_single_realization_collapses_interval(self, short_weather, fast_sim_config):
        cfg = QoiConfig(k=5, realizations=1, base_seed=3)
        result = run_qoi(cfg, short_weather, fast_sim_config)
        assert result.yk_samples.shape == (1,)
        np.testing.assert_array_equal(result.rank_p025, result.rank_means)
        np.testing.assert_array_equal(result.rank_p975, result.rank_means)

    def test_matches_concatenate_and_sort_oracle(self, short_weather, fast_sim_config):
        k, m_total = 7, 5
        cfg = QoiConfig(k=k, realizations=m_total, base_seed=17)
        result = run_qoi(cfg, short_weather, fast_sim_config)
        for m in range(m_total):
            pool = np.concatenate([
                simulate(short_weather.inputs[i].tolist(), fast_sim_config,
                         derive_seed(17, TAG_QOI, m, i)).peaks
                for i in range(len(short_weather))
            ])
            expected = np.sort(pool)[::-1][k - 1]
            assert result.yk_samples[m] == expected

    def test_deterministic_on_rerun(self, short_weather, fast_sim_config):
        cfg = QoiConfig(k=5, realizations=4, base_seed=23)
        a = run_qoi(cfg, short_weather, fast_sim_config)
        b = run_qoi(cfg, short_weather, fast_sim_config)
        np.testing.assert_array_equal(a.yk_samples, b.yk_samples)
        np.testing.assert_array_equal(a.rank_means, b.rank_means)
        assert a.total_count == b.total_count

    def test_ranks_non_increasing(self, short_weather, fast_sim_config):
        cfg = QoiConfig(k=20, realizations=3, base_seed=5)
        result = run_qoi(cfg, short_weather, fast_sim_config)
        assert np.all(np.diff(result.rank_means) <= 0)

    def test_insufficient_peaks_identifies_realization(self, fast_sim_config):
        weather = synthesize_weather(1, seed=4)
        cfg = QoiConfig(k=10**6, realizations=2, base_seed=1)
        with pytest.raises(InsufficientDataError) as err:
            run_qoi(cfg, weather, fast_sim_config)
        assert "realization 0" in str(err.value)
        # Hour-major: all three realizations of the hour run before any check.
        cfg = QoiConfig(k=10**6, realizations=3, base_seed=1)
        with pytest.raises(InsufficientDataError) as err:
            run_qoi(cfg, weather, fast_sim_config)
        assert "realization 0" in str(err.value)

    def test_empty_weather_is_configuration_error(self, fast_sim_config, weibull_model):
        for model in (fast_sim_config, weibull_model):
            with pytest.raises(ConfigurationError, match="at least one hour"):
                run_qoi(QoiConfig(k=5), Weather(np.arange(0), np.empty((0, 3))), model)

    def test_source_follows_the_model(self, short_weather, fast_sim_config, weibull_model):
        cfg = QoiConfig(k=5, realizations=1, base_seed=1)
        assert run_qoi(cfg, short_weather, fast_sim_config).source == "simulator"
        assert run_qoi(cfg, short_weather, weibull_model).source == "surrogate"

    def test_surrogate_path_equals_reference_loop(self, short_weather, weibull_model):
        # One generator per realization: theta for all hours, then all
        # counts, then each hour's count above the threshold, then the
        # exceedances in hour order, lambda ((u / lambda)^k + E)^(1/k).
        cfg = QoiConfig(k=5, realizations=3, base_seed=29)
        result = run_qoi(cfg, short_weather, weibull_model)
        mean, std = predict_moments_batch(weibull_model, short_weather.inputs)
        l_mean, l_std = mean[:, 2], std[:, 2]
        mean, std = mean[:, :2], std[:, :2]
        floor = np.array([SHAPE_FLOOR_FACTOR, SCALE_FLOOR_FACTOR]) * np.abs(mean)
        total = 0
        for m in range(3):
            rng = np.random.default_rng(derive_seed(29, TAG_QOI, m))
            theta = rng.normal(mean, std)
            for i, j in zip(*np.nonzero(theta < floor)):
                theta[i, j] = rng.normal(mean[i, j], std[i, j])
            theta = np.maximum(theta, floor)
            counts = np.maximum(np.rint(rng.normal(l_mean, l_std)), 0).astype(int)
            u = exceedance_threshold(DistFamily.WEIBULL.hazard, theta, counts,
                                     EXCEEDANCE_TARGET_PER_K * 5)
            shape, scale = theta[:, 0], theta[:, 1]
            above = [rng.binomial(counts[i], np.exp(-(u / scale[i]) ** shape[i])) for i in range(10)]
            assert sum(above) >= 5
            hours = np.repeat(np.arange(10), above)
            shape, scale = shape[hours], scale[hours]
            exceedances = scale * ((u / scale) ** shape + rng.standard_exponential(len(hours))) ** (1 / shape)
            assert result.yk_samples[m] == np.sort(exceedances)[::-1][4]
            total += counts.sum()
        assert result.total_count == total

    def test_theta_frozen_mode(self, short_weather, small_table):
        model = train_surrogate(small_table, DistFamily.RAYLEIGH, restarts=2, seed=7)
        base = QoiConfig(k=5, realizations=3, base_seed=29)
        frozen = QoiConfig(k=5, realizations=3, base_seed=29, mode=MODE_FROZEN)
        assert base.mode == MODE_SAMPLE
        a = run_qoi(base, short_weather, model)
        b = run_qoi(frozen, short_weather, model)
        assert not np.array_equal(a.yk_samples, b.yk_samples)
        # frozen mode stays deterministic per seed
        c = run_qoi(frozen, short_weather, model)
        np.testing.assert_array_equal(b.yk_samples, c.yk_samples)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode must be one of point, sample, frozen"):
            QoiConfig(mode="median")


def _fake_result(rank_means, yk_samples, k=None, source="simulator", spread=1.0):
    rank_means = np.asarray(rank_means, dtype=float)
    k = k or len(rank_means)
    return QoiResult(
        k=k, source=source, base_seed=0,
        yk_samples=np.asarray(yk_samples, dtype=float),
        rank_means=rank_means,
        rank_p025=rank_means - spread,
        rank_p975=rank_means + spread,
        total_count=1000,
    )


class TestCompareQoi:
    def test_identity_comparison(self, short_weather, fast_sim_config):
        cfg = QoiConfig(k=5, realizations=4, base_seed=23)
        result = run_qoi(cfg, short_weather, fast_sim_config)
        report = compare_qoi(result, result)
        assert report.relative_mean_difference == 0.0
        assert not report.conservative
        assert report.closest_rank == result.k
        assert report.band_overlap_fraction == 1.0

    def test_sign_convention(self):
        b = _fake_result([10.0, 9.0, 8.0], [8.0, 8.1, 7.9])
        a = _fake_result([11.0, 10.0, 9.0], [9.0, 9.2, 8.8], source="surrogate")
        report = compare_qoi(a, b)
        assert report.relative_mean_difference > 0
        assert report.conservative
        report_rev = compare_qoi(b, a)
        assert report_rev.relative_mean_difference < 0
        assert not report_rev.conservative

    def test_closest_rank_matches_exhaustive_scan(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 40))
            b_means = np.sort(rng.uniform(0, 100, k))[::-1]
            a_yk = rng.uniform(0, 100, max(2, int(rng.integers(2, 10))))
            a = _fake_result(np.sort(rng.uniform(0, 100, k))[::-1], a_yk, k=k)
            b = _fake_result(b_means, rng.uniform(0, 100, 3), k=k)
            report = compare_qoi(a, b)
            target = a.yk_samples.mean()
            best = min(range(k), key=lambda j: (abs(b_means[j] - target), -j))
            assert report.closest_rank == best + 1

    def test_mismatched_k(self):
        a = _fake_result([3.0, 2.0], [2.0, 2.0])
        b = _fake_result([3.0, 2.0, 1.0], [1.0, 1.0])
        with pytest.raises(ConfigurationError):
            compare_qoi(a, b)

    def test_zero_reference_mean_is_data_error(self):
        a = _fake_result([3.0, 2.0], [2.0, 2.0])
        b = _fake_result([0.5, 0.0], [0.0, 0.0])
        with pytest.raises(DataError):
            compare_qoi(a, b)

    def test_band_overlap_fraction(self):
        b = _fake_result([10.0, 9.0, 8.0, 7.0], [7.0], spread=0.5)
        a = _fake_result([10.2, 9.1, 8.4, 3.0], [3.0], spread=0.1, source="surrogate")
        report = compare_qoi(a, b)
        assert report.band_overlap_fraction == pytest.approx(0.75)


class TestWorkerInvariance:
    """A simulator sweep's files do not depend on how many threads run it."""

    @staticmethod
    def _run(monkeypatch, cpus, weather, cfg, model):
        monkeypatch.setattr(simulator, "usable_cpus", lambda: cpus)
        return run_qoi(cfg, weather, model)

    @pytest.mark.parametrize("hours,k,m", [(200, 10, 3), (876, 100, 5)])
    def test_files_identical_for_1_2_3_workers(self, tmp_path, monkeypatch, fast_sim_config,
                                               frequent_thread_switches, hours, k, m):
        weather = synthesize_weather(hours, seed=42)
        cfg = QoiConfig(k=k, realizations=m, base_seed=45)
        files = {}
        for cpus in (1, 2, 3):
            result = self._run(monkeypatch, cpus, weather, cfg, fast_sim_config)
            assert result.workers == cpus
            written = save_qoi_result(tmp_path / str(cpus), result)
            files[cpus] = [path.read_bytes() for path in written]
        assert files[2] == files[1]
        assert files[3] == files[1]

    def test_one_hour_runs_on_one_worker(self, monkeypatch, fast_sim_config):
        weather = synthesize_weather(1, seed=42)
        cfg = QoiConfig(k=3, realizations=2, base_seed=45)
        one = self._run(monkeypatch, 1, weather, cfg, fast_sim_config)
        three = self._run(monkeypatch, 3, weather, cfg, fast_sim_config)
        assert three.workers == 1
        np.testing.assert_array_equal(three.rank_means, one.rank_means)
        assert three.total_count == one.total_count

    def test_insufficient_peaks_names_first_short_realization(self, monkeypatch,
                                                              fast_sim_config):
        weather = synthesize_weather(6, seed=42)
        totals = [sum(simulate(weather.inputs[i].tolist(), fast_sim_config,
                               derive_seed(14, TAG_QOI, m, i)).count
                      for i in range(len(weather))) for m in range(4)]
        # k = realization 0's total: realizations below it are short, and
        # the first of them is named.
        first_short = next(m for m, total in enumerate(totals) if total < totals[0])
        assert first_short > 0
        cfg = QoiConfig(k=totals[0], realizations=4, base_seed=14)
        messages = []
        for cpus in (1, 2):
            with pytest.raises(InsufficientDataError) as err:
                self._run(monkeypatch, cpus, weather, cfg, fast_sim_config)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"realization {first_short}: only {totals[first_short]} ")


class TestQoiPersistence:
    def test_rank_summary_header_is_pinned(self, tmp_path, short_weather, fast_sim_config):
        cfg = QoiConfig(k=3, realizations=2, base_seed=1)
        save_qoi_result(tmp_path / "r", run_qoi(cfg, short_weather, fast_sim_config))
        first = (tmp_path / "r" / "rank_summary.csv").read_text().splitlines()[0]
        assert first == "rank,mean,p2.5,p97.5"

    def test_round_trip(self, tmp_path, short_weather, fast_sim_config):
        cfg = QoiConfig(k=5, realizations=4, base_seed=23)
        result = run_qoi(cfg, short_weather, fast_sim_config)
        save_qoi_result(tmp_path / "run", result)
        loaded = load_qoi_result(tmp_path / "run")
        assert loaded.k == result.k
        assert loaded.source == result.source
        assert loaded.total_count == result.total_count
        np.testing.assert_array_equal(loaded.yk_samples, result.yk_samples)
        np.testing.assert_array_equal(loaded.rank_means, result.rank_means)
        np.testing.assert_array_equal(loaded.rank_p025, result.rank_p025)
        np.testing.assert_array_equal(loaded.rank_p975, result.rank_p975)

    @pytest.mark.parametrize("name,numbers", [
        ("rank_summary.csv", ("7", "7", "-2")),
        ("rank_summary.csv", ("2", "1", "3")),
        ("yk_samples.csv", ("1", "0")),
        ("yk_samples.csv", ("0", "0.5")),
    ])
    def test_misnumbered_rows_rejected(self, tmp_path, short_weather, fast_sim_config,
                                       name, numbers):
        cfg = QoiConfig(k=3, realizations=2, base_seed=23)
        save_qoi_result(tmp_path / "run", run_qoi(cfg, short_weather, fast_sim_config))
        path = tmp_path / "run" / name
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(n + row[row.index(","):] for n, row in zip(numbers, rows)))
        with pytest.raises(SchemaError, match="first column must count"):
            load_qoi_result(tmp_path / "run")
