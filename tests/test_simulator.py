import json
import math
from dataclasses import fields

import numpy as np
import pytest

from searesponse.errors import ConfigurationError, SchemaError
from searesponse.seeding import TAG_QOI, derive_seed
from searesponse.simulator import (
    DEFAULT_SIM_CONFIG,
    SimConfig,
    _check_sea_state,
    _check_wind,
    check_weather,
    extract_peaks,
    load_sim_config,
    realize_time_series,
    simulate,
    wave_spectrum,
    wind_moment,
    write_sim_config,
)
from searesponse.weather import Weather, WeatherRecord


class TestWaveSpectrum:
    def test_zero_hs_gives_zero_density(self, fast_sim_config):
        spec = wave_spectrum(0.0, 10.0, fast_sim_config.omega_grid)
        assert np.all(spec.density == 0.0)

    @pytest.mark.parametrize("hs,tp", [(3.2, 11.3), (7.4, 9.6)])
    def test_zeroth_moment_normalization(self, fast_sim_config, hs, tp):
        spec = wave_spectrum(hs, tp, fast_sim_config.omega_grid)
        m0 = np.trapezoid(spec.density, spec.omega)
        assert m0 == pytest.approx(hs * hs / 16.0, rel=0.005)

    def test_normalization_over_random_inputs(self, fast_sim_config, rng):
        for _ in range(25):
            hs = rng.uniform(0.2, 12.0)
            tp = rng.uniform(4.0, 20.0)
            spec = wave_spectrum(hs, tp, fast_sim_config.omega_grid)
            assert np.trapezoid(spec.density, spec.omega) == pytest.approx(hs * hs / 16.0, rel=0.005)

    def test_peak_location_on_grid(self):
        omega = DEFAULT_SIM_CONFIG.omega_grid
        spec = wave_spectrum(3.2, 11.3, omega)
        argmax = int(np.argmax(spec.density))
        wp = 2.0 * math.pi / 11.3
        step = omega[1] - omega[0]
        assert abs(omega[argmax] - wp) <= step

    def test_peak_above_nyquist_rejected(self, fast_sim_config):
        with pytest.raises(ConfigurationError):
            wave_spectrum(1.0, 0.5, fast_sim_config.omega_grid)

    def test_negative_hs_rejected(self, fast_sim_config):
        with pytest.raises(ConfigurationError):
            wave_spectrum(-0.1, 10.0, fast_sim_config.omega_grid)


class TestResponseSpectrum:
    def test_zero_in_zero_out(self, fast_sim_config):
        wave = wave_spectrum(0.0, 10.0, fast_sim_config.omega_grid)
        assert np.all(fast_sim_config.transfer_squared * wave.density == 0.0)

    def test_resonant_amplification_value(self):
        # |H(omega0)|^2 = gain^2 / (2 zeta)^2, with omega0 on a grid bin.
        omega0 = float(SimConfig(duration=512.0).omega_grid[90])
        cfg = SimConfig(duration=512.0, omega0=omega0, zeta=0.1, gain=1.0)
        assert cfg.omega_grid[90] == omega0
        assert cfg.transfer_squared[90] == pytest.approx(25.0, rel=1e-12)

    def test_density_non_negative(self, fast_sim_config, rng):
        for _ in range(10):
            wave = wave_spectrum(rng.uniform(0.2, 12), rng.uniform(4, 20), fast_sim_config.omega_grid)
            assert np.all(fast_sim_config.transfer_squared * wave.density >= 0.0)


class TestRealizeTimeSeries:
    def test_zero_density_gives_zero_series(self, fast_sim_config):
        wave = wave_spectrum(0.0, 10.0, fast_sim_config.omega_grid)
        series = realize_time_series(wave.density, fast_sim_config, [4])
        assert np.all(series == 0.0)
        assert series.shape == (1, fast_sim_config.n_samples)

    def test_deterministic(self, fast_sim_config):
        wave = wave_spectrum(2.0, 9.0, fast_sim_config.omega_grid)
        density = fast_sim_config.transfer_squared * wave.density
        a, b, c = (realize_time_series(density, fast_sim_config, [s])[0] for s in (11, 11, 12))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_variance_matches_spectral_integral(self, fast_sim_config):
        wave = wave_spectrum(3.0, 10.0, fast_sim_config.omega_grid)
        density = fast_sim_config.transfer_squared * wave.density
        target = np.trapezoid(density, fast_sim_config.omega_grid)
        variances = realize_time_series(density, fast_sim_config, range(200)).var(axis=1)
        assert np.mean(variances) == pytest.approx(target, rel=0.02)

    def test_grid_mismatch_rejected(self, fast_sim_config):
        finer = SimConfig(duration=fast_sim_config.duration, dt=0.25)
        for density in (wave_spectrum(2.0, 9.0, finer.omega_grid).density,
                        wave_spectrum(2.0, 9.0, fast_sim_config.omega_grid).density[1:]):
            with pytest.raises(ConfigurationError, match="rfft layout"):
                realize_time_series(density, fast_sim_config, [0])

    @pytest.mark.parametrize("m_total", [1, 3, 30])
    def test_seed_rows_equal_one_seed_reference_bitwise(self, m_total):
        cfg = DEFAULT_SIM_CONFIG
        density = cfg.transfer_squared * wave_spectrum(3.0, 10.0, cfg.omega_grid).density
        seeds = [derive_seed(5, TAG_QOI, m, 0) for m in range(m_total)]
        rows = realize_time_series(density, cfg, seeds)
        assert rows.shape == (m_total, cfg.n_samples)
        n_samples = int(round(cfg.duration / cfg.dt))
        n_fft = 1 << math.ceil(math.log2(n_samples))
        domega = 2.0 * np.pi / (n_fft * cfg.dt)
        for seed, row in zip(seeds, rows):
            phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, len(density))
            spectrum = (n_fft / 2.0) * np.sqrt(2.0 * density * domega) * np.exp(1j * phases)
            spectrum[0] = 0.0
            spectrum[-1] = 0.0
            expected = np.fft.irfft(spectrum, n=n_fft)[:n_samples]
            np.testing.assert_array_equal(row, expected)
            np.testing.assert_array_equal(realize_time_series(density, cfg, [seed])[0], expected)

    @pytest.mark.parametrize("seeds", [[0], [7, 8, 9], list(range(100, 130))])
    def test_phasor_bytes_equal_the_complex_exponential(self, monkeypatch, seeds):
        # The spectrum is cos + 1j sin of 2 pi u, written in place; its bytes
        # must be those of exp(1j * uniform(0, 2 pi)), or this host's math
        # dispatch has moved the simulator's output.
        cfg = DEFAULT_SIM_CONFIG
        density = cfg.transfer_squared * wave_spectrum(3.0, 10.0, cfg.omega_grid).density
        spectra, irfft = [], np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft",
                            lambda spectrum, **kw: spectra.append(spectrum.copy()) or irfft(spectrum, **kw))
        realize_time_series(density, cfg, seeds)
        domega = 2.0 * np.pi / (cfg.n_fft * cfg.dt)
        amplitude = (cfg.n_fft / 2.0) * np.sqrt(2.0 * density * domega)
        expected = np.stack([
            amplitude * np.exp(1j * np.random.default_rng(s).uniform(0.0, 2.0 * np.pi, len(density)))
            for s in seeds])
        expected[:, 0] = 0.0
        expected[:, -1] = 0.0
        assert len(spectra) == 1 and spectra[0].tobytes() == expected.tobytes()


class TestWindMoment:
    CFG = SimConfig(rated_speed=11.0, cutout_speed=25.0, rated_force=1.0e3, lever_arm=50.0)

    def test_zero_speed(self):
        assert wind_moment(0.0, self.CFG) == 0.0

    def test_continuity_at_rated(self):
        below = wind_moment(11.0 - 1e-9, self.CFG)
        at = wind_moment(11.0, self.CFG)
        assert at == pytest.approx(1.0e3 * 50.0)
        assert below == pytest.approx(at, rel=1e-6)

    def test_flat_between_rated_and_cutout(self):
        assert wind_moment(18.0, self.CFG) == 1.0e3 * 50.0
        assert wind_moment(25.0, self.CFG) == 1.0e3 * 50.0

    def test_zero_above_cutout(self):
        assert wind_moment(26.0, self.CFG) == 0.0

    def test_cubic_below_rated(self):
        assert wind_moment(5.5, self.CFG) == pytest.approx(1.0e3 * 0.5**3 * 50.0)


def _reference_peak_scan(series, threshold):
    """Independent linear scan: walk the series, track segment maxima."""
    peaks = []
    in_segment = False
    current = None
    for i in range(len(series) - 1):
        if series[i] <= threshold < series[i + 1]:
            if in_segment:
                peaks.append(current)
            in_segment = True
            current = -math.inf
        if in_segment and series[i + 1] > current:
            current = series[i + 1]
    if in_segment:
        peaks.append(current)
    return np.array(peaks)


class TestExtractPeaks:
    def test_constant_series_has_no_peaks(self):
        out = extract_peaks(np.full(100, 3.0), 3.0)
        assert out.count == 0

    def test_sine_wave_ten_periods(self):
        # 100 samples/period puts a sample exactly on every crest.
        t = np.arange(1000)
        series = np.sin(2.0 * np.pi * t / 100.0)
        out = extract_peaks(series, 0.0)
        assert out.count == 10
        np.testing.assert_allclose(out.peaks, 1.0, rtol=0, atol=0)

    def test_matches_reference_scan_on_random_series(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 400))
            series = rng.normal(0.0, 1.0, n)
            threshold = float(series.mean())
            out = extract_peaks(series, threshold)
            expected = _reference_peak_scan(series, threshold)
            np.testing.assert_array_equal(out.peaks, expected)
            assert np.all(out.peaks > threshold) or out.count == 0

    def test_all_above_threshold_gives_no_crossings(self):
        out = extract_peaks(np.array([5.0, 6.0, 5.5, 7.0]), 1.0)
        assert out.count == 0

    def test_too_short_series_rejected(self):
        with pytest.raises(ConfigurationError):
            extract_peaks(np.array([1.0]), 0.0)


class TestSimulate:
    def test_small_sea_state(self, fast_sim_config):
        record = WeatherRecord(hs=0.2, tp=10.0, vw=0.0, index=0)
        out = simulate(record, fast_sim_config, seed=3)
        assert out.count >= 0

    def test_peaks_exceed_series_mean(self, fast_sim_config):
        record = WeatherRecord(hs=2.5, tp=9.0, vw=8.0, index=0)
        wave = wave_spectrum(record.hs, record.tp, fast_sim_config.omega_grid)
        density = fast_sim_config.transfer_squared * wave.density
        series = realize_time_series(density, fast_sim_config, [21])[0]
        series = series + wind_moment(record.vw, fast_sim_config)
        out = simulate(record, fast_sim_config, seed=21)
        assert out.count > 0
        assert np.all(out.peaks > series.mean())

    def test_deterministic(self, fast_sim_config):
        record = WeatherRecord(hs=3.0, tp=10.0, vw=5.0, index=0)
        a = simulate(record, fast_sim_config, seed=77)
        b = simulate(record, fast_sim_config, seed=77)
        np.testing.assert_array_equal(a.peaks, b.peaks)

    def test_max_peak_monotone_in_hs(self, fast_sim_config):
        maxima = []
        for hs in (0.5, 1.0, 2.0, 4.0, 8.0):
            record = WeatherRecord(hs=hs, tp=10.0, vw=3.0, index=0)
            out = simulate(record, fast_sim_config, seed=5)
            maxima.append(out.peaks.max())
        assert all(a <= b for a, b in zip(maxima, maxima[1:]))

    def test_count_varies_with_seed(self, fast_sim_config):
        record = WeatherRecord(hs=3.0, tp=10.0, vw=0.0, index=0)
        counts = {simulate(record, fast_sim_config, seed=s).count for s in range(25)}
        assert len(counts) > 1

    def test_hour_rows_equal_one_seed_runs(self, fast_sim_config):
        record = WeatherRecord(hs=3.0, tp=10.0, vw=7.0, index=0)
        seeds = [derive_seed(9, TAG_QOI, m, 0) for m in range(4)]
        outputs = simulate(record, fast_sim_config, seeds)
        assert isinstance(outputs, list) and len(outputs) == len(seeds)
        for seed, out in zip(seeds, outputs):
            np.testing.assert_array_equal(out.peaks, simulate(record, fast_sim_config, seed).peaks)


class TestCheckWeather:
    @pytest.mark.parametrize("field,value,message", [
        ("hs", -0.1, "hour 2: hs must be non-negative"),
        ("tp", 0.0, "hour 2: tp must be positive"),
        ("tp", 0.9, "hour 2: peak frequency 6.9813 rad/s above top of grid 6.2832 rad/s"),
        ("vw", -1.0, "hour 2: vw must be non-negative"),
        ("hs", float("nan"), "hour 2: hs must be non-negative and finite, got nan"),
        ("tp", float("nan"), "hour 2: tp must be positive and finite, got nan"),
        ("vw", float("nan"), "hour 2: vw must be non-negative and finite, got nan"),
        ("vw", float("inf"), "hour 2: vw must be non-negative and finite, got inf"),
    ])
    def test_first_bad_hour_is_named(self, fast_sim_config, field, value, message):
        inputs = np.tile([2.0, 9.0, 5.0], (4, 1))
        inputs[2, ("hs", "tp", "vw").index(field)] = value
        inputs[3, 0] = -1.0
        with pytest.raises(ConfigurationError, match=message):
            check_weather(Weather(np.arange(4), inputs), fast_sim_config)

    def test_matches_the_hour_loop(self, fast_sim_config):
        # The vectorized pass names the hour, and gives the message, that
        # the per-hour checks of simulate give first, near the grid's top too.
        top = fast_sim_config.omega_grid[-1]
        tp_edge = 2.0 * np.pi / top
        specials = [np.nan, np.inf, -np.inf, -1.0, 0.0, -0.0, 5e-324, 0.9,
                    tp_edge, np.nextafter(tp_edge, 0.0), np.nextafter(tp_edge, np.inf)]
        rng = np.random.default_rng(5)
        for _ in range(300):
            inputs = np.tile([2.0, 9.0, 5.0], (12, 1))
            hit = rng.random(inputs.shape) < 0.05
            inputs[hit] = rng.choice(specials, size=hit.sum())
            expected = None
            for i, (hs, tp, vw) in enumerate(inputs.tolist()):
                try:
                    _check_sea_state(hs, tp, top)
                    _check_wind(vw)
                except ConfigurationError as exc:
                    expected = f"design point {i}: {exc}"
                    break
            try:
                check_weather(Weather(np.arange(12), inputs), fast_sim_config,
                              label="design point")
                got = None
            except ConfigurationError as exc:
                got = str(exc)
            assert got == expected

    def test_values_on_the_bounds_pass(self, fast_sim_config):
        check_weather(Weather(np.arange(1), np.array([[0.0, 1.0, 0.0]])), fast_sim_config)


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        {"dt": float("nan")}, {"duration": float("inf")}, {"dt": 1e-320},
        {"lever_arm": float("nan")},
    ])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("make", [
        lambda: SimConfig(omega0=float("nan")),
        lambda: SimConfig(gain=float("inf")),
        lambda: SimConfig(cutout_speed=float("inf")),
        lambda: SimConfig(rated_force=float("nan")),
        lambda: SimConfig(zeta=0.0),
        lambda: SimConfig(zeta=1.0),
        lambda: SimConfig(rated_speed=25.0, cutout_speed=25.0),
        lambda: SimConfig(rated_speed=30.0, cutout_speed=25.0),
    ])
    def test_non_finite_model_rejected(self, make):
        with pytest.raises(ConfigurationError):
            make()

    def test_too_short_duration_rejected(self):
        with pytest.raises(ConfigurationError, match="at least 1024 samples"):
            SimConfig(duration=100.0, dt=0.5)

    @pytest.mark.parametrize("duration,dt", [(512.0, 0.5), (3600.0, 0.5), (700.0, 0.3)])
    def test_grid_is_the_rfft_layout(self, duration, dt):
        cfg = SimConfig(duration=duration, dt=dt)
        omega = cfg.omega_grid
        assert len(omega) == cfg.n_fft // 2 + 1 and omega[0] == 0.0
        assert omega[-1] == pytest.approx(np.pi / dt, rel=1e-12)
        np.testing.assert_allclose(np.diff(omega), 2.0 * np.pi / (cfg.n_fft * dt), rtol=1e-9)

    def test_per_config_arrays_are_shared_and_read_only(self, fast_sim_config):
        assert fast_sim_config.omega_grid is fast_sim_config.omega_grid
        assert fast_sim_config.transfer_squared is fast_sim_config.transfer_squared
        for array in (fast_sim_config.omega_grid, fast_sim_config.transfer_squared):
            with pytest.raises(ValueError):
                array[0] = 1.0
        cfg = fast_sim_config
        ratio = cfg.omega_grid / cfg.omega0
        np.testing.assert_allclose(
            cfg.transfer_squared,
            cfg.gain**2 / ((1.0 - ratio**2) ** 2 + (2.0 * cfg.zeta * ratio) ** 2), rtol=1e-12)


class TestSimConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sim.json"
        write_sim_config(path, DEFAULT_SIM_CONFIG)
        assert load_sim_config(path) == DEFAULT_SIM_CONFIG

    def test_default_file_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "sim.json"
        write_sim_config(path, DEFAULT_SIM_CONFIG)
        assert path.read_bytes() == (
            b'{\n  "dt": 0.5,\n  "duration": 3600.0,\n  "omega0": 0.65,\n  "zeta": 0.1,\n'
            b'  "gain": 32000.0,\n  "rated_speed": 11.0,\n  "cutout_speed": 25.0,\n'
            b'  "rated_force": 100.0,\n  "lever_arm": 50.0\n}\n')

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text('{"dt": 0.5}')
        with pytest.raises(SchemaError):
            load_sim_config(path)

    @pytest.mark.parametrize("key", [f.name for f in fields(SimConfig)])
    def test_each_key_is_required(self, tmp_path, key):
        path = tmp_path / "sim.json"
        write_sim_config(path, DEFAULT_SIM_CONFIG)
        raw = json.loads(path.read_text())
        del raw[key]
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match=f"missing keys \\['{key}'\\], unexpected keys \\[\\]"):
            load_sim_config(path)

    def test_extra_key_rejected(self, tmp_path):
        path = tmp_path / "sim.json"
        write_sim_config(path, DEFAULT_SIM_CONFIG)
        path.write_text(json.dumps({**json.loads(path.read_text()), "transfer": {"omega0": 0.65}}))
        with pytest.raises(SchemaError, match=r"unexpected keys \['transfer'\]"):
            load_sim_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text("not json")
        with pytest.raises(SchemaError):
            load_sim_config(path)

