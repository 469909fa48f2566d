import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from searesponse import simulator
from searesponse.errors import ConfigurationError, NumericError, SchemaError
from searesponse.seeding import TAG_QOI, derive_seed
from searesponse.simulator import (
    DEFAULT_SIM_CONFIG,
    MAX_N_FFT,
    HourWork,
    SimConfig,
    check_weather,
    extract_peaks,
    load_sim_config,
    map_blocks,
    realize_time_series,
    simulate,
    wave_spectrum,
    wind_moment,
    write_sim_config,
)
from searesponse.weather import Weather, WeatherRecord, sample_uniform_inputs


def float32_phasors(seed: int, n: int) -> np.ndarray:
    """cos + 1j sin of the float32-rounded phases of uniform(0, 2 pi), each
    taken in float32 and widened: the simulator's phasors for one seed."""
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, n).astype(np.float32)
    phasors = np.empty(n, dtype=complex)
    phasors.real = np.cos(phases)
    phasors.imag = np.sin(phases)
    return phasors


class TestWaveSpectrum:
    def test_zero_hs_gives_zero_density(self, fast_sim_config):
        # hs * hs is +0.0 for each of them: a positive zero in every bin.
        for hs in (0.0, -0.0, 5e-324):
            spec = wave_spectrum(hs, 10.0, fast_sim_config.omega_grid)
            assert np.all(spec.density == 0.0)
            assert not np.signbit(spec.density).any()

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
            amplitude = (n_fft / 2.0) * np.sqrt(2.0 * density * domega)
            spectrum = amplitude * float32_phasors(seed, len(density))
            spectrum[0] = 0.0
            spectrum[-1] = 0.0
            expected = np.fft.irfft(spectrum, n=n_fft)[:n_samples]
            np.testing.assert_array_equal(row, expected)
            np.testing.assert_array_equal(realize_time_series(density, cfg, [seed])[0], expected)

    @pytest.mark.parametrize("seeds", [[0], [7, 8, 9], list(range(100, 130))])
    def test_phasor_bytes_equal_the_complex_exponential(self, monkeypatch, seeds):
        # The spectrum's phasors are float32 cos + 1j sin of float32(2 pi u),
        # written in place; its bytes must be those of the same float32 ufuncs
        # called on their own, or this host's math dispatch has moved the
        # simulator's output.
        spectra, amplitude = self._spectra(monkeypatch, seeds)
        expected = np.stack([amplitude * float32_phasors(s, len(amplitude)) for s in seeds])
        expected[:, 0] = 0.0
        expected[:, -1] = 0.0
        assert len(spectra) == 1 and spectra[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seeds", [[0], list(range(100, 130))])
    def test_phasors_within_float32_rounding_of_float64(self, monkeypatch, seeds):
        # Rounding the phase to float32 moves it by at most 2.4e-7, and the
        # float32 cos and sin add about 6e-8 each.
        spectra, amplitude = self._spectra(monkeypatch, seeds)
        exact = np.stack([
            amplitude * np.exp(1j * np.random.default_rng(s).uniform(0.0, 2.0 * np.pi, len(amplitude)))
            for s in seeds])
        exact[:, 0] = 0.0
        exact[:, -1] = 0.0
        assert np.all(np.abs(spectra[0] - exact) <= 5e-7 * amplitude)
        assert not np.array_equal(spectra[0], exact)

    @staticmethod
    def _spectra(monkeypatch, seeds):
        """The spectra realize_time_series hands to irfft, and the
        amplitude of each bin."""
        cfg = DEFAULT_SIM_CONFIG
        density = cfg.transfer_squared * wave_spectrum(3.0, 10.0, cfg.omega_grid).density
        spectra, irfft = [], np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft",
                            lambda spectrum, **kw: spectra.append(spectrum.copy()) or irfft(spectrum, **kw))
        realize_time_series(density, cfg, seeds)
        domega = 2.0 * np.pi / (cfg.n_fft * cfg.dt)
        return spectra, (cfg.n_fft / 2.0) * np.sqrt(2.0 * density * domega)


# The simulator's series for three seeds of the default config, as a SHA-256
# hex digest, with numpy's X86_V4 dispatch state. The density is the transfer
# function alone: wave_spectrum's float64 exp and power dispatch to AVX-512
# kernels of their own, so its bytes differ between the two paths.
SERIES_HASH = """
import hashlib
from numpy._core._multiarray_umath import __cpu_features__
from searesponse.simulator import DEFAULT_SIM_CONFIG as cfg, realize_time_series
series = realize_time_series(cfg.transfer_squared, cfg, [1, 2, 3])
print(hashlib.sha256(series.tobytes()).hexdigest(), __cpu_features__["X86_V4"])
"""


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"), reason="no X86_V4 dispatch to disable")
def test_series_equal_on_the_avx2_dispatch():
    # float32 cos and sin go through numpy's own SIMD kernels: the AVX2/FMA
    # path must give the AVX-512 path's bytes.
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": str(Path(simulator.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", SERIES_HASH], env=env,
                            capture_output=True, text=True, check=True, timeout=120)
    digest, v4 = result.stdout.split()
    assert v4 == "False"
    cfg = DEFAULT_SIM_CONFIG
    series = realize_time_series(cfg.transfer_squared, cfg, [1, 2, 3])
    assert digest == hashlib.sha256(series.tobytes()).hexdigest()


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
        peaks = extract_peaks(np.full(100, 3.0), 3.0)
        assert peaks.dtype == np.float64 and peaks.shape == (0,)

    def test_sine_wave_ten_periods(self):
        # 100 samples/period puts a sample exactly on every crest.
        t = np.arange(1000)
        series = np.sin(2.0 * np.pi * t / 100.0)
        peaks = extract_peaks(series, 0.0)
        assert len(peaks) == 10
        np.testing.assert_allclose(peaks, 1.0, rtol=0, atol=0)

    def test_matches_reference_scan_on_random_series(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 400))
            series = rng.normal(0.0, 1.0, n)
            threshold = float(series.mean())
            peaks = extract_peaks(series, threshold)
            expected = _reference_peak_scan(series, threshold)
            np.testing.assert_array_equal(peaks, expected)
            assert np.all(peaks > threshold) or len(peaks) == 0

    def test_all_above_threshold_gives_no_crossings(self):
        peaks = extract_peaks(np.array([5.0, 6.0, 5.5, 7.0]), 1.0)
        assert peaks.dtype == np.float64 and peaks.shape == (0,)

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
        runs = simulate(record, fast_sim_config, seeds)
        assert isinstance(runs, list) and len(runs) == len(seeds)
        for seed, peaks in zip(seeds, runs):
            assert isinstance(peaks, np.ndarray) and peaks.dtype == np.float64
            np.testing.assert_array_equal(peaks, simulate(record, fast_sim_config, seed).peaks)

    def test_a_record_and_an_inputs_row_give_the_same_peaks(self, fast_sim_config):
        # The benchmark's tests pass a WeatherRecord; the sweeps pass a row
        # of Weather.inputs as Python floats.
        weather = sample_uniform_inputs(4, seed=12)
        hs, tp, vw = weather.inputs[2].tolist()
        seeds = [derive_seed(9, TAG_QOI, m, 2) for m in range(3)]
        by_record = simulate(WeatherRecord(hs, tp, vw, index=0), fast_sim_config, seeds)
        by_row = simulate(weather.inputs[2].tolist(), fast_sim_config, seeds)
        assert [peaks.tobytes() for peaks in by_row] == [peaks.tobytes() for peaks in by_record]


class TestHourWork:
    """A sweep block refills one HourWork every hour; nothing of one hour
    may reach the next, and no peak array may live in the work arrays."""

    M = 8

    @staticmethod
    def work_arrays(work):
        return (work.phases, work.phases32, work.spectrum, work.amplitude, work.series)

    def test_work_carries_nothing_between_hours(self, fast_sim_config, rng):
        work = HourWork(fast_sim_config, self.M)
        kept = []
        for i in range(24):
            # Calm to storm, no wind to above cut-out, and one hs = 0 hour.
            hour = [0.0 if i == 5 else float(rng.uniform(0.3, 9.0)),
                    float(rng.uniform(4.0, 16.0)), float(rng.uniform(0.0, 30.0))]
            seeds = [derive_seed(17, TAG_QOI, m, i) for m in range(self.M)]
            got = simulate(hour, fast_sim_config, seeds, work)
            fresh = simulate(hour, fast_sim_config, seeds)
            assert len(got) == self.M
            for peaks, want in zip(got, fresh):
                assert np.array_equal(peaks, want)
                assert not any(np.shares_memory(peaks, a) for a in self.work_arrays(work))
            kept.append((got, [p.copy() for p in got]))
        for got, copies in kept:
            assert all(np.array_equal(p, c) for p, c in zip(got, copies))

    def test_realize_time_series_writes_into_the_work(self, fast_sim_config):
        work = HourWork(fast_sim_config, 2)
        series = realize_time_series(fast_sim_config.transfer_squared, fast_sim_config, [1, 2], work)
        assert np.shares_memory(series, work.series)
        np.testing.assert_array_equal(
            series, realize_time_series(fast_sim_config.transfer_squared, fast_sim_config, [1, 2]))
        with pytest.raises(ConfigurationError, match="work arrays"):
            realize_time_series(fast_sim_config.transfer_squared, fast_sim_config, [1, 2, 3], work)

    def test_an_hour_allocates_less_than_one_spectrum(self):
        cfg = DEFAULT_SIM_CONFIG
        work = HourWork(cfg, self.M)
        seeds = list(range(self.M))
        spectrum_bytes = self.M * (cfg.n_fft // 2 + 1) * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            simulate([3.0, 10.0, 9.0], cfg, seeds, work)
            peaks = []
            for hs in (1.0, 4.5, 8.0):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                simulate([hs, 10.0, 9.0], cfg, seeds, work)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert max(peaks) < spectrum_bytes, (peaks, spectrum_bytes)


class TestMapBlocks:
    @pytest.mark.parametrize("cpus,n,blocks", [
        (3, 7, [(0, 2), (2, 4), (4, 7)]),
        (3, 2, [(0, 1), (1, 2)]),
        (3, 0, [(0, 0)]),
        (1, 5, [(0, 5)]),
    ])
    def test_contiguous_blocks_in_order(self, monkeypatch, cpus, n, blocks):
        monkeypatch.setattr(simulator, "usable_cpus", lambda: cpus)
        assert map_blocks(lambda start, stop: (start, stop), n) == blocks

    def test_first_block_runs_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(simulator, "usable_cpus", lambda: 2)
        threads = map_blocks(lambda start, stop: threading.get_ident(), 4)
        assert threads[0] == threading.get_ident() != threads[1]

    def test_first_failing_block_raises(self, monkeypatch):
        monkeypatch.setattr(simulator, "usable_cpus", lambda: 3)

        def fail_after_first(start, stop):
            if start:
                raise NumericError(f"block at {start}")

        with pytest.raises(NumericError, match="block at 2"):
            map_blocks(fail_after_first, 6)


class TestCheckWeather:
    # On the fast config the grid tops out at pi/dt = 2 pi rad/s, so tp = 1.0
    # puts the peak frequency exactly on it.
    @pytest.mark.parametrize("field,value,message", [
        ("hs", -0.1, "hour 2: hs must be non-negative"),
        ("tp", 0.0, "hour 2: tp must be positive"),
        ("tp", 0.9, "hour 2: peak frequency 6.9813 rad/s above top of grid 6.2832 rad/s"),
        ("vw", -1.0, "hour 2: vw must be non-negative"),
        ("hs", float("nan"), "hour 2: hs must be non-negative and finite, got nan"),
        ("tp", float("nan"), "hour 2: tp must be positive and finite, got nan"),
        ("vw", float("nan"), "hour 2: vw must be non-negative and finite, got nan"),
        ("vw", float("inf"), "hour 2: vw must be non-negative and finite, got inf"),
        ("hs", math.inf, "hour 2: hs must be non-negative and finite, got inf"),
        ("hs", -math.inf, "hour 2: hs must be non-negative and finite, got -inf"),
        ("tp", math.inf, "hour 2: tp must be positive and finite, got inf"),
        ("tp", -math.inf, "hour 2: tp must be positive and finite, got -inf"),
        ("tp", -0.0, "hour 2: tp must be positive and finite, got -0.0"),
        ("tp", 5e-324, "hour 2: peak frequency inf rad/s above top of grid 6.2832 rad/s "
                       "(tp=5e-324)"),
        ("tp", math.nextafter(1.0, 0.0), "hour 2: peak frequency 6.2832 rad/s above top of grid "
                                         "6.2832 rad/s (tp=0.9999999999999999)"),
        ("vw", -math.inf, "hour 2: vw must be non-negative and finite, got -inf"),
    ])
    def test_first_bad_hour_is_named(self, fast_sim_config, field, value, message):
        inputs = np.tile([2.0, 9.0, 5.0], (4, 1))
        inputs[2, ("hs", "tp", "vw").index(field)] = value
        inputs[3, 0] = -1.0
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            check_weather(Weather(np.arange(4), inputs), fast_sim_config)

    @pytest.mark.parametrize("hour,message", [
        ([-1.0, 0.0, 5.0], "hs must be non-negative and finite, got -1.0"),
        ([math.nan, math.nan, math.nan], "hs must be non-negative and finite, got nan"),
        ([-1.0, 0.9, -1.0], "hs must be non-negative and finite, got -1.0"),
        ([2.0, math.inf, math.nan], "tp must be positive and finite, got inf"),
        ([2.0, 0.0, -1.0], "tp must be positive and finite, got 0.0"),
        ([2.0, 0.9, -1.0], "peak frequency 6.9813 rad/s above top of grid 6.2832 rad/s (tp=0.9)"),
    ])
    def test_first_bad_field_is_named(self, fast_sim_config, hour, message):
        # In simulate's order: hs, tp, the grid's top, then vw.
        inputs = np.array([[2.0, 9.0, 5.0], hour])
        with pytest.raises(ConfigurationError) as err:
            check_weather(Weather(np.arange(2), inputs), fast_sim_config, label="design point")
        assert str(err.value) == f"design point 1: {message}"

    def test_values_on_the_bounds_pass(self, fast_sim_config):
        assert 2.0 * np.pi / fast_sim_config.omega_grid[-1] == 1.0
        for hour in ([0.0, 1.0, 0.0], [-0.0, 9.0, 5.0], [5e-324, 9.0, 5.0], [2.0, 9.0, -0.0],
                     [2.0, 9.0, 5e-324], [2.0, 1.0, 5.0], [2.0, math.nextafter(1.0, math.inf), 5.0]):
            check_weather(Weather(np.arange(1), np.array([hour])), fast_sim_config)


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

    def test_transform_cap_is_checked_before_any_array(self, monkeypatch):
        # At the cap the checks pass and the grid would be built next; one
        # sample more pads to twice the cap and stops before it. Neither
        # config makes an array: the grid's rfftfreq is replaced by a raise.
        def no_grid(*args, **kwargs):
            raise RuntimeError("grid built")

        monkeypatch.setattr(np.fft, "rfftfreq", no_grid)
        assert MAX_N_FFT == 2**22 == 512 * DEFAULT_SIM_CONFIG.n_fft
        with pytest.raises(RuntimeError, match="grid built"):
            SimConfig(duration=MAX_N_FFT * 0.5, dt=0.5)
        with pytest.raises(ConfigurationError,
                           match="gives a transform of 8388608 samples, above the cap of 4194304"):
            SimConfig(duration=(MAX_N_FFT + 1) * 0.5, dt=0.5)

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

    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_non_number_rejected(self, tmp_path, value):
        # float() would read true as 1.0 and "0.5" as 0.5.
        path = tmp_path / "sim.json"
        write_sim_config(path, DEFAULT_SIM_CONFIG)
        path.write_text(json.dumps({**json.loads(path.read_text()), "dt": value}))
        with pytest.raises(SchemaError, match=r"non-numeric values for \['dt'\]"):
            load_sim_config(path)

    def test_integer_past_float_range_is_non_finite(self, tmp_path):
        path = tmp_path / "sim.json"
        write_sim_config(path, DEFAULT_SIM_CONFIG)
        path.write_text(json.dumps({**json.loads(path.read_text()), "gain": 10**400}))
        with pytest.raises(SchemaError, match=r"non-finite values for \['gain'\]"):
            load_sim_config(path)

    def test_integer_values_load_as_floats(self, tmp_path):
        path = tmp_path / "sim.json"
        write_sim_config(path, DEFAULT_SIM_CONFIG)
        path.write_text(json.dumps({**json.loads(path.read_text()), "duration": 3600}))
        assert load_sim_config(path) == DEFAULT_SIM_CONFIG

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text("not json")
        with pytest.raises(SchemaError):
            load_sim_config(path)

