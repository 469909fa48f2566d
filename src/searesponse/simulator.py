"""Stochastic spectral response simulator.

Maps one hour of weather to an array of peak structural responses:
parametric wave spectrum -> transfer-function filtering -> random-phase
time-domain realization -> constant wind-moment offset -> mean-crossing
peak extraction. The number of peaks L is itself random, varying with the
realization seed. `extract_peaks` returns the peaks as a float64 array;
`simulate` builds an hour's spectrum once and realizes every seed from it
in one batched inverse transform, one peak array per seed of a list (a
SimOutput for one int seed). `map_blocks` runs a sweep over hours or
design points in contiguous blocks, one thread per usable CPU; each block
makes one HourWork, the hour's arrays, and refills it every hour.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from searesponse.errors import ConfigurationError, SchemaError
from searesponse.fileio import read_json_object
from searesponse.weather import Weather

logger = logging.getLogger(__name__)

PEAK_ENHANCEMENT = 3.3

# The largest transform a SimConfig takes: 512 times the default hour's 8192
# samples, with two 32 MiB arrays on its grid.
MAX_N_FFT = 1 << 22

T = TypeVar("T")


def _require_positive(name: str, value: float) -> None:
    # Written so that NaN fails too.
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigurationError(f"{name} must be positive and finite, got {value}")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class WaveSpectrum(NamedTuple):
    """One-sided spectral density on the angular-frequency grid it was
    computed on."""

    omega: np.ndarray
    density: np.ndarray


@dataclass
class SimOutput:
    """Peaks of one simulated hour: `simulate`'s result for one int seed."""

    peaks: np.ndarray

    @property
    def count(self) -> int:
        return len(self.peaks)


@dataclass(frozen=True)
class SimConfig:
    """Discretization and structure model for one simulator run; the fields
    are the keys of sim_config.json, in file order.

    duration/dt fixes the sample count (>= 1024, zero-padded to the next
    power of two for the transform, n_fft <= MAX_N_FFT = 2**22, checked
    before any array is made); the omega grid is matched to the
    transform bins so the Nyquist frequency pi/dt caps the grid exactly.
    The response is a single-degree-of-freedom resonator: natural angular
    frequency omega0 [rad/s], damping ratio 0 < zeta < 1, gain [N*m per
    meter of wave amplitude]. The wind thrust is cubic below rated_speed,
    flat to cutout_speed, zero above; the default rated moment
    (rated_force * lever_arm) is a few percent of typical wave-induced
    peaks, so fitted peak distributions vary smoothly across the input box.
    A config is made with omega_grid, the angular frequencies of the rfft
    bins 0 .. pi/dt, and transfer_squared, |H(omega)|^2 on that grid: two
    read-only arrays, not fields, shared by every run and thread.
    """

    dt: float = 0.5
    duration: float = 3600.0
    omega0: float = 0.65
    zeta: float = 0.10
    gain: float = 3.2e4
    rated_speed: float = 11.0
    cutout_speed: float = 25.0
    rated_force: float = 100.0
    lever_arm: float = 50.0

    def __post_init__(self):
        _require_positive("duration", self.duration)
        _require_positive("dt", self.dt)
        _require_positive("duration/dt", self.duration / self.dt)
        if self.n_samples < 1024:
            raise ConfigurationError(
                f"duration/dt must give at least 1024 samples, got {self.n_samples}"
            )
        if self.n_fft > MAX_N_FFT:
            raise ConfigurationError(f"duration/dt gives a transform of {self.n_fft} samples, "
                                     f"above the cap of {MAX_N_FFT}")
        _require_positive("omega0", self.omega0)
        if not 0.0 < self.zeta < 1.0:
            raise ConfigurationError(f"zeta must be in (0, 1), got {self.zeta}")
        _require_positive("gain", self.gain)
        if not 0.0 < self.rated_speed < self.cutout_speed < math.inf:
            raise ConfigurationError(
                f"need 0 < rated_speed < cutout_speed < inf, got {self.rated_speed}, {self.cutout_speed}"
            )
        _require_positive("rated_force", self.rated_force)
        _require_positive("lever_arm", self.lever_arm)
        omega = 2.0 * np.pi * np.fft.rfftfreq(self.n_fft, d=self.dt)
        w0sq = self.omega0 * self.omega0
        h2 = (self.gain * self.gain * w0sq * w0sq
              / ((w0sq - omega * omega) ** 2 + (2.0 * self.zeta * self.omega0 * omega) ** 2))
        # Set past the frozen check, and kept out of fields() and asdict().
        object.__setattr__(self, "omega_grid", _read_only(omega))
        object.__setattr__(self, "transfer_squared", _read_only(h2))

    @property
    def n_samples(self) -> int:
        return int(round(self.duration / self.dt))

    @property
    def n_fft(self) -> int:
        return 1 << math.ceil(math.log2(self.n_samples))


DEFAULT_SIM_CONFIG = SimConfig()


def load_sim_config(path: str | Path) -> SimConfig:
    """Read a simulator configuration from a flat JSON file whose keys are
    exactly SimConfig's fields."""
    raw = read_json_object(path)
    keys = [f.name for f in fields(SimConfig)]
    missing = [k for k in keys if k not in raw]
    extra = [k for k in raw if k not in keys]
    if missing or extra:
        raise SchemaError(f"{path}: missing keys {missing}, unexpected keys {extra}")
    # JSON numbers only: float() would also take true, false and "3.2e4".
    # An integer past float range reads as inf, where float() would raise.
    non_numeric = [k for k in keys if type(raw[k]) not in (int, float)]
    if non_numeric:
        raise SchemaError(f"{path}: non-numeric values for {non_numeric}")
    values = {k: float(raw[k]) if abs(raw[k]) <= sys.float_info.max else math.inf for k in keys}
    non_finite = [k for k, v in values.items() if not math.isfinite(v)]
    if non_finite:
        raise SchemaError(f"{path}: non-finite values for {non_finite}")
    return SimConfig(**values)


def write_sim_config(path: str | Path, cfg: SimConfig) -> None:
    Path(path).write_text(json.dumps(asdict(cfg), indent=2) + "\n")


def _check_sea_state(hs: float, tp: float, omega_top: float) -> float:
    """The peak angular frequency, after checking that a grid reaching
    omega_top can hold the sea state."""
    # Written so that NaN fails too, like _require_positive.
    if not (math.isfinite(hs) and hs >= 0.0):
        raise ConfigurationError(f"hs must be non-negative and finite, got {hs}")
    if not (math.isfinite(tp) and tp > 0.0):
        raise ConfigurationError(f"tp must be positive and finite, got {tp}")
    wp = 2.0 * np.pi / tp
    if wp > omega_top:
        raise ConfigurationError(
            f"peak frequency {wp:.4f} rad/s above top of grid {omega_top:.4f} rad/s (tp={tp})"
        )
    return wp


def _check_wind(vw: float) -> None:
    if not (math.isfinite(vw) and vw >= 0.0):
        raise ConfigurationError(f"vw must be non-negative and finite, got {vw}")


def check_weather(weather: Weather, cfg: SimConfig, label: str = "hour") -> None:
    """Raise, before any hour runs, the ConfigurationError that `simulate`
    would raise at the first hour it cannot run, prefixed with label and
    that hour's position: `simulate`'s own checks, once per hour."""
    omega_top = cfg.omega_grid[-1]
    for i, row in enumerate(weather.inputs):
        hs, tp, vw = row.tolist()
        try:
            _check_sea_state(hs, tp, omega_top)
            _check_wind(vw)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{label} {i}: {exc}") from None


def wave_spectrum(hs: float, tp: float, omega: np.ndarray) -> WaveSpectrum:
    """Single-peak parametric wave spectrum on the given grid.

    Uses the JONSWAP functional form with peak enhancement 3.3, then
    rescales so the zeroth spectral moment equals hs^2/16 exactly on the
    discrete grid (trapezoid rule). hs = 0 yields a zero density. A grid on
    which that moment of the shape is not positive and finite raises
    ConfigurationError.
    """
    omega = np.asarray(omega, dtype=float)
    wp = _check_sea_state(hs, tp, omega[-1])
    density = np.zeros_like(omega)
    w = omega[omega > 0.0]
    sigma = np.where(w > wp, 0.09, 0.07)
    peak_arg = np.exp(-0.5 * ((w - wp) / (sigma * wp)) ** 2)
    shape = w**-5.0 * np.exp(-1.25 * (wp / w) ** 4) * PEAK_ENHANCEMENT**peak_arg
    density[omega > 0.0] = shape
    m0 = np.trapezoid(density, omega)
    if not (math.isfinite(m0) and m0 > 0.0):  # a grid too coarse or fine for the sea state
        raise ConfigurationError(f"spectrum of hs={hs}, tp={tp} has zeroth moment {m0} on the grid "
                                 f"{omega[0]:.4g}..{omega[-1]:.4g} rad/s")
    density *= (hs * hs / 16.0) / m0
    return WaveSpectrum(omega=omega, density=density)


class HourWork:
    """The arrays of one simulated hour of `runs` seeds under cfg: the
    phases and their float32 rounding, the complex spectrum, the
    amplitudes and the inverse transform's (runs, n_fft) output. A sweep
    makes one per block and hands it to every `simulate` call of the
    block, which refills it in place; one is never shared between
    threads."""

    def __init__(self, cfg: SimConfig, runs: int):
        bins = cfg.n_fft // 2 + 1
        self.phases = np.empty((runs, bins))
        self.phases32 = np.empty((runs, bins), dtype=np.float32)
        self.spectrum = np.empty((runs, bins), dtype=complex)
        self.amplitude = np.empty(bins)
        self.series = np.empty((runs, cfg.n_fft))


def realize_time_series(density: np.ndarray, cfg: SimConfig, seeds: Sequence[int],
                        work: HourWork | None = None) -> np.ndarray:
    """Synthesize zero-mean stationary realizations of the response.

    density is a one-sided spectral density on cfg.omega_grid, the config's
    rfft bins, so only its length is checked. Each frequency bin gets
    deterministic amplitude sqrt(2 S(w_k) dw) and an independent uniform
    random phase, whose phasor is taken in float32; each series is the
    inverse transform, truncated to cfg.n_samples. The series variance
    equals the trapezoid integral of the density in expectation. There is
    one row per seed, each equal to the series of its seed alone, from one
    batched inverse transform.

    Every step writes into work, an HourWork of cfg and len(seeds) runs
    (a fresh one if None), and the result is a view into its series: the
    next call with the same work overwrites it.
    """
    n_samples, n_fft = cfg.n_samples, cfg.n_fft
    if len(density) != n_fft // 2 + 1:
        raise ConfigurationError(
            f"density has {len(density)} bins, the config's rfft layout has {n_fft // 2 + 1}"
        )
    if work is None:
        work = HourWork(cfg, len(seeds))
    if work.series.shape != (len(seeds), n_fft):
        raise ConfigurationError(f"work arrays of shape {work.series.shape} for {len(seeds)} "
                                 f"seeds of {n_fft} samples")
    domega = 2.0 * np.pi / (n_fft * cfg.dt)
    # Each float64 phase 2 pi u is rounded to float32 once, and its float32
    # cos and sin (within 2.5e-7 of float64's) widen into the spectrum.
    phases, phases32, spectrum, amplitude = work.phases, work.phases32, work.spectrum, work.amplitude
    for row, s in zip(phases, seeds):
        np.random.default_rng(s).random(out=row)
    phases *= 2.0 * np.pi
    phases32[...] = phases
    np.cos(phases32, out=spectrum.real, dtype=np.float32)
    np.sin(phases32, out=spectrum.imag, dtype=np.float32)
    # amplitude = (n_fft / 2) sqrt(2 density domega)
    np.multiply(2.0, density, out=amplitude)
    amplitude *= domega
    np.sqrt(amplitude, out=amplitude)
    amplitude *= n_fft / 2.0
    spectrum *= amplitude
    spectrum[:, 0] = 0.0   # zero mean
    spectrum[:, -1] = 0.0  # drop the (phase-less) Nyquist bin
    return np.fft.irfft(spectrum, n=n_fft, axis=-1, out=work.series)[:, :n_samples]


def wind_moment(vw: float, cfg: SimConfig) -> float:
    """Quasi-static wind-induced moment from the config's thrust curve."""
    _check_wind(vw)
    if vw < cfg.rated_speed:
        force = cfg.rated_force * (vw / cfg.rated_speed) ** 3
    elif vw <= cfg.cutout_speed:
        force = cfg.rated_force
    else:
        force = 0.0
    return force * cfg.lever_arm


def extract_peaks(series: np.ndarray, threshold: float) -> np.ndarray:
    """Per-cycle maxima between successive threshold up-crossings, as a
    float64 array in time order.

    An up-crossing sits at index i when series[i] <= threshold < series[i+1].
    Each pair of consecutive up-crossings contributes the maximum strictly
    between them; the tail segment after the last up-crossing contributes
    its maximum as well. No crossings (e.g. a constant series) gives L = 0.
    """
    series = np.asarray(series, dtype=float)
    if len(series) < 2:
        raise ConfigurationError("series must have at least 2 samples")
    up = np.nonzero((series[:-1] <= threshold) & (series[1:] > threshold))[0]
    # Segment [up[j]+1 : up[j+1]+1) contains the crossing sample up[j+1]
    # (below threshold, never the max), so its maximum equals the maximum
    # strictly between the two crossings; reduceat's final segment runs to
    # the end of the series, and no index at all gives an empty array.
    return np.maximum.reduceat(series, up + 1)


def simulate(
    hour: Sequence[float], cfg: SimConfig = DEFAULT_SIM_CONFIG, seed: int | Sequence[int] = 0,
    work: HourWork | None = None,
) -> SimOutput | list[np.ndarray]:
    """Stochastic simulator runs of one hour: weather in, peak responses out.

    hour's first three entries are (hs, tp, vw), as in a row of
    Weather.inputs given as Python floats (`.tolist()`) or a WeatherRecord.
    A sequence of seeds gives one float64 peak array per seed, in order,
    each equal to the run of its seed alone; one int seed gives a SimOutput
    holding its array. The wave and response spectra are built once and
    every seed's series comes from one batched inverse transform, written
    into work (see realize_time_series); the peak arrays are fresh, so
    they outlive the next call. The wind moment enters as a constant
    offset over the hour and the up-crossing threshold is the arithmetic
    mean of each realized series, so peak values are absolute moments
    while the crossing structure follows the wave-induced part alone.
    """
    single = np.isscalar(seed)
    hs, tp, vw = hour[:3]
    wave = wave_spectrum(hs, tp, cfg.omega_grid)
    density = cfg.transfer_squared * wave.density
    offset = wind_moment(vw, cfg)
    peaks = []
    for series in realize_time_series(density, cfg, [seed] if single else seed, work):
        series += offset
        peaks.append(extract_peaks(series, threshold=float(series.mean())))
    return SimOutput(peaks[0]) if single else peaks


def usable_cpus() -> int:
    """The number of CPUs this process may run on: a sweep's thread count,
    at most one thread per item."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_blocks(fn: Callable[[int, int], T], n: int) -> list[T]:
    """fn(start, stop) over min(usable CPUs, n) contiguous blocks of
    range(n), at least one, each on its own thread; the results come back
    in block order.

    The first block runs on the calling thread, so one CPU starts no
    thread. When blocks raise, the error of the first of them in block
    order propagates, once every block has finished: each block stops at
    its first error, so that is the error a one-thread sweep would raise.
    """
    workers = max(1, min(usable_cpus(), n))
    bounds = [n * b // workers for b in range(workers + 1)]
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        futures = [pool.submit(fn, start, stop) for start, stop in zip(bounds[1:], bounds[2:])]
        return [fn(bounds[0], bounds[1]), *(future.result() for future in futures)]
