"""Stochastic spectral response simulator.

Maps one hour of weather to an array of peak structural responses:
parametric wave spectrum -> transfer-function filtering -> random-phase
time-domain realization -> constant wind-moment offset -> mean-crossing
peak extraction. The number of peaks L is itself random, varying with the
realization seed. `simulate` takes one seed or many: it builds the
hour's spectrum once and realizes every seed from it in one batched
inverse transform.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from searesponse.errors import ConfigurationError, SchemaError
from searesponse.fileio import read_json_object
from searesponse.weather import Weather, WeatherRecord

logger = logging.getLogger(__name__)

PEAK_ENHANCEMENT = 3.3


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
    """Array of peak responses from one simulated hour."""

    peaks: np.ndarray

    def __post_init__(self):
        self.peaks = np.asarray(self.peaks, dtype=float)

    @property
    def count(self) -> int:
        return len(self.peaks)


@dataclass(frozen=True)
class SimConfig:
    """Discretization and structure model for one simulator run; the fields
    are the keys of sim_config.json, in file order.

    duration/dt fixes the sample count (>= 1024, zero-padded to the next
    power of two for the transform); the omega grid is matched to the
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
    try:
        values = {k: float(raw[k]) for k in keys}
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: non-numeric value: {exc}")
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
    that hour's position; one vectorized pass over the hours finds it."""
    omega_top = cfg.omega_grid[-1]
    hs, tp, vw = weather.inputs.T
    # The checks of _check_sea_state and _check_wind, which NaN fails too.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        good = ((hs >= 0.0) & (hs < math.inf) & (tp > 0.0) & (tp < math.inf)
                & (2.0 * np.pi / tp <= omega_top) & (vw >= 0.0) & (vw < math.inf))
    bad = np.flatnonzero(~good)
    if len(bad):
        i = int(bad[0])
        record = weather.record(i)
        try:
            _check_sea_state(record.hs, record.tp, omega_top)
            _check_wind(record.vw)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{label} {i}: {exc}") from None


def wave_spectrum(hs: float, tp: float, omega: np.ndarray) -> WaveSpectrum:
    """Single-peak parametric wave spectrum on the given grid.

    Uses the JONSWAP functional form with peak enhancement 3.3, then
    rescales so the zeroth spectral moment equals hs^2/16 exactly on the
    discrete grid (trapezoid rule). hs = 0 yields a zero density.
    """
    omega = np.asarray(omega, dtype=float)
    wp = _check_sea_state(hs, tp, omega[-1])
    density = np.zeros_like(omega)
    if hs > 0.0:
        w = omega[omega > 0.0]
        sigma = np.where(w > wp, 0.09, 0.07)
        peak_arg = np.exp(-0.5 * ((w - wp) / (sigma * wp)) ** 2)
        shape = w**-5.0 * np.exp(-1.25 * (wp / w) ** 4) * PEAK_ENHANCEMENT**peak_arg
        density[omega > 0.0] = shape
        m0 = np.trapezoid(density, omega)
        density *= (hs * hs / 16.0) / m0
    return WaveSpectrum(omega=omega, density=density)


def realize_time_series(density: np.ndarray, cfg: SimConfig, seeds: Sequence[int]) -> np.ndarray:
    """Synthesize zero-mean stationary realizations of the response.

    density is a one-sided spectral density on cfg.omega_grid, the config's
    rfft bins, so only its length is checked. Each frequency bin gets
    deterministic amplitude sqrt(2 S(w_k) dw) and an independent uniform
    random phase; each series is the inverse transform, truncated to
    cfg.n_samples. The series variance equals the trapezoid integral of the
    density in expectation. There is one row per seed, each equal to the
    series of its seed alone, from one batched inverse transform.
    """
    n_samples, n_fft = cfg.n_samples, cfg.n_fft
    if len(density) != n_fft // 2 + 1:
        raise ConfigurationError(
            f"density has {len(density)} bins, the config's rfft layout has {n_fft // 2 + 1}"
        )
    domega = 2.0 * np.pi / (n_fft * cfg.dt)
    # uniform(0, 2 pi) draws 0 + 2 pi u, and exp(1j phase) is cos + 1j sin:
    # the same bits, written in place.
    phases = np.empty((len(seeds), len(density)))
    for row, s in zip(phases, seeds):
        np.random.default_rng(s).random(out=row)
    phases *= 2.0 * np.pi
    spectrum = np.empty(phases.shape, dtype=complex)
    np.cos(phases, out=spectrum.real)
    np.sin(phases, out=spectrum.imag)
    spectrum *= (n_fft / 2.0) * np.sqrt(2.0 * density * domega)
    spectrum[:, 0] = 0.0   # zero mean
    spectrum[:, -1] = 0.0  # drop the (phase-less) Nyquist bin
    return np.fft.irfft(spectrum, n=n_fft, axis=-1)[:, :n_samples]


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


def extract_peaks(series: np.ndarray, threshold: float) -> SimOutput:
    """Per-cycle maxima between successive threshold up-crossings.

    An up-crossing sits at index i when series[i] <= threshold < series[i+1].
    Each pair of consecutive up-crossings contributes the maximum strictly
    between them; the tail segment after the last up-crossing contributes
    its maximum as well. No crossings (e.g. a constant series) gives L = 0.
    """
    series = np.asarray(series, dtype=float)
    if len(series) < 2:
        raise ConfigurationError("series must have at least 2 samples")
    up = np.nonzero((series[:-1] <= threshold) & (series[1:] > threshold))[0]
    if len(up) == 0:
        return SimOutput(peaks=np.empty(0))
    # Segment [up[j]+1 : up[j+1]+1) contains the crossing sample up[j+1]
    # (below threshold, never the max), so its maximum equals the maximum
    # strictly between the two crossings; reduceat's final segment runs to
    # the end of the series.
    peaks = np.maximum.reduceat(series, up + 1)
    return SimOutput(peaks=peaks)


def simulate(
    record: WeatherRecord, cfg: SimConfig = DEFAULT_SIM_CONFIG, seed: int | Sequence[int] = 0,
) -> SimOutput | list[SimOutput]:
    """Stochastic simulator runs of one hour: weather in, peak responses out.

    One int seed gives one SimOutput; a sequence of seeds gives one per
    seed, in order, each equal to the run of its seed alone. The wave and
    response spectra are built once and every seed's series comes from one
    batched inverse transform. The wind moment enters as a constant offset
    over the hour and the up-crossing threshold is the arithmetic mean of
    each realized series, so peak values are absolute moments while the
    crossing structure follows the wave-induced part alone.
    """
    single = np.isscalar(seed)
    wave = wave_spectrum(record.hs, record.tp, cfg.omega_grid)
    density = cfg.transfer_squared * wave.density
    offset = wind_moment(record.vw, cfg)
    outputs = []
    for row in realize_time_series(density, cfg, [seed] if single else seed):
        series = row + offset
        outputs.append(extract_peaks(series, threshold=float(series.mean())))
    return outputs[0] if single else outputs
