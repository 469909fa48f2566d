import numpy as np
import pytest

from searesponse.distfit import build_training_table
from searesponse.simulator import SimConfig
from searesponse.weather import sample_uniform_inputs


@pytest.fixture(scope="session")
def fast_sim_config() -> SimConfig:
    """Short-duration simulator config for unit tests (1024 samples)."""
    return SimConfig(
        dt=0.5, duration=512.0, omega0=0.65, zeta=0.10, gain=3.0e4,
        rated_speed=11.0, cutout_speed=25.0, rated_force=1.0e3, lever_arm=50.0,
    )


@pytest.fixture(scope="session")
def small_table(fast_sim_config):
    """Small but real training table shared by surrogate-level tests."""
    design = sample_uniform_inputs(48, seed=202)
    return build_training_table(design, m_runs=4, cfg=fast_sim_config, seed=303)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(8712)
