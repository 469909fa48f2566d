"""Order statistics of marine structural responses.

Estimates ranked extreme responses (e.g. the 100th-largest bending moment
over 25 years of hourly weather) two ways: brute force through a stochastic
spectral response simulator, and through Gaussian Process surrogates that
predict response-distribution parameters and regenerate synthetic peak
samples at a fraction of the simulator cost.
"""

from searesponse.distfit import DistFamily, build_training_table
from searesponse.orderstats import QoiConfig, compare_qoi, run_qoi
from searesponse.simulator import DEFAULT_SIM_CONFIG
from searesponse.surrogate import train_surrogate
from searesponse.weather import sample_uniform_inputs, synthesize_weather

__version__ = "0.1.0"

# The names of the README's library example; everything else is imported
# from its module (searesponse.gp, searesponse.errors, ...).
__all__ = [
    "__version__", "DEFAULT_SIM_CONFIG", "DistFamily", "QoiConfig",
    "build_training_table", "compare_qoi", "run_qoi", "sample_uniform_inputs",
    "synthesize_weather", "train_surrogate",
]
