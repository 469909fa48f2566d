"""Order statistics of marine structural responses.

Estimates ranked extreme responses (e.g. the 100th-largest bending moment
over 25 years of hourly weather) two ways: brute force through a stochastic
spectral response simulator, and through Gaussian Process surrogates that
predict response-distribution parameters and regenerate synthetic peak
samples at a fraction of the simulator cost.
"""

import importlib

__version__ = "0.1.0"

# The names of the README's library example, each with the module that
# defines it; everything else is imported from its module
# (searesponse.gp, searesponse.errors, ...). A name's module is imported on
# first use (PEP 562), so `import searesponse` loads no GP layer.
_EXPORTS = {
    "DEFAULT_SIM_CONFIG": "simulator",
    "DistFamily": "distfit",
    "QoiConfig": "orderstats",
    "build_training_table": "distfit",
    "compare_qoi": "orderstats",
    "run_qoi": "orderstats",
    "sample_uniform_inputs": "weather",
    "synthesize_weather": "weather",
    "train_surrogate": "surrogate",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
