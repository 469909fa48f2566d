"""Order statistics of marine structural responses.

Estimates ranked extreme responses (e.g. the 100th-largest bending moment
over 25 years of hourly weather) two ways: brute force through a stochastic
spectral response simulator, and through Gaussian Process surrogates that
predict response-distribution parameters and regenerate synthetic peak
samples at a fraction of the simulator cost.
"""

from searesponse.distfit import (
    DistFamily,
    FitResult,
    TrainingRow,
    TrainingTable,
    build_training_table,
    fit_gumbel,
    fit_rayleigh,
    fit_weibull,
    load_training_table,
    write_training_table,
)
from searesponse.errors import (
    ConfigurationError,
    DataError,
    DegenerateFitError,
    DomainError,
    InsufficientDataError,
    NumericError,
    ParseError,
    SchemaError,
    SeaResponseError,
)
from searesponse.gp import (
    GPModel,
    KernelParams,
    PredictiveMoments,
    fit_hyperparams,
    matern52,
    predict,
    train,
)
from searesponse.orderstats import (
    QoiConfig,
    QoiResult,
    TopK,
    compare_qoi,
    extract_yk,
    run_qoi,
)
from searesponse.simulator import (
    DEFAULT_SIM_CONFIG,
    SimConfig,
    SimOutput,
    ThrustCurve,
    TransferFunction,
    WaveSpectrum,
    extract_peaks,
    realize_time_series,
    response_spectrum,
    simulate,
    wave_spectrum,
    wind_moment,
)
from searesponse.surrogate import (
    SurrogateModel,
    load_surrogate,
    save_surrogate,
    train_surrogate,
)
from searesponse.weather import (
    DEFAULT_BOX,
    InputBox,
    WeatherRecord,
    load_weather,
    sample_uniform_inputs,
    synthesize_weather,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SeaResponseError", "ConfigurationError", "DataError", "SchemaError",
    "ParseError", "DomainError", "InsufficientDataError", "NumericError",
    "DegenerateFitError",
    # weather
    "WeatherRecord", "InputBox", "DEFAULT_BOX",
    "load_weather", "synthesize_weather", "sample_uniform_inputs",
    # simulator
    "SimConfig", "DEFAULT_SIM_CONFIG", "TransferFunction", "ThrustCurve",
    "WaveSpectrum", "SimOutput", "wave_spectrum", "response_spectrum",
    "realize_time_series", "wind_moment", "extract_peaks", "simulate",
    # distribution fitting
    "DistFamily", "FitResult", "TrainingRow", "TrainingTable",
    "fit_rayleigh", "fit_gumbel", "fit_weibull",
    "build_training_table", "write_training_table", "load_training_table",
    # gp
    "KernelParams", "GPModel", "PredictiveMoments",
    "matern52", "fit_hyperparams", "train", "predict",
    # surrogate
    "SurrogateModel",
    "train_surrogate", "save_surrogate", "load_surrogate",
    # order statistics
    "TopK", "QoiConfig", "QoiResult",
    "extract_yk", "run_qoi", "compare_qoi",
]
