"""Stationary MEMS-IMU array simulation, estimation, and error propagation."""

__version__ = "0.1.0"

from .sensor_model import (
    ArrayRecording,
    GravityModel,
    SensorErrorParams,
    SensorRecording,
    residuals,
    simulate_array,
)
from .estimation import (
    db_ratio,
    fisher_crlb,
    kde_density,
    rms,
    running_std_profile,
    variance_of_mean,
    wss_check,
)
from .ins_error_model import (
    ErrorState,
    NoiseSpectra,
    build_system,
    ellipsoid_from_cov,
    phi_closed,
    propagate_discrete,
    propagate_mean,
    q_closed,
)

__all__ = [
    "ArrayRecording",
    "GravityModel",
    "SensorErrorParams",
    "SensorRecording",
    "residuals",
    "simulate_array",
    "db_ratio",
    "fisher_crlb",
    "kde_density",
    "rms",
    "running_std_profile",
    "variance_of_mean",
    "wss_check",
    "ErrorState",
    "NoiseSpectra",
    "build_system",
    "ellipsoid_from_cov",
    "phi_closed",
    "propagate_discrete",
    "propagate_mean",
    "q_closed",
]
