import numpy as np
import pytest

from imulab.ins_error_model import NoiseSpectra, build_system
from imulab.sensor_model import GravityModel
from oracles import median_sensor_params


@pytest.fixture(scope="session")
def gravity():
    return GravityModel()


@pytest.fixture(scope="session")
def sys_m(gravity):
    return build_system(gravity)


@pytest.fixture(scope="session")
def median_params():
    return median_sensor_params()


@pytest.fixture(scope="session")
def median_spectra(median_params):
    return NoiseSpectra.from_discrete_std(
        median_params.sigma_accel,
        median_params.sigma_gyro,
        median_params.sigma_accel_bias,
        median_params.sigma_gyro_bias,
        rate_hz=100.0,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
