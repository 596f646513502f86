"""Stationary MEMS-IMU array simulation, estimation, and error propagation.

The API is imported from its submodules: ``sensor_model``, ``estimation``,
``ins_error_model``, ``dataio`` and ``cli``.
"""

__version__ = "0.1.0"
