"""Reference formulas that the tests check the package against.

No pipeline stage calls these, so they live beside the tests rather than in
the package: the sigma^2/(N*K) variance law and the CRLB of a Gaussian mean
(acceptance criteria 4 and 10), the LTI composition identity of Q, and
step-by-step discrete propagation, the reference for ``q_closed``
(criterion 3).
"""

from __future__ import annotations

import numpy as np

from imulab.ins_error_model import (
    NoiseSpectra,
    SystemMatrices,
    check_covariance,
    phi_closed,
    q_closed,
)


def variance_of_mean(sigma: float, n_time: int, n_sensors: int) -> float:
    """Variance of the grand mean of N*K i.i.d. samples: sigma^2 / (N*K)."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if n_time < 1 or n_sensors < 1:
        raise ValueError("n_time and n_sensors must be >= 1")
    return sigma**2 / (n_time * n_sensors)


def fisher_crlb(sigma: float, n: int) -> tuple[float, float]:
    """Fisher information N/sigma^2 and CRLB sigma^2/N for a Gaussian mean."""
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    fisher = n / sigma**2
    return fisher, 1.0 / fisher


def semigroup_check(
    sys: SystemMatrices, spectra: NoiseSpectra, tau1: float, tau2: float
) -> float:
    """Relative deviation of Q from the LTI composition identity.

    Q(t1+t2) must equal Phi(t2) Q(t1) Phi(t2)' + Q(t2); returns the relative
    Frobenius mismatch (zero when both intervals are zero).
    """
    if tau1 < 0 or tau2 < 0:
        raise ValueError("tau1 and tau2 must be >= 0")
    total = q_closed(sys, spectra, tau1 + tau2)
    phi2 = phi_closed(sys, tau2)
    composed = phi2 @ q_closed(sys, spectra, tau1) @ phi2.T + q_closed(sys, spectra, tau2)
    denom = np.linalg.norm(total)
    if denom == 0:
        return float(np.linalg.norm(composed))
    return float(np.linalg.norm(total - composed) / denom)


def propagate_discrete(
    x0: np.ndarray,
    p0: np.ndarray,
    sys: SystemMatrices,
    spectra: NoiseSpectra,
    dt: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Discrete mean/covariance propagation x' = Phi x, P' = Phi P Phi' + Q(dt)
    from the 15-vector ``x0`` in the p/v/eps/ba/bg state order.

    Returns (states, covariances) of shapes (n_steps+1, 15) and
    (n_steps+1, 15, 15) including the initial condition. With P0 = 0 the
    final covariance reproduces q_closed(n_steps * dt) by the semigroup
    identity.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    p = check_covariance(np.asarray(p0, dtype=float))
    phi = phi_closed(sys, dt)
    q = q_closed(sys, spectra, dt)
    states = np.empty((n_steps + 1, 15))
    covs = np.empty((n_steps + 1, 15, 15))
    x = np.asarray(x0, dtype=float).reshape(15)
    states[0] = x
    covs[0] = p
    for k in range(1, n_steps + 1):
        x = phi @ x
        p = phi @ p @ phi.T + q
        p = 0.5 * (p + p.T)
        states[k] = x
        covs[k] = p
    return states, covs
