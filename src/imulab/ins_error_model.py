"""15-state INS error model for a stationary leveled platform.

State ordering (fixed): position error 0-2, velocity error 3-5, misalignment
6-8, accel bias 9-11, gyro bias 12-14. The system matrix F is nilpotent
(F^4 = 0), so the transition matrix exp(F*tau) is an exact cubic polynomial
in tau and the process-noise integral Q(tau) has a closed polynomial form.

``phi_closed``, ``q_closed`` and ``propagate_mean`` take a tau or an array of
taus and evaluate their polynomials over all of it at once. The powers
tau**1 ... tau**7 are taken one numpy scalar at a time, so an array call is
bit-identical to the stacked single-tau calls.

The oracles for ``q_closed`` are :func:`q_numeric_oracle` (quadrature, used
by ``q_coefficient_audit``) and, in ``tests/oracles.py``, step-by-step
discrete propagation and the LTI composition identity of Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sensor_model import GravityModel

__all__ = [
    "IDX_P",
    "IDX_BA",
    "SystemMatrices",
    "NoiseSpectra",
    "build_system",
    "phi_closed",
    "q_closed",
    "q_numeric_oracle",
    "q_coefficient_audit",
    "propagate_mean",
    "ellipsoid_from_cov",
    "check_covariance",
]

IDX_P = slice(0, 3)
IDX_V = slice(3, 6)
IDX_EPS = slice(6, 9)
IDX_BA = slice(9, 12)
IDX_BG = slice(12, 15)

_I3 = np.eye(3)


@dataclass(frozen=True)
class SystemMatrices:
    """Continuous-time system matrix F, gravity skew F23, and noise map G."""

    F: np.ndarray
    F23: np.ndarray
    G: np.ndarray


@dataclass(frozen=True)
class NoiseSpectra:
    """Diagonal PSD intensities of the four isotropic noise channels.

    ``s_a``/``s_g`` drive the white accel/gyro noise, ``s_ab``/``s_gb`` the
    in-run bias random walks. Units are variance per unit time (continuous
    PSD); see :func:`NoiseSpectra.from_discrete_std` for per-sample sigmas.
    """

    s_a: float = 0.0
    s_g: float = 0.0
    s_ab: float = 0.0
    s_gb: float = 0.0

    def __post_init__(self):
        for name in ("s_a", "s_g", "s_ab", "s_gb"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0")
            object.__setattr__(self, name, v)

    @classmethod
    def from_discrete_std(
        cls,
        sigma_accel: float,
        sigma_gyro: float,
        sigma_accel_bias: float,
        sigma_gyro_bias: float,
        rate_hz: float,
    ) -> "NoiseSpectra":
        """Convert per-sample stds at ``rate_hz`` to PSD intensities s = sigma^2/f_s.

        The bias-walk sigmas are already continuous intensities (per sqrt(s))
        and enter as plain squares.
        """
        return cls(
            s_a=sigma_accel**2 / rate_hz,
            s_g=sigma_gyro**2 / rate_hz,
            s_ab=sigma_accel_bias**2,
            s_gb=sigma_gyro_bias**2,
        )

    def scaled(self, factor: float) -> "NoiseSpectra":
        return NoiseSpectra(
            self.s_a * factor, self.s_g * factor, self.s_ab * factor, self.s_gb * factor
        )


class Ellipsoid(NamedTuple):
    """1-sigma position-error ellipsoid: centroid, semi-axes (>= 0, descending)
    and orthonormal orientation, one axis per column."""

    centroid: np.ndarray
    semi_axes: np.ndarray
    orientation: np.ndarray


def build_system(gravity: GravityModel) -> SystemMatrices:
    """Assemble F, F23, and G for the stationary leveled error model.

    F23 is the cross-product matrix of the navigation-frame gravity vector;
    its zero third row/column decouples the down channel from misalignment.
    """
    g = gravity.g_magnitude
    f23 = np.array([[0.0, -g, 0.0], [g, 0.0, 0.0], [0.0, 0.0, 0.0]])

    f = np.zeros((15, 15))
    f[IDX_P, IDX_V] = _I3
    f[IDX_V, IDX_EPS] = f23
    f[IDX_V, IDX_BA] = _I3
    f[IDX_EPS, IDX_BG] = _I3

    g_mat = np.zeros((15, 12))
    g_mat[IDX_V, 0:3] = _I3  # white accel noise -> velocity
    g_mat[IDX_EPS, 3:6] = _I3  # white gyro noise -> misalignment
    g_mat[IDX_BA, 6:9] = _I3  # accel bias walk
    g_mat[IDX_BG, 9:12] = _I3  # gyro bias walk
    return SystemMatrices(F=f, F23=f23, G=g_mat)


def _powers(tau) -> np.ndarray:
    """tau**0 ... tau**7 for a tau or an array of taus, shape (8,) + tau.shape.

    One numpy scalar at a time: numpy's array ``**`` differs from the scalar
    ``pow`` in the last bit for some taus, and a Python float's ``**`` raises
    ``OverflowError`` where a numpy scalar gives inf.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be >= 0")
    powers = np.array([[t**n for t in tau.flat] for n in range(8)])
    return powers.reshape((8,) + tau.shape)


def phi_closed(sys: SystemMatrices, tau) -> np.ndarray:
    """Exact state-transition matrix exp(F*tau), assembled blockwise, for a
    tau or an array of taus; shape tau.shape + (15, 15).

    Equals I + F*tau + F^2*tau^2/2 + F^3*tau^3/6; the series terminates
    because F^4 = 0, so no truncation error is involved.
    """
    t = _powers(tau)[..., None, None]
    t1, t2, t3 = t[1], t[2] / 2, t[3] / 6
    f23 = sys.F23
    phi = np.zeros(t.shape[1:-2] + (15, 15))
    phi[..., range(15), range(15)] = 1.0
    phi[..., IDX_P, IDX_V] = _I3 * t1
    phi[..., IDX_P, IDX_EPS] = f23 * t2
    phi[..., IDX_P, IDX_BA] = _I3 * t2
    phi[..., IDX_P, IDX_BG] = f23 * t3
    phi[..., IDX_V, IDX_EPS] = f23 * t1
    phi[..., IDX_V, IDX_BA] = _I3 * t1
    phi[..., IDX_V, IDX_BG] = f23 * t2
    phi[..., IDX_EPS, IDX_BG] = _I3 * t1
    return phi


def q_closed(sys: SystemMatrices, spectra: NoiseSpectra, tau) -> np.ndarray:
    """Closed-form process-noise covariance Q(tau) = int_0^tau Phi G S G' Phi' ds
    for a tau or an array of taus; shape tau.shape + (15, 15).

    All coefficients were re-derived from the integral and cross-checked
    against :func:`q_numeric_oracle`; one coefficient in circulation for the
    velocity block disagrees with the integral (see
    :func:`q_coefficient_audit`) and the integral value sigma_a^2 * tau is
    used here.
    """
    t = _powers(tau)[..., None, None]
    f23 = sys.F23
    f23sq = f23 @ f23.T  # diag(g^2, g^2, 0)
    s_a, s_g, s_ab, s_gb = spectra.s_a, spectra.s_g, spectra.s_ab, spectra.s_gb
    s_g_ab = s_g * f23sq + s_ab * _I3  # the s_g and s_ab terms share their powers

    q = np.zeros(t.shape[1:-2] + (15, 15))
    for idx_a, idx_b, block in (
        (IDX_P, IDX_P, s_gb * f23sq * t[7] / 252 + s_g_ab * t[5] / 20 + s_a * _I3 * t[3] / 3),
        (IDX_V, IDX_V, s_gb * f23sq * t[5] / 20 + s_g_ab * t[3] / 3 + s_a * _I3 * t[1]),
        (IDX_EPS, IDX_EPS, s_gb * _I3 * t[3] / 3 + s_g * _I3 * t[1]),
        (IDX_BA, IDX_BA, s_ab * _I3 * t[1]),
        (IDX_BG, IDX_BG, s_gb * _I3 * t[1]),
        (IDX_P, IDX_V, s_gb * f23sq * t[6] / 72 + s_g_ab * t[4] / 8 + s_a * _I3 * t[2] / 2),
        (IDX_P, IDX_EPS, s_gb * f23 * t[5] / 30 + s_g * f23 * t[3] / 6),
        (IDX_P, IDX_BA, s_ab * _I3 * t[3] / 6),
        (IDX_P, IDX_BG, s_gb * f23 * t[4] / 24),
        (IDX_V, IDX_EPS, s_gb * f23 * t[4] / 8 + s_g * f23 * t[2] / 2),
        (IDX_V, IDX_BA, s_ab * _I3 * t[2] / 2),
        (IDX_V, IDX_BG, s_gb * f23 * t[3] / 6),
        (IDX_EPS, IDX_BG, s_gb * _I3 * t[2] / 2),
    ):
        q[..., idx_a, idx_b] = block
        q[..., idx_b, idx_a] = np.swapaxes(block, -1, -2)
    return q


# Taus per block of ``q_numeric_oracle``'s Simpson terms: two (128, 15, 15)
# float64 stacks, 0.23 MB each.
_SIMPSON_CHUNK = 128


def q_numeric_oracle(
    sys: SystemMatrices, spectra: NoiseSpectra, tau: float, steps: int = 2000
) -> np.ndarray:
    """Composite-Simpson quadrature of the Q(tau) integral.

    Independent of :func:`q_closed` except for sharing the exact transition
    matrix; converges at fourth order in the step size. The terms are made
    and summed ``_SIMPSON_CHUNK`` taus at a time, in index order, so the
    memory it takes does not grow with ``steps``.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if steps < 100:
        raise ValueError("steps must be >= 100")
    if tau == 0:
        return np.zeros((15, 15))
    if steps % 2:
        steps += 1
    s_diag = np.repeat([spectra.s_a, spectra.s_g, spectra.s_ab, spectra.s_gb], 3)
    gsg = sys.G @ np.diag(s_diag) @ sys.G.T
    h = tau / steps
    weights = np.where(np.arange(steps + 1) % 2, 4.0, 2.0)
    weights[[0, -1]] = 1.0
    acc = np.zeros((15, 15))
    for start in range(0, steps + 1, _SIMPSON_CHUNK):
        index = np.arange(start, min(start + _SIMPSON_CHUNK, steps + 1))
        phi = phi_closed(sys, index * h)
        terms = phi @ gsg @ phi.transpose(0, 2, 1)
        terms *= weights[index, None, None]
        # A running sum carried over the chunks adds the terms in index
        # order, as a loop would.
        terms[0] += acc
        acc = np.cumsum(terms, axis=0, out=terms)[-1]
    q = acc * (h / 3.0)
    return 0.5 * (q + q.T)


# Horizon (s) at which ``q_coefficient_audit`` compares Q with quadrature.
_AUDIT_TAU = 10.0


def q_coefficient_audit(gravity: GravityModel | None = None) -> dict:
    """Numerically audit the closed-form Q coefficients against quadrature
    at ``_AUDIT_TAU``.

    Returns the maximum relative block error of :func:`q_closed` and a record
    of the one textbook coefficient that the integral contradicts: the white
    accel term of the velocity block integrates to sigma_a^2 * tau, not
    sigma_a^2 * tau / 2. The audit demonstrates this by assembling the
    disputed variant and reporting its (non-vanishing) error.
    """
    gravity = gravity or GravityModel()
    sys = build_system(gravity)
    spectra = NoiseSpectra(s_a=4.9e-7, s_g=3.3e-9, s_ab=3.3e-6, s_gb=1.4e-7)
    oracle = q_numeric_oracle(sys, spectra, _AUDIT_TAU)
    closed = q_closed(sys, spectra, _AUDIT_TAU)
    scale = np.linalg.norm(oracle)
    closed_err = float(np.linalg.norm(closed - oracle) / scale)

    disputed = closed.copy()
    disputed[IDX_V, IDX_V] -= spectra.s_a * _I3 * _AUDIT_TAU / 2  # the tau/2 variant
    disputed_err = float(np.linalg.norm(disputed - oracle) / scale)

    return {
        "tau": _AUDIT_TAU,
        "closed_form_rel_error": closed_err,
        "disputed_coefficients": [
            {
                "block": "velocity/velocity",
                "term": "white accel noise",
                "printed": "s_a * tau / 2",
                "integral": "s_a * tau",
                "variant_rel_error": disputed_err,
            }
        ],
    }


def propagate_mean(
    bias_a: np.ndarray, bias_g: np.ndarray, sys: SystemMatrices, tau
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic kinematic error after ``tau`` driven by constant biases;
    for a tau or an array of taus, dp, dv and eps have shape tau.shape + (3,).

    With zero initial kinematics: dp = ba*tau^2/2 + F23 bg tau^3/6,
    dv = ba*tau + F23 bg tau^2/2, eps = bg*tau. Position drifts cubically
    through the gravity coupling, except on the down channel where the
    coupling vanishes.
    """
    t = _powers(tau)[..., None]
    ba = np.asarray(bias_a, dtype=float).reshape(3)
    bg = np.asarray(bias_g, dtype=float).reshape(3)
    f23bg = sys.F23 @ bg
    dp = ba * t[2] / 2 + f23bg * t[3] / 6
    dv = ba * t[1] + f23bg * t[2] / 2
    eps = bg * t[1]
    return dp, dv, eps


def check_covariance(p: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Validate symmetry and positive semidefiniteness of a covariance."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"{name} must be square")
    scale = max(np.abs(p).max(), 1.0)
    if np.max(np.abs(p - p.T)) > 1e-12 * scale:
        raise ValueError(f"{name} must be symmetric")
    trace = np.trace(p)
    min_eig = float(np.linalg.eigvalsh(p).min())
    if min_eig < -1e-10 * max(trace, 1e-300):
        raise ValueError(f"{name} must be positive semidefinite")
    return 0.5 * (p + p.T)


def ellipsoid_from_cov(p_block: np.ndarray, centroid: np.ndarray) -> Ellipsoid:
    """1-sigma ellipsoid of a 3x3 position covariance block.

    Semi-axes are the square roots of the eigenvalues (sorted descending);
    orientation columns are the matching eigenvectors, sign-fixed so each
    column's largest-magnitude entry is positive, then flipped to a
    right-handed triad.
    """
    p = check_covariance(p_block, "p_block")
    eigvals, eigvecs = np.linalg.eigh(p)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    vecs = eigvecs[:, order]
    for j in range(3):
        lead = np.argmax(np.abs(vecs[:, j]))
        if vecs[lead, j] < 0:
            vecs[:, j] = -vecs[:, j]
    if np.linalg.det(vecs) < 0:
        vecs[:, 2] = -vecs[:, 2]
    return Ellipsoid(
        centroid=np.asarray(centroid, dtype=float).reshape(3),
        semi_axes=np.sqrt(eigvals),
        orientation=vecs,
    )
