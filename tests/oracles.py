"""Reference formulas that the tests check the package against.

No pipeline stage calls these, so they live beside the tests rather than in
the package: the sigma^2/(N*K) variance law and the CRLB of a Gaussian mean
(acceptance criteria 4 and 10), the two-part wide-sense-stationarity check
(criterion 11; its quantiles are scipy's, which the package does not need),
a sensor at the median of the reference error ranges, the LTI composition
identity of Q, step-by-step discrete propagation, the reference for
``q_closed`` (criterion 3), Van Loan's exact block exponential for Q, the
whole-array Simpson quadrature that the chunked ``q_numeric_oracle``
replaced, the whole-text recording reader that the streaming
``dataio._recording_rows`` replaced, the cell-by-cell CSV rule that
``dataio._float_cells`` renders whole tables to, and the product validators
and ``db_ratios`` collector that ``report``'s per-product readers replaced.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import NamedTuple

import numpy as np

from imulab.dataio import ConfigError, DataError, check_finite, is_finite, read_json
from imulab.estimation import db_ratio
from imulab.ins_error_model import (
    NoiseSpectra,
    SystemMatrices,
    check_covariance,
    phi_closed,
    q_closed,
)
from imulab.sensor_model import (
    MEMS_ERROR_RANGES,
    SensorErrorParams,
    SensorRecording,
    _inrun_intensity,
)

_CSV_HEADER = ["t", "gx", "gy", "gz", "ax", "ay", "az"]


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


class WssVerdict(NamedTuple):
    mean_drift_stat: float
    acf_whiteness_stat: float
    mean_drift_threshold: float
    acf_whiteness_threshold: float
    passed: bool


def wss_check(series: np.ndarray, alpha: float = 0.01, n_lags: int = 20) -> WssVerdict:
    """Two-part wide-sense-stationarity check of a scalar series.

    Mean drift: the split-half mean difference normalized by the pooled
    std, compared against a two-sided Gaussian quantile. Whiteness: a
    Ljung-Box statistic over ``n_lags`` autocorrelation lags against a
    chi-square quantile. Both parts must clear their level-``alpha``
    thresholds for the verdict to pass.
    """
    from scipy import stats as sp_stats  # deferred: slow to import, only this check needs it

    x = np.asarray(series, dtype=float).ravel()
    n = x.size
    if n < 100:
        raise ValueError("need at least 100 samples for a stationarity check")
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")

    half = n // 2
    a, b = x[:half], x[half : 2 * half]
    pooled = np.sqrt((a.var(ddof=1) + b.var(ddof=1)) / 2)
    if pooled == 0:
        drift_stat = 0.0 if a.mean() == b.mean() else np.inf
    else:
        drift_stat = abs(a.mean() - b.mean()) / (pooled * np.sqrt(2.0 / half))
    drift_thresh = float(sp_stats.norm.ppf(1 - alpha / 2))

    z = x - x.mean()
    denom = float(z @ z)
    if denom == 0:
        lb_stat = 0.0
    else:
        acf = np.array([float(z[:-lag] @ z[lag:]) / denom for lag in range(1, n_lags + 1)])
        lb_stat = float(n * (n + 2) * np.sum(acf**2 / (n - np.arange(1, n_lags + 1))))
    lb_thresh = float(sp_stats.chi2.ppf(1 - alpha, df=n_lags))

    return WssVerdict(
        mean_drift_stat=float(drift_stat),
        acf_whiteness_stat=lb_stat,
        mean_drift_threshold=drift_thresh,
        acf_whiteness_threshold=lb_thresh,
        passed=bool(drift_stat < drift_thresh and lb_stat < lb_thresh),
    )


def median_sensor_params() -> SensorErrorParams:
    """A single sensor pinned at the median of the reference error ranges."""
    bg_rms = np.deg2rad(MEMS_ERROR_RANGES["gyro_bias_rms_dps"][1])
    ba_rms = MEMS_ERROR_RANGES["accel_bias_rms"][1]
    return SensorErrorParams(
        bias_gyro=np.full(3, bg_rms),  # equal split -> 3-axis RMS == bg_rms
        bias_accel=np.full(3, ba_rms),
        sigma_gyro=np.deg2rad(MEMS_ERROR_RANGES["gyro_noise_rms_dps"][1]),
        sigma_accel=MEMS_ERROR_RANGES["accel_noise_rms"][1],
        sigma_gyro_bias=_inrun_intensity(bg_rms),
        sigma_accel_bias=_inrun_intensity(ba_rms),
    )


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


def van_loan_q(sys: SystemMatrices, spectra: NoiseSpectra, tau: float) -> np.ndarray:
    """Q(tau) by Van Loan's block exponential, from F and G alone: it shares
    no code with ``phi_closed`` or ``q_closed``.

    C = [[-F, G S G'], [0, F']] is nilpotent (C^8 = 0, as F^4 = 0), so
    exp(C tau) is exactly the first eight terms of its series, and
    Q = (exp(C tau)_22)' exp(C tau)_12.
    """
    n = sys.F.shape[0]
    s_diag = np.repeat([spectra.s_a, spectra.s_g, spectra.s_ab, spectra.s_gb], 3)
    c = np.zeros((2 * n, 2 * n))
    c[:n, :n] = -sys.F
    c[:n, n:] = sys.G @ np.diag(s_diag) @ sys.G.T
    c[n:, n:] = sys.F.T
    term = exp_c = np.eye(2 * n)
    for k in range(1, 8):
        term = term @ c * (tau / k)
        exp_c = exp_c + term
    return exp_c[n:, n:].T @ exp_c[:n, n:]


def whole_array_q_numeric_oracle(
    sys: SystemMatrices, spectra: NoiseSpectra, tau: float, steps: int = 2000
) -> np.ndarray:
    """``ins_error_model.q_numeric_oracle`` as it was before it summed in
    chunks: every Simpson term in one (steps + 1, 15, 15) stack, then one
    running sum over it. Its result is the reference for the chunked sum."""
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
    phi = phi_closed(sys, np.arange(steps + 1) * h)
    terms = phi @ gsg @ phi.transpose(0, 2, 1)
    weights = np.where(np.arange(steps + 1) % 2, 4.0, 2.0)
    weights[[0, -1]] = 1.0
    terms *= weights[:, None, None]
    acc = np.cumsum(terms, axis=0, out=terms)[-1]
    q = acc * (h / 3.0)
    return 0.5 * (q + q.T)


def cell_by_cell_csv(table) -> str:
    """The text of a CSV table, a mapping of column name to a sequence of
    scalars of one length, as ``dataio.render_report`` renders it, one cell
    at a time: a float's ``repr``, any other value's ``str``."""
    cols = {k: np.asarray(v).tolist() if isinstance(v, np.ndarray) else v
            for k, v in table.items()}
    n_rows = len(next(iter(cols.values()), []))
    return ",".join(cols) + "\n" + "".join(
        ",".join(
            repr(float(cols[c][i])) if isinstance(cols[c][i], float) else str(cols[c][i])
            for c in cols
        ) + "\n"
        for i in range(n_rows)
    )


def whole_text_parse_recording(
    path, sensor_id: str, rate_hz: float, gyro_units: str = "rad/s"
) -> SensorRecording:
    """``dataio.parse_recording_csv`` as it was before it read a stream: the
    file is read whole, then its body parsed and, on a fault, rescanned line
    by line to name it. Its arrays and messages are the reference for the
    streaming reader's."""
    if gyro_units not in ("deg/s", "rad/s"):
        raise ConfigError(f"unknown gyro units {gyro_units!r}")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"{sensor_id}: cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{sensor_id}: {path}: not UTF-8 text: {exc}") from exc
    if not text:
        raise DataError(f"{sensor_id}: empty file")
    header_line, _, body = text.partition("\n")
    header = header_line.rstrip("\r").split(",")
    if [h.strip() for h in header] != _CSV_HEADER:
        raise DataError(
            f"{sensor_id}: bad header {header!r}, expected {','.join(_CSV_HEADER)}"
        )
    if not body.strip("\r\n"):
        raise DataError(f"{sensor_id}: no data rows")
    try:
        arr = _read_text_rows(body)
    except ValueError as exc:
        raise _text_parse_error(sensor_id, body, exc) from exc
    if arr.shape[1] != len(_CSV_HEADER):
        raise _text_parse_error(sensor_id, body, "expected 7 columns")
    if not np.isfinite(arr).all():
        raise _text_parse_error(sensor_id, body, "non-finite value")
    gyro = arr[:, 1:4]
    if gyro_units == "deg/s":
        gyro = np.deg2rad(gyro)
    try:
        return SensorRecording(
            sensor_id=sensor_id, rate_hz=rate_hz, t=arr[:, 0], gyro=gyro, accel=arr[:, 4:7]
        )
    except ValueError as exc:
        raise DataError(f"{sensor_id}: {exc}") from exc


def _read_text_rows(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), delimiter=",", comments=None, ndmin=2)


def _text_parse_error(sensor_id: str, body: str, cause) -> DataError:
    """The first malformed or non-finite line of ``body``, in file numbering."""
    for lineno, line in enumerate(body.split("\n"), start=2):
        cells = line.rstrip("\r").split(",")
        if cells == [""]:
            continue
        if len(cells) != len(_CSV_HEADER):
            return DataError(f"{sensor_id}: line {lineno}: expected 7 columns")
        try:
            row = _read_text_rows(line)
        except ValueError as exc:
            bad = next((c for j, c in enumerate(cells) if not _text_reads_alone(cells, j)), None)
            problem = exc if bad is None else f"could not convert string to float: {bad!r}"
            return DataError(f"{sensor_id}: line {lineno}: {problem}")
        if not np.isfinite(row).all():
            return DataError(f"{sensor_id}: line {lineno}: non-finite value")
    return DataError(f"{sensor_id}: {cause}")


def _text_reads_alone(cells: list[str], j: int) -> bool:
    try:
        _read_text_rows(",".join(["0"] * j + [cells[j]] + ["0"] * (len(cells) - j - 1)))
    except ValueError:
        return False
    return True


def read_product(path: Path, has_fields):
    """A stage product read by ``read_json``, or None if there is none.

    A product that fails ``has_fields`` or holds a non-finite number is a
    ``DataError`` naming it.
    """
    if not path.exists():
        return None
    product = read_json(path)
    try:
        check_finite(product)
    except ValueError:
        product = None  # judged as a missing field
    if not has_fields(product):
        raise DataError(f"{path}: missing, non-numeric or non-finite product field")
    return product


def has_evaluation_fields(evaluation) -> bool:
    """Whether ``collect_db`` can read an ``evaluation_matrix.json`` product."""
    return isinstance(evaluation, dict) and all(
        isinstance(block, dict)
        and is_finite(block.get("n_ratio_db"))
        and "k_ratio_db" in block
        and (block["k_ratio_db"] is None or is_finite(block["k_ratio_db"]))
        for block in (evaluation.get("gyro_dps"), evaluation.get("accel"))
    )


def has_ratio_fields(ratios) -> bool:
    """Whether ``collect_db`` can read a ``ratio_matrices.json`` product."""
    unc = ratios.get("uncertainty_ratio") if isinstance(ratios, dict) else None
    return isinstance(unc, list) and all(
        isinstance(row, list) and all(map(is_finite, row)) for row in unc
    )


def collect_db(evaluation, ratios) -> dict:
    """report.json's ``db_ratios`` from the two products ``read_product`` read."""
    out = {}
    if evaluation is not None:
        for key in ("gyro_dps", "accel"):
            out[f"{key}_k_ratio_db"] = evaluation[key]["k_ratio_db"]
            out[f"{key}_n_ratio_db"] = evaluation[key]["n_ratio_db"]
    if ratios is not None:
        positive = [v for row in ratios["uncertainty_ratio"] for v in row if v > 0]
        if positive:
            out["uncertainty_ratio_db_mean"] = float(
                np.mean([db_ratio(v) for v in positive])
            )
    return out
