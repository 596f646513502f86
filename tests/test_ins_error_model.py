import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imulab import ins_error_model
from imulab.ins_error_model import (
    IDX_BA,
    NoiseSpectra,
    build_system,
    check_covariance,
    ellipsoid_from_cov,
    phi_closed,
    propagate_mean,
    q_closed,
    q_coefficient_audit,
    q_numeric_oracle,
)
from imulab.sensor_model import GravityModel
from oracles import propagate_discrete, semigroup_check, whole_array_q_numeric_oracle

taus = st.floats(0.0, 50.0, allow_nan=False)


def simpson_loop(sys_m, spectra, tau, steps):
    """Reference: composite Simpson over one phi_closed call per node, summed in order."""
    if steps % 2:
        steps += 1
    s_diag = np.repeat([spectra.s_a, spectra.s_g, spectra.s_ab, spectra.s_gb], 3)
    gsg = sys_m.G @ np.diag(s_diag) @ sys_m.G.T
    h = tau / steps
    acc = np.zeros((15, 15))
    for i in range(steps + 1):
        phi = phi_closed(sys_m, i * h)
        w = 1.0 if i in (0, steps) else (4.0 if i % 2 else 2.0)
        acc += w * (phi @ gsg @ phi.T)
    q = acc * (h / 3.0)
    return 0.5 * (q + q.T)


def phi_series(sys_m, tau):
    """Independent oracle: truncated matrix-exponential series (F^4 = 0)."""
    acc = np.eye(15)
    term = np.eye(15)
    for i in range(1, 4):
        term = term @ sys_m.F * (tau / i)
        acc = acc + term
    return acc


class TestBuildSystem:
    def test_gravity_skew_entries(self, sys_m):
        f23 = sys_m.F23
        assert f23[1, 0] == 9.81 and f23[0, 1] == -9.81
        assert np.count_nonzero(f23) == 2
        assert np.allclose(f23, -f23.T)

    def test_f_is_nilpotent(self, sys_m):
        f4 = np.linalg.matrix_power(sys_m.F, 4)
        assert np.all(f4 == 0)

    def test_shaping_matrix_blocks(self, sys_m):
        g = sys_m.G
        assert np.array_equal(g[0:3], np.zeros((3, 12)))
        assert np.array_equal(g[3:6, 0:3], np.eye(3))
        assert np.array_equal(g[6:9, 3:6], np.eye(3))
        assert np.array_equal(g[9:12, 6:9], np.eye(3))
        assert np.array_equal(g[12:15, 9:12], np.eye(3))


class TestPhiClosed:
    def test_tau_zero_is_identity(self, sys_m):
        assert np.array_equal(phi_closed(sys_m, 0.0), np.eye(15))

    def test_gravity_coupled_block_entry(self, sys_m):
        # position-x response to gyro-bias-y at tau=2: (1/6)*(-g)*8
        phi = phi_closed(sys_m, 2.0)
        assert phi[0, 13] == pytest.approx(-13.08, abs=1e-10)

    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0, 100.0])
    def test_matches_series_oracle(self, sys_m, tau):
        phi = phi_closed(sys_m, tau)
        ref = phi_series(sys_m, tau)
        assert np.max(np.abs(phi - ref)) < 1e-12 * np.linalg.norm(phi)

    @given(t1=taus, t2=taus)
    @settings(max_examples=50)
    def test_semigroup(self, sys_m, t1, t2):
        lhs = phi_closed(sys_m, t1) @ phi_closed(sys_m, t2)
        rhs = phi_closed(sys_m, t1 + t2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)

    def test_negative_tau_rejected(self, sys_m):
        with pytest.raises(ValueError):
            phi_closed(sys_m, -1.0)


class TestQClosed:
    def test_tau_zero(self, sys_m, median_spectra):
        assert np.all(q_closed(sys_m, median_spectra, 0.0) == 0)

    def test_gyro_noise_only_attitude_block(self, sys_m):
        s_g = 2.5e-9
        q = q_closed(sys_m, NoiseSpectra(s_g=s_g), 1.0)
        assert np.allclose(q[6:9, 6:9], s_g * np.eye(3), rtol=1e-14)

    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0, 100.0])
    def test_matches_quadrature(self, sys_m, median_spectra, tau):
        closed = q_closed(sys_m, median_spectra, tau)
        oracle = q_numeric_oracle(sys_m, median_spectra, tau)
        err = np.linalg.norm(closed - oracle) / np.linalg.norm(oracle)
        assert err < 1e-6

    def test_symmetric_psd(self, sys_m, median_spectra):
        for tau in (0.5, 5.0, 50.0):
            q = q_closed(sys_m, median_spectra, tau)
            assert np.max(np.abs(q - q.T)) <= 1e-12 * np.abs(q).max()
            assert np.linalg.eigvalsh(q).min() >= -1e-10 * np.trace(q)

    def test_audit_flags_velocity_block(self, gravity):
        audit = q_coefficient_audit(gravity)
        assert audit["closed_form_rel_error"] < 1e-6
        (entry,) = audit["disputed_coefficients"]
        assert entry["block"] == "velocity/velocity"
        assert entry["variant_rel_error"] > 1e-6


class TestQNumericOracle:
    def test_zero_spectra(self, sys_m):
        assert np.all(q_numeric_oracle(sys_m, NoiseSpectra(), 1.0) == 0)

    def test_accel_white_single_channel(self, sys_m):
        s_a = 0.7
        q = q_numeric_oracle(sys_m, NoiseSpectra(s_a=s_a), 1.0)
        assert np.allclose(q[0:3, 0:3], s_a / 3 * np.eye(3), atol=1e-10)
        assert np.allclose(q[0:3, 3:6], s_a / 2 * np.eye(3), atol=1e-10)
        assert np.allclose(q[3:6, 3:6], s_a * np.eye(3), atol=1e-10)

    def test_fourth_order_convergence(self, sys_m, median_spectra):
        ref = q_closed(sys_m, median_spectra, 10.0)
        coarse = np.linalg.norm(q_numeric_oracle(sys_m, median_spectra, 10.0, 100) - ref)
        fine = np.linalg.norm(q_numeric_oracle(sys_m, median_spectra, 10.0, 200) - ref)
        assert coarse >= 8 * fine

    def test_too_few_steps(self, sys_m, median_spectra):
        with pytest.raises(ValueError):
            q_numeric_oracle(sys_m, median_spectra, 1.0, steps=50)

    @pytest.mark.parametrize(
        "tau, steps", [(0.1, 100), (1.0, 101), (3.3, 250), (10.0, 2000), (100.0, 400)]
    )
    def test_bit_identical_to_loop(self, sys_m, tau, steps):
        spectra = NoiseSpectra(s_a=4.9e-7, s_g=3.3e-9, s_ab=3.3e-6, s_gb=1.4e-7)
        want = simpson_loop(sys_m, spectra, tau, steps)
        assert np.array_equal(q_numeric_oracle(sys_m, spectra, tau, steps), want)

    # 48 cases: three gravities x four taus x four step counts. 101 is odd
    # (rounded up to 102); 254 and 256 leave a last chunk of 127 nodes and
    # of one node.
    @pytest.mark.parametrize("g", [0.0, 9.81, 24.79])
    @pytest.mark.parametrize("tau", [0.05, 1.0, 10.0, 250.0])
    @pytest.mark.parametrize("steps", [101, 254, 256, 2000])
    def test_chunked_sum_matches_whole_array_sum(self, g, tau, steps):
        sys_g = build_system(GravityModel(g))
        spectra = NoiseSpectra(s_a=4.9e-7, s_g=3.3e-9, s_ab=3.3e-6, s_gb=1.4e-7)
        want = whole_array_q_numeric_oracle(sys_g, spectra, tau, steps)
        assert np.array_equal(q_numeric_oracle(sys_g, spectra, tau, steps), want)

    def test_audit_matches_whole_array_audit(self, gravity, monkeypatch):
        audit = q_coefficient_audit(gravity)
        monkeypatch.setattr(ins_error_model, "q_numeric_oracle", whole_array_q_numeric_oracle)
        assert q_coefficient_audit(gravity) == audit


class TestSemigroupCheck:
    def test_zero_intervals(self, sys_m, median_spectra):
        assert semigroup_check(sys_m, median_spectra, 0.0, 0.0) == 0.0

    def test_table_spectra(self, sys_m, median_spectra):
        assert semigroup_check(sys_m, median_spectra, 30.0, 70.0) < 1e-9

    def test_sparse_gyro_walk(self, sys_m):
        assert semigroup_check(sys_m, NoiseSpectra(s_gb=1e-8), 1.0, 1.0) < 1e-12


class TestPropagateMean:
    def test_zero_bias(self, sys_m):
        for tau in (0.0, 1.0, 100.0):
            dp, dv, eps = propagate_mean(np.zeros(3), np.zeros(3), sys_m, tau)
            assert not np.any(dp) and not np.any(dv) and not np.any(eps)

    def test_accel_bias_quadratic(self, sys_m):
        dp, dv, _ = propagate_mean([0, 0, 0.1], np.zeros(3), sys_m, 10.0)
        assert np.allclose(dp, [0, 0, 5.0], atol=1e-12)
        assert np.allclose(dv, [0, 0, 1.0], atol=1e-12)

    def test_gyro_bias_cubic_through_gravity(self, sys_m):
        dp, _, eps = propagate_mean(np.zeros(3), [0.001, 0, 0], sys_m, 6.0)
        assert np.allclose(dp, [0, 0.35316, 0], atol=1e-10)
        assert np.allclose(eps, [0.006, 0, 0], atol=1e-15)

    def test_down_channel_has_no_cubic_term(self, sys_m):
        # gravity coupling vanishes on z, so gyro bias alone never moves dp_z
        dp, _, _ = propagate_mean(np.zeros(3), [0.01, 0.01, 0.01], sys_m, 50.0)
        assert dp[2] == 0.0

    def test_growth_orders_exact(self, sys_m):
        t1, t2 = 10.0, 40.0
        dp_a = [propagate_mean([0, 0, 0.1], np.zeros(3), sys_m, t)[0] for t in (t1, t2)]
        exp_a = np.log(np.linalg.norm(dp_a[1]) / np.linalg.norm(dp_a[0])) / np.log(t2 / t1)
        assert exp_a == pytest.approx(2.0, abs=1e-6)
        dp_g = [propagate_mean(np.zeros(3), [0.001, 0, 0], sys_m, t)[0] for t in (t1, t2)]
        exp_g = np.log(np.linalg.norm(dp_g[1]) / np.linalg.norm(dp_g[0])) / np.log(t2 / t1)
        assert exp_g == pytest.approx(3.0, abs=1e-6)

    def test_qpp_tau7_growth(self, sys_m):
        spectra = NoiseSpectra(s_gb=1e-8)
        q10 = q_closed(sys_m, spectra, 10.0)
        q100 = q_closed(sys_m, spectra, 100.0)
        slope = np.log10(q100[0, 0] / q10[0, 0])
        assert slope == pytest.approx(7.0, abs=0.01)


BIAS_A, BIAS_G = np.array([0.01, -0.02, 0.03]), np.array([1e-3, 2e-4, -5e-4])


class TestTauArrays:
    """An array of taus gives the stacked single-tau results bit for bit."""

    @pytest.fixture(params=["grid", "random"])
    def tau_array(self, request):
        if request.param == "grid":  # 0.05 s steps to 100 s, as a propagate tau_grid
            return np.array([round(i * 0.05, 10) for i in range(2001)])
        return np.random.default_rng(11).uniform(0.0, 500.0, size=(40, 5))

    def test_phi_closed(self, sys_m, tau_array):
        phi = phi_closed(sys_m, tau_array)
        assert phi.shape == tau_array.shape + (15, 15)
        assert phi.tobytes() == np.array([phi_closed(sys_m, t) for t in tau_array.flat]).tobytes()

    def test_q_closed(self, sys_m, median_spectra, tau_array):
        q = q_closed(sys_m, median_spectra, tau_array)
        stacked = [q_closed(sys_m, median_spectra, t) for t in tau_array.flat]
        assert q.shape == tau_array.shape + (15, 15)
        assert q.tobytes() == np.array(stacked).tobytes()

    def test_propagate_mean(self, sys_m, tau_array):
        arrays = propagate_mean(BIAS_A, BIAS_G, sys_m, tau_array)
        stacked = zip(*(propagate_mean(BIAS_A, BIAS_G, sys_m, t) for t in tau_array.flat))
        for got, want in zip(arrays, stacked):
            assert got.shape == tau_array.shape + (3,)
            assert got.tobytes() == np.array(want).tobytes()

    def test_overflowing_tau_gives_inf_not_an_exception(self, sys_m, median_spectra):
        """Where powers of opposite sign overflow, inf - inf leaves nan."""
        taus = np.array([10.0, 1e200])
        with np.errstate(over="ignore", invalid="ignore"):
            phi = phi_closed(sys_m, taus)
            q = q_closed(sys_m, median_spectra, taus)
            dp, dv, eps = propagate_mean(BIAS_A, BIAS_G, sys_m, taus)
        assert np.array_equal(phi[0], phi_closed(sys_m, 10.0))
        assert np.array_equal(q[0], q_closed(sys_m, median_spectra, 10.0))
        assert np.isinf(phi[1, 0, 13]) and np.isinf(q[1, 0, 0])
        assert np.isinf(dv[1, :2]).all() and not np.isfinite(dp[1]).any()

    def test_negative_tau_in_array_rejected(self, sys_m, median_spectra):
        taus = np.array([0.0, 1.0, -1e-300, 2.0])
        for call in (lambda: phi_closed(sys_m, taus),
                     lambda: q_closed(sys_m, median_spectra, taus),
                     lambda: propagate_mean(BIAS_A, BIAS_G, sys_m, taus)):
            with pytest.raises(ValueError, match="tau must be >= 0"):
                call()


class TestPropagateDiscrete:
    def test_all_zero(self, sys_m):
        states, covs = propagate_discrete(
            np.zeros(15), np.zeros((15, 15)), sys_m, NoiseSpectra(), 0.1, 10
        )
        assert not np.any(states) and not np.any(covs)

    def test_matches_closed_form_mean(self, sys_m):
        x0 = np.zeros(15)
        x0[IDX_BA] = [0, 0, 0.1]
        states, _ = propagate_discrete(
            x0, np.zeros((15, 15)), sys_m, NoiseSpectra(), 0.01, 1000
        )
        assert np.allclose(states[-1][0:3], [0, 0, 5.0], atol=1e-9)

    def test_covariance_matches_q_closed(self, sys_m, median_spectra):
        _, covs = propagate_discrete(
            np.zeros(15), np.zeros((15, 15)), sys_m, median_spectra, 0.01, 10**4
        )
        ref = q_closed(sys_m, median_spectra, 100.0)
        assert np.linalg.norm(covs[-1] - ref) / np.linalg.norm(ref) < 1e-9

    def test_bad_dt(self, sys_m, median_spectra):
        with pytest.raises(ValueError):
            propagate_discrete(
                np.zeros(15), np.zeros((15, 15)), sys_m, median_spectra, 0.0, 10
            )


class TestArrayAveraging:
    """The K-sensor average as propagate forms it: the mean bias, and the
    pooled noise spectra scaled by 1/K."""

    def test_opposite_biases_cancel(self):
        b = np.array([1.0, -2, 3, 0.1, 0.2, 0.3])
        assert np.array_equal(np.mean([b, -b], axis=0), np.zeros(6))

    def test_propagation_commutes_with_averaging(self, sys_m, rng):
        biases = rng.normal(size=(10, 6)) * 0.1
        avg = np.mean(biases, axis=0)
        direct = np.concatenate(propagate_mean(avg[:3], avg[3:], sys_m, 25.0))
        per_sensor = np.mean(
            [
                np.concatenate(propagate_mean(b[:3], b[3:], sys_m, 25.0))
                for b in biases
            ],
            axis=0,
        )
        assert np.linalg.norm(direct - per_sensor) < 1e-12 * max(
            np.linalg.norm(direct), 1.0
        )

    def test_q_scale_identity(self, sys_m, median_spectra):
        q = q_closed(sys_m, median_spectra, 10.0)
        assert np.array_equal(q_closed(sys_m, median_spectra.scaled(1.0), 10.0), q)
        scaled = q_closed(sys_m, median_spectra.scaled(1 / 10), 10.0)
        ratio = np.sqrt(np.diag(scaled)[0] / np.diag(q)[0])
        assert ratio == pytest.approx(1 / np.sqrt(10), rel=1e-12)

    def test_q_scale_matches_scaled_spectra(self, sys_m, median_spectra):
        for k in (2, 10):
            via_spectra = q_closed(sys_m, median_spectra.scaled(1 / k), 10.0)
            via_scale = q_closed(sys_m, median_spectra, 10.0) / k
            denom = np.abs(via_scale).max()
            assert np.max(np.abs(via_spectra - via_scale)) < 1e-14 * denom


class TestEllipsoid:
    def test_diagonal_covariance(self):
        ell = ellipsoid_from_cov(np.diag([4.0, 1.0, 0.25]), np.zeros(3))
        assert np.allclose(ell.semi_axes, [2.0, 1.0, 0.5])
        assert np.allclose(np.abs(ell.orientation), np.eye(3)[:, [0, 1, 2]])

    def test_isotropic_sphere(self):
        ell = ellipsoid_from_cov(0.09 * np.eye(3), [1.0, 2.0, 3.0])
        assert np.allclose(ell.semi_axes, 0.3)
        assert np.allclose(ell.orientation @ ell.orientation.T, np.eye(3), atol=1e-10)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30)
    def test_reconstruction(self, seed):
        r = np.random.default_rng(seed)
        a = r.normal(size=(3, 3))
        p = a @ a.T + 1e-6 * np.eye(3)
        ell = ellipsoid_from_cov(p, np.zeros(3))
        rebuilt = ell.orientation @ np.diag(ell.semi_axes**2) @ ell.orientation.T
        assert np.linalg.norm(rebuilt - p) < 1e-10 * np.linalg.norm(p)

    def test_right_handed(self, rng):
        a = rng.normal(size=(3, 3))
        ell = ellipsoid_from_cov(a @ a.T, np.zeros(3))
        assert np.linalg.det(ell.orientation) == pytest.approx(1.0, abs=1e-10)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ellipsoid_from_cov(np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]), np.zeros(3))
        with pytest.raises(ValueError):
            ellipsoid_from_cov(np.diag([1.0, 1.0, -0.5]), np.zeros(3))


class TestCheckCovariance:
    def test_accepts_and_symmetrizes(self):
        p = np.eye(15)
        assert np.array_equal(check_covariance(p), p)

    def test_rejects_asymmetric(self):
        p = np.eye(3)
        p[0, 1] = 1e-3
        with pytest.raises(ValueError):
            check_covariance(p)
