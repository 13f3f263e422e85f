import math

import numpy as np
import pytest

from coxscreen.cox import FitControl, fit, log_partial_likelihood, score_and_information
from coxscreen.data import SurvivalDataset
from coxscreen.errors import NonIdentifiableError, SeparationError, ValidationError

from conftest import random_dataset
from oracles import (
    brute_loglik,
    build_risk_sets,
    fd_gradient,
    fd_jacobian,
    gauss_elim_inverse,
    golden_max,
)


class TestLogPartialLikelihood:
    def test_zero_beta_counts_risk_sets(self, rng):
        ds = random_dataset(rng, 15, 2, censor_upper=2.0)
        view = build_risk_sets(ds)
        expected = -sum(
            c * math.log(len(m)) for c, m in zip(view.event_counts, view.risk_membership)
        )
        assert log_partial_likelihood(ds, [1, 2], [0.0, 0.0]) == pytest.approx(expected, abs=1e-12)

    def test_two_subjects_hand_value(self):
        ds = SurvivalDataset([1.0, 2.0], [1, 1], np.array([[1.0], [0.0]]))
        assert log_partial_likelihood(ds, [1], [0.0]) == pytest.approx(-math.log(2))

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            n = int(rng.integers(4, 20))
            p = int(rng.integers(1, 4))
            ds = random_dataset(rng, n, p, censor_upper=2.0)
            beta = rng.uniform(-1.5, 1.5, p)
            expected = brute_loglik(ds.time, ds.status, ds.covariates, beta)
            got = log_partial_likelihood(ds, list(range(1, p + 1)), beta)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_brute_force_with_ties(self, rng):
        time = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
        status = np.array([1, 0, 1, 1, 1])
        z = rng.normal(size=(5, 2))
        ds = SurvivalDataset(time, status, z)
        beta = [0.4, -0.7]
        assert log_partial_likelihood(ds, [1, 2], beta) == pytest.approx(
            brute_loglik(time, status, z, beta), rel=1e-10
        )

    def test_extreme_beta_no_overflow(self, rng):
        ds = random_dataset(rng, 10, 1)
        value = log_partial_likelihood(ds, [1], [300.0])
        assert np.isfinite(value)


class TestScoreAndInformation:
    def test_score_at_zero_is_event_contrasts(self, rng):
        ds = random_dataset(rng, 12, 1, censor_upper=2.0)
        score, _ = score_and_information(ds, [1], [0.0])
        view = build_risk_sets(ds)
        expected = 0.0
        z = ds.covariates[:, 0]
        for i in range(ds.n):
            if ds.status[i] == 1:
                risk = ds.time >= ds.time[i]
                expected += z[i] - z[risk].mean()
        assert score[0] == pytest.approx(expected, rel=1e-10)

    def test_score_matches_finite_differences(self, rng):
        from coxscreen.data import standardize

        for _ in range(10):
            ds, _ = standardize(random_dataset(rng, 25, 3, censor_upper=2.0))
            beta = rng.uniform(-2, 2, 3)
            cols = [1, 2, 3]
            score, _ = score_and_information(ds, cols, beta)
            grad = fd_gradient(lambda b: log_partial_likelihood(ds, cols, b), beta)
            assert np.linalg.norm(score - grad) <= 1e-6 * max(1.0, np.linalg.norm(score))

    def test_information_matches_score_jacobian(self, rng):
        from coxscreen.data import standardize

        for _ in range(5):
            ds, _ = standardize(random_dataset(rng, 25, 2, censor_upper=2.0))
            beta = rng.uniform(-2, 2, 2)
            cols = [1, 2]
            _, info = score_and_information(ds, cols, beta)
            jac = fd_jacobian(lambda b: score_and_information(ds, cols, b)[0], beta)
            assert np.linalg.norm(info + jac) <= 1e-5 * max(1.0, np.linalg.norm(info))

    def test_information_symmetric_psd(self, rng):
        ds = random_dataset(rng, 30, 3, censor_upper=2.0)
        _, info = score_and_information(ds, [1, 2, 3], [0.1, -0.2, 0.3])
        np.testing.assert_allclose(info, info.T)
        assert np.linalg.eigvalsh(info).min() >= -1e-10


class TestFit:
    def test_constant_column_nonidentifiable(self):
        ds = SurvivalDataset([1, 2, 3, 4], [1, 1, 1, 0], np.full((4, 1), 2.5))
        with pytest.raises(NonIdentifiableError):
            fit(ds, [1])

    def test_matches_golden_section_1d(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, 12, 1, beta=np.array([0.8]))
            result = fit(ds, [1])
            if not result.converged:
                continue
            oracle = golden_max(lambda b: log_partial_likelihood(ds, [1], [b]), -20, 20)
            assert result.coefficients[0] == pytest.approx(oracle, abs=1e-6)

    def test_separation_detected(self):
        # covariate equal to event order: likelihood increases without bound
        n = 8
        ds = SurvivalDataset(np.arange(1, n + 1), np.ones(n), np.arange(n)[:, None] * 1.0)
        with pytest.raises(SeparationError) as err:
            fit(ds, [1], FitControl(coefficient_bound=5.0))
        assert err.value.coordinate == 0

    def test_deterministic(self, rng):
        ds = random_dataset(rng, 40, 2, beta=np.array([0.5, -0.5]), censor_upper=3.0)
        a = fit(ds, [1, 2])
        b = fit(ds, [1, 2])
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.loglik == b.loglik and a.iterations == b.iterations

    def test_warm_start_respected(self, rng):
        ds = random_dataset(rng, 40, 2, beta=np.array([0.5, -0.5]), censor_upper=3.0)
        cold = fit(ds, [1, 2])
        warm = fit(ds, [1, 2], init=cold.coefficients)
        assert warm.iterations <= 1
        np.testing.assert_allclose(warm.coefficients, cold.coefficients, atol=1e-7)

    def test_loglik_nondecreasing_along_path(self, rng):
        ds = random_dataset(rng, 50, 2, beta=np.array([1.0, 0.0]), censor_upper=3.0)
        result = fit(ds, [1, 2])
        assert result.converged
        assert result.loglik >= log_partial_likelihood(ds, [1, 2], [0.0, 0.0])

    def test_location_invariance(self, rng):
        ds = random_dataset(rng, 40, 2, beta=np.array([0.7, -0.3]), censor_upper=3.0)
        shifted = SurvivalDataset(
            ds.time, ds.status, ds.covariates + np.array([10.0, -4.0]), ds.covariate_names
        )
        a, b = fit(ds, [1, 2]), fit(shifted, [1, 2])
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-8)
        np.testing.assert_allclose(a.information, b.information, atol=1e-8)

    def test_scale_equivariance(self, rng):
        ds = random_dataset(rng, 40, 2, beta=np.array([0.7, -0.3]), censor_upper=3.0)
        s = 3.5
        scaled_cov = ds.covariates * np.array([s, 1.0])
        scaled = SurvivalDataset(ds.time, ds.status, scaled_cov, ds.covariate_names)
        a, b = fit(ds, [1, 2]), fit(scaled, [1, 2])
        assert b.coefficients[0] == pytest.approx(a.coefficients[0] / s, abs=1e-8)
        assert b.coefficients[1] == pytest.approx(a.coefficients[1], abs=1e-8)
        sig_a = math.sqrt(a.variances[-1])
        sig_b = math.sqrt(b.variances[-1])
        assert sig_b == pytest.approx(sig_a, abs=1e-8)
        # wald of the rescaled coordinate is invariant
        wa = abs(a.coefficients[0]) / math.sqrt(a.variances[0])
        wb = abs(b.coefficients[0]) / math.sqrt(b.variances[0])
        assert wb == pytest.approx(wa, abs=1e-8)

    def test_concave_along_random_segments(self, rng):
        ds = random_dataset(rng, 30, 2, censor_upper=2.0)
        for _ in range(100):
            b0 = rng.uniform(-3, 3, 2)
            b1 = rng.uniform(-3, 3, 2)
            ts = np.linspace(0, 1, 9)
            vals = [log_partial_likelihood(ds, [1, 2], b0 + t * (b1 - b0)) for t in ts]
            second = np.diff(vals, 2)
            assert np.all(second <= 1e-8)

    def test_dimension_guard(self, rng):
        ds = random_dataset(rng, 3, 4)
        with pytest.raises(ValidationError, match="dimension"):
            fit(ds, [1, 2, 3, 4])

    def test_null_calibration_wald_standard_normal(self):
        # covariate independent of time: signed Wald ~ N(0,1) across replicates
        from scipy.stats import kstest

        rng = np.random.default_rng(11)
        walds = []
        for _ in range(1000):
            ds = random_dataset(rng, 200, 1, censor_upper=3.0)
            res = fit(ds, [1])
            walds.append(res.coefficients[0] / math.sqrt(res.variances[0]))
        stat = kstest(walds, "norm").statistic
        assert stat < 0.05


class TestVarianceOfLastCoordinate:
    def test_matches_gauss_elimination(self, rng):
        ds = random_dataset(rng, 50, 3, beta=np.array([0.5, 0.0, -0.5]), censor_upper=3.0)
        result = fit(ds, [1, 2, 3])
        assert result.converged
        inv = gauss_elim_inverse(result.information)
        assert result.variances[-1] == pytest.approx(inv[2, 2], abs=1e-10)
