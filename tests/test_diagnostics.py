import numpy as np
import pytest

from coxscreen.data import ConditioningSet, SurvivalDataset
from coxscreen.errors import ValidationError
from coxscreen.diagnostics import (
    cle_predict,
    cond_linear_cov,
    fit_cle,
    signal_strength,
    signal_strengths_to_csv,
)

from conftest import random_dataset
from oracles import lstsq_partial_covariance


class TestFitCLE:
    def test_stability_predicting_xi_from_itself(self, rng):
        xi = rng.normal(size=(200, 3))
        model = fit_cle(xi, xi)
        np.testing.assert_allclose(cle_predict(model, xi), xi, atol=1e-12)

    def test_law_of_total_expectation(self, rng):
        zeta = rng.normal(size=(500, 2))
        xi = rng.normal(size=(500, 3))
        model = fit_cle(zeta, xi)
        pred = cle_predict(model, xi)
        assert np.linalg.norm(pred.mean(axis=0) - zeta.mean(axis=0)) <= 1e-10

    def test_linearity_in_target(self, rng):
        xi = rng.normal(size=(100, 2))
        z1 = rng.normal(size=(100, 1))
        z2 = rng.normal(size=(100, 1))
        a, b = 2.0, -3.5
        left = cle_predict(fit_cle(a * z1 + b * z2, xi), xi)
        right = a * cle_predict(fit_cle(z1, xi), xi) + b * cle_predict(fit_cle(z2, xi), xi)
        np.testing.assert_allclose(left, right, atol=1e-10)

    def test_four_point_hand_dataset(self):
        # least-squares line through (0,1), (1,3), (2,5), (3,7) is 1 + 2x
        xi = np.array([0.0, 1.0, 2.0, 3.0])
        zeta = 1.0 + 2.0 * xi
        model = fit_cle(zeta, xi)
        assert model.coefficient_matrix[0, 0] == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(cle_predict(model, xi).ravel(), zeta, atol=1e-12)

    def test_matches_least_squares_oracle(self, rng):
        xi = rng.normal(size=(60, 3))
        zeta = rng.normal(size=(60, 1))
        model = fit_cle(zeta, xi)
        design = np.column_stack([np.ones(60), xi])
        coefs, *_ = np.linalg.lstsq(design, zeta, rcond=None)
        np.testing.assert_allclose(model.coefficient_matrix, coefs[1:], atol=1e-10)

    def test_singular_predictor_uses_pinv(self, rng):
        base = rng.normal(size=(50, 1))
        xi = np.column_stack([base, base])  # rank 1
        zeta = base + 0.1 * rng.normal(size=(50, 1))
        model = fit_cle(zeta, xi)
        assert model.pseudo_inverse_used
        pred = cle_predict(model, xi)
        assert np.all(np.isfinite(pred))

    def test_shape_validation(self, rng):
        with pytest.raises(ValidationError, match="same number of rows"):
            fit_cle(rng.normal(size=(10, 1)), rng.normal(size=(9, 1)))
        with pytest.raises(ValidationError, match="more samples"):
            fit_cle(rng.normal(size=(3, 1)), rng.normal(size=(3, 4)))

    @pytest.mark.parametrize("shape, got", [((5, 3), 3), ((3,), 1)], ids=["stack", "vector"])
    def test_predict_dimension_mismatch(self, rng, shape, got):
        model = fit_cle(rng.normal(size=(40, 1)), rng.normal(size=(40, 2)))
        with pytest.raises(ValidationError, match=f"^xi has dimension {got}, model expects 2$"):
            cle_predict(model, rng.normal(size=shape))

    def test_predict_single_vector(self, rng):
        xi = rng.normal(size=(40, 2))
        zeta = rng.normal(size=(40, 1))
        model = fit_cle(zeta, xi)
        single = cle_predict(model, xi[5])
        stacked = cle_predict(model, xi)
        np.testing.assert_allclose(single, stacked[5], atol=1e-14)


class TestCondLinearCov:
    def test_plain_covariance_when_unconditioned(self, rng):
        z1 = rng.normal(size=80)
        z2 = rng.normal(size=80)
        expected = float(np.cov(z1, z2, ddof=0)[0, 1])
        assert cond_linear_cov(z1, z2) == pytest.approx(expected, abs=1e-14)

    def test_partialling_out_removes_shared_factor(self, rng):
        n = 10000
        f = rng.normal(size=n)
        z1 = f + 0.5 * rng.normal(size=n)
        z2 = f + 0.5 * rng.normal(size=n)
        raw = cond_linear_cov(z1, z2)
        partial = cond_linear_cov(z1, z2, f)
        assert raw > 0.8
        assert abs(partial) < 0.05

    def test_gaussian_closed_form(self, rng):
        # for joint Gaussians the partial covariance has the explicit form
        # cov12 - cov1x cov2x / varx; check against a large-sample draw
        n = 10000
        x = rng.normal(size=n)
        e1 = rng.normal(size=n)
        e2 = rng.normal(size=n)
        z1 = 0.7 * x + e1
        z2 = -0.4 * x + e2 + 0.3 * e1
        truth = 0.3  # Cov(z1,z2|x) = Cov(e1, e2 + 0.3 e1) = 0.3
        assert cond_linear_cov(z1, z2, x) == pytest.approx(truth, abs=0.06)

    def test_decomposition_identity(self, rng):
        # Cov(z1,z2) = Cov(E*(z1|xi), E*(z2|xi)) + partial Cov(z1,z2|xi)
        n = 300
        xi = rng.normal(size=(n, 2))
        z1 = rng.normal(size=n) + xi[:, 0]
        z2 = rng.normal(size=n) - 0.5 * xi[:, 1]
        p1 = cle_predict(fit_cle(z1, xi), xi).ravel()
        p2 = cle_predict(fit_cle(z2, xi), xi).ravel()
        explained = float((p1 - p1.mean()) @ (p2 - p2.mean()) / n)
        total = cond_linear_cov(z1, z2)
        partial = cond_linear_cov(z1, z2, xi)
        assert total == pytest.approx(explained + partial, abs=1e-10)

    def test_sign_preserved_under_monotone_dependence(self, rng):
        # componentwise-monotone functions of positively dependent variables
        # stay positively dependent after linear conditioning on independent xi
        n = 5000
        base = rng.normal(size=n)
        z1 = np.exp(base + 0.3 * rng.normal(size=n))
        z2 = (base + 0.3 * rng.normal(size=n)) ** 3
        xi = rng.normal(size=(n, 2))  # independent of both
        assert cond_linear_cov(z1, z2, xi) > 0

    def test_length_mismatch(self, rng):
        with pytest.raises(ValidationError):
            cond_linear_cov(rng.normal(size=5), rng.normal(size=6))


class TestSignalStrength:
    def test_unconditional_is_covariance_with_event_indicator(self, rng):
        ds = random_dataset(rng, 60, 2, beta=np.array([1.0, 0.0]), censor_upper=2.0)
        value = signal_strength(ds, ConditioningSet(), 1)
        z = ds.column(1)
        d = ds.status.astype(float)
        expected = float((z - z.mean()) @ (d - d.mean()) / ds.n)
        assert value == pytest.approx(expected, abs=1e-14)

    def test_all_events_gives_zero(self, rng):
        ds = random_dataset(rng, 30, 2)  # no censoring: status identically 1
        assert ds.status.min() == 1
        assert signal_strength(ds, ConditioningSet(), 1) == pytest.approx(0.0, abs=1e-14)

    def test_conditioning_variable_rejected(self, rng):
        ds = random_dataset(rng, 30, 3, censor_upper=2.0)
        with pytest.raises(ValidationError, match="conditioning set"):
            signal_strength(ds, ConditioningSet((2,)), 2)

    def test_hidden_variable_gains_signal_after_conditioning(self):
        # a variable whose effect is masked marginally but present conditionally
        from coxscreen.simulate import example_config, gen_replicate
        from dataclasses import replace

        config = example_config(1, n=4000, p=10, censor_target=0.0, seed=77)
        rep = gen_replicate(replace(config, censor_upper=2.0), 0)
        ds = rep.dataset
        cond = ConditioningSet((1, 2, 3, 4, 5))
        marginal = abs(signal_strength(ds, ConditioningSet(), 6))
        conditional = abs(signal_strength(ds, cond, 6))
        assert conditional > marginal

    def test_csv_export(self, rng, tmp_path):
        ds = random_dataset(rng, 40, 4, censor_upper=2.0)
        path = tmp_path / "sig.csv"
        candidates = signal_strengths_to_csv(ds, ConditioningSet((1,)), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,name,signal_strength"
        assert list(candidates) == [2, 3, 4]
        assert len(lines) == 4

    @pytest.mark.parametrize("cond", [(), (1,), (1, 2, 3), (1, 2, 5)])
    def test_csv_matches_least_squares(self, rng, tmp_path, cond):
        ds = random_dataset(rng, 70, 8, beta=0.5 * rng.normal(size=8), censor_upper=2.0)
        z = ds.covariates.copy()
        z[:, 4] = z[:, 0] - 2.0 * z[:, 1]  # C = {1, 2, 5} is rank deficient
        ds = SurvivalDataset(ds.time, ds.status, z)
        conditioning = ConditioningSet(cond)
        path = tmp_path / "sig.csv"
        candidates = signal_strengths_to_csv(ds, conditioning, path)
        rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
        delta = ds.status.astype(float)
        z_cond = z[:, [k - 1 for k in cond]]
        for j, (index, _, value) in zip(candidates, rows):
            expected = lstsq_partial_covariance(z[:, j - 1], delta, z_cond)
            assert int(index) == j
            assert float(value) == pytest.approx(expected, abs=1e-13)
            assert float(value) == pytest.approx(signal_strength(ds, conditioning, j), abs=1e-15)
