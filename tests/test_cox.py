import math
from dataclasses import replace

import numpy as np
import pytest

from coxscreen import cox, simulate
from coxscreen.cox import (
    CONVERGED,
    NOT_CONVERGED,
    SEPARATION,
    SINGULAR,
    fit,
    fit_batch,
    log_partial_likelihood,
    score_and_information,
)
from coxscreen.data import SurvivalDataset
from coxscreen.errors import NonIdentifiableError, SeparationError, ValidationError

from conftest import random_dataset, tied_censored_dataset
from oracles import (
    brute_loglik,
    build_risk_sets,
    fd_gradient,
    fd_jacobian,
    gauss_elim_inverse,
    golden_max,
    newton_loop_fit,
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

    @pytest.mark.parametrize("beta", [[0.5], [0.5, 0.1, 0.2]], ids=["short", "long"])
    def test_beta_length_must_match_the_columns(self, rng, beta):
        ds = random_dataset(rng, 10, 2)
        with pytest.raises(ValidationError, match="^beta length must match the number of columns$"):
            log_partial_likelihood(ds, [1, 2], beta)


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

    @pytest.mark.parametrize("beta", [[0.5], [0.5, 0.1, 0.2]], ids=["short", "long"])
    def test_beta_length_must_match_the_columns(self, rng, beta):
        ds = random_dataset(rng, 10, 2)
        with pytest.raises(ValidationError, match="^beta length must match the number of columns$"):
            score_and_information(ds, [1, 2], beta)


class TestFit:
    def test_constant_column_nonidentifiable(self):
        ds = SurvivalDataset([1, 2, 3, 4], [1, 1, 1, 0], np.full((4, 1), 2.5))
        with pytest.raises(NonIdentifiableError, match="^information matrix is not positive definite"):
            fit(ds, [1])

    def test_matches_golden_section_1d(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, 12, 1, beta=np.array([0.8]))
            result = fit(ds, [1])
            if not result.converged:
                continue
            oracle = golden_max(lambda b: log_partial_likelihood(ds, [1], [b]), -20, 20)
            assert result.coefficients[0] == pytest.approx(oracle, abs=1e-6)

    def test_separation_detected(self, monkeypatch):
        # covariate equal to event order: likelihood increases without bound
        n = 8
        ds = SurvivalDataset(np.arange(1, n + 1), np.ones(n), np.arange(n)[:, None] * 1.0)
        monkeypatch.setattr(cox, "_COEFFICIENT_BOUND", 5.0)
        with pytest.raises(SeparationError) as err:
            fit(ds, [1])
        assert err.value.coordinate == 0

    def test_deterministic(self, rng):
        ds = random_dataset(rng, 40, 2, beta=np.array([0.5, -0.5]), censor_upper=3.0)
        a = fit(ds, [1, 2])
        b = fit(ds, [1, 2])
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.loglik == b.loglik and a.iterations == b.iterations

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

    def test_step_search_tolerates_rounding_of_a_large_loglik(self):
        # example 1 at n=2000, |loglik| ~ 6700: one ulp of the log likelihood is
        # 9e-13, so an absolute 1e-12 slack rejected the last, tiny Newton steps
        config = simulate.example_config(1, n=2000, p=400, seed=1)
        ds = simulate.gen_replicate(replace(config, censor_upper=1.5), 0).dataset
        null = fit(ds, [1, 2, 3])
        for j in (165, 177, 178, 195):  # 4-13 iterations or not converged with that slack
            alone = fit_batch(ds, [1, 2, 3], [j], null.coefficients)
            assert alone.status[0] == CONVERGED and alone.iterations[0] == 3
        batch = fit_batch(ds, [1, 2, 3], [165, 177, 178, 195], null.coefficients)
        assert list(batch.status) == [CONVERGED] * 4 and list(batch.iterations) == [3] * 4

    def test_dimension_guard(self, rng):
        ds = random_dataset(rng, 3, 4)
        with pytest.raises(ValidationError, match="dimension"):
            fit(ds, [1, 2, 3, 4])

    def test_batch_start_must_match_the_columns(self, rng):
        ds = random_dataset(rng, 20, 3)
        with pytest.raises(ValidationError, match="^start length must match the number of columns$"):
            fit_batch(ds, [1], [2, 3], [0.0, 0.0])

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


def _differential_case(rng):
    """A small dataset whose columns mix the ways a Newton fit can fail or struggle.

    Each column is normal, constant, a duplicate of column 1, ordered with the
    time, or normal times 1e4; times are tied or not. Returns the dataset, the
    columns and the ``cox`` settings to fit under, {name: value}.
    """
    n, p = int(rng.integers(8, 60)), 4
    z = rng.normal(size=(n, p))
    t = -np.log(rng.uniform(size=n)) / np.exp(z[:, 0] - 0.5 * z[:, 1])
    if rng.random() < 0.5:
        t = np.round(t, int(rng.integers(0, 3)))
    c = rng.uniform(0.0, 3.0, size=n)
    status = (t <= c).astype(int)
    status[int(np.argmin(t))] = 1
    time = np.minimum(t, c)
    for k in range(1, p):
        kind = rng.integers(5)
        if kind == 1:
            z[:, k] = 3.7
        elif kind == 2:
            z[:, k] = z[:, 0]
        elif kind == 3:
            z[:, k] = -time * rng.choice([-1.0, 1.0])
        elif kind == 4:
            z[:, k] *= 1e4
    ds = SurvivalDataset(time, status, z)
    d = int(rng.integers(1, 4))
    columns = [int(j) for j in rng.permutation(p)[:d] + 1]
    settings = [
        {},
        {"_MAX_ITERATIONS": int(rng.integers(1, 4))},
        {"_COEFFICIENT_BOUND": 2.0},
    ][rng.integers(3)]
    return ds, columns, settings


def _outcome(call):
    try:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return call()
    except (SeparationError, NonIdentifiableError, ValidationError) as err:
        return err


class TestFitMatchesNewtonLoop:
    """cox.fit, the batched engine on one row, against a plain single-model Newton loop."""

    MERGED = "information matrix is not positive definite or is singular"
    # the loop's second message; cox.fit gives the merged one for both cases
    AT_SOLUTION = "information matrix is numerically singular at the solution"

    def test_bit_identical_on_seeded_inputs(self, monkeypatch):
        rng = np.random.default_rng(20261018)
        seen = set()
        for _ in range(400):
            ds, columns, settings = _differential_case(rng)
            with monkeypatch.context() as patch:
                for name, value in settings.items():
                    patch.setattr(cox, name, value)
                got = _outcome(lambda: fit(ds, columns))
                want = _outcome(lambda: newton_loop_fit(ds, columns))
            assert type(got) is type(want)
            if isinstance(want, Exception):
                seen.add(str(want) if isinstance(want, NonIdentifiableError) else type(want).__name__)
                if isinstance(want, SeparationError):
                    assert got.coordinate == want.coordinate
                message = self.MERGED if str(want) == self.AT_SOLUTION else str(want)
                assert str(got) == message
                continue
            seen.add("converged" if want.converged else "not converged")
            for name in ("coefficients", "information", "variances"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            for name in ("loglik", "score_norm", "iterations", "converged"):
                a, b = getattr(got, name), getattr(want, name)
                assert type(a) is type(b) and np.array(a).tobytes() == np.array(b).tobytes()
        assert seen >= {"converged", "not converged", "SeparationError", self.MERGED, self.AT_SOLUTION}


def _bytes(*values):
    return np.array(values, dtype=float).tobytes()


class TestFitBatchMatchesNewtonLoop:
    """fit_batch's rows against newton_loop_fit, which evaluates its weights afresh at every beta."""

    @pytest.mark.parametrize("q", [0, 1, 3])
    @pytest.mark.parametrize("start", ["warm", "far"])
    def test_bit_identical(self, monkeypatch, q, start):
        rng = np.random.default_rng(100 + q)
        ds = tied_censored_dataset(rng, 120, 10, 2)
        columns = list(range(1, q + 1))
        candidates = list(range(q + 1, 11))
        c_start = fit(ds, columns).coefficients
        # far from the maximum, full steps overshoot and get halved: a far C start, or
        # with an empty C candidates shifted by 1e7, where eta carries the shift's rounding
        if start == "far" and q:
            c_start = np.full(q, 4.0)
        elif start == "far":
            ds = SurvivalDataset(ds.time, ds.status, ds.covariates + 1e7)
        monkeypatch.setattr(cox, "_COEFFICIENT_BOUND", 20.0)

        rejected = []
        real_accepts = cox._accepts

        def recording_accepts(ll_new, ll):
            good = real_accepts(ll_new, ll)
            rejected.append(not np.all(good))
            return good

        monkeypatch.setattr(cox, "_accepts", recording_accepts)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            batch = fit_batch(ds, columns, candidates, c_start)
        monkeypatch.setattr(cox, "_accepts", real_accepts)
        assert any(rejected) == (start == "far")
        for i, j in enumerate(candidates):
            want = _outcome(lambda: newton_loop_fit(ds, columns + [j], np.append(c_start, 0.0)))
            if isinstance(want, Exception):
                assert batch.status[i] == (SEPARATION if isinstance(want, SeparationError) else SINGULAR)
                assert np.isnan(batch.loglik[i]) and batch.iterations[i] == 0
                continue
            assert batch.status[i] == (CONVERGED if want.converged else NOT_CONVERGED)
            assert batch.iterations[i] == want.iterations
            assert batch.coefficients[i].tobytes() == want.coefficients.tobytes()
            assert _bytes(batch.loglik[i], batch.variance[i]) == _bytes(want.loglik, want.variances[-1])


class TestOneWeightSetPerStep:
    """The engine evaluates the weights once at the start and once per trial step."""

    def _count(self, monkeypatch, ds, columns, candidates, start):
        rows = []
        real_weights = cox._weights

        def counting_weights(view, rows_, beta):
            rows.append(beta.shape[0])
            return real_weights(view, rows_, beta)

        monkeypatch.setattr(cox, "_weights", counting_weights)
        batch = fit_batch(ds, columns, candidates, start)
        monkeypatch.undo()
        return batch, rows

    @pytest.mark.parametrize("q", [0, 1, 3])
    def test_one_plus_k_evaluations(self, rng, monkeypatch, q):
        ds = random_dataset(rng, 150, 8, beta=np.array([0.8, -0.5, 0.3, 0, 0, 0, 0, 0]),
                            censor_upper=3.0)
        columns = list(range(1, q + 1))
        candidates = list(range(q + 1, 9))
        batch, rows = self._count(monkeypatch, ds, columns, candidates, fit(ds, columns).coefficients)
        assert np.all(batch.status == CONVERGED)
        k = int(batch.iterations.max())
        assert len(rows) == 1 + k
        # the shared start row, then every row still iterating at each full step
        assert rows == [1] + [int(np.sum(batch.iterations >= s)) for s in range(1, k + 1)]


class TestVarianceOfLastCoordinate:
    def test_matches_gauss_elimination(self, rng):
        ds = random_dataset(rng, 50, 3, beta=np.array([0.5, 0.0, -0.5]), censor_upper=3.0)
        result = fit(ds, [1, 2, 3])
        assert result.converged
        inv = gauss_elim_inverse(result.information)
        assert result.variances[-1] == pytest.approx(inv[2, 2], abs=1e-10)
