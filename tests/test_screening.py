import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxscreen import cox, screening
from coxscreen.cox import fit
from coxscreen.data import ConditioningSet, SurvivalDataset
from coxscreen.errors import ConfigError, NonIdentifiableError, ValidationError
from coxscreen.screening import (
    AUTO,
    CONVERGED,
    NOT_CONVERGED,
    SEPARATION,
    SINGULAR,
    default_conditioning,
    default_top_k,
    parse_conditioning,
    rank,
    result_to_csv,
    result_to_json,
    screen,
    select_by_threshold,
    select_top_k,
)

from conftest import random_dataset, tied_censored_dataset
from oracles import (
    brute_rank,
    json_dump_result_to_json,
    per_candidate_screen,
    record_loop_result_to_csv,
)


# the per-candidate arrays of a ScreeningResult
COLUMNS = (
    "index", "beta_hat", "sigma_hat", "wald", "plik", "fit_status", "iterations",
    "conditioning_coefficients",
)


def record(result, j):
    """The CovariateScreenRecord of candidate j."""
    (rec,) = [r for r in result.records if r.index == j]
    return rec


@pytest.fixture
def dataset(rng):
    return random_dataset(rng, 60, 6, beta=np.array([1.0, -0.8, 0, 0, 0, 0]), censor_upper=3.0)


class TestScreen:
    def test_empty_conditioning_is_marginal_screening(self, dataset):
        result = screen(dataset, ConditioningSet())
        for j, beta in zip(result.index, result.beta_hat):
            assert beta == pytest.approx(fit(dataset, [j]).coefficients[0], abs=1e-12)

    def test_duplicate_of_conditioning_column_is_singular(self, rng):
        z = rng.normal(size=(40, 3))
        z[:, 2] = z[:, 0]
        t = -np.log(rng.uniform(size=40)) / np.exp(z[:, 0])
        ds = SurvivalDataset(t, np.ones(40), z)
        result = assert_matches_oracle(ds, ConditioningSet((1,)))
        assert record(result, 3).fit_status == SINGULAR
        assert record(result, 2).fit_status == CONVERGED

    def test_constant_conditioning_column_rejected(self, rng):
        # the null fit would see only rounding noise in its information
        ds = tied_censored_dataset(rng, 60, 4, 2)
        z = ds.covariates.copy()
        z[:, 1] = 3.7
        ds = SurvivalDataset(ds.time, ds.status, z)
        with pytest.raises(NonIdentifiableError, match="^conditioning column 2 is constant$"):
            screen(ds, ConditioningSet((1, 2)))
        assert screen(ds, ConditioningSet((1,))).fit_status[0] == SINGULAR  # as a candidate

    def test_failed_fits_rank_last(self, rng):
        z = rng.normal(size=(40, 4))
        z[:, 3] = z[:, 0]
        t = -np.log(rng.uniform(size=40)) / np.exp(z[:, 0])
        ds = SurvivalDataset(t, np.ones(40), z)
        result = screen(ds, ConditioningSet((1,)))
        assert result.rankings["mple"][-1] == 4

    def test_nonpositive_variance_is_singular(self, dataset, monkeypatch):
        real_fit_batch = cox.fit_batch
        for bad in (0.0, float("nan")):
            def fit_batch_with_bad_variance(ds, columns, candidates, *args, bad=bad, **kwargs):
                res = real_fit_batch(ds, columns, candidates, *args, **kwargs)
                variance = np.where(np.asarray(candidates) == 3, bad, res.variance)
                return replace(res, variance=variance)

            monkeypatch.setattr(cox, "fit_batch", fit_batch_with_bad_variance)
            result = screen(dataset, ConditioningSet((1,)))
            rec = record(result, 3)
            assert rec.fit_status == SINGULAR
            assert math.isnan(rec.sigma_hat) and math.isnan(rec.wald)
            assert math.isfinite(rec.beta_hat)  # a converged fit keeps its coefficient
            assert result.rankings["wald"][-1] == 3

    def test_records_cover_complement(self, dataset):
        result = screen(dataset, ConditioningSet((2, 4)))
        assert result.index.tolist() == [1, 3, 5, 6]
        assert [rec.index for rec in result.records] == [1, 3, 5, 6]
        for name in ("mple", "wald", "plik"):
            assert sorted(result.rankings[name]) == [1, 3, 5, 6]
        assert result.conditioning_coefficients.shape == (4, 2)
        for name in COLUMNS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(result, name)[0] = 0

    def test_plik_nonnegative_when_converged(self, dataset):
        result = screen(dataset, ConditioningSet((1,)))
        assert np.all(result.plik[result.fit_status == CONVERGED] >= -1e-8)

    def test_workers_accepts_only_one(self, rng):
        ds = tied_censored_dataset(rng, 60, 8, 2)
        default = screen(ds, ConditioningSet((1,)))
        explicit = screen(ds, ConditioningSet((1,)), workers=1)
        for name in COLUMNS:
            got, want = getattr(explicit, name), getattr(default, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert explicit.rankings == default.rankings
        for workers in (0, 2):
            with pytest.raises(ValidationError, match="workers must be 1"):
                screen(ds, ConditioningSet((1,)), workers=workers)

    def test_unconverged_null_fit_raises(self, dataset, monkeypatch):
        monkeypatch.setattr(cox, "_MAX_ITERATIONS", 1)
        assert screen(dataset, ConditioningSet()).null_fit.converged  # no coefficient to fit
        with pytest.raises(NonIdentifiableError, match="^null model on the conditioning set did not converge$"):
            screen(dataset, ConditioningSet((1,)))

    def test_warm_start_from_null_fit(self, dataset):
        null = fit(dataset, [1])
        result = screen(dataset, ConditioningSet((1,)))
        cold_iters = fit(dataset, [1, 2]).iterations
        assert record(result, 2).iterations <= cold_iters
        assert result.null_fit.loglik == null.loglik

    def test_scale_invariance_of_rankings(self, dataset):
        base = screen(dataset, ConditioningSet((1,)))
        scaled_cov = dataset.covariates.copy()
        scaled_cov[:, 2] *= 7.0  # covariate 3, not in C
        scaled_ds = SurvivalDataset(
            dataset.time, dataset.status, scaled_cov, dataset.covariate_names
        )
        scaled = screen(scaled_ds, ConditioningSet((1,)))
        assert scaled.rankings["wald"] == base.rankings["wald"]
        assert scaled.rankings["plik"] == base.rankings["plik"]
        assert scaled.beta_hat[1] == pytest.approx(base.beta_hat[1] / 7.0, rel=1e-6)  # covariate 3

    def test_conditioning_too_large_for_events(self, rng):
        ds = random_dataset(rng, 10, 5, censor_upper=0.05)  # few events
        events = int(ds.status.sum())
        if events > 3:
            pytest.skip("censoring draw left too many events")
        with pytest.raises(ValidationError, match="conditioning set size"):
            screen(ds, ConditioningSet(tuple(range(1, events + 1))))


def assert_matches_oracle(dataset, conditioning):
    """screen against one newton_loop_fit per candidate, bit for bit; returns the screen result."""
    result = screen(dataset, conditioning)
    expected = per_candidate_screen(dataset, conditioning)
    assert [r.index for r in result.records] == [r.index for r in expected]
    for got, want in zip(result.records, expected):
        assert (got.fit_status, got.iterations) == (want.fit_status, want.iterations), got.index
        for name in ("beta_hat", "sigma_hat", "wald", "plik", "conditioning_coefficients"):
            a, b = np.array(getattr(got, name)), np.array(getattr(want, name))
            assert a.tobytes() == b.tobytes(), (got.index, name, a, b)
    return result


class TestBatchedSweep:
    """The batched Newton sweep against newton_loop_fit run per candidate."""

    @pytest.mark.parametrize("q", [0, 1, 3])
    def test_matches_per_candidate_oracle(self, rng, q):
        for decimals in (1, 2, 8):
            ds = tied_censored_dataset(rng, int(rng.integers(30, 200)), 12, decimals)
            assert_matches_oracle(ds, ConditioningSet(tuple(range(1, q + 1))))

    def test_event_ordered_column_separates(self, rng, monkeypatch):
        n = 40
        z = rng.normal(size=(n, 3))
        z[:, 2] = -np.arange(n, dtype=float) / n
        ds = SurvivalDataset(np.sort(rng.uniform(0.1, 5.0, n)), np.ones(n), z)
        monkeypatch.setattr(cox, "_COEFFICIENT_BOUND", 2.0)
        result = assert_matches_oracle(ds, ConditioningSet((1,)))
        assert record(result, 3).fit_status == SEPARATION
        assert result.rankings["wald"][-1] == 3

    def test_constant_candidate_column(self, rng):
        # it cancels from every risk-set ratio, so the engine fits it as the zero column: singular,
        # with no step, with any C and any constant value; fitted as it stands, a constant 3.7
        # converges on rounding-noise information and 1e200 overflows
        ds = tied_censored_dataset(rng, 60, 4, 2)
        for value in (3.7, 3.0, 0.0, -2.5e6, 1e200):
            z = ds.covariates.copy()
            z[:, 2] = value
            constant = SurvivalDataset(ds.time, ds.status, z)
            for columns in ([3], [1, 3]):
                with pytest.raises(NonIdentifiableError):
                    fit(constant, columns)
            start = fit(constant, [1]).coefficients
            batch = cox.fit_batch(constant, [1], [2, 3, 4], start)
            assert (batch.status[1], batch.iterations[1]) == (SINGULAR, 0)
            assert np.isnan([*batch.coefficients[1], batch.loglik[1], batch.variance[1]]).all()
            varying = cox.fit_batch(constant, [1], [2, 4], start)
            assert batch.status[[0, 2]].tolist() == varying.status.tolist()
            for name in ("coefficients", "loglik", "variance", "iterations"):
                assert getattr(batch, name)[[0, 2]].tobytes() == getattr(varying, name).tobytes()
            betas = (-1e308, -2.0, 0.0, 0.5, 1e308)
            assert len({cox.log_partial_likelihood(constant, [3], [b]) for b in betas}) == 1
            for cond in ((), (1,), (1, 2)):
                result = assert_matches_oracle(constant, ConditioningSet(cond))
                rec = record(result, 3)
                assert (rec.fit_status, rec.iterations) == (SINGULAR, 0)
                assert np.isnan([rec.beta_hat, rec.sigma_hat, rec.wald, rec.plik]).all()
                assert all(ranking[-1] == 3 for ranking in result.rankings.values())

    def test_exactly_q_plus_two_events(self, rng):
        n, q = 40, 2
        status = np.zeros(n, dtype=int)
        status[[3, 10, 20, 31]] = 1
        ds = SurvivalDataset(rng.exponential(size=n), status, rng.normal(size=(n, 5)))
        assert_matches_oracle(ds, ConditioningSet(tuple(range(1, q + 1))))

    def test_all_times_tied(self, rng):
        n = 40
        ds = SurvivalDataset(np.ones(n), (rng.random(n) < 0.6).astype(int), rng.normal(size=(n, 5)))
        for cond in (ConditioningSet(), ConditioningSet((2,)), ConditioningSet((1, 2, 3))):
            result = assert_matches_oracle(ds, cond)
            assert np.all(result.fit_status == CONVERGED)

    def test_max_iterations_one_is_not_converged(self, rng, monkeypatch):
        ds = tied_censored_dataset(rng, 60, 6, 8)
        monkeypatch.setattr(cox, "_MAX_ITERATIONS", 1)
        result = assert_matches_oracle(ds, ConditioningSet())
        assert set(zip(result.fit_status.tolist(), result.iterations.tolist())) == {(NOT_CONVERGED, 1)}

    @pytest.mark.parametrize("n", [60, 2500])
    def test_candidate_alone_equals_full_sweep(self, rng, n):
        # at n=60 one chunk holds every candidate; at n=2500 the sweep spans chunks
        ds = tied_censored_dataset(rng, n, 20, 2)
        cond = ConditioningSet((1, 2))
        result = screen(ds, cond)
        assert np.all(result.fit_status == CONVERGED)
        for i, j in enumerate(result.index):
            alone = cox.fit_batch(ds, cond.indices, [j], result.null_fit.coefficients)
            assert (alone.status[0], alone.iterations[0]) == (CONVERGED, result.iterations[i])
            coefficients = alone.coefficients[0]
            want = [
                coefficients[-1],
                np.sqrt(alone.variance[0]),
                alone.loglik[0] - result.null_fit.loglik,
                *coefficients[:-1],
            ]
            got = [
                result.beta_hat[i],
                result.sigma_hat[i],
                result.plik[i],
                *result.conditioning_coefficients[i],
            ]
            assert np.array(got).tobytes() == np.array(want).tobytes()


@st.composite
def screening_cases(draw):
    """A tied or untied censored dataset and a conditioning set C = {1..q}."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p = draw(st.integers(20, 120)), draw(st.integers(3, 8))
    ds = tied_censored_dataset(rng, n, p, draw(st.sampled_from([1, 2, 8])))
    return ds, ConditioningSet(tuple(range(1, draw(st.integers(0, 2)) + 1)))


def converged_ranking(result, name):
    """The ranking without its failed tail, whose order is by index."""
    converged = set(result.index[result.fit_status == CONVERGED].tolist())
    return [j for j in result.rankings[name] if j in converged]


class TestSymmetries:
    """Symmetries of the Cox model that the sweep keeps, on tied and untied inputs."""

    # largest change seen over 300 seeded inputs: 1.1e-13 of max(1, |value|)
    ROW_PERMUTATION_TOLERANCE = 1e-10

    @settings(max_examples=60, deadline=None)
    @given(case=screening_cases(), data=st.data())
    def test_row_permutation(self, case, data):
        ds, cond = case
        perm = np.array(data.draw(st.permutations(range(ds.n))))
        a = screen(ds, cond)
        b = screen(SurvivalDataset(ds.time[perm], ds.status[perm], ds.covariates[perm]), cond)
        assert a.fit_status.tolist() == b.fit_status.tolist()
        assert a.rankings == b.rankings
        for name in ("beta_hat", "wald", "plik"):
            x, y = getattr(a, name), getattr(b, name)
            assert np.array_equal(np.isnan(x), np.isnan(y)), name
            close = np.abs(x - y) <= self.ROW_PERMUTATION_TOLERANCE * np.maximum(1.0, np.abs(x))
            assert close[~np.isnan(x)].all(), name

    @settings(max_examples=60, deadline=None)
    @given(case=screening_cases(), data=st.data())
    def test_column_permutation(self, case, data):
        ds, cond = case
        perm = data.draw(st.permutations(range(ds.p)))  # new column k is old column perm[k]
        new_index = {old + 1: new + 1 for new, old in enumerate(perm)}
        a = screen(ds, cond)
        b = screen(SurvivalDataset(ds.time, ds.status, ds.covariates[:, perm]),
                   ConditioningSet(tuple(new_index[j] for j in cond.indices)))
        for name in ("wald", "plik"):
            finite = a.statistic(name)[np.isfinite(a.statistic(name))].tolist()
            if len(set(finite)) == len(finite):  # a tie is broken by index, which the permutation moves
                assert converged_ranking(b, name) == [new_index[j] for j in converged_ranking(a, name)]
        # each candidate's fit does not depend on where its column sits
        rows = np.argsort([new_index[j] for j in a.index.tolist()])
        for column in COLUMNS[1:]:
            x, y = getattr(a, column)[rows], getattr(b, column)
            assert x.tobytes() == y.tobytes(), column
        assert b.index.tolist() == sorted(new_index[j] for j in a.index.tolist())


class TestRank:
    def test_matches_brute_rank(self):
        values = [0.0, np.nan, 2.0, 9.0, -0.0, np.inf]
        failed = [False, False, False, True, False, False]
        assert rank([6, 1, 2, 3, 4, 5], values, failed) == (2, 4, 6, 1, 3, 5)
        rng = np.random.default_rng(7)
        pool = np.array([0.0, -0.0, 0.5, 1.5, 1.5, -2.0, np.nan, np.inf, -np.inf])
        for _ in range(300):
            m = int(rng.integers(0, 12))
            values = np.where(rng.random(m) < 0.6, rng.choice(pool, m), rng.normal(size=m))
            indices = rng.permutation(40)[:m] + 1  # distinct, not sorted
            failed = rng.random(m) < 0.25
            assert rank(indices, values, failed) == brute_rank(indices, values, failed)
            assert rank(indices, values) == brute_rank(indices, values)


class TestParseConditioning:
    def test_specs(self):
        assert parse_conditioning("none") == ConditioningSet()
        assert parse_conditioning("auto") == AUTO
        assert parse_conditioning("2,5") == ConditioningSet((2, 5))
        assert parse_conditioning((3,)) == ConditioningSet((3,))
        cond = ConditioningSet((1,))
        assert parse_conditioning(cond) is cond

    def test_bad_specs(self):
        for spec in ("1;2", ",", "", "x"):
            with pytest.raises(ConfigError):
                parse_conditioning(spec)

    def test_integer_array(self):
        assert parse_conditioning(np.array([2, 4])) == ConditioningSet((2, 4))

    @pytest.mark.parametrize("spec", [np.array([[2, 4]]), np.array([2.5, 4.0])], ids=["2d", "float"])
    def test_bad_arrays(self, spec):
        with pytest.raises((ValidationError, ConfigError)):
            parse_conditioning(spec)

    @pytest.mark.parametrize(
        "spec",
        [2, None, np.array(2), b"1,2", bytearray(b"1"), memoryview(b"1,2")],
        ids=["int", "none", "0d-array", "bytes", "bytearray", "memoryview"],
    )
    def test_non_sequence_spec(self, spec):
        with pytest.raises(ConfigError, match=rf"an index sequence, got {re.escape(repr(spec))}$"):
            parse_conditioning(spec)


class TestSelection:
    def test_threshold_small_gamma_selects_all(self, dataset):
        result = screen(dataset, ConditioningSet((1,)))
        all_converged = result.index[result.fit_status == CONVERGED].tolist()
        assert select_by_threshold(result, "mple", 1e-300) == all_converged

    def test_threshold_infinite_gamma_empty(self, dataset):
        result = screen(dataset, ConditioningSet((1,)))
        assert select_by_threshold(result, "mple", math.inf) == []

    def test_threshold_nested(self, dataset, rng):
        result = screen(dataset, ConditioningSet((1,)))
        gammas = sorted(rng.uniform(0.001, 2.0, 10))
        for g1, g2 in zip(gammas, gammas[1:]):
            assert set(select_by_threshold(result, "mple", g2)) <= set(
                select_by_threshold(result, "mple", g1)
            )

    def test_threshold_requires_computed_statistic(self, dataset):
        result = screen(dataset, ConditioningSet((1,)), statistics=("mple",))
        with pytest.raises(ValidationError, match="not computed"):
            select_by_threshold(result, "wald", 0.1)

    def test_top_k_full_ranking(self, dataset):
        result = screen(dataset, ConditioningSet((1,)))
        assert select_top_k(result, "mple", 5) == list(result.rankings["mple"])

    def test_top_k_out_of_range(self, dataset):
        result = screen(dataset, ConditioningSet((1,)))
        with pytest.raises(ValidationError):
            select_top_k(result, "mple", 6)
        with pytest.raises(ValidationError):
            select_top_k(result, "mple", 0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan])
    def test_threshold_requires_positive_gamma(self, dataset, gamma):
        result = screen(dataset, ConditioningSet((1,)))
        with pytest.raises(ValidationError, match="gamma must be positive"):
            select_by_threshold(result, "mple", gamma)

    def test_top_k_requires_computed_statistic(self, dataset):
        result = screen(dataset, ConditioningSet((1,)), statistics=("mple",))
        with pytest.raises(ValidationError, match="statistic 'wald' was not computed"):
            select_top_k(result, "wald", 1)

    def test_default_top_k_values(self):
        assert default_top_k(160) == 31
        # floor(240 / log 240) = 43; the rounded-up 44 quoted elsewhere is not
        # reproducible with the same rule that yields 31 at n=160
        assert default_top_k(240) == 43


class TestDefaultConditioning:
    def test_single_covariate(self, rng):
        ds = random_dataset(rng, 30, 1, beta=np.array([1.0]))
        assert default_conditioning(ds).indices == (1,)

    def test_dominant_covariate_chosen(self, rng):
        ds = random_dataset(rng, 100, 5, beta=np.array([3.0, 0, 0, 0, 0]), censor_upper=5.0)
        assert default_conditioning(ds).indices == (1,)

    def test_monotone_transform_of_event_order(self, rng):
        n = 100
        t = np.sort(rng.uniform(0.1, 10.0, n))
        z = rng.normal(size=(n, 4))
        # strongly concordant with hazard order (perfect monotonicity would separate)
        z[:, 2] = (-np.arange(n, dtype=float) + 8.0 * rng.normal(size=n)) / n
        ds = SurvivalDataset(t, np.ones(n), z)
        # brute-force check: covariate 3 has the strongest marginal wald statistic
        result = screen(ds, ConditioningSet(), statistics=("wald",))
        wald = np.where(result.fit_status == CONVERGED, result.wald, np.nan)
        best = int(result.index[np.nanargmax(wald)])
        assert default_conditioning(ds).indices == (best,)
        assert best == 3


class TestExports:
    def test_csv_schema(self, dataset, tmp_path):
        result = screen(dataset, ConditioningSet((1,)))
        path = tmp_path / "res.csv"
        result_to_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,name,beta_hat,sigma_hat,wald,plik,fit_status"
        assert len(lines) == 1 + len(result.index)

    def test_json_structure(self, dataset, tmp_path):
        result = screen(dataset, ConditioningSet((1,)))
        path = tmp_path / "res.json"
        result_to_json(result, path)
        payload = json.loads(path.read_text())
        assert payload["conditioning"] == [1]
        assert len(payload["records"]) == 5
        assert payload["records"][0]["conditioning_coefficients"]
        assert set(payload["rankings"]) == {"mple", "wald", "plik"}


class _WriterBytes:
    """A writer against its oracle, byte for byte; subclasses name the pair."""

    NAMES = [
        "a", "caf\u00e9", 'say "hi"', "back\\slash", "tab\tnew\nline", "\u65e5\u672c", "\U0001f600", "z,y"
    ]

    def assert_same_bytes(self, result, tmp_path):
        self.write(result, tmp_path / "got")
        self.oracle(result, tmp_path / "want")
        assert (tmp_path / "got").read_bytes() == self.expected_bytes(tmp_path / "want")

    @staticmethod
    def expected_bytes(oracle_path):
        return oracle_path.read_bytes()

    def dataset_with_failures(self, rng):
        """Column 5 constant (singular given C), column 6 ordered with time (separation)."""
        ds = tied_censored_dataset(rng, 60, 8, 2)
        z = ds.covariates.copy()
        z[:, 4] = 3.7
        z[:, 5] = -ds.time
        return SurvivalDataset(ds.time, ds.status, z, self.NAMES)

    @pytest.mark.parametrize("cond", [(), (1,), (1, 2, 3)])
    def test_matches_oracle(self, rng, tmp_path, monkeypatch, cond):
        ds = self.dataset_with_failures(rng)
        with monkeypatch.context() as patch:
            patch.setattr(cox, "_COEFFICIENT_BOUND", 2.0)
            result = screen(ds, ConditioningSet(cond))
        assert set(result.fit_status) >= {CONVERGED, SEPARATION}
        self.assert_same_bytes(result, tmp_path)
        self.assert_same_bytes(screen(ds, ConditioningSet(cond), statistics=("wald",)), tmp_path)

    def test_infinite_values(self, rng, tmp_path):
        result = screen(self.dataset_with_failures(rng), ConditioningSet((1,)))
        m = len(result.index)
        result = replace(
            result,
            wald=np.full(m, math.inf),
            plik=np.full(m, -math.inf),
            beta_hat=np.full(m, -0.0),
        )
        self.assert_same_bytes(result, tmp_path)

    def written_without_candidates(self, rng, tmp_path):
        ds = SurvivalDataset(rng.exponential(size=40), np.ones(40), rng.normal(size=(40, 3)))
        result = screen(ds, ConditioningSet((1, 2, 3)))
        assert result.index.size == 0 and result.records == ()
        self.assert_same_bytes(result, tmp_path)
        return (tmp_path / "got").read_text()


class TestJSONBytes(_WriterBytes):
    """result_to_json writes the values of the indent=1 json.dump oracle as one json.dumps line."""

    write = staticmethod(result_to_json)
    oracle = staticmethod(json_dump_result_to_json)

    @staticmethod
    def expected_bytes(oracle_path):
        with open(oracle_path, encoding="utf-8") as fh:
            return (json.dumps(json.load(fh), sort_keys=True) + "\n").encode()

    def test_no_candidates(self, rng, tmp_path):
        assert '"records": []' in self.written_without_candidates(rng, tmp_path)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_records_converted_a_few_rows_at_a_time(self, rng, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(screening, "_JSON_ROWS", rows)
        monkeypatch.setattr(cox, "_COEFFICIENT_BOUND", 2.0)
        result = screen(self.dataset_with_failures(rng), ConditioningSet((1,)))
        self.assert_same_bytes(result, tmp_path)


class TestCSVBytes(_WriterBytes):
    """result_to_csv writes the bytes of a csv.writer loop over the records."""

    write = staticmethod(result_to_csv)
    oracle = staticmethod(record_loop_result_to_csv)

    def test_no_candidates(self, rng, tmp_path):
        assert self.written_without_candidates(rng, tmp_path).count("\n") == 1  # header only
