import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxscreen import simulate
from coxscreen.baselines import KM_FLOOR, _dense_ranks, cors, cris, ipw_weights
from coxscreen.data import SurvivalDataset
from coxscreen.errors import ValidationError

from conftest import random_dataset
from oracles import (
    brute_censoring_km_left,
    brute_cris,
    float_sign_cris,
    km_loop_ipw_weights,
    per_column_cors,
    per_column_cris,
)


def tied_dataset(rng, n, p, censor_upper):
    """random_dataset with follow-up times rounded onto a coarse grid, so many tie."""
    ds = random_dataset(rng, n, p, beta=0.5 * rng.normal(size=p), censor_upper=censor_upper)
    return SurvivalDataset(np.round(ds.time, 1) + 0.1, ds.status, ds.covariates)


class TestIPWWeights:
    def test_no_censoring_gives_unit_weights(self, rng):
        ds = random_dataset(rng, 15, 1)
        np.testing.assert_array_equal(ipw_weights(ds), np.ones(15))

    def test_hand_example(self):
        ds = SurvivalDataset([1.0, 2.0], [1, 0], np.zeros((2, 1)))
        np.testing.assert_array_equal(ipw_weights(ds), [1.0, 0.0])

    def test_matches_brute_km(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, int(rng.integers(5, 40)), 1, censor_upper=1.5)
            surv = np.maximum(brute_censoring_km_left(ds.time, ds.status), 0.05)
            expected = np.where(ds.status == 1, 1.0 / surv, 0.0)
            np.testing.assert_allclose(ipw_weights(ds), expected, rtol=1e-12)

    def test_all_censored_errors(self):
        ds = SurvivalDataset([1.0, 2.0], [0, 0], np.zeros((2, 1)))
        with pytest.raises(ValidationError, match="no events"):
            ipw_weights(ds)

    def test_bitwise_equal_to_km_loop(self, rng):
        for k in range(40):
            n = int(rng.integers(3, 80))
            censor_upper = None if k % 5 == 0 else float(rng.uniform(0.3, 4.0))  # all events
            ds = random_dataset(rng, n, 1, censor_upper=censor_upper)
            for data in (ds, tied_dataset(rng, n, 1, censor_upper)):
                expected = km_loop_ipw_weights(data.time, data.status, KM_FLOOR)
                np.testing.assert_array_equal(ipw_weights(data), expected)

    def test_weights_nonnegative_finite(self, rng):
        ds = random_dataset(rng, 60, 1, censor_upper=0.8)
        w = ipw_weights(ds)
        assert np.all(w >= 0) and np.all(np.isfinite(w))


class TestCORS:
    def test_perfect_correlation(self, rng):
        n = 30
        z = rng.normal(size=(n, 2))
        t = np.abs(z[:, 0]) + 0.1
        z[:, 0] = t  # Z_1 equals the observed time exactly
        ds = SurvivalDataset(t, np.ones(n), z)
        result = cors(ds)
        assert result.statistics[0] == pytest.approx(1.0, abs=1e-12)

    def test_reduces_to_pearson_on_events_when_weights_equal(self, rng):
        ds = random_dataset(rng, 40, 3)
        result = cors(ds)
        for j in range(3):
            expected = abs(np.corrcoef(ds.time, ds.covariates[:, j])[0, 1])
            assert result.statistics[j] == pytest.approx(expected, rel=1e-10)

    def test_noise_statistic_small(self):
        rng = np.random.default_rng(5)
        means = []
        for _ in range(20):
            ds = random_dataset(rng, 200, 1, censor_upper=8.0)
            means.append(cors(ds).statistics[0])
        assert np.mean(means) < 0.1

    def test_bounds(self, rng):
        ds = random_dataset(rng, 50, 4, beta=np.array([1.0, 0, 0, 0]), censor_upper=2.0)
        stats = cors(ds).statistics
        assert np.all(stats >= 0) and np.all(stats <= 1 + 1e-12)

    def test_degenerate_column_flagged(self, rng):
        z = rng.normal(size=(20, 2))
        z[:, 1] = 3.0
        t = rng.uniform(0.1, 2.0, 20)
        ds = SurvivalDataset(t, np.ones(20), z)
        result = cors(ds)
        assert result.degenerate == (2,)
        assert result.statistics[1] == 0.0

    def test_constant_column_always_flagged(self, rng):
        # rounding can leave a constant column a weighted variance of 1e-17
        for _ in range(20):
            ds = tied_dataset(rng, int(rng.integers(6, 30)), 3, censor_upper=2.0)
            z = ds.covariates.copy()
            z[:, 1] = float(rng.choice([0.1, 0.3, 0.7, 1.1, 3.3]))
            result = cors(SurvivalDataset(ds.time, ds.status, z))
            assert 2 in result.degenerate
            assert result.statistics[1] == 0.0

    def test_column_constant_over_events_flagged(self):
        # censored rows carry no weight, so their values cannot give a column range
        ds = SurvivalDataset(
            [1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0], np.array([[1.0, 0.5], [9.0, 0.2], [1.0, 0.9], [7.0, 0.1]])
        )
        result = cors(ds)
        assert result.degenerate == (1,)
        assert result.statistics[0] == 0.0 and result.statistics[1] > 0

    def test_event_times_of_zero_range_flag_every_column(self, rng):
        # every event at one time: the follow-up time has no range over the events
        time = np.r_[np.full(6, 2.0), rng.uniform(2.5, 4.0, 4)]
        ds = SurvivalDataset(time, np.r_[np.ones(6), np.zeros(4)], rng.normal(size=(10, 3)))
        result = cors(ds)
        assert result.degenerate == (1, 2, 3)
        assert result.statistics.tolist() == [0.0, 0.0, 0.0]

    def test_matches_per_column_oracle(self, rng):
        # a correlation near 0 is a difference of nearly equal sums, so a
        # different summation order moves it by an absolute ~1e-17, not a relative one
        for k in range(40):
            n = int(rng.integers(10, 120))
            p = int(rng.integers(1, 40))
            ds = random_dataset(rng, n, p, beta=0.3 * rng.normal(size=p), censor_upper=3.0)
            if k % 2:
                ds = tied_dataset(rng, n, p, censor_upper=3.0)
            expected, degenerate = per_column_cors(ds.time, ds.covariates, ipw_weights(ds))
            result = cors(ds)
            assert result.degenerate == degenerate == ()
            np.testing.assert_allclose(result.statistics, expected, rtol=1e-14, atol=1e-15)
            assert result.ranking == tuple(int(j) for j in np.lexsort((np.arange(p), -expected)) + 1)


class TestCRIS:
    def test_time_itself_is_maximal_among_monotone_columns(self, rng):
        n = 25
        t = rng.uniform(0.1, 5.0, n)
        z = np.column_stack([t, np.log(t), t + rng.normal(scale=0.8, size=n)])
        ds = SurvivalDataset(t, np.ones(n), z)
        stats = cris(ds).statistics
        assert stats[0] == pytest.approx(1.0, abs=1e-12)
        assert stats[0] >= stats[2]

    def test_monotone_transform_invariance(self, rng):
        ds = random_dataset(rng, 30, 2, beta=np.array([0.7, 0.0]), censor_upper=2.0)
        base = cris(ds).statistics
        for transform in (np.exp, lambda v: v**3, lambda v: 2.5 * v + 7):
            z = ds.covariates.copy()
            z[:, 0] = transform(z[:, 0])
            other = cris(SurvivalDataset(ds.time, ds.status, z, ds.covariate_names))
            np.testing.assert_allclose(other.statistics, base, atol=1e-12)

    def test_matches_pair_enumeration(self, rng):
        for k in range(8):
            ds = random_dataset(rng, 6, 2, censor_upper=1.5)
            if k % 2:  # covariate ties as well
                ds = SurvivalDataset(ds.time, ds.status, np.round(ds.covariates))
            w = ipw_weights(ds)
            result = cris(ds)
            for j in range(2):
                expected = brute_cris(ds.time, ds.status, ds.covariates[:, j], w)
                assert result.statistics[j] == pytest.approx(expected, abs=1e-12)

    def test_bounds(self, rng):
        ds = random_dataset(rng, 40, 3, censor_upper=2.0)
        stats = cris(ds).statistics
        assert np.all(stats >= 0) and np.all(stats <= 1 + 1e-12)

    def test_constant_column_scores_zero(self, rng):
        ds = random_dataset(rng, 30, 3, beta=np.array([1.0, 0.0, 0.0]), censor_upper=2.0)
        z = ds.covariates.copy()
        z[:, 1] = 4.0
        result = cris(SurvivalDataset(ds.time, ds.status, z))
        assert result.degenerate == (2,)
        assert result.statistics[1] == 0.0
        assert result.ranking[-1] == 2

    def test_tied_noise_does_not_outrank_signal(self):
        # ties in a binary column once counted as discordant pairs, which gave
        # independent binary noise a statistic near 0.5
        rng = np.random.default_rng(0)
        n = 80
        z = np.column_stack([rng.normal(size=n), rng.integers(0, 2, size=(n, 50)).astype(float)])
        t = -np.log(rng.uniform(size=n)) / np.exp(z[:, 0])
        c = rng.uniform(0, 3, size=n)
        result = cris(SurvivalDataset(np.minimum(t, c), (t <= c).astype(int), z))
        assert np.median(result.statistics[1:]) < 0.15
        assert result.ranking[0] == 1

    def test_equal_sign_counts_give_equal_statistics(self):
        # two events of equal weight w: column 1 counts -3 and +1, column 2 +1 and +1,
        # so both sums are 2w in size; summed event by event, column 1 came out
        # 0.49999999999999994
        z = np.array([[0, 1, -1, 0, 0, 0], [0, 0, 0, 0, 0, 1]], dtype=float).T
        result = cris(SurvivalDataset([3, 2, 3, 1, 1, 4], [0, 1, 1, 0, 0, 0], z))
        assert result.statistics.tolist() == [0.5, 0.5]
        assert result.ranking == (1, 2)


@st.composite
def cris_datasets(draw):
    """Small datasets with optional ties in the times and in each covariate column."""
    n = draw(st.integers(2, 12))
    p = draw(st.integers(1, 4))
    tied_times = draw(st.booleans())
    time = draw(st.lists(st.integers(1, 4).map(float) if tied_times
                         else st.floats(0.01, 100.0, allow_subnormal=False), min_size=n, max_size=n))
    status = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    columns = []
    for _ in range(p):
        values = (st.integers(-2, 2).map(float) if draw(st.booleans())
                  else st.floats(-1e3, 1e3, allow_subnormal=False))
        columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    return SurvivalDataset(time, status, np.array(columns).T.reshape(n, p))


class TestCRISOracle:
    @settings(max_examples=300, deadline=None)
    @given(cris_datasets())
    def test_matches_per_column_and_pair_enumeration(self, ds):
        try:
            expected = per_column_cris(ds)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=str(exc)):
                cris(ds)
            return
        result = cris(ds)
        np.testing.assert_allclose(result.statistics, expected.statistics, rtol=1e-14, atol=1e-15)
        assert result.degenerate == expected.degenerate
        # Statistics equal in exact arithmetic can round apart in either code (two
        # columns worth 0.5 came out 0.5 and 0.49999999999999994), so the rankings
        # must be identical only where rounding cannot reorder them.
        in_order = expected.statistics[np.array(result.ranking) - 1]
        assert np.all(np.diff(in_order) <= 3e-14)
        if np.all(np.diff(np.sort(expected.statistics)) > 1e-12):
            assert result.ranking == expected.ranking
        w = ipw_weights(ds)
        brute = [brute_cris(ds.time, ds.status, ds.covariates[:, j], w) for j in range(ds.p)]
        np.testing.assert_allclose(result.statistics, brute, rtol=1e-14, atol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(cris_datasets())
    def test_bit_identical_to_float_sign_kernel(self, ds):
        try:
            expected = float_sign_cris(ds)
        except ValidationError:
            return  # test_matches_per_column_and_pair_enumeration checks the error
        assert np.array_equal(cris(ds).statistics, expected)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_to_float_sign_kernel_on_montecarlo_design(self, seed):
        config = simulate.with_censor_upper(simulate.example_config(1, n=400, p=100, seed=seed))
        ds = simulate.gen_replicate(config, 0).dataset
        assert np.array_equal(cris(ds).statistics, float_sign_cris(ds))

    def test_no_comparable_pairs(self):
        # every event is at the last follow-up time, so no event has a later row
        ds = SurvivalDataset([1.0, 2.0, 3.0, 3.0], [0, 0, 1, 1], np.arange(8.0).reshape(4, 2))
        with pytest.raises(ValidationError, match="no comparable pairs"):
            cris(ds)


class TestDenseRanks:
    def test_ties_and_signed_zeros_share_a_rank(self):
        x = np.array([[2.5, 0.0], [-1.0, -0.0], [2.5, 1.0], [0.0, -0.0], [-0.0, -2.0]])
        ranks = _dense_ranks(x)
        assert ranks.dtype == np.int16
        assert ranks.tolist() == [[2, 1], [0, 1], [2, 2], [1, 1], [1, 0]]

    def test_rank_differences_have_the_sign_of_value_differences(self, rng):
        x = np.round(rng.normal(size=(40, 3)), 1)
        x[::7, 1] = -0.0
        ranks = _dense_ranks(x).astype(int)
        assert np.array_equal(np.sign(ranks[:, None] - ranks[None]), np.sign(x[:, None] - x[None]))

    def test_int32_above_two_to_the_fifteen_rows(self):
        n = (1 << 15) + 1
        x = np.arange(n, dtype=float)[::-1, None] * 0.5
        ranks = _dense_ranks(x)
        assert ranks.dtype == np.int32
        assert np.array_equal(ranks[:, 0], np.arange(n)[::-1])
        assert _dense_ranks(x[1:]).dtype == np.int16


class TestRankings:
    def test_deterministic_tie_rule(self):
        ds = SurvivalDataset(
            [1.0, 2.0, 3.0, 4.0],
            [1, 1, 1, 1],
            np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [0.2, 0.2]]),
        )
        # identical columns: identical statistics, ascending index breaks the tie
        result = cris(ds)
        assert result.statistics[0] == result.statistics[1]
        assert result.ranking == (1, 2)
