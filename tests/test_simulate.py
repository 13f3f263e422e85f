import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats

from coxscreen import simulate
from coxscreen.cox import fit
from coxscreen.errors import CalibrationError, ValidationError
from coxscreen.simulate import (
    SimConfig,
    _rng,
    calibrate_censoring,
    config_from_kv,
    config_to_kv,
    example_config,
    gen_covariates,
    gen_replicate,
    gen_survival_times,
    with_censor_upper,
)

from oracles import (
    dense_covariance,
    full_matrix_calibrate_censoring,
    full_matrix_replicate,
    linear_predictor_covariance,
)


class TestCovariates:
    def test_independent_columns(self):
        config = SimConfig(n=1000, p=5, beta={})
        z = gen_covariates(config, _rng(1, 0, 0))
        corr = np.corrcoef(z, rowvar=False)
        off = corr[~np.eye(5, dtype=bool)]
        assert np.all(np.abs(off) < 0.1)

    def test_equicorrelated_mean_offdiagonal(self):
        values = []
        for rep in range(20):
            config = SimConfig(n=1000, p=10, beta={}, correlation="equicorrelated", rho=0.5)
            z = gen_covariates(config, _rng(2, rep, 0))
            corr = np.corrcoef(z, rowvar=False)
            values.append(corr[~np.eye(10, dtype=bool)].mean())
        assert abs(np.mean(values) - 0.5) < 0.05

    def test_block_last_independent(self):
        config = example_config(3, n=1000, p=20, seed=4)
        z = gen_covariates(config, _rng(4, 0, 0))
        corr = np.corrcoef(z, rowvar=False)
        assert abs(corr[0, 19]) < 0.05  # last column independent of the block
        assert corr[0, 1] > 0.8

    def test_frobenius_convergence(self):
        # the shared-factor sampling error keeps the distance near 0.14 at
        # n=5000, so convergence is checked at a larger n as well
        rho = 0.5
        sigma = (1 - rho) * np.eye(10) + rho
        dists = {}
        for n in (5000, 50000):
            config = SimConfig(n=n, p=10, beta={}, correlation="equicorrelated", rho=rho)
            z = gen_covariates(config, _rng(7, 0, 0))
            dists[n] = np.linalg.norm(np.cov(z, rowvar=False) - sigma)
        assert dists[5000] < 0.3
        assert dists[50000] < 0.1


def _ulps(a, b):
    """Distance in units in the last place between same-signed float64 arrays."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestNdtri:
    """simulate._ndtri against scipy.special.ndtri, the cephes routine it ports."""

    def test_centre_bit_identical(self):
        rng = np.random.default_rng(101)
        edge = simulate._EXP_M2
        y = rng.uniform(edge, 1.0 - edge, 1_200_000)
        y = y[(y > edge) & (y <= 1.0 - edge)]
        assert y.size >= 1_000_000
        assert simulate._ndtri(y).tobytes() == special.ndtri(y).tobytes()

    def test_tails_within_8_ulp(self):
        # numpy's vectorised log may round differently from the C library's
        rng = np.random.default_rng(102)
        edge = simulate._EXP_M2
        y = np.concatenate([
            rng.uniform(0.0, edge, 500_000),
            1.0 - rng.uniform(0.0, edge, 500_000),
            10.0 ** -rng.uniform(14.0, 300.0, 100_000),  # the far tail, z < 1/8
        ])
        y = y[(y > 0.0) & ((y <= edge) | (y > 1.0 - edge))]
        ulps = _ulps(simulate._ndtri(y), special.ndtri(y))
        assert np.mean(ulps == 0) >= 0.999
        assert ulps.max() <= 8

    def test_edge_points_exact(self):
        edge = simulate._EXP_M2
        y = np.array([1e-300, 5e-324, edge, np.nextafter(edge, 1.0), 1.0 - edge,
                      np.nextafter(1.0 - edge, 1.0), 0.5, np.nextafter(1.0, 0.0)])
        assert simulate._ndtri(y).tobytes() == special.ndtri(y).tobytes()

    def test_standard_normal_blocks_match_one_call(self):
        shape = (3, simulate._NDTRI_BLOCK + 5)
        u = np.maximum(_rng(5, 0, 0).random(shape), 1e-300)
        expected = simulate._ndtri(u.ravel()).reshape(shape)
        assert simulate._standard_normal(_rng(5, 0, 0), shape).tobytes() == expected.tobytes()


class TestSurvivalTimes:
    def test_unit_exponential_at_zero_beta(self):
        z = np.zeros((10000, 1))
        t, clipped = gen_survival_times(z, [0.0], 0.0, _rng(1, 0, 0))
        assert clipped == 0
        assert abs(t.mean() - 1.0) < 0.1

    def test_negative_intercept_scales_mean(self):
        z = np.zeros((10000, 1))
        t, _ = gen_survival_times(z, [0.0], -1.0, _rng(2, 0, 0))
        assert abs(t.mean() - np.e) < 0.3

    def test_conditional_median_closed_form(self):
        beta = np.array([0.8])
        for z_value in (-1.0, 0.0, 1.5):
            z = np.full((20000, 1), z_value)
            t, _ = gen_survival_times(z, beta, 0.0, _rng(3, int(z_value * 10) + 100, 0))
            expected = np.log(2) * np.exp(-beta[0] * z_value)
            assert np.median(t) == pytest.approx(expected, rel=0.05)

    def test_arguments_left_unchanged(self):
        # the event times are computed in place, in buffers the caller never sees
        z = _rng(5, 0, 0).normal(size=(50, 3))
        z[:4] = 400.0  # clipped rows as well
        beta = np.array([1.0, -0.5, 2.0])
        z_before, beta_before = z.copy(), beta.copy()
        t, clipped = gen_survival_times(z, beta, 0.3, _rng(6, 0, 0))
        assert clipped == 4
        assert z.tobytes() == z_before.tobytes()
        assert beta.tobytes() == beta_before.tobytes()
        assert not np.shares_memory(t, z) and not np.shares_memory(t, beta)

    def test_extreme_predictor_clipped(self):
        z = np.full((10, 1), 100.0)
        z[5:] = -100.0
        t, clipped = gen_survival_times(z, [10.0], 0.0, _rng(4, 0, 0))
        assert clipped == 10
        assert np.all((t > 0) & np.isfinite(t))  # exp(+/-1000) would give times 0 and inf


class TestCalibration:
    def test_achieves_target(self):
        config = example_config(1, n=100, p=10, seed=11)
        c, achieved = calibrate_censoring(config, 0.2)
        assert abs(achieved - 0.2) <= 0.01
        # fresh validation batch
        rates = [
            gen_replicate(replace(config, censor_upper=c), rid).realized_censoring
            for rid in range(50)
        ]
        assert abs(np.mean(rates) - 0.2) < 0.02

    def test_low_target_gives_large_c(self):
        config = example_config(1, n=100, p=10, seed=12)
        c_small, achieved = calibrate_censoring(config, 0.01)
        c_mid, _ = calibrate_censoring(config, 0.2)
        assert c_small > c_mid
        assert achieved <= 0.03

    def test_monotone_in_target(self):
        config = example_config(1, n=100, p=10, seed=13)
        c_60, _ = calibrate_censoring(config, 0.6)
        c_20, _ = calibrate_censoring(config, 0.2)
        assert c_60 < c_20

    def test_invalid_target(self):
        config = example_config(1, n=50, p=10, seed=1)
        with pytest.raises(ValidationError):
            calibrate_censoring(config, 1.5)

    @pytest.mark.parametrize("intercept", [40.0, -40.0], ids=["all-events", "all-censored"])
    def test_unreachable_target(self, intercept):
        # every time is far below c = 1e-6 of the search, or far above c = 1e6
        config = replace(example_config(1, n=20, p=10, seed=2), intercept=intercept)
        with pytest.raises(CalibrationError, match=r"^target 0.2 unreachable within \[1e-06, 1000000.0\]$"):
            calibrate_censoring(config, 0.2)

    def test_closest_rate_after_bisection(self, monkeypatch):
        # 5 replicates of n=2 give 10 subjects, so every rate is a multiple of 0.1
        # and none is within 0.02 of 0.25: the bisection runs out, and the
        # 5 * tolerance check accepts the rate it ends on
        config = example_config(2, n=2, seed=3)
        monkeypatch.setattr(simulate, "_CALIBRATION_REPLICATES", 5)
        monkeypatch.setattr(simulate, "_CALIBRATION_TOLERANCE", 0.02)
        _, achieved = calibrate_censoring(config, 0.25)
        assert achieved == 0.3
        monkeypatch.setattr(simulate, "_CALIBRATION_TOLERANCE", 0.0)
        with pytest.raises(CalibrationError, match="calibration did not converge"):
            calibrate_censoring(config, 0.25)


def _calibration_configs(tmp_path):
    configs = [
        (example_config(ex, n=n, p=p, seed=seed), target, 200)
        for ex in (1, 2, 3)
        for n, p in ((30, 7), (60, 40), (20, 300))
        for seed in (0, 9)
        for target in (0.2, 0.4)
    ]
    configs.append((SimConfig(n=40, p=12, beta={2: 1.5, 9: -0.7}, correlation="equicorrelated",
                              rho=0.0, seed=3), 0.3, 200))
    path = tmp_path / "sim.cfg"
    path.write_text("n=25\np=30\nbeta.1=1.0\nbeta.4=0.0\nbeta.30=-2.0\n"
                    "correlation=block_last_independent\nrho=0.6\nintercept=0.5\nseed=8\n")
    zero_entry = config_from_kv(path)
    assert zero_entry.beta[4] == 0.0 and 4 not in zero_entry.true_active
    configs.append((zero_entry, 0.25, 200))
    configs.append((example_config(1, n=50, p=20, seed=4), 0.2, 37))
    configs.append((example_config(3, n=50, p=20, seed=4), 0.4, 1))
    return configs


# c of the full-matrix batch (`full_matrix_calibrate_censoring`) at the
# calibrated configs of tests/test_acceptance.py, of the perfbench
# `montecarlo` design and of the calibration memory test; keyed by
# (example, n, p, seed), all at target 0.2.
_ORACLE_C = {
    **{(1, n, 1000, 0): "0x1.97ba3c1babe95p+4" for n in (50, 100, 200, 400, 800)},
    (2, 100, 1000, 0): "0x1.40dd00455b171p+14",
    (3, 100, 1000, 0): "0x1.40dd00455b171p+14",
    **{(1, 400, 100, seed): "0x1.97ba3c1babe95p+4" for seed in (1, 2, 3)},
    (1, 2000, 100, 1): "0x1.97ba3c1babe95p+4",
}


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _held_out_rate(config, c, rows=2000, draws=10):
    """Censoring rate at bound c over draws * rows subjects of the replicate generator."""
    held_out = replace(config, n=rows, censor_upper=c)
    return float(np.mean([gen_replicate(held_out, rid).realized_censoring
                          for rid in range(1, draws + 1)]))


class TestCalibrationOracle:
    def test_lp_variance_equals_dense_quadratic_form(self, tmp_path):
        for config, _, _ in _calibration_configs(tmp_path):
            beta = config.dense_beta()
            expected = beta @ dense_covariance(config) @ beta
            assert simulate._lp_variance(config) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("example", [1, 2, 3])
    def test_linear_predictor_normal(self, example):
        config = example_config(example, n=20000, p=50, seed=example)
        z = gen_covariates(config, _rng(config.seed, 5, 0))
        lp = z @ config.dense_beta() + config.intercept
        sd = np.sqrt(simulate._lp_variance(config))
        assert stats.kstest(lp, "norm", args=(config.intercept, sd)).pvalue > 1e-3

    def test_held_out_rate_near_target(self, tmp_path, monkeypatch):
        held_out = 2000 * 10
        for config, target, replicates in _calibration_configs(tmp_path):
            monkeypatch.setattr(simulate, "_CALIBRATION_REPLICATES", replicates)
            # both batches miss the true rate at their c by Monte-Carlo error
            batch = replicates * config.n
            slack = 0.01 + 4.0 * np.sqrt(target * (1 - target) * (1 / batch + 1 / held_out))
            rates = {}
            for calibrate in (calibrate_censoring, full_matrix_calibrate_censoring):
                c, _ = calibrate(config, target)
                if c not in rates:
                    rates[c] = _held_out_rate(config, c)
                assert abs(rates[c] - target) <= slack, (calibrate.__name__, config, target, rates)

    @pytest.mark.parametrize("key", sorted(_ORACLE_C))
    def test_c_pinned_to_full_matrix_oracle(self, key):
        example, n, p, seed = key
        c, achieved = calibrate_censoring(example_config(example, n=n, p=p, seed=seed), 0.2)
        assert c.hex() == _ORACLE_C[key]
        assert abs(achieved - 0.2) <= 0.01

    def test_memory_does_not_grow_with_p(self):
        # the full (200 n, p) batch alone would take 200 * 20 * 5000 * 8 bytes = 160 MB
        config = example_config(1, n=20, p=5000, seed=2)
        assert _traced_peak(lambda: calibrate_censoring(config)) < 32 * 2**20

    def test_batch_held_in_a_fixed_number_of_arrays(self):
        # event times, censoring uniforms and one product buffer, plus a boolean mask
        config = example_config(1, n=2000, p=100, seed=1)
        batch_bytes = 200 * config.n * 8
        assert _traced_peak(lambda: calibrate_censoring(config)) <= 3.5 * batch_bytes

    def test_draws_and_memory_do_not_grow_with_p(self, monkeypatch):
        # 200 n predictors, event-time and censoring uniforms: 3 * 200 * 20 draws at p = 10**6
        config = example_config(1, n=20, p=10**6, seed=2)
        streams = []
        monkeypatch.setattr(simulate, "_rng", lambda *key: streams.append(_rng(*key)) or streams[-1])
        assert _traced_peak(lambda: calibrate_censoring(config)) < 32 * 2**20
        expected = _rng(config.seed, 0, simulate._STREAM_CALIBRATION)
        expected.random(3 * 200 * config.n)
        assert len(streams) == 1
        assert streams[0].random(4).tobytes() == expected.random(4).tobytes()


class TestBlockedCovariates:
    @pytest.mark.parametrize("example", [1, 2, 3])
    @pytest.mark.parametrize("n, p", [(7, 6), (209, 5000), (300, 5000), (418, 5000), (11, 6), (5, 6)])
    def test_replicate_bitwise_equal_to_full_matrix(self, example, n, p):
        config = replace(example_config(example, n=n, p=p, seed=example), censor_upper=3.0)
        rep = gen_replicate(config, 2)
        z, time, status = full_matrix_replicate(config, 2)
        assert rep.dataset.covariates.tobytes() == z.tobytes()
        assert rep.dataset.time.tobytes() == time.tobytes()
        assert np.array_equal(rep.dataset.status, status)


class TestReplicates:
    @pytest.mark.parametrize("example", [1, 3])
    def test_design_mixed_in_place(self, example):
        # one n-by-p array for the design, the shared factor mixed in place,
        # plus _ndtri's fixed-size block temporaries
        config = replace(example_config(example, n=100, p=1000, seed=1), censor_upper=3.0)
        matrix_bytes = config.n * config.p * 8
        assert _traced_peak(lambda: gen_replicate(config, 0)) <= 2.5 * matrix_bytes

    def test_deterministic(self):
        config = example_config(1, n=50, p=10, censor_target=0.2, seed=21)
        a = gen_replicate(config, 3)
        b = gen_replicate(config, 3)
        assert a.dataset == b.dataset

    def test_distinct_ids_differ(self):
        config = example_config(1, n=50, p=10, censor_target=0.2, seed=21)
        assert gen_replicate(config, 1).dataset != gen_replicate(config, 2).dataset

    def test_true_active_matches_support(self):
        config = example_config(1, n=50, p=10, seed=21)
        rep = gen_replicate(config, 0)
        assert rep.true_active == (1, 2, 3, 4, 5, 6)

    def test_realized_censoring_near_target(self):
        config = example_config(1, n=100, p=10, censor_target=0.2, seed=22)
        c, _ = calibrate_censoring(config)
        config = replace(config, censor_upper=c)
        rates = [gen_replicate(config, rid).realized_censoring for rid in range(100)]
        assert abs(np.mean(rates) - 0.2) < 0.03

    def test_no_censoring_when_target_zero(self):
        config = SimConfig(n=30, p=3, beta={1: 1.0}, seed=5)
        rep = gen_replicate(config, 0)
        assert rep.realized_censoring == 0.0
        assert with_censor_upper(config).censor_upper == np.inf

    def test_with_censor_upper_calibrates_once_for_every_replicate(self):
        config = example_config(2, n=40, p=8, censor_target=0.3, seed=6)
        resolved = with_censor_upper(config)
        assert resolved.censor_upper == calibrate_censoring(config)[0]
        assert with_censor_upper(resolved) is resolved
        for rid in range(3):
            assert gen_replicate(resolved, rid).dataset == gen_replicate(config, rid).dataset


class TestDesignProperties:
    def test_example1_hidden_variable_uncorrelated(self):
        config = example_config(1, n=100, p=1000)
        cov = linear_predictor_covariance(config)
        assert cov[5] == pytest.approx(0.0, abs=1e-12)  # variable 6 is hidden
        assert cov[0] == pytest.approx(0.5 * 1.0 + 0.5 * (5 * 1.0 - 2.5))

    def test_example3_hidden_variable_weak(self):
        config = example_config(3, n=100, p=50)
        cov = linear_predictor_covariance(config)
        # last variable: independent of the block, so only its own coefficient
        assert cov[-1] == pytest.approx(1.0)
        # noise columns inside the block inherit 0.9 * 10 from variable 1
        assert cov[1] == pytest.approx(9.0)

    def test_fit_recovers_truth_at_large_n(self):
        config = example_config(1, n=2000, p=10, censor_target=0.2, seed=31)
        c, _ = calibrate_censoring(config)
        rep = gen_replicate(replace(config, censor_upper=c), 0)
        result = fit(rep.dataset, list(rep.true_active))
        truth = np.array([1, 1, 1, 1, 1, -2.5])
        se = np.sqrt(result.variances)
        assert np.all(np.abs(result.coefficients - truth) <= 3 * se)


class TestConfigSerialization:
    def test_roundtrip(self, tmp_path):
        config = example_config(2, n=77, p=33, censor_target=0.6, seed=9)
        path = tmp_path / "sim.cfg"
        config_to_kv(config, path)
        assert config_from_kv(path) == config

    def test_roundtrip_with_censor_upper(self, tmp_path):
        config = replace(example_config(2, n=5, p=3, censor_target=0.25, seed=4), censor_upper=1.5)
        path = tmp_path / "sim.cfg"
        config_to_kv(config, path)
        assert path.read_text(encoding="utf-8") == (
            "n=5\np=3\nbeta.1=10.0\nbeta.3=1.0\nintercept=-1.0\ncorrelation=independent\n"
            "rho=0.0\ncensor_target=0.25\ncensor_upper=1.5\nseed=4\n"
        )
        assert config_from_kv(path) == config

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("n=10\np=2\nnot a kv line\n")
        with pytest.raises(ValidationError, match="key=value"):
            config_from_kv(path)

    @pytest.mark.parametrize(
        "lines, message",
        [("n=10\np=2.5\n", ":2: p: expected int, got '2.5'"),
         ("n=10\np=3\nrho=high\n", ":3: rho: expected float, got 'high'"),
         ("n=10\np=3\nbeta.=1\n", ":3: beta.: expected int, got ''")],
        ids=["p", "rho", "beta-index"],
    )
    def test_unparsable_value_names_line_and_key(self, tmp_path, lines, message):
        path = tmp_path / "sim.cfg"
        path.write_text(lines)
        with pytest.raises(ValidationError) as exc:
            config_from_kv(path)
        assert str(exc.value) == f"{path}{message}"

    def test_unknown_key_names_line_and_lists_known_keys(self, tmp_path):
        path = tmp_path / "typo.kv"
        path.write_text("n=10\np=3\ncensoring=0.5\n")
        with pytest.raises(ValidationError) as exc:
            config_from_kv(path)
        assert str(exc.value) == (
            f"{path}:3: censoring: unknown key; known keys are n, p, intercept, correlation, "
            "rho, censor_target, censor_upper, seed, beta.<j>"
        )

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("n=10\n")
        with pytest.raises(ValidationError, match="missing required key 'p'"):
            config_from_kv(path)

    def test_examples_validate(self):
        for ex in (1, 2, 3):
            config = example_config(ex, n=100, p=20)
            assert config.censor_target == 0.2
        with pytest.raises(ValidationError):
            example_config(4)

    @pytest.mark.parametrize("example", [2, 3])
    def test_example_needs_two_columns(self, example):
        with pytest.raises(ValidationError, match="^examples 2 and 3 need p >= 2$"):
            example_config(example, p=1)

    @pytest.mark.parametrize("fields, message", [
        ({"n": 1}, "need n >= 2 and p >= 1"),
        ({"correlation": "ar1"}, "unknown correlation kind 'ar1'"),
        ({"rho": 1.0}, "rho must be in [0, 1)"),
        ({"censor_target": -0.1}, "censor_target must be in [0, 1)"),
        ({"beta": {0: 1.0}}, "beta indices must lie in [1, p]"),
    ], ids=["n", "correlation", "rho", "censor_target", "beta"])
    def test_invalid_config_rejected(self, fields, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            SimConfig(**{"n": 10, "p": 3, "beta": {1: 1.0}, **fields})
