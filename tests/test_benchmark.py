from dataclasses import replace

import numpy as np
import pytest

from coxscreen import baselines, screening, simulate
from coxscreen.baselines import PSIS_PLIK, PSIS_WALD
from coxscreen.benchmark import ALL_METHODS, CS_METHODS, _score, run_benchmark, run_replicate
from coxscreen.data import ConditioningSet
from coxscreen.errors import ConfigError, ValidationError
from coxscreen.simulate import calibrate_censoring, example_config, gen_replicate


@pytest.fixture(scope="module")
def config():
    base = example_config(2, n=60, p=12, censor_target=0.2, seed=4)
    c, _ = calibrate_censoring(base)
    return replace(base, censor_upper=c)


class TestRunReplicate:
    def test_auto_shares_one_marginal_sweep(self, config, monkeypatch):
        conditionings = []
        real_screen = screening.screen

        def counting_screen(dataset, conditioning, *args, **kwargs):
            conditionings.append(conditioning)
            return real_screen(dataset, conditioning, *args, **kwargs)

        monkeypatch.setattr(screening, "screen", counting_screen)
        scores = run_replicate((config, 0, ALL_METHODS, screening.AUTO))
        monkeypatch.undo()
        assert len(conditionings) == 2
        assert conditionings[0] == ConditioningSet()
        assert [s.method for s in scores] == list(ALL_METHODS)

        cs_auto = run_replicate((config, 0, CS_METHODS, screening.AUTO))
        psis = run_replicate((config, 0, (PSIS_WALD, PSIS_PLIK), screening.AUTO))
        assert scores[:3] == cs_auto
        assert scores[3:5] == psis
        cond = screening.default_conditioning(gen_replicate(config, 0).dataset)
        assert conditionings[1] == cond
        assert run_replicate((config, 0, CS_METHODS, cond)) == cs_auto

    def test_empty_conditioning_reuses_the_marginal_sweep(self, config, monkeypatch):
        empty = ConditioningSet()
        conditionings = []
        real_screen = screening.screen

        def counting_screen(dataset, conditioning, *args, **kwargs):
            conditionings.append(conditioning)
            return real_screen(dataset, conditioning, *args, **kwargs)

        monkeypatch.setattr(screening, "screen", counting_screen)
        scores = run_replicate((config, 0, ALL_METHODS, screening.parse_conditioning("none")))
        monkeypatch.undo()
        assert conditionings == [empty]

        # the rankings of separate sweeps, one per statistic and flavor
        rep = gen_replicate(config, 0)
        ds = rep.dataset
        rankings = {
            f"cs-{s}": screening.screen(ds, empty, statistics=(s,)).rankings[s]
            for s in screening.STATISTICS
        }
        for method, flavor in ((PSIS_WALD, "wald"), (PSIS_PLIK, "plik")):
            rankings[method] = screening.screen(ds, empty, statistics=(flavor,)).rankings[flavor]
        rankings[baselines.CORS] = baselines.cors(ds).ranking
        rankings[baselines.CRIS] = baselines.cris(ds).ranking
        budget, sure_k = config.n, screening.default_top_k(config.n)
        expected = [_score(m, rankings[m], rep, empty, budget, sure_k) for m in ALL_METHODS]
        assert scores == expected


class TestRunBenchmark:
    def test_default_conditions_on_first_covariate(self, config):
        methods = ("cs-mple",)
        default, _ = run_benchmark(config, replicates=2, methods=methods)
        explicit, _ = run_benchmark(config, replicates=2, methods=methods, conditioning="1")
        assert default == explicit

    def test_integer_array_conditioning(self, config):
        methods = ("cs-wald",)
        from_array, _ = run_benchmark(config, replicates=1, methods=methods, conditioning=np.array([2, 4]))
        from_text, _ = run_benchmark(config, replicates=1, methods=methods, conditioning="2,4")
        assert from_array == from_text

    def test_non_sequence_conditioning_rejected(self, config):
        with pytest.raises(ConfigError, match="an index sequence, got 2$"):
            run_benchmark(config, replicates=1, methods=("cs-wald",), conditioning=2)

    def test_bytes_conditioning_rejected(self, config):
        # iterating b"1" gives the character code 49, not the index 1
        with pytest.raises(ConfigError, match=r"an index sequence, got b'1'$"):
            run_benchmark(config, replicates=1, methods=("cs-wald",), conditioning=b"1")

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, config, workers):
        with pytest.raises(ValidationError, match="at least 1 worker"):
            run_benchmark(config, replicates=1, methods=("cs-wald",), workers=workers)

    @pytest.mark.parametrize("methods", [(), ("cors", "cs-wald", "cors")], ids=["empty", "repeated"])
    def test_empty_or_repeated_methods_rejected_before_calibration(self, methods, monkeypatch):
        def no_calibration(*args, **kwargs):
            raise AssertionError("calibrated before checking the methods")

        monkeypatch.setattr(simulate, "calibrate_censoring", no_calibration)
        uncalibrated = example_config(2, n=60, p=12, censor_target=0.2, seed=4)
        with pytest.raises(ValidationError, match="non-empty list of distinct names"):
            run_benchmark(uncalibrated, replicates=1, methods=methods)
