from dataclasses import replace

import pytest

from coxscreen import screening
from coxscreen.baselines import PSIS_PLIK, PSIS_WALD
from coxscreen.benchmark import ALL_METHODS, CS_METHODS, run_benchmark, run_replicate
from coxscreen.cox import FitControl
from coxscreen.data import ConditioningSet
from coxscreen.simulate import calibrate_censoring, example_config, gen_replicate


@pytest.fixture(scope="module")
def config():
    base = example_config(2, n=60, p=12, censor_target=0.2, seed=4)
    c, _ = calibrate_censoring(base)
    return replace(base, censor_upper=c)


class TestRunReplicate:
    def test_auto_shares_one_marginal_sweep(self, config, monkeypatch):
        control = FitControl()
        conditionings = []
        real_screen = screening.screen

        def counting_screen(dataset, conditioning, *args, **kwargs):
            conditionings.append(conditioning)
            return real_screen(dataset, conditioning, *args, **kwargs)

        monkeypatch.setattr(screening, "screen", counting_screen)
        scores = run_replicate((config, 0, ALL_METHODS, screening.AUTO, control))
        monkeypatch.undo()
        assert len(conditionings) == 2
        assert conditionings[0] == ConditioningSet()
        assert [s.method for s in scores] == list(ALL_METHODS)

        cs_auto = run_replicate((config, 0, CS_METHODS, screening.AUTO, control))
        psis = run_replicate((config, 0, (PSIS_WALD, PSIS_PLIK), screening.AUTO, control))
        assert scores[:3] == cs_auto
        assert scores[3:5] == psis
        cond = screening.default_conditioning(gen_replicate(config, 0).dataset)
        assert conditionings[1] == cond
        assert run_replicate((config, 0, CS_METHODS, cond, control)) == cs_auto


class TestRunBenchmark:
    def test_default_conditions_on_first_covariate(self, config):
        methods = ("cs-mple",)
        default, _ = run_benchmark(config, replicates=2, methods=methods)
        explicit, _ = run_benchmark(config, replicates=2, methods=methods, conditioning="1")
        assert default == explicit
