"""Each demo script runs to completion and its printed claim holds."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.fixture
def run_demo(capsys):
    def run(name):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
        return capsys.readouterr().out

    return run


def test_hidden_variable_rank_drops_once_conditioned(run_demo):
    out = run_demo("hidden_variable_recovery.py")
    claim = re.search(r"median rank drops from (\d+) to (\d+)", out)
    marginal, conditional = map(int, claim.groups())
    assert conditional < marginal


def test_conditional_methods_need_smaller_models(run_demo):
    out = run_demo("benchmark_comparison.py")
    mms = {m: float(v) for m, v in re.findall(r"^((?:cs|psis)-\w+)\s+(\S+)", out, re.M)}
    cs = [v for m, v in mms.items() if m.startswith("cs-")]
    psis = [v for m, v in mms.items() if m.startswith("psis-")]
    assert len(cs) == 3 and len(psis) == 2
    assert max(cs) < min(psis)


def test_hidden_variable_separates_after_conditioning(run_demo):
    out = run_demo("conditional_signal_diagnostics.py")
    rows = re.findall(r"^\s*(\d+)\s+(\S+)\s+(\S+)\s+\((hidden|noise)\)$", out, re.M)
    conditional = {int(j): abs(float(c)) for j, _, c, _ in rows}
    assert sorted(conditional) == [6, 10, 15]
    assert conditional[6] > max(conditional[10], conditional[15])
