import numpy as np
import pytest

from coxscreen.data import ConditioningSet
from coxscreen.errors import ValidationError
from coxscreen.metrics import (
    BenchmarkSummary,
    ReplicateScore,
    mms,
    scores_to_csv,
    summaries_to_csv,
    summarize,
    tpr,
)

from oracles import brute_mms


class TestMMS:
    def test_hand_examples(self):
        assert mms((3, 1, 2), {1}) == 2
        assert mms((3, 1, 2), {1, 2}) == 3
        assert mms((3, 1, 2), {3}) == 1

    def test_conditioning_penalty_added(self):
        cond = ConditioningSet((5,))
        assert mms((3, 1, 2), {1}, conditioning_penalty=1, conditioning=cond) == 3

    def test_active_inside_conditioning_not_searched(self):
        cond = ConditioningSet((6,))
        # variable 6 is covered by the conditioning set, only 2 is looked up
        assert mms((4, 2, 9), {2, 6}, conditioning_penalty=1, conditioning=cond) == 3

    def test_all_active_in_conditioning(self):
        cond = ConditioningSet((1, 2))
        assert mms((), {1, 2}, conditioning_penalty=2, conditioning=cond) == 2

    def test_missing_active_errors(self):
        with pytest.raises(ValidationError, match="absent"):
            mms((3, 1), {2})

    def test_matches_brute_scan(self, rng):
        for _ in range(30):
            p = int(rng.integers(5, 40))
            ranking = tuple(rng.permutation(p) + 1)
            k = int(rng.integers(1, min(5, p)))
            targets = set(rng.choice(p, size=k, replace=False) + 1)
            assert mms(ranking, targets) == brute_mms(ranking, targets)


class TestTPR:
    def test_hand_examples(self):
        assert tpr((3, 1, 2), {1, 2}, 2) == 0.5
        assert tpr((3, 1, 2), {1, 2}, 3) == 1.0
        assert tpr((3, 1, 2), {9}, 3) == 0.0

    def test_conditioning_counts_as_found(self):
        cond = ConditioningSet((1,))
        assert tpr((5, 4), {1, 5}, 1, conditioning=cond) == 1.0

    def test_budget_validation(self):
        with pytest.raises(ValidationError):
            tpr((1,), {1}, 0)

    def test_empty_active_rejected(self):
        with pytest.raises(ValidationError):
            tpr((1,), set(), 1)

    def test_bounds(self, rng):
        for _ in range(20):
            p = int(rng.integers(3, 20))
            ranking = tuple(rng.permutation(p) + 1)
            active = set(rng.choice(p, size=2, replace=False) + 1)
            value = tpr(ranking, active, int(rng.integers(1, p + 1)))
            assert 0.0 <= value <= 1.0


class TestSummarize:
    def _scores(self, mms_vals, tprs=None, sure=None):
        tprs = tprs or [1.0] * len(mms_vals)
        sure = sure or [True] * len(mms_vals)
        return [
            ReplicateScore("cs-mple", i, m, t, s)
            for i, (m, t, s) in enumerate(zip(mms_vals, tprs, sure))
        ]

    def test_median_and_iqr_linear_interpolation(self):
        s = summarize(self._scores([1, 2, 3, 4]))
        assert s.median_mms == 2.5
        assert s.iqr_mms == pytest.approx(np.percentile([1, 2, 3, 4], 75) - 1.75)

    def test_single_score(self):
        s = summarize(self._scores([7], tprs=[0.5], sure=[False]))
        assert s == BenchmarkSummary("cs-mple", 7.0, 0.0, 0.5, 0.0, 0.0, 1)

    def test_sure_rate(self):
        s = summarize(self._scores([1, 1, 1, 1], sure=[True, True, False, True]))
        assert s.sure_rate == 0.75

    def test_mixed_methods_rejected(self):
        scores = self._scores([1, 2])
        scores.append(ReplicateScore("cors", 2, 1, 1.0, True))
        with pytest.raises(ValidationError, match="single method"):
            summarize(scores)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            summarize([])


class TestCSVExports:
    def test_summaries_csv(self, tmp_path):
        s = BenchmarkSummary("cs-wald", 2.0, 1.0, 1.0, 0.0, 0.9, 100)
        path = tmp_path / "sum.csv"
        summaries_to_csv([s], path, config_id="ex2-n100")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("method,config_id,median_mms")
        assert lines[1].split(",")[:2] == ["cs-wald", "ex2-n100"]

    def test_scores_csv_roundtrip_values(self, tmp_path):
        scores = [ReplicateScore("cors", 0, 12, 0.25, False)]
        path = tmp_path / "scores.csv"
        scores_to_csv(scores, path)
        row = path.read_text().strip().splitlines()[1].split(",")
        assert row == ["cors", "0", "12", "0.25", "0"]
