"""Edge cases of StageTimers.breakdown and the registry's histograms.

Both feed the fault/bench reporting paths; these regressions pin the
behaviors the harness relies on (empty accounts, single samples, caller
typos).
"""

import math

import pytest

from repro.md.stages import Stage, StageTimers
from repro.obs.metrics import MetricsRegistry


class TestStageTimersBreakdown:
    def test_empty_timers_report_zero_percent(self):
        b = StageTimers().breakdown()
        assert set(b) == {s.value for s in Stage}
        assert all(v == (0.0, 0.0) for v in b.values())

    def test_percentages_sum_to_hundred(self):
        t = StageTimers()
        t.wall[Stage.PAIR] = 3.0
        t.wall[Stage.COMM] = 1.0
        b = t.breakdown("wall")
        assert b["Pair"] == (3.0, 75.0)
        assert b["Comm"] == (1.0, 25.0)
        assert sum(pct for _, pct in b.values()) == pytest.approx(100.0)

    def test_model_account_selected_explicitly(self):
        t = StageTimers()
        t.add_model(Stage.COMM, 2.0)
        assert t.breakdown("model")["Comm"] == (2.0, 100.0)
        assert t.breakdown("wall")["Comm"] == (0.0, 0.0)

    def test_unknown_account_is_a_typo(self):
        with pytest.raises(ValueError, match="wall.*model"):
            StageTimers().breakdown("walls")

    def test_negative_model_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            StageTimers().add_model(Stage.PAIR, -1.0)

    def test_single_stage_is_all_of_the_run(self):
        t = StageTimers()
        t.wall[Stage.NEIGH] = 0.5
        assert t.breakdown()["Neigh"] == (0.5, 100.0)
        assert t.total_wall() == 0.5


class TestHistogramPercentile:
    def build(self, *samples):
        h = MetricsRegistry().histogram("t")
        for s in samples:
            h.add(s)
        return h

    def test_empty_histogram_has_no_percentiles(self):
        h = self.build()
        for q in (0.0, 0.5, 1.0):
            assert math.isnan(h.quantile(q))

    @pytest.mark.parametrize("q", [-0.01, 1.005])
    def test_out_of_range_percentile_rejected(self, q):
        with pytest.raises(ValueError, match="quantile"):
            self.build(1.0).quantile(q)

    def test_single_sample_every_percentile_in_its_bucket(self):
        h = self.build(1.5)  # one sample: every quantile is the sample
        for q in (0.01, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 1.5

    def test_empty_mean_is_zero_not_nan(self):
        assert self.build().mean == 0.0
