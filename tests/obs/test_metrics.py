"""Metrics registry tests: instruments, labels, histograms, rendering."""

import math

import pytest

from repro.obs.metrics import (
    METRICS,
    Counter,
    Gauge,
    MetricsRegistry,
    collecting,
)
from repro.obs.sketch import QuantileSketch


class TestCounter:
    def test_accumulates(self):
        c = Counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)

    def test_render(self):
        c = Counter("msgs", {"phase": "forward"})
        c.inc(4)
        assert c.render() == "msgs{phase=forward} 4"


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("balance")
        g.set(1.5)
        g.set(2.0)
        assert g.value == 2.0


class TestHistogram:
    def test_empty_mean_is_zero(self):
        assert MetricsRegistry().histogram("x").mean == 0.0


class TestHistogramPercentile:
    def test_empty_returns_nan_consistently(self):
        h = MetricsRegistry().histogram("x")
        for q in (0.0, 0.5, 0.99, 1.0):
            assert math.isnan(h.quantile(q))

    def test_out_of_range_q_rejected(self):
        h = MetricsRegistry().histogram("x")
        with pytest.raises(ValueError):
            h.quantile(-0.01)
        with pytest.raises(ValueError):
            h.quantile(1.005)


class TestRegistry:
    def test_create_on_first_use_returns_same_instrument(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.histogram("h") is r.histogram("h")
        assert isinstance(r.histogram("h"), QuantileSketch)

    def test_labels_distinguish_instruments(self):
        r = MetricsRegistry()
        r.counter("msgs", phase="border").inc()
        r.counter("msgs", phase="forward").inc(2)
        assert r.value("msgs", phase="border") == 1
        assert r.value("msgs", phase="forward") == 2
        assert len(r.find("msgs")) == 2

    def test_value_default_when_absent(self):
        assert MetricsRegistry().value("nope", default=-1.0) == -1.0

    def test_render_lists_scalars_then_histograms(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        r.histogram("h").add(0.5)
        text = r.render()
        assert text.index("c 1") < text.index("h count=1")
        assert "h count=1 sum=0.5 p50=0.5 p95=0.5 p99=0.5" in text

    def test_render_empty(self):
        assert "(no metrics recorded)" in MetricsRegistry().render()

    def test_reset_drops_instruments(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        r.reset()
        assert r.find("c") == []


class TestCollecting:
    def test_enables_and_restores_global_registry(self):
        assert not METRICS.enabled
        with collecting() as reg:
            assert reg is METRICS and reg.enabled
            reg.counter("seen").inc()
        assert not METRICS.enabled
        assert METRICS.value("seen") == 1  # records survive the block
