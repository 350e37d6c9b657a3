"""Metrics registry: counters, gauges, and quantile-sketch histograms.

The quantitative companions to the tracer's timelines — the distributions
and totals the paper's analysis keeps coming back to:

* ``message_size_bytes`` / ``message_hops`` histograms (Table 1's two
  axes),
* ``rdma_registrations_total`` (the kernel-trap count pre-registration
  is designed to flatten, section 3.4),
* ``recv_ring_occupancy`` (the round-robin receive-buffer depth
  argument of Fig. 10),
* ``tni_busy_seconds`` per TNI (the engine-contention account behind
  Fig. 8),
* ``injections_total`` (retransmit-free wire injections — Tofu does not
  retransmit, so every injection counted here reached the wire).

Distributions are :class:`~repro.obs.sketch.QuantileSketch` es — the
same instrument the telemetry plane keeps — so no bucket table has to
guess a value range up front.

Like the tracer, the module-level :data:`METRICS` singleton starts
disabled and every instrumentation site guards on ``METRICS.enabled``,
keeping the disabled path free of any allocation or lookup.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.obs.sketch import QuantileSketch
from repro.obs.telemetry import EXPORT_QUANTILES


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _label_str(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    labels: dict = field(default_factory=dict)
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def render(self) -> str:
        """One report line: ``name{labels} value``."""
        return f"{self.name}{_label_str(self.labels)} {self.value:g}"


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    name: str
    labels: dict = field(default_factory=dict)
    value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = float(value)

    def render(self) -> str:
        """One report line: ``name{labels} value``."""
        return f"{self.name}{_label_str(self.labels)} {self.value:g}"


class MetricsRegistry:
    """Create-on-first-use registry of named, labelled instruments."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._metrics: dict[tuple, Any] = {}

    def reset(self) -> None:
        """Drop every instrument."""
        self._metrics.clear()

    def _get(self, kind: str, name: str, labels: dict, factory):
        key = (kind, name, _label_key(labels))
        inst = self._metrics.get(key)
        if inst is None:
            inst = factory()
            self._metrics[key] = inst
        return inst

    def counter(self, name: str, **labels) -> Counter:
        """The counter ``name`` with these labels (created on first use)."""
        return self._get("counter", name, labels, lambda: Counter(name, labels))

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge ``name`` with these labels (created on first use)."""
        return self._get("gauge", name, labels, lambda: Gauge(name, labels))

    def histogram(self, name: str, **labels) -> QuantileSketch:
        """The distribution ``name`` with these labels (created on first use)."""
        return self._get("histogram", name, labels, QuantileSketch)

    def _keys(self) -> list[tuple]:
        # Sorted by (kind, name, labels): counters, gauges, then histograms.
        return sorted(self._metrics, key=repr)

    def all_metrics(self) -> list:
        """Every instrument, sorted by (kind, name, labels) for stable output."""
        return [self._metrics[k] for k in self._keys()]

    def find(self, name: str) -> list:
        """All instruments (any labels) registered under ``name``."""
        return [self._metrics[k] for k in self._keys() if k[1] == name]

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """Current value of a counter/gauge, or ``default`` if absent."""
        for kind in ("counter", "gauge"):
            inst = self._metrics.get((kind, name, _label_key(labels)))
            if inst is not None:
                return inst.value
        return default

    def render(self) -> str:
        """Text report: counters and gauges first, then histogram lines."""
        lines = ["metrics report:"]
        if not self._metrics:
            lines.append("  (no metrics recorded)")
        for key in self._keys():
            kind, name, labels = key
            inst = self._metrics[key]
            if kind != "histogram":
                lines.append("  " + inst.render())
                continue
            quantiles = " ".join(
                f"p{round(q * 100)}={inst.quantile(q):g}" for q in EXPORT_QUANTILES
            )
            lines.append(
                f"  {name}{_label_str(dict(labels))} "
                f"count={inst.count} sum={inst.total:g} {quantiles}"
            )
        return "\n".join(lines)


#: The process-wide registry. Never replaced, only reset.
METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The global metrics registry singleton."""
    return METRICS


@contextmanager
def collecting(fresh: bool = True):
    """Enable the global registry for a block; restores the prior state."""
    prev = METRICS.enabled
    if fresh:
        METRICS.reset()
    METRICS.enabled = True
    try:
        yield METRICS
    finally:
        METRICS.enabled = prev
