"""Streaming percentile sketch: mergeable, deterministic, bounded error.

The telemetry plane needs latency percentiles (the p50/p95/p99 a serving
layer gates its SLOs on) without storing per-step samples.  A
:class:`QuantileSketch` is a DDSketch-style compressed histogram over
log-spaced buckets: each positive value lands in the bucket
``ceil(log_gamma(v))`` with ``gamma = (1 + a) / (1 - a)``, which
guarantees every quantile estimate is within **relative error** ``a`` of
the true sample quantile (rank-exact, value-approximate).  Zero values
get an exact dedicated bucket.

Properties the tests pin down:

* **deterministic** — bucket indices come from ``math.log``/``math.ceil``
  on the value alone; two runs over the same stream produce identical
  sketches (and identical serialized forms);
* **mergeable** — bucket counts add elementwise, so
  ``merge(s(A), s(B)) == s(A + B)`` exactly (the property that lets
  per-rank or per-window sketches roll up losslessly);
* **bounded** — memory is O(buckets touched), independent of the sample
  count, and ``quantile(q)`` differs from the pooled-sample quantile at
  the same rank by at most ``rel_accuracy`` relatively.

The sketch needs no a-priori value range — per-stage wall times span
six orders of magnitude between a smoke test and a production run, and
a fixed bucket table cannot serve both — so it is also the histogram
instrument of :class:`repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import math

#: Default relative accuracy: quantiles within 1% of the true value.
DEFAULT_REL_ACCURACY = 0.01


class QuantileSketch:
    """Mergeable log-bucket quantile sketch for non-negative samples."""

    __slots__ = ("rel_accuracy", "_gamma", "_log_gamma", "buckets",
                 "zero_count", "count", "total", "min", "max")

    def __init__(self, rel_accuracy: float = DEFAULT_REL_ACCURACY) -> None:
        if not 0.0 < rel_accuracy < 1.0:
            raise ValueError(f"rel_accuracy must be in (0, 1), got {rel_accuracy}")
        self.rel_accuracy = rel_accuracy
        self._gamma = (1.0 + rel_accuracy) / (1.0 - rel_accuracy)
        self._log_gamma = math.log(self._gamma)
        self.buckets: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- ingest -------------------------------------------------------------
    def add(self, value: float) -> None:
        """Record one sample (must be non-negative)."""
        if value < 0:
            raise ValueError(f"sketch samples must be >= 0, got {value}")
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value == 0.0:
            self.zero_count += 1
            return
        idx = math.ceil(math.log(value) / self._log_gamma)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    def merge(self, other: QuantileSketch) -> None:
        """Fold ``other`` into this sketch (both must share the accuracy)."""
        if other.rel_accuracy != self.rel_accuracy:
            raise ValueError(
                f"cannot merge sketches with rel_accuracy "
                f"{self.rel_accuracy} and {other.rel_accuracy}"
            )
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.zero_count += other.zero_count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    # -- queries ------------------------------------------------------------
    @property
    def mean(self) -> float:
        """Exact mean of all samples (the sum is kept exactly)."""
        return self.total / self.count if self.count else 0.0

    def _bucket_value(self, idx: int) -> float:
        # Midpoint estimate of (gamma^(i-1), gamma^i]: relative distance
        # to any value in the bucket is <= rel_accuracy by construction.
        return 2.0 * self._gamma ** idx / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]); ``nan`` when empty.

        Rank convention: the value at 1-based rank ``max(1, ceil(q * n))``
        of the sorted stream — the same rule the mergeability test
        applies to the pooled raw samples.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        target = max(1, math.ceil(q * self.count))
        if target <= self.zero_count:
            return 0.0
        cumulative = self.zero_count
        for idx in sorted(self.buckets):
            cumulative += self.buckets[idx]
            if cumulative >= target:
                # Clamp into the observed range: exact min/max beat the
                # bucket midpoint at the extremes.
                return min(max(self._bucket_value(idx), self.min), self.max)
        return self.max  # pragma: no cover - cumulative always reaches count

    def percentiles(self, *qs: float) -> dict[float, float]:
        """Several quantiles in one call (keyed by ``q``).

        On a sketch with no samples every requested quantile maps to
        ``nan``, exactly like :meth:`quantile`.  Out-of-range ``q`` still
        raises — emptiness never masks a bad argument.
        """
        return {q: self.quantile(q) for q in qs}

    # -- (de)serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready form (bucket keys as strings, sorted)."""
        return {
            "rel_accuracy": self.rel_accuracy,
            "count": self.count,
            "sum": self.total,
            "zero_count": self.zero_count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(i): self.buckets[i] for i in sorted(self.buckets)},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> QuantileSketch:
        """Rebuild a sketch from :meth:`to_dict` output (exact inverse)."""
        sk = cls(rel_accuracy=doc["rel_accuracy"])
        sk.count = int(doc["count"])
        sk.total = float(doc["sum"])
        sk.zero_count = int(doc["zero_count"])
        sk.min = math.inf if doc.get("min") is None else float(doc["min"])
        sk.max = -math.inf if doc.get("max") is None else float(doc["max"])
        sk.buckets = {int(i): int(n) for i, n in doc["buckets"].items()}
        return sk

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(n={self.count}, p50={self.quantile(0.5):.3g}, "
            f"p99={self.quantile(0.99):.3g})"
        )
