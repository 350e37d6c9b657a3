"""QuantileSketch: determinism, mergeability, and the rank-error bound."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketch import QuantileSketch

#: Non-negative samples spanning the six orders of magnitude a stage
#: wall time can cover, zeros included (idle stages).
samples_strategy = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-9, max_value=1e3, allow_nan=False,
                  allow_infinity=False),
    ),
    min_size=1,
    max_size=300,
)


def true_quantile(samples, q):
    """The 1-based rank ``max(1, ceil(q*n))`` value — the sketch's rank
    convention applied to the raw pooled samples."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class TestBasics:
    def test_empty_is_nan(self):
        sk = QuantileSketch()
        assert math.isnan(sk.quantile(0.5))
        assert sk.count == 0
        assert sk.mean == 0.0

    def test_rejects_negative_sample(self):
        with pytest.raises(ValueError):
            QuantileSketch().add(-1e-9)

    def test_rejects_bad_accuracy(self):
        with pytest.raises(ValueError):
            QuantileSketch(rel_accuracy=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(rel_accuracy=1.0)

    def test_rejects_out_of_range_quantile(self):
        sk = QuantileSketch()
        sk.add(1.0)
        with pytest.raises(ValueError):
            sk.quantile(1.5)

    def test_zero_bucket_is_exact(self):
        sk = QuantileSketch()
        for _ in range(10):
            sk.add(0.0)
        sk.add(5.0)
        assert sk.quantile(0.5) == 0.0
        assert sk.min == 0.0 and sk.max == 5.0

    def test_single_value_all_quantiles(self):
        sk = QuantileSketch()
        sk.add(3.7)
        for q in (0.0, 0.5, 0.99, 1.0):
            # min/max clamping makes a singleton exact.
            assert sk.quantile(q) == 3.7

    def test_mean_is_exact(self):
        sk = QuantileSketch()
        vals = [0.1, 0.2, 0.3, 0.4]
        for v in vals:
            sk.add(v)
        assert sk.mean == sum(vals) / len(vals)
        assert sk.total == sum(vals)


class TestRankErrorBound:
    @settings(max_examples=60, deadline=None)
    @given(samples=samples_strategy)
    def test_quantiles_within_relative_error(self, samples):
        sk = QuantileSketch()
        for v in samples:
            sk.add(v)
        for q in (0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0):
            truth = true_quantile(samples, q)
            est = sk.quantile(q)
            assert abs(est - truth) <= truth * sk.rel_accuracy * 1.0000001, (
                f"q={q}: {est} vs true {truth}"
            )

    def test_tighter_accuracy_is_tighter(self):
        rough = QuantileSketch(rel_accuracy=0.05)
        fine = QuantileSketch(rel_accuracy=0.001)
        vals = [1.0 + 0.01 * i for i in range(200)]
        for v in vals:
            rough.add(v)
            fine.add(v)
        truth = true_quantile(vals, 0.5)
        assert abs(fine.quantile(0.5) - truth) <= abs(rough.quantile(0.5) - truth)


class TestDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(samples=samples_strategy)
    def test_identical_streams_identical_sketches(self, samples):
        a, b = QuantileSketch(), QuantileSketch()
        for v in samples:
            a.add(v)
        for v in samples:
            b.add(v)
        assert a.to_dict() == b.to_dict()
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )
        for q in (0.5, 0.95, 0.99):
            assert a.quantile(q) == b.quantile(q)


class TestMergeability:
    @settings(max_examples=60, deadline=None)
    @given(left=samples_strategy, right=samples_strategy)
    def test_merge_equals_pooled_stream(self, left, right):
        merged = QuantileSketch()
        a, b = QuantileSketch(), QuantileSketch()
        for v in left:
            a.add(v)
        for v in right:
            b.add(v)
        a.merge(b)
        for v in left + right:
            merged.add(v)
        # merge(s(A), s(B)) == s(A + B) exactly, buckets and all —
        # except the total, which is order-sensitive float addition.
        assert a.buckets == merged.buckets
        assert a.zero_count == merged.zero_count
        assert a.count == merged.count
        assert a.min == merged.min and a.max == merged.max
        assert a.total == pytest.approx(merged.total, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(left=samples_strategy, right=samples_strategy)
    def test_merged_quantiles_within_bound_of_pooled(self, left, right):
        a, b = QuantileSketch(), QuantileSketch()
        for v in left:
            a.add(v)
        for v in right:
            b.add(v)
        a.merge(b)
        pooled = left + right
        for q in (0.5, 0.95, 0.99):
            truth = true_quantile(pooled, q)
            assert abs(a.quantile(q) - truth) <= truth * a.rel_accuracy * 1.0000001

    def test_merge_rejects_mismatched_accuracy(self):
        with pytest.raises(ValueError):
            QuantileSketch(rel_accuracy=0.01).merge(QuantileSketch(rel_accuracy=0.02))


class TestSerialization:
    @settings(max_examples=30, deadline=None)
    @given(samples=samples_strategy)
    def test_round_trip_exact(self, samples):
        sk = QuantileSketch()
        for v in samples:
            sk.add(v)
        back = QuantileSketch.from_dict(sk.to_dict())
        assert back.to_dict() == sk.to_dict()
        for q in (0.5, 0.95, 0.99):
            assert back.quantile(q) == sk.quantile(q)

    def test_json_round_trip(self):
        sk = QuantileSketch()
        for v in (0.0, 1e-6, 3.0, 250.0):
            sk.add(v)
        doc = json.loads(json.dumps(sk.to_dict()))
        assert QuantileSketch.from_dict(doc).to_dict() == sk.to_dict()

    def test_empty_round_trip(self):
        sk = QuantileSketch()
        back = QuantileSketch.from_dict(sk.to_dict())
        assert back.count == 0
        assert math.isnan(back.quantile(0.5))


class TestEmptyPercentiles:
    """Empty-distribution semantics, unified across the stack."""

    def test_percentiles_on_empty_are_all_nan(self):
        out = QuantileSketch().percentiles(0.5, 0.95, 0.99)
        assert set(out) == {0.5, 0.95, 0.99}
        assert all(math.isnan(v) for v in out.values())

    def test_percentiles_out_of_range_still_raises_when_empty(self):
        with pytest.raises(ValueError):
            QuantileSketch().percentiles(0.5, 1.5)

    def test_percentiles_match_quantile_when_populated(self):
        sk = QuantileSketch()
        for v in (1.0, 2.0, 3.0, 4.0):
            sk.add(v)
        out = sk.percentiles(0.5, 0.99)
        assert out[0.5] == sk.quantile(0.5)
        assert out[0.99] == sk.quantile(0.99)

    def test_histogram_empty_percentile_is_nan_too(self):
        from repro.obs.metrics import MetricsRegistry

        h = MetricsRegistry().histogram("x")
        assert math.isnan(h.quantile(0.5))
        assert math.isnan(h.quantile(0.99))
        with pytest.raises(ValueError):
            h.quantile(1.01)
        h.add(1.5)
        assert not math.isnan(h.quantile(0.5))
