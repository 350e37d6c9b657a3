"""Tracer tests: nesting discipline, bit-exact durations, real runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LennardJones, Simulation, SimulationConfig
from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
from repro.md.stages import Stage
from repro.obs.trace import MODEL, WALL, Tracer, tracing

EPS = 1e-9

# Arbitrary nesting shapes: a tree is a tuple of child trees.
TREES = st.recursive(
    st.just(()), lambda ch: st.lists(ch, min_size=1, max_size=3).map(tuple), max_leaves=10
)


def open_tree(tracer, tree, prefix="s"):
    """Open one span per tree node, children strictly inside the parent."""
    for i, child in enumerate(tree):
        name = f"{prefix}.{i}"
        with tracer.span(name, cat="test"):
            open_tree(tracer, child, name)


class TestNesting:
    @settings(max_examples=30, deadline=None)
    @given(tree=TREES)
    def test_children_contained_in_parents(self, tree):
        tracer = Tracer(enabled=True)
        with tracer.span("root", cat="test"):
            open_tree(tracer, tree)
        by_id = {s.id: s for s in tracer.spans}
        assert len(tracer.spans) >= 1
        for s in tracer.spans:
            assert s.dur >= 0
            if s.parent is None:
                continue
            parent = by_id[s.parent]
            # The child opened after and closed before its parent.
            assert s.ts >= parent.ts - EPS
            assert s.end <= parent.end + EPS

    @settings(max_examples=30, deadline=None)
    @given(tree=TREES)
    def test_single_root_when_wrapped(self, tree):
        tracer = Tracer(enabled=True)
        with tracer.span("root", cat="test"):
            open_tree(tracer, tree)
        roots = [s for s in tracer.spans if s.parent is None]
        assert [s.name for s in roots] == ["root"]

    def test_parent_ids_follow_the_stack(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent == outer.id
        names = {s.name: s for s in tracer.spans}
        assert names["inner"].parent == names["outer"].id
        assert names["outer"].parent is None


class TestDisabled:
    def test_disabled_span_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ghost", cat="test"):
            pass
        tracer.instant("ev")
        tracer.add_wall_span("w", 0.0, 1.0)
        tracer.add_model_span("m", 0.0, 1.0)
        assert tracer.spans == []
        assert tracer.instants == []

    def test_disabled_span_is_shared_null_object(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")

    def test_tracing_context_restores_state(self):
        from repro.obs.trace import TRACER

        assert not TRACER.enabled
        with tracing() as tr:
            assert tr is TRACER and tr.enabled
        assert not TRACER.enabled


class TestRecording:
    def test_wall_span_duration_is_exact_difference(self):
        tracer = Tracer(enabled=True)
        t0, t1 = 1.25, 7.75
        tracer.add_wall_span("x", t0, t1, cat="stage")
        assert tracer.spans[0].dur == t1 - t0
        assert tracer.spans[0].clock == WALL

    def test_model_clock_high_water_mark(self):
        tracer = Tracer(enabled=True)
        tracer.add_model_span("a", 0.0, 2.0)
        tracer.add_model_span("b", 0.5, 1.0)  # inside: cursor unchanged
        assert tracer.model_clock == 2.0
        tracer.model_span_seq("c", 3.0)
        assert tracer.model_clock == 5.0
        assert tracer.spans[-1].ts == 2.0

    def test_begin_model_round_offsets(self):
        tracer = Tracer(enabled=True)
        tracer.model_span_seq("a", 1.0)
        base = tracer.begin_model_round()
        assert base == 1.0 == tracer.model_offset

    def test_queries_filter(self):
        tracer = Tracer(enabled=True)
        tracer.add_wall_span("w", 0.0, 1.0, cat="stage")
        tracer.add_model_span("m", 0.0, 1.0, cat="stage")
        tracer.instant("i", cat="msg")
        assert [s.name for s in tracer.spans_with("stage", WALL)] == ["w"]
        assert [s.name for s in tracer.spans_with("stage", MODEL)] == ["m"]
        assert [e.name for e in tracer.instants_with("msg")] == ["i"]

    def test_instant_batch_keeps_order_and_shares_one_time(self):
        tracer = Tracer(enabled=True)
        tracer.instant("before", cat="msg", track="rank0")
        events = [("msg", "rank0", {"dst": 1}), ("recv", "rank1", {"src": 0})]
        tracer.instant_batch("msg", events)
        assert [(e.name, e.cat, e.track, e.args) for e in tracer.instants] == [
            ("before", "msg", "rank0", {}),
            ("msg", "msg", "rank0", {"dst": 1}),
            ("recv", "msg", "rank1", {"src": 0}),
        ]
        first, second = tracer.instants[1:]
        assert first.ts == second.ts >= tracer.instants[0].ts
        assert first.clock == WALL

    def test_instant_batch_honours_sampling_and_disable(self):
        tracer = Tracer(enabled=True)
        tracer.sample_every = 2
        tracer.instant_batch("msg", [("m", "rank0", {"i": i}) for i in range(4)])
        assert [e.args["i"] for e in tracer.instants] == [1, 3]
        off = Tracer(enabled=False)
        off.instant_batch("msg", [("m", "rank0", {})])
        assert off.instants == []


class TestRealRun:
    def run_sim(self, steps=8):
        edge = lj_density_to_cell(0.8442)
        x, box = fcc_lattice((4, 4, 4), edge)
        v = maxwell_velocities(x.shape[0], 1.44, seed=3)
        cfg = SimulationConfig(
            pattern="parallel-p2p", neighbor_every=4, model_machine_time=True
        )
        with tracing() as tracer:
            sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
            sim.run(steps)
        return sim, tracer

    def test_stage_span_sums_equal_timers_exactly(self):
        sim, tracer = self.run_sim()
        sums = {s.value: 0.0 for s in Stage}
        for span in tracer.spans_with("stage", WALL):
            sums[span.name] += span.dur
        for stage in Stage:
            # Bit-exact: spans carry the same measured floats, summed in
            # the same order the timers accumulated them.
            assert sums[stage.value] == sim.timers.wall[stage]

    def test_model_span_sums_equal_model_timers(self):
        sim, tracer = self.run_sim()
        assert sim.timers.total_model() > 0
        sums = {s.value: 0.0 for s in Stage}
        for span in tracer.spans_with("stage", MODEL):
            sums[span.name] += span.dur
        for stage in Stage:
            assert sums[stage.value] == sim.timers.model[stage]

    def test_step_spans_cover_the_run(self):
        sim, tracer = self.run_sim(steps=5)
        steps = [s for s in tracer.spans_with("step", WALL) if s.name.startswith("step")]
        assert [s.name for s in steps] == [f"step {i}" for i in range(1, 6)]
        assert any(s.name == "setup" for s in tracer.spans_with("step", WALL))

    def test_stage_spans_nest_inside_steps(self):
        _, tracer = self.run_sim(steps=3)
        by_id = {s.id: s for s in tracer.spans}
        stage_spans = tracer.spans_with("stage", WALL)
        assert stage_spans
        for s in stage_spans:
            assert s.parent is not None
            assert by_id[s.parent].cat in ("step", "comm")
