"""Bounded TrafficLog: rolling retention with exact whole-run aggregates."""

import numpy as np

from repro.runtime.transport import SentMessage, TrafficLog


def _msgs(n, seed=0):
    rng = np.random.default_rng(seed)
    phases = ("border", "forward", "reverse")
    return [
        SentMessage(
            src=int(rng.integers(0, 4)),
            dst=int(rng.integers(0, 4)),
            tag=("t", i),
            nbytes=int(rng.integers(8, 4096)),
            phase=phases[int(rng.integers(0, 3))],
        )
        for i in range(n)
    ]


class TestRollingWindow:
    def test_retention_is_bounded(self):
        log = TrafficLog()
        log.set_window(50)
        for m in _msgs(500):
            log.record(m)
        # Chunked trimming: never more than twice the window retained.
        assert len(log.messages) <= 100
        # The newest records are the ones kept.
        assert log.messages[-1].tag == ("t", 499)

    def test_aggregates_match_unbounded_log(self):
        bounded, unbounded = TrafficLog(), TrafficLog()
        bounded.set_window(10)
        for m in _msgs(300, seed=3):
            bounded.record(m)
            unbounded.record(m)
        for phase in (None, "border", "forward", "reverse", "absent"):
            assert bounded.count(phase) == unbounded.count(phase)
            assert bounded.total_bytes(phase) == unbounded.total_bytes(phase)
            assert bounded.count_by_rank(phase) == unbounded.count_by_rank(phase)
            assert bounded.pairs(phase) == unbounded.pairs(phase)
            bs, us = bounded.summary(phase), unbounded.summary(phase)
            assert (bs.count, bs.total_bytes) == (us.count, us.total_bytes)
            assert (bs.pair_count, bs.max_pair, bs.max_pair_bytes) == (
                us.pair_count, us.max_pair, us.max_pair_bytes
            )

    def test_window_set_midstream_rebuilds_from_retained(self):
        """Bounding an already-populated log restarts exact accounting
        from what is still retained (documented semantics)."""
        log = TrafficLog()
        msgs = _msgs(20, seed=5)
        for m in msgs:
            log.record(m)
        log.set_window(100)  # all 20 retained -> aggregates cover all 20
        assert log.count() == 20
        assert log.total_bytes() == sum(m.nbytes for m in msgs)

    def test_clear_resets_aggregates(self):
        log = TrafficLog()
        log.set_window(5)
        for m in _msgs(50, seed=7):
            log.record(m)
        log.clear()
        assert log.count() == 0 and log.total_bytes() == 0
        assert log.pairs() == set() and log.count_by_rank() == {}

    def test_unbounded_default_unchanged(self):
        log = TrafficLog()
        for m in _msgs(120, seed=9):
            log.record(m)
        assert log.max_messages is None
        assert len(log.messages) == 120


class TestBulkExtend:
    """``extend`` (the plan replay's append) keeps what ``record`` keeps."""

    def test_matches_per_message_record(self):
        msgs = _msgs(200, seed=11)
        for window in (None, 16):
            bulk, single = TrafficLog(), TrafficLog()
            bulk.set_window(window)
            single.set_window(window)
            for k in range(0, len(msgs), 37):
                bulk.extend(msgs[k : k + 37])
            for m in msgs:
                single.record(m)
            assert bulk.grand_total_count == single.grand_total_count == 200
            assert bulk.grand_total_bytes == single.grand_total_bytes
            for phase in (None, "border", "forward", "reverse"):
                assert bulk.count(phase) == single.count(phase)
                assert bulk.total_bytes(phase) == single.total_bytes(phase)
                assert bulk.count_by_rank(phase) == single.count_by_rank(phase)
                assert bulk.pairs(phase) == single.pairs(phase)
            assert bulk.messages[-1] is msgs[-1]
            if window is not None:
                assert len(bulk.messages) <= 2 * window + 37

    def test_totals_survive_clear(self):
        log = TrafficLog()
        log.extend(_msgs(30, seed=13))
        log.clear()
        log.extend(_msgs(20, seed=14))
        assert log.count() == 20
        assert log.grand_total_count == 50


class TestSimulationKnobs:
    def test_traffic_window_config_bounds_the_log(self):
        from repro import quick_lj_simulation

        sim = quick_lj_simulation(
            cells=(4, 4, 4), ranks=(2, 2, 2), traffic_window=64
        )
        sim.run(3)
        log = sim.world.transport.log
        assert log.max_messages == 64
        assert len(log.messages) <= 128
        assert log.count() > len(log.messages)  # aggregates span the run

    def test_clear_each_step_empties_the_log(self):
        from repro import quick_lj_simulation

        sim = quick_lj_simulation(
            cells=(4, 4, 4), ranks=(2, 2, 2), clear_traffic_each_step=True
        )
        sim.run(3)
        assert sim.world.transport.log.messages == []

    def test_windowed_run_matches_default_physics(self):
        from repro import quick_lj_simulation

        plain = quick_lj_simulation(cells=(4, 4, 4), ranks=(2, 2, 2))
        windowed = quick_lj_simulation(
            cells=(4, 4, 4), ranks=(2, 2, 2), traffic_window=32,
            clear_traffic_each_step=False,
        )
        plain.run(4)
        windowed.run(4)
        assert np.array_equal(plain.gather_positions(), windowed.gather_positions())
