"""Three-way consistency: trace vs TrafficLog vs Table 1 analytics.

The observability tentpole's acceptance test: the per-message instants
recorded by the tracer, the :class:`TrafficLog` ground truth, and the
paper's Table 1 formulas must all tell the same story about how many
messages moved and (approximately) how many bytes.
"""

import numpy as np
import pytest

from repro import LennardJones, Simulation, SimulationConfig
from repro.core.analytic import analyze_p2p, analyze_three_stage
from repro.faults import FAULTS, FaultPlan, FaultSpec
from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
from repro.md.stages import Stage
from repro.obs import observe
from repro.obs.trace import Tracer
from repro.obs.report import (
    phase_summary_from_trace,
    render_phase_table,
    stage_breakdown_from_trace,
    write_stage_csv,
)

STEPS = 10


def traced_run(pattern):
    edge = lj_density_to_cell(0.8442)
    x, box = fcc_lattice((4, 4, 4), edge)
    v = maxwell_velocities(x.shape[0], 1.44, seed=11)
    cfg = SimulationConfig(pattern=pattern, neighbor_every=5)
    with observe(metrics=False) as (tracer, _):
        sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
        sim.run(STEPS)
    # Detach the records from the global singleton so a later reset
    # (another observe block) cannot invalidate this fixture value.
    snapshot = Tracer()
    snapshot.spans = list(tracer.spans)
    snapshot.instants = list(tracer.instants)
    return sim, snapshot


def analysis_for(sim):
    a = float(np.min(sim.domain.sub_lengths))
    r = sim.potential.cutoff + sim.config.skin
    density = sim.natoms / sim.box.volume
    if sim.config.pattern == "3stage":
        return analyze_three_stage(a, r, density)
    return analyze_p2p(a, r, density, newton=sim.half)


@pytest.fixture(scope="module", params=["3stage", "parallel-p2p"])
def run(request):
    return traced_run(request.param)


class TestTraceVsTrafficLog:
    def test_same_phases(self, run):
        sim, tracer = run
        log_phases = {m.phase for m in sim.world.transport.log.messages}
        assert set(phase_summary_from_trace(tracer)) == log_phases

    def test_counts_and_bytes_exact(self, run):
        sim, tracer = run
        log = sim.world.transport.log
        for phase, t in phase_summary_from_trace(tracer).items():
            s = log.summary(phase)
            assert (t.count, t.total_bytes) == (s.count, s.total_bytes), phase


class TestTraceVsTable1:
    def test_forward_message_count_matches_formula(self, run):
        sim, tracer = run
        analysis = analysis_for(sim)
        expected_per_rank = 6 if sim.config.pattern == "3stage" else 13
        assert analysis.total_messages == expected_per_rank
        n_forward = sim.step_count - sim.rebuilds
        measured = phase_summary_from_trace(tracer)["forward"].count
        assert measured == analysis.total_messages * sim.world.size * n_forward

    def test_forward_bytes_near_analytic_volume(self, run):
        sim, tracer = run
        analysis = analysis_for(sim)
        n_forward = sim.step_count - sim.rebuilds
        predicted = analysis.total_bytes * sim.world.size * n_forward
        measured = phase_summary_from_trace(tracer)["forward"].total_bytes
        # The analytic volumes are density estimates of shell populations,
        # and bin-granular border selection ships whole bins that intersect
        # the shell — a systematic overshoot at small sub-box sizes.
        assert measured == pytest.approx(predicted, rel=0.25)


class TestTraceVsStageTimers:
    def test_breakdown_bit_exact(self, run):
        sim, tracer = run
        derived = stage_breakdown_from_trace(tracer, "wall")
        for stage in Stage:
            assert derived[stage.value] == sim.timers.wall[stage]

    def test_breakdown_rejects_bad_account(self, run):
        _, tracer = run
        with pytest.raises(ValueError):
            stage_breakdown_from_trace(tracer, "cpu")


class TestRenderers:
    def test_phase_table_lists_all_phases(self, run):
        _, tracer = run
        table = render_phase_table(tracer)
        for phase in ("border", "forward", "reverse", "exchange"):
            assert phase in table

    def test_stage_csv_roundtrip(self, run, tmp_path):
        sim, tracer = run
        path = tmp_path / "stages.csv"
        write_stage_csv(str(path), tracer)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "stage,wall_seconds,model_seconds"
        assert len(rows) == 1 + len(Stage)
        wall = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
        for stage in Stage:
            assert wall[stage.value] == pytest.approx(sim.timers.wall[stage])

    def test_phase_csv_matches_traffic_log(self, run, tmp_path):
        from repro.obs.report import write_phase_csv

        sim, tracer = run
        path = tmp_path / "phases.csv"
        write_phase_csv(str(path), tracer)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "phase,messages,bytes"
        log = sim.world.transport.log
        parsed = {r.split(",")[0]: r.split(",")[1:] for r in rows[1:]}
        assert set(parsed) == {m.phase for m in log.messages}
        for phase, (count, nbytes) in parsed.items():
            s = log.summary(phase)
            assert (int(count), int(nbytes)) == (s.count, s.total_bytes)


class TestReplayVsMailboxObservation:
    """The plan replay is observed exactly like the mailbox/ring path."""

    @staticmethod
    def observed(armed):
        edge = lj_density_to_cell(0.8442)
        x, box = fcc_lattice((4, 4, 4), edge)
        v = maxwell_velocities(x.shape[0], 1.44, seed=11)
        cfg = SimulationConfig(pattern="p2p", rdma=True, neighbor_every=3)
        # Armed planes that never fire: the slow path runs, nothing is perturbed.
        plan = FaultPlan(
            seed=1,
            faults=(
                FaultSpec(kind="drop", probability=0.0),
                FaultSpec(kind="rdma-stale", probability=0.0),
            ),
        )
        with observe() as (tracer, metrics):
            sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
            if armed:
                with FAULTS.inject(plan):
                    sim.run(STEPS)
            else:
                sim.run(STEPS)
            instants = {}
            for e in tracer.instants:
                if e.cat in ("msg", "recv") or e.name in ("hb-put", "hb-land"):
                    key = (e.name, e.args.get("phase"))
                    instants[key] = instants.get(key, 0) + 1
            sizes = metrics.histogram("message_size_bytes")
            counts = {
                name: [m.value for m in metrics.find(name)]
                for name in ("messages_total", "rdma_puts_total", "rdma_put_bytes_total")
            }
        return sim.exchange.plan_stats(), instants, counts, (sizes.count, sizes.total)

    def test_same_instants_and_metrics_on_both_paths(self):
        fast_stats, fast_instants, fast_counts, fast_sizes = self.observed(False)
        slow_stats, slow_instants, slow_counts, slow_sizes = self.observed(True)
        assert fast_stats["slowpath_phases"] == 0 and slow_stats["fastpath_phases"] == 0
        assert fast_instants == slow_instants
        assert fast_counts == slow_counts
        assert fast_sizes == slow_sizes
