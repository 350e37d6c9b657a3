"""Rank profiler on vs off: bit-identical ghosts and forces.

The per-rank profiler is a pure observer: it replays each rank's
message schedule through the *model* under a scoped trace and never
touches the exchange's functional state, plan cache, or fast-path gate.
This drives the ``equivalence-rankprof`` slice of the generated
scenario fleet (``repro.scenarios``) with the profiler interleaved
mid-run against an unprofiled control and requires **bit-identical**
ghost regions, forces, and positions — plus an untouched fast path.

The fleet slice embeds the legacy hand-written 24-config grid (proven
in ``test_exchange_equivalence.TestLegacyCoverage``); under
``REPRO_FLEET=sampled`` a deterministic 12-config sample runs instead.
"""

import numpy as np
import pytest

from repro import LennardJones, Simulation, SimulationConfig
from repro.core import FineGrainedP2PExchange
from repro.obs.rankprof import profile_exchange
from repro.scenarios import differential_scenarios, scenario_ids
from repro.scenarios.build import build_world, random_system

from tests.differential.test_exchange_equivalence import unpack

SCENARIOS = differential_scenarios("rankprof")


class TestGhostBitIdentity:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=scenario_ids(SCENARIOS))
    def test_ghosts_identical_with_profiler(self, scenario):
        grid, rcomm, _, newton, seed, atoms, box_edge = unpack(scenario)
        x, v, _ = random_system(atoms, seed, box_edge)

        w_on, d_on = build_world(grid, x, v, box_edge)
        ex_on = FineGrainedP2PExchange(w_on, d_on, rcomm=rcomm, newton=newton)
        ex_on.borders()
        prof = profile_exchange(ex_on, phases=("forward",))
        assert len(prof.profiles) == w_on.size
        ex_on.forward()

        w_off, d_off = build_world(grid, x, v, box_edge)
        ex_off = FineGrainedP2PExchange(w_off, d_off, rcomm=rcomm, newton=newton)
        ex_off.borders()
        ex_off.forward()

        # Profiling must not push any phase off the fast path.
        assert ex_on.plan_stats()["slowpath_phases"] == 0
        for rank in range(w_on.size):
            a_on, a_off = ex_on.atoms_of(rank), ex_off.atoms_of(rank)
            assert np.array_equal(a_on.x, a_off.x)
            assert np.array_equal(a_on.tag, a_off.tag)


class TestForceBitIdentity:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=scenario_ids(SCENARIOS))
    def test_forces_identical_with_profiler(self, scenario):
        grid, _, cutoff, newton, seed, atoms, box_edge = unpack(scenario)
        p = scenario["params"]
        x, v, box = random_system(atoms, seed, box_edge)
        cfg = SimulationConfig(
            dt=p["dt"], skin=p["skin"], pattern="parallel-p2p", rdma=p["rdma"],
            neighbor_every=p["neighbor_every"], newton=newton,
        )

        on = Simulation(x, v, box, LennardJones(cutoff=cutoff), cfg, grid=grid)
        on.run(1)
        profile_exchange(on.exchange, phases=("forward",))  # mid-run probe
        on.run(1)

        off = Simulation(x, v, box, LennardJones(cutoff=cutoff), cfg, grid=grid)
        off.run(2)

        assert on.exchange.plan_stats()["slowpath_phases"] == 0
        assert np.array_equal(on.gather_forces(), off.gather_forces())
        assert np.array_equal(on.gather_positions(), off.gather_positions())
