"""Telemetry on vs off: bit-identical ghosts and forces, fast path kept.

The always-on telemetry plane must be a pure observer.  This drives the
``equivalence-telemetry`` slice of the generated scenario fleet
(``repro.scenarios``) with telemetry enabled against a
telemetry-disabled control and requires **bit-identical** ghost regions
and forces — the same equivalence bar the exchange variants themselves
are held to — plus an untouched fast path (no phase on the slow path)
while the plane is collecting.

The fleet slice embeds the legacy hand-written 24-config grid (proven
in ``test_exchange_equivalence.TestLegacyCoverage``); under
``REPRO_FLEET=sampled`` a deterministic 12-config sample runs instead.
"""

import numpy as np
import pytest

from repro import LennardJones, Simulation, SimulationConfig
from repro.core import FineGrainedP2PExchange
from repro.obs.telemetry import TELEMETRY
from repro.scenarios import differential_scenarios, scenario_ids
from repro.scenarios.build import build_world, random_system

from tests.differential.test_exchange_equivalence import unpack

SCENARIOS = differential_scenarios("telemetry")


class TestGhostBitIdentity:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=scenario_ids(SCENARIOS))
    def test_ghosts_identical_with_telemetry(self, scenario):
        grid, rcomm, _, newton, seed, atoms, box_edge = unpack(scenario)
        x, v, _ = random_system(atoms, seed, box_edge)

        with TELEMETRY.scope():
            w_on, d_on = build_world(grid, x, v, box_edge)
            ex_on = FineGrainedP2PExchange(w_on, d_on, rcomm=rcomm, newton=newton)
            ex_on.borders()
        with TELEMETRY.disabled():
            w_off, d_off = build_world(grid, x, v, box_edge)
            ex_off = FineGrainedP2PExchange(w_off, d_off, rcomm=rcomm, newton=newton)
            ex_off.borders()

        assert ex_on.plan_stats()["slowpath_phases"] == 0
        for rank in range(w_on.size):
            a_on, a_off = ex_on.atoms_of(rank), ex_off.atoms_of(rank)
            assert np.array_equal(a_on.x, a_off.x)
            assert np.array_equal(a_on.tag, a_off.tag)


class TestForceBitIdentity:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=scenario_ids(SCENARIOS))
    def test_forces_identical_with_telemetry(self, scenario):
        grid, _, cutoff, newton, seed, atoms, box_edge = unpack(scenario)
        p = scenario["params"]
        x, v, box = random_system(atoms, seed, box_edge)
        cfg = SimulationConfig(
            dt=p["dt"], skin=p["skin"], pattern="parallel-p2p", rdma=p["rdma"],
            neighbor_every=p["neighbor_every"], newton=newton,
        )

        with TELEMETRY.scope():
            on = Simulation(x, v, box, LennardJones(cutoff=cutoff), cfg, grid=grid)
            on.run(2)
        with TELEMETRY.disabled():
            off = Simulation(x, v, box, LennardJones(cutoff=cutoff), cfg, grid=grid)
            off.run(2)

        assert on.telemetry is not None and off.telemetry is None
        # Collecting telemetry must not push any phase off the fast path.
        assert on.exchange.plan_stats()["slowpath_phases"] == 0
        assert np.array_equal(on.gather_forces(), off.gather_forces())
        assert np.array_equal(on.gather_positions(), off.gather_positions())
