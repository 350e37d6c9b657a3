"""Plan-cache correctness: caching may never change what is exchanged.

The persistent :class:`~repro.core.comm_plan.RankPlan` freezes the
border-stage routes into flat gather/scatter arrays and replays them
until reneighboring invalidates the cache.  These tests prove the three
ways that could go wrong do not:

* a *stale* plan surviving migration/reneighboring (epoch invalidation),
* a *cached* replay differing from a freshly rebuilt one (paranoid
  per-step invalidation must be bit-identical),
* the *fast* path (plans + pooled buffers) differing from the mailbox
  slow path an armed message-fault plan selects (per-route Python
  loops, the seed semantics).
"""

import numpy as np

from repro import LennardJones, Simulation, SimulationConfig
from repro.core import P2PExchange
from repro.faults.injector import FAULTS
from repro.faults.plan import FaultPlan, FaultSpec, template_plan
from repro.md import Box, Domain
from repro.md.atoms import Atoms
from repro.obs.trace import tracing
from repro.runtime import World

BOX_EDGE = 9.0  # matches test_exchange_equivalence: sub-box 4.5 >= rcomm


def random_system(n_atoms: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, BOX_EDGE, size=(n_atoms, 3))
    v = rng.normal(0.0, 0.3, size=(n_atoms, 3))
    v -= v.mean(axis=0)
    return x, v, Box((0, 0, 0), (BOX_EDGE,) * 3)


def build_world(grid):
    world = World(int(np.prod(grid)), grid=grid)
    box = Box((0, 0, 0), (BOX_EDGE,) * 3)
    domain = Domain(box, grid)
    for rank in range(world.size):
        world.ranks[rank].state["atoms"] = Atoms()
    return world, domain


def _lj_sim(seed=7, pattern="p2p", steps=0, **overrides):
    x, v, box = random_system(150, seed)
    cfg = SimulationConfig(
        dt=0.002, skin=0.3, pattern=pattern, rdma=False,
        neighbor_every=3, newton=True, **overrides,
    )
    sim = Simulation(x, v, box, LennardJones(cutoff=1.55), cfg, grid=(2, 2, 2))
    if steps:
        sim.run(steps)
    return sim


class TestPlanInvalidation:
    def test_cached_run_matches_paranoid_invalidation(self):
        """Rebuilding every plan before every step changes nothing.

        Ten steps crossing three reneighborings: the run that trusts the
        epoch cache must produce bit-identical positions, velocities and
        forces to the run that throws every plan away each step.
        """
        cached = _lj_sim(seed=11)
        paranoid = _lj_sim(seed=11)
        cached.setup()
        paranoid.setup()
        for _ in range(10):
            paranoid.exchange._invalidate_plans()
            paranoid.step()
            cached.step()
        assert np.array_equal(cached.gather_positions(), paranoid.gather_positions())
        assert np.array_equal(cached.gather_velocities(), paranoid.gather_velocities())
        assert np.array_equal(cached.gather_forces(), paranoid.gather_forces())

    def test_migration_and_borders_bump_epoch(self):
        """exchange() and borders() both invalidate; forward() reuses."""
        sim = _lj_sim(seed=12)
        sim.setup()
        ex = sim.exchange
        epoch = ex._plan_epoch
        ex.forward()
        assert ex._plan_epoch == epoch  # replay does not invalidate
        ex.exchange()
        assert ex._plan_epoch > epoch  # migration does
        epoch = ex._plan_epoch
        ex.borders()
        assert ex._plan_epoch > epoch  # reneighboring does

    def test_plan_builds_track_reneighborings(self):
        """One plan build per borders epoch, not per phase."""
        sim = _lj_sim(seed=13)
        sim.run(10)  # neighbor_every=3 -> setup + 3 rebuilds
        stats = sim.exchange.plan_stats()
        assert stats["plan_builds"] == 1 + sim.rebuilds
        assert stats["fastpath_phases"] > 0
        assert stats["pool_grow_events"] == 0

    def test_stale_plan_never_survives_reneighbor(self):
        """Ghosts after a mid-run reneighbor match a from-scratch build.

        If a stale gather plan survived, the replayed ghost region would
        come from pre-migration atom rows and drift from an exchange
        that never cached anything.
        """
        # Step 6 reneighbors and positions only drift on the *next*
        # step, so border-time routes and current atoms still agree —
        # the precondition for comparing against a from-scratch build.
        sim = _lj_sim(seed=14, steps=6)
        x_state = {
            r: sim.atoms_of(r).x[: sim.atoms_of(r).nlocal].copy()
            for r in range(sim.world.size)
        }
        sim.exchange.forward()
        # A fresh exchange over a copy of the same owned atoms: borders
        # from scratch, no history to be stale about.
        world, domain = build_world((2, 2, 2))
        for r in range(world.size):
            src = sim.atoms_of(r)
            dst = world.ranks[r].state["atoms"]
            n = src.nlocal
            dst.set_local(x_state[r], src.v[:n].copy(), src.tag[:n].copy())
        fresh = P2PExchange(world, domain, rcomm=sim.exchange.rcomm, newton=True)
        fresh.borders()
        for r in range(world.size):
            a, b = sim.atoms_of(r), fresh.atoms_of(r)
            ghosts_a = {
                (int(t), p.tobytes())
                for t, p in zip(a.tag[a.nlocal :], a.x[a.nlocal :])
            }
            ghosts_b = {
                (int(t), p.tobytes())
                for t, p in zip(b.tag[b.nlocal :], b.x[b.nlocal :])
            }
            assert ghosts_a == ghosts_b


def _run_faulted(sim, steps: int) -> None:
    """Run on the mailbox path under an armed, fully absorbed plan."""
    with FAULTS.inject(template_plan("reorder", seed=5)) as session:
        sim.run(steps)
    stats = session.stats
    assert stats.total_injected() > 0
    assert stats.unabsorbed == 0 and stats.degradations == 0
    assert sim.exchange.plan_stats()["fastpath_phases"] == 0


class TestPhaseAccounting:
    """Every executed phase is counted once, under the path that ran it."""

    @staticmethod
    def _counted_run(plan, steps=8):
        x, v, box = random_system(150, 16)
        cfg = SimulationConfig(
            dt=0.002, skin=0.3, pattern="p2p", rdma=True, neighbor_every=3
        )
        sim = Simulation(x, v, box, LennardJones(cutoff=1.55), cfg, grid=(2, 2, 2))
        ex = sim.exchange
        executed = []
        for name in ("borders", "_forward_array", "_reverse_sum_array"):
            def counted(*args, _orig=getattr(ex, name), _name=name, **kw):
                executed.append(_name)
                return _orig(*args, **kw)
            setattr(ex, name, counted)
        if plan is None:
            sim.run(steps)
        else:
            with FAULTS.inject(plan) as session:
                sim.run(steps)
            assert session.stats.total_injected() > 0
            assert session.stats.unabsorbed == 0
            assert session.stats.degradations == 0
        return ex.plan_stats(), len(executed)

    def test_clean_run_is_all_fast(self):
        stats, executed = self._counted_run(None)
        assert stats["fastpath_phases"] == executed
        assert stats["slowpath_phases"] == 0

    def test_rdma_fault_plan_counts_each_phase_once(self):
        plan = FaultPlan(
            seed=3,
            faults=(
                FaultSpec(kind="rdma-stale", count=2, severity=1),
                FaultSpec(kind="ring-stale", count=2, severity=1),
            ),
        )
        stats, executed = self._counted_run(plan)
        assert stats["fastpath_phases"] + stats["slowpath_phases"] == executed
        assert stats["slowpath_phases"] == executed


class TestFastSlowEquivalence:
    def test_traced_slow_path_is_bit_identical(self):
        """Traced, message faults armed (slow per-route path) == fast path."""
        fast = _lj_sim(seed=15)
        slow = _lj_sim(seed=15)
        fast.run(6)
        with tracing():
            _run_faulted(slow, 6)
        assert np.array_equal(fast.gather_positions(), slow.gather_positions())
        assert np.array_equal(fast.gather_forces(), slow.gather_forces())

    def test_scalar_phases_share_the_plan(self):
        """EAM's per-atom scalar forward/reverse ride the same plan."""
        from repro.md.presets import PRESETS

        fast = PRESETS["eam"].simulation(
            (4, 4, 4), (2, 2, 2), pattern="p2p", rdma=False, thermo_every=0
        )
        slow = PRESETS["eam"].simulation(
            (4, 4, 4), (2, 2, 2), pattern="p2p", rdma=False, thermo_every=0
        )
        fast.run(4)
        _run_faulted(slow, 4)
        assert np.array_equal(fast.gather_positions(), slow.gather_positions())
        assert np.array_equal(fast.gather_forces(), slow.gather_forces())

    def test_box_edge_guard(self):
        """The shared fixtures still decompose as the suite assumes."""
        assert BOX_EDGE / 2 >= 1.55 + 0.3
