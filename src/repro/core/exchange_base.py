"""Shared machinery of the ghost-exchange implementations.

Both patterns (3-stage and p2p) reduce to the same route abstraction:
after the **border** stage, each rank holds

* :class:`SendRoute` s — (peer, local/ghost indices to pack, PBC shift to
  apply, tag), and
* :class:`RecvRoute` s — (peer, destination ghost range, tag),

and the **forward** (positions owner->ghost), **reverse** (forces
ghost->owner) and EAM mid-pair scalar exchanges are generic replays of
those routes.  The PBC shift is applied by the *sender* (as real LAMMPS
does in its pack kernels) so the RDMA path — where data lands directly
in the remote array with no receiver-side unpack — is identical in
content to the message path.

The base class also does atom migration (**exchange** stage) and traffic
modelling: every executed phase can report the message schedule it just
performed, which the perfmodel prices on the network simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.comm_plan import BufferPool, RankPlan
from repro.faults.injector import FAULTS, RetryExhaustedError
from repro.md.atoms import Atoms
from repro.md.domain import Domain
from repro.obs.telemetry import TELEMETRY
from repro.obs.trace import TRACER
from repro.runtime.transport import MessageBatch, SentMessage, observe_messages
from repro.runtime.world import RankContext, World


@dataclass
class SendRoute:
    """One outgoing message route of the forward stage."""

    peer: int
    send_idx: np.ndarray  # indices into the sender's atom arrays
    shift: np.ndarray  # (3,) PBC shift applied by the sender to positions
    tag: tuple
    hops: int = 1

    @property
    def count(self) -> int:
        return int(self.send_idx.shape[0])


@dataclass
class RecvRoute:
    """One incoming ghost block of the forward stage."""

    peer: int
    recv_start: int
    recv_count: int
    tag: tuple
    hops: int = 1


@dataclass
class RankRoutes:
    """All routes of one rank, aligned so replay order is deterministic."""

    sends: list[SendRoute] = field(default_factory=list)
    recvs: list[RecvRoute] = field(default_factory=list)

    def clear(self) -> None:
        """Drop all routes (called at the start of every border stage)."""
        self.sends.clear()
        self.recvs.clear()


class GhostExchange:
    """Abstract base of the border/forward/reverse/exchange protocol.

    Subclasses implement :meth:`borders` (building routes + initial ghost
    population); everything else is generic.

    Parameters
    ----------
    world, domain:
        The rank world (must carry a 3D grid) and the decomposed box.
    rcomm:
        Ghost shell thickness = force cutoff + neighbor skin.
    """

    #: half-list ghost rule the pattern requires ("all" or "coord")
    ghost_rule: str = "all"
    #: whether the pattern communicates the full 26-neighbor shell
    full_shell: bool = False
    name: str = "abstract"
    #: next tier of the degradation ladder (None = sturdiest pattern)
    fallback_pattern: str | None = None

    def __init__(self, world: World, domain: Domain, rcomm: float) -> None:
        if world.grid is None:
            raise ValueError("ghost exchange requires a world with a rank grid")
        if rcomm <= 0:
            raise ValueError(f"rcomm must be positive, got {rcomm}")
        self.world = world
        self.domain = domain
        self.rcomm = rcomm
        self.routes: dict[int, RankRoutes] = {
            r: RankRoutes() for r in range(world.size)
        }
        # Robustness-layer accounting (only moves under a fault session).
        self.retries = 0
        self.retry_model_time = 0.0
        # Plan cache (section 3.4 reuse discipline): routes are frozen
        # into flat RankPlans on first use after every border stage and
        # replayed until the epoch moves (reneighbor/migration).
        self._plan_epoch = 0
        self._plans: dict[int, RankPlan] = {}
        self._plans_built_epoch = -1
        self._pools: dict[int, BufferPool] = {}
        self._model_cache: dict = {}
        self._plan_builds = 0
        # Executed phases by the path that moved their data: the plan
        # replay, or the mailbox/ring path an armed fault plane selects.
        self._fastpath_phases = 0
        self._slowpath_phases = 0
        # Direct-delivery wiring (built with the plans): every send
        # segment resolved to its destination slice, so a replayed phase
        # is pure slice copies with no per-message mailbox traffic.
        self._fwd_deliveries: list[tuple[int, int, int, int, int, int]] | None = None
        self._rev_deliveries: list[tuple[int, int, int, int, int, int]] | None = None
        self._phase_msgs: dict = {}

    # -- helpers ----------------------------------------------------------
    def atoms_of(self, rank: int) -> Atoms:
        """The per-rank atom storage held in the world state."""
        return self.world.ranks[rank].state["atoms"]

    def sub_box_of(self, rank: int):
        """The sub-box owned by ``rank``."""
        return self.domain.sub_box(self.world.grid_pos_of(rank))

    def shift_for_send(self, sender_rank: int, o_send: tuple[int, int, int]) -> np.ndarray:
        """PBC shift the sender applies for the receiver at ``o_send``.

        Equal to the receiver's ``ghost_shift`` toward the sender (offset
        ``-o_send`` from the receiver's perspective).
        """
        recv_pos = tuple(
            (p + o) % g
            for p, o, g in zip(
                self.world.grid_pos_of(sender_rank), o_send, self.world.grid
            )
        )
        o_recv = tuple(-o for o in o_send)
        return self.domain.sub_box(recv_pos).ghost_shift(o_recv, self.domain.box)

    # -- abstract ------------------------------------------------------------
    def borders(self) -> None:
        """Rebuild ghost sets and routes on every rank (border stage)."""
        raise NotImplementedError

    def _phase_span(self, phase: str):
        """Trace span wrapping one communication phase of this pattern."""
        return TRACER.span(
            f"{self.name}.{phase}", cat="comm", track="comm", pattern=self.name, phase=phase
        )

    # -- plan cache ----------------------------------------------------------
    def _clear_routes(self) -> None:
        """Drop all routes and invalidate cached plans (border stage)."""
        for rr in self.routes.values():
            rr.clear()
        self._invalidate_plans()

    def _invalidate_plans(self) -> None:
        """Bump the plan epoch: cached plans/model results are stale."""
        self._plan_epoch += 1
        self._model_cache.clear()

    def _plan_budget(self) -> object | None:
        """GhostBudget used to size the buffer pools (None = grow lazily)."""
        return None

    def _plans_current(self) -> dict[int, RankPlan]:
        """The per-rank plans for the current route epoch (built lazily)."""
        if self._plans_built_epoch != self._plan_epoch:
            budget = self._plan_budget()
            for rank in range(self.world.size):
                pool = self._pools.get(rank)
                if pool is None:
                    pool = BufferPool(budget=budget, full_shell=self.full_shell)
                    self._pools[rank] = pool
                rr = self.routes[rank]
                self._plans[rank] = RankPlan(
                    sends=rr.sends,
                    recvs=rr.recvs,
                    nlocal=self.atoms_of(rank).nlocal,
                    pool=pool,
                )
            self._wire_deliveries()
            self._plans_built_epoch = self._plan_epoch
            self._plan_builds += 1
        return self._plans

    def _wire_deliveries(self) -> None:
        """Pair every send segment with its destination recv segment.

        In the lockstep world each send route has exactly one matching
        recv route on the peer (same base tag, mirrored peer), so the
        forward stage can write packed slices straight into the
        receiver's ghost rows and the reverse stage can collect ghost
        slices straight into the owner's unpack buffer.  If any pairing
        is missing (sabotaged routes), wiring is dropped and the
        per-route slow path runs instead.
        """
        self._phase_msgs = {}
        size = self.world.size
        recv_maps = {
            rank: {(seg.peer, seg.tag): seg for seg in self._plans[rank].recv_segments}
            for rank in range(size)
        }
        fwd: list[tuple[int, int, int, int, int, int]] = []
        rev: list[tuple[int, int, int, int, int, int]] = []
        for rank in range(size):
            for seg in self._plans[rank].send_segments:
                rseg = recv_maps[seg.peer].get((rank, seg.tag))
                if rseg is None or rseg.n != seg.stop - seg.start:
                    self._fwd_deliveries = None
                    self._rev_deliveries = None
                    return
                hi = rseg.lo + rseg.n
                fwd.append((rank, seg.start, seg.stop, seg.peer, rseg.lo, hi))
                rev.append((seg.peer, rseg.lo, hi, rank, seg.start, seg.stop))
        self._fwd_deliveries = fwd
        self._rev_deliveries = rev

    def _phase_messages(self, phase: str, vec: bool, forward: bool) -> MessageBatch:
        """The phase's :class:`SentMessage` records, built once per plan.

        The fast path replays identical traffic every step between
        reneighborings, so the per-message records are precomputed in
        the seed's send order (rank-major, segment order) and appended
        wholesale on each replay.
        """
        key = (phase, vec, forward)
        msgs = self._phase_msgs.get(key)
        if msgs is None:
            msgs = []
            for rank in range(self.world.size):
                plan = self._plans[rank]
                send_tags, recv_tags = plan.tags(phase)
                segs, tags = (
                    (plan.send_segments, send_tags)
                    if forward
                    else (plan.recv_segments, recv_tags)
                )
                for seg, tag in zip(segs, tags):
                    msgs.append(
                        SentMessage(
                            rank, seg.peer, tag,
                            seg.nbytes_vec if vec else seg.nbytes_scalar,
                            phase,
                        )
                    )
            msgs = self._phase_msgs[key] = MessageBatch(msgs)
        return msgs

    def _record_replay(self, phase: str, vec: bool, forward: bool) -> None:
        """Account one replayed phase as the messages it stands for.

        The seed's exact per-message records go to the traffic log and
        feed the per-message trace instants and metrics, so observing a
        replayed phase never changes how it runs.
        """
        batch = self._phase_messages(phase, vec, forward)
        self.world.transport.log.extend(batch.msgs)
        observe_messages(batch)

    def plan_stats(self) -> dict[str, int]:
        """Allocation/reuse counters of the plan cache and buffer pools."""
        pools = list(self._pools.values())
        return {
            "plan_builds": self._plan_builds,
            "fastpath_phases": self._fastpath_phases,
            "slowpath_phases": self._slowpath_phases,
            "pool_allocations": sum(p.allocations for p in pools),
            "pool_grow_events": sum(p.grow_events for p in pools),
            "pool_bytes": sum(p.nbytes for p in pools),
        }

    def telemetry_feed(self) -> tuple[dict[str, float], dict[str, float]]:
        """(cumulative counters, gauges) for the per-step telemetry flush.

        Counter-shaped on purpose: everything here is bookkeeping the
        hot path already maintains (plan cache, pools, retry layer), so
        reading it once per step costs O(ranks) and the fast path stays
        untouched.  Subclasses extend with their plane-specific feeds
        (RDMA re-registrations, ring cursors).
        """
        stats = self.plan_stats()
        counters: dict[str, float] = {
            "plan_builds": float(stats["plan_builds"]),
            "fastpath_phases": float(stats["fastpath_phases"]),
            "slowpath_phases": float(stats["slowpath_phases"]),
            "pool_allocations": float(stats["pool_allocations"]),
            "pool_grow_events": float(stats["pool_grow_events"]),
            "retries": float(self.retries),
            "retry_model_seconds": self.retry_model_time,
        }
        gauges: dict[str, float] = {
            "pool_bytes": float(stats["pool_bytes"]),
            "pool_rows_used": float(
                sum(p.n_pack for p in self._plans.values())
                if self._plans_built_epoch == self._plan_epoch
                else 0
            ),
            "pool_rows_capacity": float(
                sum(pool.capacity_rows for pool in self._pools.values())
            ),
        }
        return counters, gauges

    # -- generic forward/reverse -------------------------------------------------
    def forward(self) -> None:
        """Send owned positions to every ghost copy (forward stage)."""
        with self._phase_span("forward"):
            self._forward_array(
                {r: self.atoms_of(r).x for r in range(self.world.size)},
                apply_shift=True,
                phase="forward",
            )

    def reverse(self) -> None:
        """Accumulate ghost forces back onto owners (reverse stage)."""
        with self._phase_span("reverse"):
            self._reverse_sum_array(
                {r: self.atoms_of(r).f for r in range(self.world.size)},
                phase="reverse",
            )

    def forward_scalar_world(self, arrays: dict[int, np.ndarray]) -> None:
        """Owner -> ghost broadcast of one scalar per atom (EAM fp)."""
        with self._phase_span("pair-forward"):
            self._forward_array(arrays, apply_shift=False, phase="pair-forward")

    def reverse_sum_scalar_world(self, arrays: dict[int, np.ndarray]) -> None:
        """Ghost -> owner sum of one scalar per atom (EAM density)."""
        with self._phase_span("pair-reverse"):
            self._reverse_sum_array(arrays, phase="pair-reverse")

    # -- robust receive (the retry policy layer) -----------------------------
    def _recv(self, transport, rank: int, peer: int, tag: tuple):
        """Receive with timeout/backoff retries while faults are active.

        Without a fault session this is exactly ``transport.recv`` (the
        fault layer must add zero cost when disabled).  With one, a
        missing message triggers up to ``max_retries`` polls: each poll
        waits the current timeout (accounted as a ``cat="retry"`` model
        span and in ``retry_model_time``), ages the mailbox's limbo so
        held messages can land, and doubles the timeout.  Exhaustion —
        or an exceeded fault budget — escalates so the driver can fall
        back along :attr:`fallback_pattern`.
        """
        session = FAULTS.session
        if session is None or not session.message_faults:
            # No message faults armed: a lockstep recv can never miss.
            return transport.recv(rank, peer, tag)
        payload = transport.try_recv(rank, peer, tag)
        if payload is not None:
            return payload
        policy = session.policy
        timeout = policy.base_timeout
        with TRACER.span(
            "recv-retry", cat="retry", track="comm",
            rank=rank, peer=peer, phase=transport.phase,
        ):
            for attempt in range(1, policy.max_retries + 1):
                session.check_budget()
                session.note_retry(transport.phase)
                self.retries += 1
                self.retry_model_time += timeout
                TRACER.model_span_seq(
                    "retry-backoff", timeout, cat="retry", track="comm",
                    attempt=attempt, rank=rank, peer=peer, phase=transport.phase,
                )
                transport.fault_poll(rank, peer, tag)
                payload = transport.try_recv(rank, peer, tag)
                if payload is not None:
                    return payload
                timeout *= policy.backoff
        TELEMETRY.emit(
            "retry-exhausted",
            rank=rank, peer=peer, phase=transport.phase, pattern=self.name,
            attempts=policy.max_retries,
        )
        raise RetryExhaustedError(
            f"rank {rank} gave up on {peer} tag {tag!r} after "
            f"{policy.max_retries} retries (phase {transport.phase!r}, "
            f"pattern {self.name!r})"
        )

    def _fastpath_ok(self) -> bool:
        """Whether the pooled zero-copy replay may run.

        Only an armed message or RDMA fault plane takes the mailbox/ring
        path, whose per-message envelopes and ring cursors are what the
        faults perturb; it produces bit-identical data.  A session with
        neither armed cannot touch the data plane (network-kind faults
        only price modeled time, which is simulated separately), so the
        fast path stays on — the faults-off guard measures this idle
        cost.

        Observation never selects the path: the tracer and the metrics
        registry read the replay's own per-phase records, and the
        always-on telemetry plane reads the counters this class already
        maintains once per step.
        """
        session = FAULTS.session
        return session is None or not (session.message_faults or session.rdma_faults)

    def _replayable(self, phase: str, forward: bool) -> bool:
        """Label ``phase`` and count it once, under the path that runs it."""
        self.world.transport.set_phase(phase)
        if self._fastpath_ok():
            self._plans_current()
            if (self._fwd_deliveries if forward else self._rev_deliveries) is not None:
                self._fastpath_phases += 1
                return True
        self._slowpath_phases += 1
        return False

    # Subclasses may override for staged execution; the *_slow halves for
    # other data planes (RDMA).
    def _forward_array(
        self, arrays: dict[int, np.ndarray], apply_shift: bool, phase: str
    ) -> None:
        if self._replayable(phase, forward=True):
            self._forward_fast(arrays, apply_shift, phase)
        else:
            self._forward_slow(arrays, apply_shift, phase)

    def _forward_slow(
        self, arrays: dict[int, np.ndarray], apply_shift: bool, phase: str
    ) -> None:
        """Per-route mailbox forward: the path armed fault planes take."""
        transport = self.world.transport
        for rank in range(self.world.size):
            data = arrays[rank]
            for route in self.routes[rank].sends:
                payload = np.array(data[route.send_idx], copy=True)
                if apply_shift and payload.ndim == 2:
                    payload += route.shift
                transport.send(rank, route.peer, route.tag + (phase,), payload)
        for rank in range(self.world.size):
            data = arrays[rank]
            for route in self.routes[rank].recvs:
                payload = self._recv(transport, rank, route.peer, route.tag + (phase,))
                lo, n = route.recv_start, route.recv_count
                data[lo : lo + n] = payload

    def _forward_fast(
        self, arrays: dict[int, np.ndarray], apply_shift: bool, phase: str
    ) -> None:
        """Pooled replay of the forward stage: one gather, direct copies.

        Each rank's send rows are gathered into its pooled buffer by one
        ``np.take``; the pre-wired deliveries then copy every packed
        slice straight into the receiver's ghost rows (same bytes the
        mailbox round trip would move, none of its bookkeeping).
        """
        plans = self._plans
        size = self.world.size
        vec = arrays[0].ndim == 2
        bufs = [
            plans[rank].pack_vec(arrays[rank], apply_shift)
            if vec
            else plans[rank].pack_scalar(arrays[rank])
            for rank in range(size)
        ]
        self._record_replay(phase, vec, forward=True)
        for src, s, e, dst, lo, hi in self._fwd_deliveries:
            arrays[dst][lo:hi] = bufs[src][s:e]

    def _reverse_sum_array(self, arrays: dict[int, np.ndarray], phase: str) -> None:
        if self._replayable(phase, forward=False):
            self._reverse_fast(arrays, phase)
        else:
            self._reverse_slow(arrays, phase)

    def _reverse_slow(self, arrays: dict[int, np.ndarray], phase: str) -> None:
        """Per-route mailbox reverse: the path armed fault planes take."""
        transport = self.world.transport
        plans = self._plans_current()
        for rank in range(self.world.size):
            data = arrays[rank]
            for route in self.routes[rank].recvs:
                lo, n = route.recv_start, route.recv_count
                transport.send(
                    rank, route.peer, route.tag + (phase,), np.array(data[lo : lo + n])
                )
        for rank in range(self.world.size):
            data = arrays[rank]
            # Collect every contribution before applying any: an
            # escalation mid-sweep must not leave a half-summed array
            # behind (the post-degradation force recompute relies on it).
            received = [
                self._recv(transport, rank, route.peer, route.tag + (phase,))
                for route in self.routes[rank].sends
            ]
            # Apply through the shared fused plan scatter so slow-path
            # (faulted) sums stay bit-identical to the fast path.
            plan = plans[rank]
            buf = plan.unpack_buffer(vec=data.ndim == 2)
            for seg, payload in zip(plan.send_segments, received):
                buf[seg.start : seg.stop] = payload
            plan.apply_reverse(data, buf)

    def _reverse_fast(self, arrays: dict[int, np.ndarray], phase: str) -> None:
        """Pooled replay of the reverse stage with a fused scatter-add.

        Every ghost slice is copied straight into its owner's pooled
        unpack buffer (in the owner's send-segment order), then each
        owner applies one fused scatter.  Collect-all-then-apply-all is
        safe because :meth:`RankPlan.apply_reverse` never writes past
        the local atoms — the ghost rows being read are never mutated.
        """
        plans = self._plans
        size = self.world.size
        vec = arrays[0].ndim == 2
        bufs = [plans[rank].unpack_buffer(vec) for rank in range(size)]
        self._record_replay(phase, vec, forward=False)
        for src, lo, hi, dst, s, e in self._rev_deliveries:
            bufs[dst][s:e] = arrays[src][lo:hi]
        for rank in range(size):
            plans[rank].apply_reverse(arrays[rank], bufs[rank])

    # -- migration -------------------------------------------------------------
    def exchange(self) -> None:
        """Migrate atoms that left their sub-box (exchange stage).

        Runs with ghosts cleared (LAMMPS order: exchange -> borders).
        Positions are wrapped into the global box first.
        """
        # Migration moves atoms between ranks: every cached plan (and
        # modeled-time entry) is stale until the next border stage.
        self._invalidate_plans()
        with self._phase_span("exchange"):
            self._exchange_impl()

    def _exchange_impl(self) -> None:
        world = self.world
        transport = world.transport
        transport.set_phase("exchange")
        box = self.domain.box

        outgoing: dict[int, list] = {}
        for rank in range(world.size):
            atoms = self.atoms_of(rank)
            atoms.clear_ghosts()
            x = atoms.x_local()
            x[:] = box.wrap(x)
            groups = self.domain.scatter(x)
            my_pos = world.grid_pos_of(rank)
            leaving: list[np.ndarray] = []
            for pos, idx in groups.items():
                if pos == my_pos:
                    continue
                leaving.append((pos, idx))
            outgoing[rank] = leaving

        for rank in range(world.size):
            atoms = self.atoms_of(rank)
            # Collect and remove in one pass so indices stay valid.
            all_idx = (
                np.concatenate([idx for _, idx in outgoing[rank]])
                if outgoing[rank]
                else np.empty(0, dtype=np.intp)
            )
            if all_idx.size:
                x, v, tag, type_ = atoms.remove_local(all_idx)
                # Re-split by destination, preserving group boundaries.
                cursor = 0
                for pos, idx in outgoing[rank]:
                    n = idx.shape[0]
                    sl = slice(cursor, cursor + n)
                    dest = world.rank_at(pos)
                    transport.send(
                        rank, dest, ("exch",), (x[sl], v[sl], tag[sl], type_[sl])
                    )
                    cursor += n
            # Every rank sends a (possibly empty) marker count so receives
            # are deterministic.
            transport.send(rank, rank, ("exch-done",), len(outgoing[rank]))

        for rank in range(world.size):
            atoms = self.atoms_of(rank)
            transport.recv(rank, rank, ("exch-done",))
            # Drain everything addressed to us this phase.
            for src in range(world.size):
                while True:
                    payload = transport.try_recv(rank, src, ("exch",))
                    if payload is None:
                        break
                    x, v, tag, type_ = payload
                    atoms.add_local(x, v, tag, type_)

    # -- statistics ----------------------------------------------------------------
    def messages_per_rank(self) -> dict[int, int]:
        """Forward-stage send count per rank (Table 1's ``msg``)."""
        return {r: len(rr.sends) for r, rr in self.routes.items()}

    def ghost_counts(self) -> dict[int, int]:
        """Current ghost-atom count per rank."""
        return {r: self.atoms_of(r).nghost for r in range(self.world.size)}
