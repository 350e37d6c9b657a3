"""Happens-before event emission for the race detector.

The RDMA plane's correctness argument is an ordering argument: a PUT's
payload may be *read* (ring consume, post-fence ghost access) only after
it has *landed*, and a ring slot may be *rewritten* only after it has
been consumed.  The fault layer (``rdma-stale``/``ring-stale``) creates
exactly the §3.4 windows where those orders are violated; the detector
in :mod:`repro.analysis.hb` reconstructs the order from trace events.

This module is the single place those events are emitted.  All are
zero-duration instants with ``cat="hb"`` on the wall timeline, guarded
on ``TRACER.enabled`` so the simulation hot path pays one attribute read
when tracing is off.  The vocabulary:

=============  ==========================  =================================
event          track                       meaning
=============  ==========================  =================================
``hb-put``     ``rank{r}`` (writer)        a PUT was *issued* toward ``res``
                                           (``inflight=1`` when fault-deferred)
``hb-land``    ``nic``                     the PUT's bytes became visible
``hb-write``   ``rank{r}`` (ring owner)    a ring slot was acquired for
                                           writing (``ok=0``: slot dirty)
``hb-read``    ``rank{r}`` (reader)        a ring slot was consumed
                                           (``ok=0``: slot clean = stale)
``hb-fence``   ``comm``                    a fence entered its retry loop
                                           with ``pending`` PUTs in flight
=============  ==========================  =================================

Resource keys: ``stag{N}`` for registered memory regions (element
ranges ``[lo, lo+n)``), ``ring{id}/slot{k}`` for ring slots, and the
bare ``ring{id}`` for a deferred ring PUT whose slot is only chosen when
it lands.  Put ids are per-resource sequence numbers, so land events
pair with their put deterministically across replays; the exchange's
plan replay draws its ids once per plan (:func:`landed_puts`) and
re-emits them every step.
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs.trace import TRACER

#: Category shared by every happens-before instant.
HB_CAT = "hb"

#: Track name of the simulated NIC actor (where PUTs land).
NIC_TRACK = "nic"

_put_seq: defaultdict[str, int] = defaultdict(int)


def _next_put_id(res: str) -> int:
    _put_seq[res] += 1
    return _put_seq[res]


def reset() -> None:
    """Restart every per-resource put sequence (for test isolation)."""
    _put_seq.clear()


def emit_put(rank: int, res: str, lo: int, n: int, inflight: bool) -> int:
    """A PUT was issued by ``rank`` toward ``res[lo:lo+n]``.

    Returns the put id pairing this event with its ``hb-land`` (0 when
    tracing is disabled and nothing was emitted).
    """
    if not TRACER.enabled:
        return 0
    pid = _next_put_id(res)
    TRACER.instant(
        "hb-put", cat=HB_CAT, track=f"rank{rank}",
        res=res, lo=lo, n=n, put=pid, inflight=int(inflight),
    )
    return pid


def landed_puts(puts: list[tuple[str, str, int, int]]) -> list[tuple[str, str, dict]]:
    """``hb-put``/``hb-land`` pairs for PUTs ``(track, res, lo, n)`` that
    land at once, ready for :func:`emit_events`.

    Ids come from the same per-resource sequences as :func:`emit_put`,
    drawn when the pairs are built.  The exchange's plan replay builds
    them once per plan and re-emits the same pairs every step: each PUT
    lands before the next is issued, so a reused id is never in flight
    twice.
    """
    events: list[tuple[str, str, dict]] = []
    for track, res, lo, n in puts:
        pid = _next_put_id(res)
        events.append(
            ("hb-put", track, {"res": res, "lo": lo, "n": n, "put": pid, "inflight": 0})
        )
        events.append(("hb-land", NIC_TRACK, {"res": res, "lo": lo, "n": n, "put": pid}))
    return events


def emit_events(events: list[tuple[str, str, dict]]) -> None:
    """Emit prebuilt ``(name, track, args)`` happens-before instants."""
    TRACER.instant_batch(HB_CAT, events)


def emit_land(res: str, lo: int, n: int, put: int) -> None:
    """The bytes of put ``put`` became visible in ``res[lo:lo+n]``."""
    if not TRACER.enabled:
        return
    TRACER.instant(
        "hb-land", cat=HB_CAT, track=NIC_TRACK, res=res, lo=lo, n=n, put=put
    )


def emit_write(rank: int, res: str, ok: bool) -> None:
    """Ring slot ``res`` was acquired for writing (``ok=False``: dirty)."""
    if not TRACER.enabled:
        return
    TRACER.instant(
        "hb-write", cat=HB_CAT, track=f"rank{rank}", res=res, ok=int(ok)
    )


def emit_read(rank: int, res: str, ok: bool) -> None:
    """Ring slot ``res`` was consumed (``ok=False``: clean = stale poll)."""
    if not TRACER.enabled:
        return
    TRACER.instant(
        "hb-read", cat=HB_CAT, track=f"rank{rank}", res=res, ok=int(ok)
    )


def emit_fence(stage: str, pending: int) -> None:
    """A fence entered its retry loop with ``pending`` PUTs in flight."""
    if not TRACER.enabled:
        return
    TRACER.instant(
        "hb-fence", cat=HB_CAT, track="comm", stage=stage, pending=pending
    )
