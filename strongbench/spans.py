"""In-memory span recorder for the benchmark's traced runs.

The recorder wraps public entry points of the program from the outside
(class methods and module functions are replaced for the duration of a
``with recorder.installed(...)`` block and restored afterwards).  It
never touches the program's own tracer or metrics registry: turning
those on would send the exchange down its slow path and the traced run
would measure a different program.

Each span is one row ``[name, start, end, parent, step]``: ``parent`` is
the index of the enclosing span (-1 at top level) and ``step`` the id of
the enclosing step span (-1 outside any step).  A layer's self time is
its duration minus the time covered by its direct children; because the
program is single-threaded the children of one span never overlap, so
the self times of a step span and all of its descendants add up to the
step's wall time exactly (up to float rounding).
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

_clock = time.perf_counter


@dataclass(frozen=True)
class Probe:
    """One entry point to wrap: ``owner.attr`` recorded as ``name``.

    ``count`` (optional) maps ``(args, result)`` to a number added to the
    probe's work counter, e.g. pairs built by a neighbor-list build.
    ``step`` marks the span that opens a new step id.
    """

    owner: Any
    attr: str
    name: str
    count: Callable[[tuple, Any], float] | None = None
    step: bool = False


class SpanRecorder:
    """Records nested spans and per-name work counts in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._step = -1
        self._next_step = 0

    def reset(self) -> None:
        """Forget every span and count (the wrappers stay installed)."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self._step = -1
        self._next_step = 0

    # -- recording ---------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, step: bool = False) -> Iterator[None]:
        """Record one span around the body of the ``with`` block."""
        parent = self._stack[-1] if self._stack else -1
        outer_step = self._step
        if step:
            self._step = self._next_step
            self._next_step += 1
        row = [name, 0.0, 0.0, parent, self._step]
        self.spans.append(row)
        self._stack.append(len(self.spans) - 1)
        row[1] = _clock()
        try:
            yield
        finally:
            row[2] = _clock()
            self._stack.pop()
            self._step = outer_step

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        recorder = self
        name, count, step = probe.name, probe.count, probe.step

        def wrapper(*args, **kwargs):
            with recorder.span(name, step=step):
                result = fn(*args, **kwargs)
            if count is not None:
                recorder.counts[name] += count(args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    @contextlib.contextmanager
    def installed(self, probes: list[Probe]) -> Iterator["SpanRecorder"]:
        """Wrap every probe's entry point; restore all of them on exit."""
        # (owner, attr, value to restore); None means "was inherited":
        # delete the override so lookup falls back to the base class.
        saved: list[tuple[Any, str, Any]] = []
        try:
            for probe in probes:
                owner, attr = probe.owner, probe.attr
                if isinstance(owner, type):
                    saved.append((owner, attr, owner.__dict__.get(attr)))
                else:
                    saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._wrap(probe, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                if value is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, value)

    # -- analysis -----------------------------------------------------------
    def _self_time_of_each(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        own = [t1 - t0 for _, t0, t1, _, _ in self.spans]
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= t1 - t0
        return own

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for row, own in zip(self.spans, self._self_time_of_each()):
            out[row[0]] += own
        return dict(out)

    def calls(self) -> dict[str, int]:
        """Number of spans per name."""
        out: dict[str, int] = defaultdict(int)
        for row in self.spans:
            out[row[0]] += 1
        return dict(out)

    def step_walls(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in record order."""
        return [t1 - t0 for n, t0, t1, _, _ in self.spans if n == name]

    def partition_error(self, step_name: str) -> float:
        """|sum of self times under step spans - sum of step walls| / walls.

        Zero (up to rounding) when every recorded span nests properly
        inside its parent, which is what makes self times a partition.
        """
        inside = walls = 0.0
        for (name, t0, t1, _, step), own in zip(self.spans, self._self_time_of_each()):
            if step < 0:
                continue
            inside += own
            if name == step_name:
                walls += t1 - t0
        return abs(inside - walls) / walls if walls else 0.0

    def write(self, path: str) -> None:
        """Write every span as one JSON document (columns + rows)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent", "step"],
                    "spans": self.spans,
                },
                fh,
            )
