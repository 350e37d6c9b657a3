"""Output checks.  Each returns a list of problems; empty means correct.

A failed check fails the operation it belongs to: an MD output
interval, or one scenario of a ``repro verify`` report.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: Largest allowed |E(t) - E(0)| / |E(0)| of the NVE total energy.  The
#: LJ preset settles at about 0.2% within its first 40 steps and stays
#: there; the EAM preset at T = 0.03 moves far less.
NVE_DRIFT_BOUND = 0.01

#: Dump files print positions with 10 significant digits.
DUMP_ATOL = 1e-6


def md_interval(sim, e0: float) -> list[str]:
    """Atoms conserved, finite energy, NVE drift within the bound."""
    problems = []
    n = sim.total_local_atoms()
    if n != sim.natoms:
        problems.append(f"atoms not conserved: {n} local vs {sim.natoms}")
    sample = sim.samples[-1] if sim.samples else sim.sample_thermo()
    if sample.step != sim.step_count:
        sample = sim.sample_thermo()
    energy = sample.total_energy
    if not math.isfinite(energy):
        problems.append(f"non-finite total energy {energy!r} at step {sim.step_count}")
    elif abs(energy - e0) > NVE_DRIFT_BOUND * abs(e0):
        problems.append(
            f"NVE drift {(energy - e0) / abs(e0):+.3%} at step {sim.step_count} "
            f"exceeds {NVE_DRIFT_BOUND:.0%}"
        )
    return problems


def dump_frame(path, offset: int, step: int, x: np.ndarray, scratch) -> list[str]:
    """The frame appended to ``path`` at byte ``offset`` re-reads with
    ``read_dump`` as exactly one frame of ``step`` with positions ``x``.

    The frame's bytes are copied to ``scratch`` (a new file each time)
    and parsed there, so a growing dump is never re-read whole.
    """
    from repro.md.dump import read_dump

    scratch = Path(scratch)
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            tail = fh.read()
        scratch.unlink(missing_ok=True)
        scratch.write_bytes(tail)
        frames = read_dump(scratch)
    except (OSError, ValueError, IndexError, AssertionError) as exc:
        return [f"dump {path} does not re-read: {exc!r}"]
    finally:
        scratch.unlink(missing_ok=True)
    if len(frames) != 1:
        return [f"dump {path}: {len(frames)} frames appended, expected 1"]
    frame = frames[0]
    if frame.step != step:
        return [f"dump {path}: step {frame.step}, expected {step}"]
    if frame.x.shape != x.shape:
        return [f"dump {path}: {frame.natoms} atoms, expected {x.shape[0]}"]
    err = float(np.max(np.abs(frame.x - x))) if x.size else 0.0
    if not err <= DUMP_ATOL:
        return [f"dump {path}: positions differ by {err:.3g}"]
    return []


def chrome_trace(path: str, events: int) -> list[str]:
    """The rotated trace validates and holds every exported event."""
    from repro.obs.export import validate_chrome_trace_file

    try:
        n = validate_chrome_trace_file(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"trace {path} does not validate: {exc!r}"]
    if n != events or n == 0:
        return [f"trace {path}: {n} events, expected {events}"]
    return []


def verify_report(path: str, expected: list[str]) -> tuple[int, list[str]]:
    """(failed scenarios, problems) of one ``repro-verify/1`` report.

    A scenario fails when it is missing from the report, unproven, or
    incomplete within its wall budget.  A report that does not parse
    fails every expected scenario.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("schema") != "repro-verify/1":
            raise ValueError(f"schema {doc.get('schema')!r}")
        rows = {str(r["label"]).rsplit("/", 1)[0]: r for r in doc["scenarios"]}
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return len(expected), [f"report {path} unreadable: {exc!r}"]
    problems = []
    for sid in expected:
        row = rows.get(sid)
        if row is None:
            problems.append(f"{sid}: missing from report")
        elif row.get("ok") is not True or row.get("incomplete") is not False:
            problems.append(f"{sid}: not proven (ok={row.get('ok')}, "
                            f"incomplete={row.get('incomplete')})")
    return len(problems), problems
