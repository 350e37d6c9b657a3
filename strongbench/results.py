"""Declared metrics, the result line, and the host facts printed with it."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
from pathlib import Path

#: Environment variables that cap BLAS/OpenMP thread pools.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def limit_blas_threads() -> None:
    """Cap every BLAS pool at ``nproc`` unless the caller already chose."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(nproc()))


def load_declared(path: Path) -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {
        kind: {m["name"]: m["unit"] for m in doc[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    values: dict[str, float],
    declared: dict[str, str],
) -> dict:
    """The final JSON object; the metric names must equal ``declared``."""
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise ValueError(f"metrics outside the declared set: {unknown}")
    missing = sorted(set(declared) - set(values))
    if missing:
        raise ValueError(f"declared metrics not measured: {missing}")
    bad = sorted(k for k, v in values.items() if not math.isfinite(v))
    if bad:
        raise ValueError(f"non-finite metric values: {bad}")
    if attempted < 1 or failed < 0 or failed > attempted:
        raise ValueError(f"bad operation counts: {failed}/{attempted}")
    return {
        "correct": bool(correct and failed == 0),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": declared[name]}
            for name in declared
        },
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_facts() -> dict:
    """CPU model, nproc, Python and NumPy versions, BLAS thread caps."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
