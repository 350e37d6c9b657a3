"""Strong-scaling benchmark of the LAMMPS-on-Fugaku reproduction.

Run from the repository root::

    python3 strongbench/run.py --workload lj-4k --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run,
``--trace 1`` the per-layer metrics of a traced run (see README.md).
The last line of standard output is the result object; the line before
it records the host and the run's sample counts.  Scratch files (dump
frames, rotated traces, verify reports, span dumps) go to
``.strongbench-work/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lj-4k", "eam-2k-traced", "verify-fleet")
#: An input of verify-fleet; with the sources, it must exist to run.
FLEET_SPEC = "examples/fleet_core.spec.json"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / FLEET_SPEC).is_file():
        print(f"strongbench: no program sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import results

    results.limit_blas_threads()  # before NumPy loads its BLAS
    os.chdir(ROOT)
    import workloads

    declared = results.load_declared(ROOT / "BENCHMARK.json")
    kind = "per_layer" if args.trace else "end_to_end"
    work = ROOT / ".strongbench-work"
    work.mkdir(exist_ok=True)
    outcome = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), work,
        list(declared[kind]),
    )
    line = results.result_line(
        not outcome.problems, outcome.attempted, outcome.failed,
        outcome.values, declared[kind],
    )
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": results.host_facts(),
        "samples": outcome.info,
        "problems": outcome.problems[:20],
    }))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
