"""The benchmark's three workloads (README.md says why each exists).

Every timed end-to-end metric is taken across the whole run at fixed
work per interval: step walls are summed over whole intervals, set-ups
are sampled at evenly spaced times and reported as a median, and so are
output writes.  The traced run (``--trace 1``) alternates untraced and
traced blocks of identical fixed work, so per-layer counts repeat
exactly and the tracing overhead is a ratio of like for like.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import statistics
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

import checks
from hostspeed import HostSpeed
from results import peak_rss_mb
from spans import Probe, SpanRecorder

from repro.analysis.protomc import checker as protomc_checker
from repro.analysis.protomc import cli as verify_cli
from repro.analysis.protomc import extract as protomc_extract
from repro.core import modeling
from repro.core.exchange_base import GhostExchange
from repro.core.p2p import P2PExchange
from repro.md.dump import DumpWriter
from repro.md.integrate import NVEIntegrator
from repro.md.neighbor import NeighborList
from repro.md.potentials.eam import EAMPotential
from repro.md.potentials.lj import LennardJones
from repro.md.presets import EAM_BENCH, LJ_BENCH, BenchPreset
from repro.md.simulation import Simulation
from repro.md.stages import Stage
from repro.obs import export
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.telemetry import StepTelemetry
from repro.obs.trace import TRACER
from repro.runtime.transport import Transport
from repro.scenarios import spec as scenario_spec
from repro.scenarios.validate import check_l0

clock = time.perf_counter

#: The committed fleet spec ``verify-fleet`` proves (relative to the root).
FLEET_SPEC = "examples/fleet_core.spec.json"
#: ``repro verify`` runs once per chunk of the (seed-shuffled) fleet; a
#: spec set-up sample is taken before each chunk.
FLEET_CHUNKS = 48
#: Output intervals per block of a traced run.
BLOCK_INTERVALS = 2

# Originals, bound before any probe is installed: the benchmark's own
# set-up samples must not show up as program spans.
_load_json = scenario_spec.load_json
_validate_spec = scenario_spec.validate_spec
_expand_spec = scenario_spec.expand_spec


@dataclass
class Outcome:
    """What one run measured: metric values, operations, diagnostics."""

    values: dict[str, float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _pct(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q)) if samples else 0.0


def _median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


# ----------------------------------------------------------------------
# MD workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MDWorkload:
    """One MD configuration and its output path."""

    name: str
    preset: BenchPreset
    cells: tuple[int, int, int]
    grid: tuple[int, int, int]
    #: steps per output interval (an interval is one operation)
    interval: int
    #: the program's TRACER + METRICS on, exported and emptied per interval
    observed: bool
    model_time: bool
    setup_samples: int

    def build(self, seed: int, grid: tuple[int, int, int] | None = None) -> Simulation:
        return self.preset.simulation(
            self.cells,
            grid or self.grid,
            pattern="parallel-p2p",
            rdma=True,
            seed=seed,
            thermo_every=self.interval,
            model_machine_time=self.model_time,
            # Bounded memory and constant work per interval: the
            # telemetry plane keeps exact running totals regardless.
            clear_traffic_each_step=True,
        )


LJ_4K = MDWorkload(
    name="lj-4k", preset=LJ_BENCH, cells=(10, 10, 10), grid=(3, 3, 3),
    interval=20, observed=False, model_time=True, setup_samples=8,
)
EAM_2K = MDWorkload(
    name="eam-2k-traced", preset=EAM_BENCH, cells=(8, 8, 8), grid=(3, 3, 3),
    interval=10, observed=True, model_time=False, setup_samples=12,
)


@contextlib.contextmanager
def _observed(on: bool):
    """The program's own tracer and metrics registry, as --trace --metrics."""
    if not on:
        yield
        return
    TRACER.reset()
    METRICS.reset()
    TRACER.enabled = METRICS.enabled = True
    try:
        yield
    finally:
        TRACER.enabled = METRICS.enabled = False
        TRACER.reset()
        METRICS.reset()


def _empty_observers(w: MDWorkload) -> None:
    if w.observed:
        TRACER.reset()
        METRICS.reset()


class _Output:
    """Writes one interval's output, times it and checks what it wrote.

    Dump frames are appended to one file per run, as a dump file grows in
    use, and each frame is re-read on its own.  Each trace export goes to
    a fresh file that is deleted once checked (a rotating trace).  No
    write rewrites a file in place: on ext4 a truncate-and-rewrite forces
    a flush at close, which would put disk latency into ``output_s``.
    """

    def __init__(self, w: MDWorkload, work: Path) -> None:
        self.w = w
        self.work = work
        self.writes = 0
        self.events: list[int] = []
        self.dump: DumpWriter | None = None
        if not w.observed:
            path = work / f"{w.name}.dump"
            path.unlink(missing_ok=True)
            self.dump = DumpWriter(path)

    def write(self, sim: Simulation) -> tuple[float, list[str]]:
        self.writes += 1
        if self.dump is None:
            path = str(self.work / f"trace-{self.writes}.json")
            t0 = clock()
            doc = export.write_chrome_trace(path)
            text = METRICS.render()
            TRACER.reset()
            METRICS.reset()
            dt = clock() - t0
            n = len(doc["traceEvents"])
            self.events.append(n)
            problems = checks.chrome_trace(path, n)
            if not text:
                problems.append("metrics render is empty")
            Path(path).unlink()
            return dt, problems
        offset = self.dump_bytes()
        t0 = clock()
        self.dump.write_simulation_frame(sim)
        dt = clock() - t0
        return dt, checks.dump_frame(
            self.dump.path, offset, sim.step_count, sim.gather_positions(),
            self.work / f"{self.w.name}.check.dump",
        )

    def dump_bytes(self) -> int:
        return self.dump.path.stat().st_size if self.dump is not None else 0

    def close(self) -> None:
        if self.dump is not None:
            self.dump.path.unlink(missing_ok=True)


def _timed_setup(w: MDWorkload, seed: int) -> tuple[Simulation, float]:
    t0 = clock()
    sim = w.build(seed)
    sim.setup()
    return sim, clock() - t0


def _run_interval(sim: Simulation, steps: int, steps_ms: list[float],
                  rebuild_ms: list[float]) -> float:
    """Advance ``steps`` steps, recording each wall; returns their sum (s)."""
    wall = 0.0
    for _ in range(steps):
        before = sim.rebuilds
        t0 = clock()
        sim.step()
        dt = clock() - t0
        wall += dt
        steps_ms.append(dt * 1e3)
        if sim.rebuilds != before:
            rebuild_ms.append(dt * 1e3)
    return wall


def _setup_sample(w: MDWorkload, seed: int) -> float:
    """Time a throwaway set-up and free it at once (it holds cycles)."""
    dt = _timed_setup(w, seed)[1]
    gc.collect()
    return dt


def run_md(w: MDWorkload, seed: int, seconds: float, work: Path) -> Outcome:
    """Untraced run: intervals until ``seconds`` pass, set-ups spread evenly.

    Every timed sample is paired with a reference-kernel tick taken right
    before it and reported in reference seconds (see ``hostspeed``).
    """
    host = HostSpeed()
    with _observed(w.observed):
        out = _Output(w, work)
        t_start = clock()
        tick = host.tick()
        sim, first = _timed_setup(w, seed)
        setups = [(first, tick)]
        _empty_observers(w)
        e0 = sim.sample_thermo().total_energy
        due = [k * seconds / w.setup_samples for k in range(1, w.setup_samples)]
        steps_ms: list[float] = []
        rebuild_ms: list[float] = []
        intervals: list[tuple[float, int]] = []
        outputs: list[tuple[float, int]] = []
        attempted = failed = 0
        problems: list[str] = []
        while attempted == 0 or clock() - t_start < seconds:
            if due and clock() - t_start >= due[0]:
                due.pop(0)
                tick = host.tick()
                setups.append((_setup_sample(w, seed), tick))
                _empty_observers(w)
            tick = host.tick()
            wall = _run_interval(sim, w.interval, steps_ms, rebuild_ms)
            intervals.append((wall, tick))
            attempted += 1
            tick = host.tick()
            dt, bad = out.write(sim)
            outputs.append((dt, tick))
            bad += checks.md_interval(sim, e0)
            if bad:
                failed += 1
                problems.extend(bad)
        host.tick()  # closes the last sample
        out.close()
    atom_steps = sim.natoms * len(steps_ms)
    values = {
        "setup_s": _median(host.reference(setups)),
        "throughput_per_s": atom_steps / sum(host.reference(intervals)),
        "output_s": _median(host.reference(outputs)),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "atoms": sim.natoms,
        "ranks": sim.world.size,
        "steps": len(steps_ms),
        "step_ms_p50": _pct(steps_ms, 50),
        "step_ms_p90": _pct(steps_ms, 90),
        "rebuild_steps": len(rebuild_ms),
        "rebuild_step_ms_p50": _pct(rebuild_ms, 50),
        "setup_samples": len(setups),
        "output_samples": len(outputs),
        "host_factor": host.median_factor(),
        "wall_clock": {
            "setup_s": _median([s for s, _ in setups]),
            "throughput_per_s": atom_steps / (sum(steps_ms) / 1e3),
            "output_s": _median([s for s, _ in outputs]),
        },
        "wall_s": clock() - t_start,
    }
    return Outcome(values, attempted, failed, problems, info)


# -- traced run -----------------------------------------------------------
def _pairs_of(args: tuple, result: object) -> float:
    return float(len(args[2]))  # (self, atoms, pair_i, pair_j, ...)


def _file_bytes(path) -> float:
    return float(Path(path).stat().st_size)


def md_probes() -> list[Probe]:
    """The MD layers' public entry points, wrapped in a traced block."""
    return [
        Probe(Simulation, "step", "md.step", step=True),
        Probe(Simulation, "setup", "md.setup"),
        Probe(NeighborList, "build", "neigh.build",
              count=lambda a, r: float(a[0].n_pairs)),
        Probe(LennardJones, "compute", "pair.compute", count=_pairs_of),
        Probe(EAMPotential, "density_pass", "pair.density", count=_pairs_of),
        Probe(EAMPotential, "embedding_pass", "pair.embedding"),
        Probe(EAMPotential, "force_pass", "pair.force"),
        Probe(NVEIntegrator, "initial_integrate", "modify.integrate"),
        Probe(NVEIntegrator, "final_integrate", "modify.integrate"),
        Probe(GhostExchange, "forward", "comm.forward"),
        Probe(GhostExchange, "reverse", "comm.reverse"),
        Probe(GhostExchange, "forward_scalar_world", "comm.scalar"),
        Probe(GhostExchange, "reverse_sum_scalar_world", "comm.scalar"),
        Probe(GhostExchange, "exchange", "comm.migrate"),
        Probe(P2PExchange, "borders", "comm.borders"),
        Probe(Transport, "send", "transport.send"),
        Probe(Transport, "recv", "transport.recv"),
        Probe(Transport, "try_recv", "transport.recv"),
        Probe(Transport, "send_fast", "transport.send_fast"),
        Probe(Transport, "recv_fast", "transport.recv_fast"),
        Probe(modeling, "modeled_step_comm_time", "model.price"),
        Probe(StepTelemetry, "flush_step", "obs.telemetry_flush"),
        Probe(export, "write_chrome_trace", "obs.export",
              count=lambda a, r: _file_bytes(a[0])),
        Probe(MetricsRegistry, "render", "obs.render"),
        Probe(DumpWriter, "write_frame", "dump.write"),
    ]


@dataclass
class _Block:
    """One fixed-work block: fresh Simulation, set-up, whole intervals."""

    steps_ms: list[float]
    rebuild_ms: list[float]
    natoms: int
    attempted: int
    failed: int
    problems: list[str]
    counts: dict[str, float]

    @property
    def step_wall_s(self) -> float:
        return sum(self.steps_ms) / 1e3


def _md_block(
    w: MDWorkload, seed: int, work: Path, grid: tuple[int, int, int] | None = None
) -> _Block:
    with _observed(w.observed):
        out = _Output(w, work)
        sim = w.build(seed, grid)
        sim.setup()
        _empty_observers(w)
        e0 = sim.sample_thermo().total_energy
        log = sim.world.transport.log
        msgs0, bytes0 = log.grand_total_count, log.grand_total_bytes
        steps_ms: list[float] = []
        rebuild_ms: list[float] = []
        failed = 0
        problems: list[str] = []
        for _ in range(BLOCK_INTERVALS):
            _run_interval(sim, w.interval, steps_ms, rebuild_ms)
            bad = out.write(sim)[1] + checks.md_interval(sim, e0)
            if bad:
                failed += 1
                problems.extend(bad)
        dump_mb = out.dump_bytes() / 1e6
        out.close()
    nsteps = len(steps_ms)
    stats = sim.exchange.plan_stats()
    phases = stats["fastpath_phases"] + stats["slowpath_phases"]
    pairs = [float(sim.neigh_of(r).n_pairs) for r in range(sim.world.size)]
    counts = {
        "neigh.pairs": sum(pairs),
        "pair.pairs_imbalance": max(pairs) / (sum(pairs) / len(pairs)) if sum(pairs) else 0.0,
        "comm.msgs_per_step": (log.grand_total_count - msgs0) / nsteps,
        "comm.bytes_per_step": (log.grand_total_bytes - bytes0) / nsteps,
        "comm.ghosts": float(sum(sim.atoms_of(r).nghost for r in range(sim.world.size))),
        "comm.plan_builds": float(stats["plan_builds"]),
        "comm.pool_grow_events": float(stats["pool_grow_events"]),
        "comm.fastpath_frac": stats["fastpath_phases"] / phases if phases else 0.0,
        "model.comm_us_per_step": sim.timers.model[Stage.COMM] * 1e6 / nsteps,
        "obs.trace_events_per_step": sum(out.events) / nsteps,
        "dump.mb": dump_mb,
    }
    return _Block(steps_ms, rebuild_ms, sim.natoms, BLOCK_INTERVALS, failed, problems, counts)


def _span_layers(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer values read off one traced block's spans."""
    st = rec.self_times()
    calls = rec.calls()
    n = rec.counts

    def s(*names: str) -> float:
        return sum(st.get(k, 0.0) for k in names)

    def c(*names: str) -> float:
        return float(sum(calls.get(k, 0) for k in names))

    pair_s = s("pair.compute", "pair.density", "pair.embedding", "pair.force")
    pair_n = n.get("pair.compute", 0.0) + n.get("pair.density", 0.0)
    build_n = n.get("neigh.build", 0.0)
    return {
        "neigh.build_s": s("neigh.build"),
        "neigh.builds": c("neigh.build"),
        "neigh.ns_per_pair": s("neigh.build") / build_n * 1e9 if build_n else 0.0,
        "pair.compute_s": pair_s,
        "pair.density_s": s("pair.density"),
        "pair.embedding_s": s("pair.embedding"),
        "pair.force_s": s("pair.force"),
        "pair.calls": c("pair.compute", "pair.density"),
        "pair.ns_per_pair": pair_s / pair_n * 1e9 if pair_n else 0.0,
        "modify.integrate_s": s("modify.integrate"),
        "dump.write_s": s("dump.write"),
        "comm.forward_s": s("comm.forward"),
        "comm.reverse_s": s("comm.reverse"),
        "comm.borders_s": s("comm.borders"),
        "comm.migrate_s": s("comm.migrate"),
        "comm.scalar_s": s("comm.scalar"),
        "transport.sends": c("transport.send"),
        "transport.recvs": c("transport.recv"),
        "transport.fast_sends": c("transport.send_fast"),
        "transport.fast_recvs": c("transport.recv_fast"),
        "transport.send_s": s("transport.send", "transport.send_fast"),
        "model.price_s": s("model.price"),
        "obs.telemetry_flush_s": s("obs.telemetry_flush"),
        "obs.export_s": s("obs.export", "obs.render"),
        "obs.export_mb": n.get("obs.export", 0.0) / 1e6,
        "step.other_self_s": s("md.step", "verify.scenario"),
        "bench.partition_error": max(
            rec.partition_error("md.step"), rec.partition_error("verify.scenario")
        ),
    }


def _merge_blocks(per_block: list[dict[str, float]]) -> dict[str, float]:
    """Median of each value across blocks."""
    return {k: _median([b[k] for b in per_block]) for k in per_block[0]}


def traced_md(
    w: MDWorkload, seed: int, seconds: float, work: Path, declared: list[str]
) -> Outcome:
    """Alternate untraced and traced blocks; add the 1-rank baseline."""
    rec = SpanRecorder()
    probes = md_probes()
    plain: list[_Block] = []
    traced: list[_Block] = []
    layers: list[dict[str, float]] = []
    problems: list[str] = []
    t_start = clock()
    while not traced or clock() - t_start < seconds:
        # Alternate which side of a pair runs first, so a slow phase of
        # the host or a cold first block does not land on one side only.
        if len(traced) % 2 == 0:
            plain.append(_md_block(w, seed, work))
        with rec.installed(probes):
            rec.reset()
            block = _md_block(w, seed, work)
        traced.append(block)
        layers.append({**_span_layers(rec), "step.wall_s": block.step_wall_s})
        if len(traced) % 2 == 0:
            plain.append(_md_block(w, seed, work))
    rec.write(str(work / f"spans-{w.name}.json"))

    for block in plain + traced:
        problems.extend(block.problems)
    # Counts repeat exactly across blocks, and tracing must not change
    # the program's path: the fast-path share, the modeled comm time and
    # every other count of a traced block equal the untraced ones.
    ref = plain[0].counts
    for block in plain[1:] + traced:
        for key in ref:
            if block.counts[key] != ref[key]:
                problems.append(
                    f"{key} differs between blocks: {block.counts[key]!r} "
                    f"vs {ref[key]!r}"
                )

    values = dict.fromkeys(declared, 0.0)  # layers idle on this workload
    values.update(_merge_blocks(layers))
    values.update(traced[0].counts)
    plain_steps = [ms for b in plain for ms in b.steps_ms]
    plain_rebuilds = [ms for b in plain for ms in b.rebuild_ms]
    values["step.ms_p50"] = _pct(plain_steps, 50)
    values["step.ms_p90"] = _pct(plain_steps, 90)
    values["step.rebuild_ms_p50"] = _pct(plain_rebuilds, 50)
    values["bench.trace_overhead"] = _median([b.step_wall_s for b in traced]) / _median(
        [b.step_wall_s for b in plain]
    )
    blocks = plain + traced
    info = {
        "blocks_untraced": len(plain),
        "blocks_traced": len(traced),
        "steps_per_block": len(plain[0].steps_ms),
        "spans_last_block": len(rec.spans),
        "fastpath_frac_untraced": ref["comm.fastpath_frac"],
        "fastpath_frac_traced": traced[0].counts["comm.fastpath_frac"],
    }
    if w is LJ_4K:
        base = _md_block(w, seed, work, grid=(1, 1, 1))
        blocks.append(base)
        problems.extend(base.problems)
        values["baseline.atom_steps_per_s_1rank"] = (
            base.natoms * len(base.steps_ms) / base.step_wall_s
        )
    values["bench.peak_rss_mb"] = peak_rss_mb()
    attempted = sum(b.attempted for b in blocks)
    failed = sum(b.failed for b in blocks)
    if problems and failed == 0:
        failed = 1  # a cross-block check failed: count one failed operation
    info["wall_s"] = clock() - t_start
    return Outcome(values, attempted, failed, problems, info)


# ----------------------------------------------------------------------
# verify-fleet
# ----------------------------------------------------------------------
def spec_setup(path: str = FLEET_SPEC) -> list[dict]:
    """Load, validate (spec schema and per-scenario L0) and expand the spec."""
    doc = _load_json(path)
    issues = _validate_spec(doc)
    if issues:
        raise ValueError(f"{path}: {issues[0]}")
    scenarios = _expand_spec(doc)
    bad = [i for s in scenarios for i in check_l0(s)]
    if bad:
        raise ValueError(f"{path}: L0 rejects {bad[0]}")
    return scenarios


def fleet_chunks(seed: int) -> list[list[str]]:
    """The fleet's scenario ids, shuffled by ``seed``, in equal chunks."""
    ids = [s["id"] for s in spec_setup()]
    random.Random(seed).shuffle(ids)
    return [list(c) for c in np.array_split(np.array(ids, dtype=object), FLEET_CHUNKS)]


class _TimedJson:
    """Stands in for ``json`` inside the verify CLI: times report writes."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def dump(self, *args, **kwargs) -> None:
        t0 = clock()
        json.dump(*args, **kwargs)
        self.samples.append(clock() - t0)

    def __getattr__(self, name: str):
        return getattr(json, name)


@dataclass
class _Proof:
    """One whole-fleet proof; timed samples are ``(wall_s, host tick)``."""

    chunks: list[tuple[float, int]]
    scenarios: int
    failed: int
    problems: list[str]
    states: int
    report_writes: list[tuple[float, int]]
    setups: list[tuple[float, int]]

    @property
    def wall_s(self) -> float:
        return sum(wall for wall, _ in self.chunks)


def prove_fleet(seed: int, work: Path, host: HostSpeed, sample_setups: bool) -> _Proof:
    """Prove every scenario through ``repro verify``'s ``main``, by chunk."""
    timed_json = _TimedJson()
    chunks: list[tuple[float, int]] = []
    writes: list[tuple[float, int]] = []
    setups: list[tuple[float, int]] = []
    failed = states = scenarios = 0
    problems: list[str] = []
    for k, chunk in enumerate(fleet_chunks(seed)):
        tick = host.tick()
        if sample_setups:
            t0 = clock()
            spec_setup()
            setups.append((clock() - t0, tick))
        report = work / f"verify-{k}.json"
        argv = ["--spec", FLEET_SPEC, "--quiet", "--report", str(report)]
        for sid in chunk:
            argv += ["--scenario", sid]
        verify_cli.json = timed_json
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                t0 = clock()
                code = verify_cli.main(argv)
                chunks.append((clock() - t0, tick))
        finally:
            verify_cli.json = json
        writes.extend((dt, tick) for dt in timed_json.samples)
        timed_json.samples.clear()
        n_bad, bad = checks.verify_report(str(report), chunk)
        if code != 0 and n_bad == 0:
            n_bad, bad = len(chunk), [f"verify exited {code} on chunk {k}"]
        scenarios += len(chunk)
        failed += n_bad
        problems.extend(bad)
        with contextlib.suppress(OSError, ValueError, KeyError):
            states += int(json.loads(report.read_text())["summary"]["states"])
        report.unlink(missing_ok=True)
    host.tick()  # closes the last chunk
    return _Proof(chunks, scenarios, failed, problems, states, writes, setups)


def run_verify(seed: int, seconds: float, work: Path) -> Outcome:
    """Untraced run: whole-fleet proofs while another one fits in ``seconds``."""
    host = HostSpeed()
    t_start = clock()
    proofs = [prove_fleet(seed, work, host, sample_setups=True)]
    while clock() - t_start + proofs[-1].wall_s <= seconds:
        proofs.append(prove_fleet(seed, work, host, sample_setups=True))
    scenarios = sum(p.scenarios for p in proofs)
    setups = [s for p in proofs for s in p.setups]
    writes = [s for p in proofs for s in p.report_writes]
    chunks = [c for p in proofs for c in p.chunks]
    values = {
        "setup_s": _median(host.reference(setups)),
        "throughput_per_s": scenarios / sum(host.reference(chunks)),
        "output_s": _median(host.reference(writes)),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "proofs": len(proofs),
        "scenarios_per_proof": proofs[0].scenarios,
        "verify_s": [p.wall_s for p in proofs],
        "states_per_proof": [p.states for p in proofs],
        "setup_samples": len(setups),
        "output_samples": len(writes),
        "host_factor": host.median_factor(),
        "wall_clock": {
            "setup_s": _median([s for s, _ in setups]),
            "throughput_per_s": scenarios / sum(p.wall_s for p in proofs),
            "output_s": _median([s for s, _ in writes]),
        },
        "wall_s": clock() - t_start,
    }
    problems = [q for p in proofs for q in p.problems]
    return Outcome(values, scenarios, sum(p.failed for p in proofs), problems, info)


def model_digest(model) -> str:
    """Digest of everything that determines a model's proof (not its label)."""
    skip = {"label", "fence_ranks"}  # fence_ranks is derived from programs
    body = repr([(f.name, getattr(model, f.name)) for f in fields(model) if f.name not in skip])
    return hashlib.sha256(body.encode()).hexdigest()


def verify_probes(digests: set[str]) -> list[Probe]:
    """The verify path's public entry points, wrapped in a traced proof.

    The digest of every extracted model is added to ``digests``.
    """

    def digest(args: tuple, model) -> float:
        digests.add(model_digest(model))
        return 1.0

    return [
        Probe(verify_cli, "verify_scenario", "verify.scenario", step=True),
        Probe(scenario_spec, "expand_spec", "scenarios.expand"),
        Probe(protomc_extract, "model_from_scenario", "protomc.extract", count=digest),
        Probe(protomc_checker, "verify_model", "protomc.check",
              count=lambda a, r: float(r.states)),
    ]


def traced_verify(seed: int, seconds: float, work: Path, declared: list[str]) -> Outcome:
    """Alternate untraced and traced whole-fleet proofs."""
    rec = SpanRecorder()
    host = HostSpeed()
    digests: set[str] = set()
    probes = verify_probes(digests)
    plain: list[_Proof] = []
    traced: list[_Proof] = []
    layers: list[dict[str, float]] = []
    t_start = clock()
    while not traced or clock() - t_start < seconds:
        if len(traced) % 2 == 0:
            plain.append(prove_fleet(seed, work, host, sample_setups=False))
        with rec.installed(probes):
            rec.reset()
            digests.clear()
            proof = prove_fleet(seed, work, host, sample_setups=False)
        traced.append(proof)
        if len(traced) % 2 == 0:
            plain.append(prove_fleet(seed, work, host, sample_setups=False))
        st = rec.self_times()
        check_s = st.get("protomc.check", 0.0)
        states = rec.counts.get("protomc.check", 0.0)
        checked = rec.calls().get("verify.scenario", 0)
        walls = [t * 1e3 for t in rec.step_walls("verify.scenario")]
        layers.append({
            **_span_layers(rec),
            "step.wall_s": sum(walls) / 1e3,
            "step.ms_p50": _pct(walls, 50),
            "step.ms_p90": _pct(walls, 90),
            "scenarios.expand_s": st.get("scenarios.expand", 0.0),
            "protomc.extract_s": st.get("protomc.extract", 0.0),
            "protomc.check_s": check_s,
            "protomc.states": states,
            "protomc.states_per_s": states / check_s if check_s else 0.0,
            "protomc.scenarios": float(checked),
            "protomc.distinct_models": float(len(digests)),
            "protomc.distinct_frac": len(digests) / checked if checked else 0.0,
        })
    rec.write(str(work / "spans-verify-fleet.json"))
    values = dict.fromkeys(declared, 0.0)  # layers idle on this workload
    values.update(_merge_blocks(layers))
    # Counts come from the first traced proof and must repeat exactly.
    problems = [q for p in plain + traced for q in p.problems]
    for key in ("protomc.states", "protomc.scenarios", "protomc.distinct_models"):
        values[key] = layers[0][key]
        if any(b[key] != layers[0][key] for b in layers):
            problems.append(f"{key} differs between traced proofs")
    values["protomc.distinct_frac"] = layers[0]["protomc.distinct_frac"]
    values["bench.trace_overhead"] = _median([p.wall_s for p in traced]) / _median(
        [p.wall_s for p in plain]
    )
    values["bench.peak_rss_mb"] = peak_rss_mb()
    proofs = plain + traced
    failed = sum(p.failed for p in proofs)
    if problems and failed == 0:
        failed = 1
    info = {
        "proofs_untraced": len(plain),
        "proofs_traced": len(traced),
        "spans_last_proof": len(rec.spans),
        "wall_s": clock() - t_start,
    }
    return Outcome(values, sum(p.scenarios for p in proofs), failed, problems, info)


def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        declared: list[str]) -> Outcome:
    """Dispatch one run of workload ``name``."""
    if name == "verify-fleet":
        if trace:
            return traced_verify(seed, seconds, work, declared)
        return run_verify(seed, seconds, work)
    w = {"lj-4k": LJ_4K, "eam-2k-traced": EAM_2K}[name]
    if trace:
        return traced_md(w, seed, seconds, work, declared)
    return run_md(w, seed, seconds, work)
