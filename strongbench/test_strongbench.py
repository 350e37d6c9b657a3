"""Self-tests of the benchmark.  Run from the repository root with::

    python3 -m pytest -q strongbench
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import checks  # noqa: E402
import results  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import SpanRecorder  # noqa: E402

from repro.md.dump import DumpWriter  # noqa: E402
from repro.md.simulation import Simulation  # noqa: E402

SMALL_LJ = replace(
    workloads.LJ_4K, name="lj-small", cells=(4, 4, 4), grid=(2, 2, 2),
    interval=5, setup_samples=2,
)
SMALL_EAM = replace(
    workloads.EAM_2K, name="eam-small", cells=(4, 4, 4), grid=(2, 2, 2),
    interval=5, setup_samples=2,
)


@pytest.fixture(autouse=True)
def _root_cwd(monkeypatch):
    monkeypatch.chdir(ROOT)


# -- spans ----------------------------------------------------------------
@pytest.mark.parametrize("w", [SMALL_LJ, SMALL_EAM], ids=lambda w: w.name)
def test_self_times_partition_step_wall(w, tmp_path):
    rec = SpanRecorder()
    original = Simulation.step
    with rec.installed(workloads.md_probes()):
        block = workloads._md_block(w, 3, tmp_path)
    assert Simulation.step is original  # every probe is restored
    assert block.failed == 0, block.problems

    steps = [k for k, row in enumerate(rec.spans) if row[0] == "md.step"]
    assert len(steps) == workloads.BLOCK_INTERVALS * w.interval
    wall = sum(rec.spans[k][2] - rec.spans[k][1] for k in steps)
    child = [0.0] * len(rec.spans)
    for _, t0, t1, parent, _ in rec.spans:
        if parent >= 0:
            child[parent] += t1 - t0
    inside = sum(
        (t1 - t0) - child[k]
        for k, (_, t0, t1, _, step) in enumerate(rec.spans)
        if step >= 0
    )
    assert inside == pytest.approx(wall, rel=1e-9)
    assert rec.partition_error("md.step") < 1e-9
    selfs = rec.self_times()
    assert all(v >= -1e-9 for v in selfs.values())
    # The layers did run under the step spans.
    assert selfs["neigh.build"] > 0 and selfs["comm.forward"] > 0
    assert any(k.startswith("pair.") for k in selfs)


def test_span_ids_nest():
    rec = SpanRecorder()
    with rec.span("outer", step=True):
        with rec.span("inner"):
            pass
    with rec.span("after"):
        pass
    (outer, inner, after) = rec.spans
    assert outer[3] == -1 and inner[3] == 0 and after[3] == -1
    assert outer[4] == inner[4] == 0 and after[4] == -1


def test_traced_block_keeps_the_fast_path(tmp_path):
    out = workloads.traced_md(SMALL_LJ, 5, 0.0, tmp_path, _declared("per_layer"))
    assert out.failed == 0, out.problems
    assert out.values["comm.fastpath_frac"] == 1.0
    assert out.values["bench.partition_error"] < 1e-9


# -- output checks count as failed operations ------------------------------
def test_corrupted_dump_fails_the_interval(tmp_path, monkeypatch):
    clean = workloads.run_md(SMALL_LJ, 2, 0.0, tmp_path)
    assert (clean.attempted, clean.failed) == (1, 0), clean.problems

    real = DumpWriter.write_frame

    def corrupt(self, step, box, x, *args, **kwargs):
        real(self, step, box, x + 0.5, *args, **kwargs)

    monkeypatch.setattr(DumpWriter, "write_frame", corrupt)
    bad = workloads.run_md(SMALL_LJ, 2, 0.0, tmp_path)
    assert (bad.attempted, bad.failed) == (1, 1)
    assert "positions differ" in bad.problems[0]


def test_truncated_dump_is_caught(tmp_path):
    sim = SMALL_LJ.build(1)
    sim.setup()
    path, scratch = tmp_path / "f.dump", tmp_path / "check.dump"
    writer = DumpWriter(path)
    writer.write_simulation_frame(sim)
    offset = path.stat().st_size
    writer.write_simulation_frame(sim)
    x = sim.gather_positions()
    assert checks.dump_frame(path, 0, 0, x, scratch)  # two frames there
    assert checks.dump_frame(path, offset, 0, x, scratch) == []
    path.write_text("\n".join(path.read_text().splitlines()[:-3]) + "\n")
    assert checks.dump_frame(path, offset, 0, x, scratch)


def test_corrupted_trace_fails_the_interval(tmp_path, monkeypatch):
    clean = workloads.run_md(SMALL_EAM, 2, 0.0, tmp_path)
    assert (clean.attempted, clean.failed) == (1, 0), clean.problems

    real = workloads.export.write_chrome_trace

    def corrupt(path, *args, **kwargs):
        doc = real(path, *args, **kwargs)
        Path(path).write_text(Path(path).read_text()[:-100])
        return doc

    monkeypatch.setattr(workloads.export, "write_chrome_trace", corrupt)
    bad = workloads.run_md(SMALL_EAM, 2, 0.0, tmp_path)
    assert (bad.attempted, bad.failed) == (1, 1)
    assert "does not validate" in bad.problems[0]


def test_unproven_scenario_fails_in_the_report(tmp_path, monkeypatch):
    ids = [s["id"] for s in workloads.spec_setup()][:2]
    monkeypatch.setattr(workloads, "fleet_chunks", lambda seed: [ids])
    clean = workloads.prove_fleet(1, tmp_path, HostSpeed(), sample_setups=True)
    assert (clean.scenarios, clean.failed) == (2, 0), clean.problems

    real = workloads.verify_cli._result_doc

    def unproven(result):
        return {**real(result), "ok": False}

    monkeypatch.setattr(workloads.verify_cli, "_result_doc", unproven)
    bad = workloads.prove_fleet(1, tmp_path, HostSpeed(), sample_setups=True)
    assert (bad.scenarios, bad.failed) == (2, 2)


def test_unreadable_report_fails_every_scenario(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"schema": "repro-verify/1", "scenarios": [')
    failed, problems = checks.verify_report(str(path), ["a", "b", "c"])
    assert failed == 3 and "unreadable" in problems[0]
    path.write_text(json.dumps({"schema": "repro-verify/1", "scenarios": [
        {"label": "a/p2p", "ok": True, "incomplete": False},
        {"label": "b/p2p", "ok": True, "incomplete": True},
    ]}))
    failed, problems = checks.verify_report(str(path), ["a", "b", "c"])
    assert failed == 2  # b incomplete, c missing


# -- the declared metric set --------------------------------------------------
def _declared(kind: str) -> list[str]:
    return list(results.load_declared(ROOT / "BENCHMARK.json")[kind])


def test_metric_outside_declared_set_is_rejected():
    declared = {"setup_s": "s"}
    ok = results.result_line(True, 1, 0, {"setup_s": 0.5}, declared)
    assert ok["metrics"] == {"setup_s": {"value": 0.5, "unit": "s"}}
    with pytest.raises(ValueError, match="outside the declared set"):
        results.result_line(True, 1, 0, {"setup_s": 0.5, "speed": 1.0}, declared)
    with pytest.raises(ValueError, match="not measured"):
        results.result_line(True, 1, 0, {}, declared)


def test_declared_metrics_are_unique_and_end_to_end_has_setup():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in doc[kind]]
    assert len(names) == len(set(names))
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert max(m["bound"] for m in doc["end_to_end"]) == setup[0]["bound"] <= 0.25


def test_model_digest_ignores_the_label():
    from repro.analysis.protomc.extract import model_from_scenario

    scenario = workloads.spec_setup()[0]
    model = model_from_scenario(scenario)
    assert workloads.model_digest(model) == workloads.model_digest(
        replace(model, label="other", fence_ranks={})
    )
