"""Self-test of the benchmark (``python -m pytest benchmarks/e2e -q``).

Runs the real command in ``--smoke`` size and checks the shape of what
it reports — not the numbers.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run  # puts benchmarks/e2e and src/ on sys.path
import harness
import spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COMMAND = [sys.executable, str(run.HERE / "run.py")]


def _run(*args):
    return subprocess.run(
        [*COMMAND, *args], capture_output=True, text=True, timeout=120
    )


def _no_work_left_behind():
    return not list(run.WORK_ROOT.glob("work-*"))


def _resource_trackers():
    """Pids of Python's shared-memory helper, which is nobody's
    ``active_children()`` and by default outlives the command."""
    found = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if b"resource_tracker" in (entry / "cmdline").read_bytes():
                    found.add(int(entry.name))
            except OSError:
                pass
    return found


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = _run("--smoke", "-o", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), proc.stdout


def test_declarations_are_well_formed():
    names = [m[0] for m in spec.END_TO_END + spec.PER_LAYER] + list(spec.WORKLOADS)
    assert len(names) == len(set(names))
    for name, unit, better, *_ in spec.END_TO_END + spec.PER_LAYER:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
        assert better in ("lower", "higher")
    assert set(spec.EXACT_COUNTS) <= {m[0] for m in spec.PER_LAYER}


def test_benchmark_json_matches_the_declarations():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in manifest["end_to_end"]
    ] == [tuple(m) for m in spec.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == [tuple(m) for m in spec.PER_LAYER]


def test_smoke_reports_every_declared_metric(smoke):
    doc, stdout = smoke
    assert doc["ops_failed"] == 0
    assert set(doc["workloads"]) == set(spec.WORKLOADS)
    assert doc["host"]["kernel_threads"] >= 1
    assert doc["host"]["repro_env"] == {}
    declared = {name: unit for name, unit, _ in spec.PER_LAYER}
    seen = set()
    for name, w in doc["workloads"].items():
        assert w["counts"]["block_steps"] > 0, name
        for metric, unit, *_ in spec.END_TO_END:
            entry = w["end_to_end"][metric]
            assert entry["unit"] == unit and entry["median"] > 0
            assert metric in stdout
        for metric, entry in w["per_layer"].items():
            assert entry["unit"] == declared[metric]
            seen.add(metric)
        assert "obs.trace_overhead_ratio" in w["per_layer"], name
    # p99 needs >= 1000 blocks, which no smoke-sized workload takes
    assert seen | {"core.block_ms_p99"} == set(declared)


def test_layer_self_times_account_for_the_traced_wall(smoke):
    doc, _ = smoke
    for name, w in doc["workloads"].items():
        layers = w["per_layer"]
        total = sum(v["value"] for k, v in layers.items() if k.startswith("self."))
        wall = layers["obs.traced_wall_s"]["value"]
        assert abs(total - wall) <= 0.05 * wall, (name, total, wall)


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_run_ends_with_one_json_line(trace):
    trackers = _resource_trackers()
    proc = _run("--smoke", "--workload", "spmd_proc", "--seed", "7",
                "--seconds", "0.2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m[0]: m[1] for m in declared
    }
    assert _no_work_left_behind()
    assert _resource_trackers() <= trackers


def test_too_short_t_end_is_a_failed_operation(tmp_path):
    workload = dataclasses.replace(spec.WORKLOADS["sparse_direct"], t_end=1e-6)
    doc = run.measure_workload(workload, harness.Inputs(1), tmp_path,
                               passes=1, seconds=0.0, traced=True)
    assert doc["ops_failed"] == doc["ops_attempted"] == 2  # warm-up + timed
    assert any("zero block steps" in f for f in doc["failures"])
    assert doc["end_to_end"] == {} and doc["per_layer"] == {}


def test_an_exception_in_a_pass_is_a_failed_operation(tmp_path):
    def broken_backend():
        raise RuntimeError("no such machine")

    workload = dataclasses.replace(
        spec.smoke_variant(spec.WORKLOADS["sparse_direct"]),
        make_backend=broken_backend,
    )
    doc = run.measure_workload(workload, harness.Inputs(1), tmp_path,
                               passes=1, seconds=0.0, traced=False)
    assert doc["ops_failed"] == doc["ops_attempted"] == 2
    assert any("RuntimeError: no such machine" in f for f in doc["failures"])


def test_a_rank_lost_in_the_middle_of_a_pass_is_seen():
    results = iter(
        SimpleNamespace(wall_seconds=0.0, messages=0, total_bytes=0,
                        supersteps=1, straggler_wait_seconds=0.0,
                        restarts=restarts, degraded=False)
        for restarts in (0, 1, 0)
    )
    backend = SimpleNamespace(last_result=None)

    def forces_on(system, active, t_now):
        backend.last_result = next(results)

    backend.forces_on = forces_on
    tally = harness._SpmdTally()
    harness._tally_gang(backend, tally)
    for _ in range(3):
        backend.forces_on(None, None, 0.0)
    assert backend.last_result.restarts == 0  # the last call looks healthy
    assert tally.calls == 3 and tally.health()


# an alarm that lands in an at-fork hook is dropped (and reported by
# pytest as unraisable); the repeating timer delivers the next one
@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
def test_deadline_tears_down_and_exits_3(monkeypatch):
    # full-size spmd_proc: the alarm goes off in the first timed pass,
    # with the rank processes alive
    monkeypatch.setattr(run, "SET_DEADLINE_S", 3.0)
    assert run.main(["--workload", "spmd_proc", "--repeats", "1"]) == 3
    assert multiprocessing.active_children() == []
    assert _no_work_left_behind()


def test_repro_environment_is_refused(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "1")
    proc = _run("--smoke", "--workload", "dense_direct")
    assert proc.returncode == 2
    assert "REPRO_KERNEL_THREADS" in proc.stderr


def test_compare_flags_a_wide_difference(smoke, tmp_path):
    doc, _ = smoke
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(doc))
    assert run.compare(str(a), str(a)) == 0
    slow = json.loads(json.dumps(doc))
    slow["workloads"]["dense_direct"]["end_to_end"]["wall_s"]["median"] *= 2
    slow["workloads"]["spmd_proc"]["counts"]["block_steps"] += 1
    b.write_text(json.dumps(slow))
    assert run.compare(str(a), str(b)) == 1
