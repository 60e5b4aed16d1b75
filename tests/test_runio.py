"""Tests for run logging, output management and the run spec."""

import json

import numpy as np
import pytest

from repro.core import save_snapshot
from repro.errors import ConfigurationError, SnapshotError
from repro.runio import (
    OutputManager,
    ProductionRun,
    RunLogger,
    RunSpec,
    SnapshotSchedule,
    read_run_log,
    state_digest,
)

from conftest import make_disk_sim


class TestRunLogger:
    def test_header_and_samples(self, tmp_path):
        sim = make_disk_sim(n=16, seed=2)
        path = tmp_path / "run.jsonl"
        with RunLogger(path, run_id="test-1", metadata={"n": 16}) as log:
            sim.evolve(2.0)
            log.record(sim, energy_error=1e-10)
            log.event("snapshot", file="snap_000000.npz")
        records = read_run_log(path)
        assert records[0]["kind"] == "header"
        assert records[0]["run_id"] == "test-1"
        assert records[1]["kind"] == "sample"
        assert records[1]["t"] == sim.time
        assert records[1]["energy_error"] == 1e-10
        assert records[2]["kind"] == "snapshot"

    def test_append_mode_single_header(self, tmp_path):
        # reopening an existing log must NOT write a second header
        path = tmp_path / "run.jsonl"
        with RunLogger(path, run_id="a") as log:
            log.event("x")
        with RunLogger(path, run_id="b") as log:
            log.event("y")
        records = read_run_log(path)
        assert [r["kind"] for r in records] == ["header", "x", "y"]
        assert records[0]["run_id"] == "a"

    def test_empty_file_gets_header(self, tmp_path):
        # a zero-byte file (e.g. touch'd by a scheduler) counts as fresh
        path = tmp_path / "run.jsonl"
        path.touch()
        with RunLogger(path, run_id="a") as log:
            log.event("x")
        records = read_run_log(path)
        assert [r["kind"] for r in records] == ["header", "x"]

    def test_periodic_flush(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = RunLogger(path, run_id="a", flush_every=4)
        try:
            for _ in range(3):
                log.event("buffered")
            # header was flushed eagerly; the 3 events are still buffered
            assert len(read_run_log(path)) == 1
            log.event("fourth")  # hits flush_every
            assert len(read_run_log(path)) == 5
            log.event("tail")
            log.flush()  # explicit checkpoint
            assert len(read_run_log(path)) == 6
        finally:
            log.close()

    def test_close_flushes(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogger(path, run_id="a", flush_every=1000) as log:
            log.event("x")
        assert [r["kind"] for r in read_run_log(path)] == ["header", "x"]

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLogger(path, run_id="a") as log:
            log.event("good")
        with open(path, "a") as f:
            f.write('{"kind": "tor')  # crash mid-write
        records = read_run_log(path)
        assert [r["kind"] for r in records] == ["header", "good"]

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "header"}\nnot json\n{"kind": "sample"}\n')
        with pytest.raises(SnapshotError):
            read_run_log(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            read_run_log(tmp_path / "nope.jsonl")

    def test_non_serialisable_rejected(self, tmp_path):
        with RunLogger(tmp_path / "r.jsonl") as log:
            with pytest.raises(SnapshotError):
                log.event("bad", data=np.zeros(3))


class TestSchedule:
    def test_due_progression(self):
        s = SnapshotSchedule(interval=10.0)
        assert not s.due(5.0)
        assert s.due(10.0)
        s.mark_done()
        assert not s.due(15.0)
        assert s.due(20.0)

    def test_nonpositive_interval(self):
        with pytest.raises(ConfigurationError):
            SnapshotSchedule(interval=0.0)

    def test_t_start_offset(self):
        s = SnapshotSchedule(interval=5.0, t_start=100.0)
        assert not s.due(100.0)
        assert s.due(105.0)


class TestOutputManager:
    def test_numbered_snapshots(self, tmp_path):
        sim = make_disk_sim(n=8, seed=3)
        om = OutputManager(tmp_path / "run")
        p0 = om.write(sim.system, 0.0)
        p1 = om.write(sim.system, 1.0)
        assert p0.name == "snap_000000.npz"
        assert p1.name == "snap_000001.npz"
        assert om.n_snapshots == 2

    def test_latest_roundtrip(self, tmp_path):
        sim = make_disk_sim(n=8, seed=3)
        om = OutputManager(tmp_path / "run")
        om.write(sim.system, 0.0, {"tag": "first"})
        sim.evolve(2.0)
        om.write(sim.predicted_state(), sim.time, {"tag": "second"})
        system, meta = om.latest()
        assert meta["tag"] == "second"
        assert meta["snapshot_index"] == 1
        assert system.n == sim.system.n

    def test_restart_numbering(self, tmp_path):
        sim = make_disk_sim(n=8, seed=3)
        om1 = OutputManager(tmp_path / "run")
        om1.write(sim.system, 0.0)
        om2 = OutputManager(tmp_path / "run")  # a restart
        p = om2.write(sim.system, 1.0)
        assert p.name == "snap_000001.npz"

    def test_stray_name_is_not_a_snapshot(self, tmp_path):
        sim = make_disk_sim(n=8, seed=3)
        om1 = OutputManager(tmp_path / "run")
        om1.write(sim.system, 0.0, {"tag": "numbered"})
        save_snapshot(tmp_path / "run" / "snap_backup.npz", sim.system,
                      {"tag": "stray"})
        om2 = OutputManager(tmp_path / "run")
        assert om2.n_snapshots == 1
        assert om2.latest()[1]["tag"] == "numbered"
        assert om2.write(sim.system, 1.0).name == "snap_000001.npz"

    def test_maybe_write_follows_schedule(self, tmp_path):
        sim = make_disk_sim(n=8, seed=3)
        om = OutputManager(tmp_path / "run", SnapshotSchedule(interval=2.0))
        wrote = []
        sim.evolve(7.0, callback=lambda s: wrote.append(om.maybe_write(s)))
        paths = [p for p in wrote if p is not None]
        assert 2 <= len(paths) <= 4
        assert om.n_snapshots == len(paths)

    def test_maybe_write_without_schedule(self, tmp_path):
        om = OutputManager(tmp_path / "run")
        sim = make_disk_sim(n=8, seed=3)
        with pytest.raises(ConfigurationError):
            om.maybe_write(sim)

    def test_latest_empty_raises(self, tmp_path):
        om = OutputManager(tmp_path / "empty")
        with pytest.raises(SnapshotError):
            om.latest()


#: the checkpoint ``config`` keys the CLI has always written
RECIPE_KEYS = {"n", "seed", "eta", "dt_max", "backend", "eps", "theta",
               "r_neighbour", "n_crit", "ranks", "spmd_mode"}


class TestRunSpec:
    @pytest.mark.parametrize("backend", ["host", "grape", "tree", "hybrid", "spmd"])
    def test_config_round_trip(self, backend):
        spec = RunSpec(n=48, seed=3, eta=0.01, dt_max=0.5, backend=backend,
                       eps=0.01, theta=0.4, r_neighbour=0.07, n_crit=16,
                       ranks=3, spmd_mode="vm")
        cfg = spec.to_config()
        assert set(cfg) == RECIPE_KEYS
        assert json.loads(json.dumps(cfg)) == cfg
        assert RunSpec.from_config(cfg) == spec

    def test_partial_recipe_takes_field_defaults(self):
        spec = RunSpec.from_config({"backend": "tree", "dt_max": 0.25})
        assert spec == RunSpec(backend="tree", dt_max=0.25)

    def test_grouped_tree_walk_is_dropped(self):
        cfg = {**RunSpec(backend="tree").to_config(), "tree_walk": "grouped"}
        assert RunSpec.from_config(cfg) == RunSpec(backend="tree")

    def test_per_sink_tree_walk_is_refused(self):
        with pytest.raises(ConfigurationError, match="'persink'.*no longer exists"):
            RunSpec.from_config({"backend": "tree", "tree_walk": "persink"})

    @pytest.mark.parametrize("cfg", [None, {}])
    def test_missing_recipe_is_refused(self, cfg):
        with pytest.raises(ConfigurationError, match="no run recipe"):
            RunSpec.from_config(cfg)

    def test_unknown_key_is_refused(self):
        with pytest.raises(ConfigurationError, match="unknown run setting.*warp"):
            RunSpec.from_config({"backend": "host", "warp": 9})

    def test_unknown_choice_is_refused(self):
        with pytest.raises(ConfigurationError, match="backend 'warp'"):
            RunSpec(backend="warp")
        with pytest.raises(ConfigurationError, match="spmd_mode 'serial'"):
            RunSpec(spmd_mode="serial")

    def test_serial_spmd_recipe_loads_as_host(self):
        cfg = {**RunSpec(backend="spmd").to_config(), "spmd_mode": "serial"}
        assert RunSpec.from_config(cfg) == RunSpec(backend="host")

    def test_serial_spmd_checkpoint_resumes_to_the_uninterrupted_digest(
            self, monkeypatch, capsys, tmp_path):
        """A run directory whose recipe names the removed serial spmd
        mode resumes on the host backend, which made the same force call,
        to the same final bits."""
        from repro.cli import main
        from repro.core import HostDirectBackend
        from repro.errors import SimulationKilled

        spec = RunSpec(n=16, seed=5, dt_max=0.25)
        recipe = {**spec.to_config(), "backend": "spmd", "spmd_mode": "serial"}

        def managed(name, on_block=None):
            return ProductionRun(
                spec.simulation(HostDirectBackend(spec.eps)), tmp_path / name,
                checkpoint_interval=4, checkpoint_metadata=recipe,
                on_block=on_block,
            )

        ref = managed("ref")
        report = ref.execute(t_end=3.0)
        expected = state_digest(ref.sim.system, report.t_final, report.block_steps)

        blocks = [0]

        def killer(sim):
            blocks[0] += 1
            if blocks[0] == 6:
                raise SimulationKilled("power cut")

        with pytest.raises(SimulationKilled):
            managed("killed", killer).execute(t_end=3.0)

        finished, execute = [], ProductionRun.execute

        def recording_execute(run, t_end=None):
            report = execute(run, t_end)
            finished.append((run, report))
            return report

        monkeypatch.setattr(ProductionRun, "execute", recording_execute)
        assert main(["run", "--resume", str(tmp_path / "killed")]) == 0
        ((run, report),) = finished
        assert type(run.sim.backend) is HostDirectBackend
        assert report.block_steps == ref.sim.block_steps
        assert state_digest(run.sim.system, report.t_final,
                            report.block_steps) == expected
