"""Integration tests: instrumentation wired through the stack.

Covers the acceptance criteria of the observability PR: the Prometheus
totals reproduce the GRAPE timing-model breakdown to within 1%, the
Chrome-trace export of a real run is well-formed, and the disabled
(null) instrumentation does not measurably slow the scaled run.
"""

import json
import time

import numpy as np
import pytest

from repro.core import HostDirectBackend
from repro.grape import Grape6Backend, Grape6Config, Grape6Machine
from repro.obs import Observability, parse_prometheus
from repro.parallel import ring_forces
from repro.perf import run_scaled_disk

from conftest import make_random_cluster
from test_obs import _assert_properly_nested


def run_grape(obs, n=48, t_end=2.0):
    machine = Grape6Machine(Grape6Config.paper_full_system(), eps=0.008)
    backend = Grape6Backend(machine)
    res = run_scaled_disk(backend, n=n, t_end=t_end, obs=obs)
    return res, machine


class TestGrapeMetrics:
    def test_prometheus_reproduces_timing_totals(self, tmp_path):
        obs = Observability()
        res, machine = run_grape(obs)
        path = tmp_path / "metrics.prom"
        obs.export_prometheus(path)
        prom = parse_prometheus(path)
        totals = machine.totals
        comm = totals.pci + totals.lvds + totals.gbe
        assert prom["grape_pipeline_seconds"] == pytest.approx(totals.pipe, rel=0.01)
        assert prom["grape_host_seconds"] == pytest.approx(totals.host, rel=0.01)
        assert prom["grape_comm_seconds"] == pytest.approx(comm, rel=0.01)
        assert prom["grape_interactions_total"] == totals.interactions
        assert prom["grape_blocks_total"] == totals.blocks

    def test_integrator_counters_match_sim(self):
        obs = Observability()
        res, _ = run_grape(obs)
        snap = res.metrics
        assert snap["blockstep.total"] == res.sim.block_steps
        assert snap["blockstep.active_particles"] == res.sim.particle_steps
        # the scheduler histogram saw exactly the block-loop blocks
        assert snap["scheduler.block_size.count"] == res.sim.block_steps
        assert snap["run.particles"] == res.sim.system.n

    def test_model_spans_sum_to_totals(self):
        obs = Observability()
        _, machine = run_grape(obs)
        pipe = obs.tracer.total_seconds("grape.pipeline", track="model")
        assert pipe == pytest.approx(machine.totals.pipe, rel=1e-6, abs=2e-9)
        blocks = [s for s in obs.tracer.spans if s.name == "grape.block_step"]
        assert len(blocks) == machine.totals.blocks

    def test_breakdown_renders_from_run(self):
        obs = Observability()
        run_grape(obs)
        text = obs.render_time_breakdown()
        assert "t_pipe" in text and "of peak" in text


class TestTraceSchema:
    def test_chrome_trace_of_real_run_is_nested(self, tmp_path):
        obs = Observability()
        run_grape(obs)
        path = obs.export_chrome_trace(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events, "trace must contain spans"
        names = {e["name"] for e in events}
        for expected in ("run", "block_step", "predict", "force", "correct",
                         "grape.block_step", "grape.pipeline"):
            assert expected in names, expected
        for tid in sorted({e["tid"] for e in events}):
            _assert_properly_nested([e for e in events if e["tid"] == tid])

    def test_wall_phases_inside_block_step(self):
        obs = Observability()
        run_grape(obs)
        wall = obs.tracer.of_track("wall")
        blocks = [s for s in wall if s.name == "block_step"]
        phases = [s for s in wall if s.name in ("predict", "force", "correct")]
        assert blocks and phases
        for p in phases:
            assert any(
                b.ts_ns <= p.ts_ns and p.ts_ns + p.dur_ns <= b.ts_ns + b.dur_ns
                for b in blocks
            ), f"phase {p.name} not nested in any block_step"


class TestCommInstrumentation:
    def test_ring_forces_metrics(self):
        obs = Observability()
        cluster = make_random_cluster(24, seed=7)
        result = ring_forces(
            cluster.pos, cluster.vel, cluster.mass, eps=0.01, n_ranks=4, obs=obs
        )
        snap = obs.metrics.snapshot()
        assert snap["comm.bytes_sent"] == result.total_bytes
        assert snap["comm.messages_total"] == result.messages
        assert any(s.name == "ring.forces" for s in obs.tracer.spans)


class TestOverheadGuard:
    def test_disabled_instrumentation_is_not_slower(self):
        """Null-object instrumentation must not slow the scaled run.

        The enabled run does strictly more work (span bookkeeping,
        counter updates), so the disabled run must not be meaningfully
        slower than it; the generous margin absorbs scheduler noise.
        """

        def timed(obs):
            best = float("inf")
            for _ in range(3):
                backend = HostDirectBackend(eps=0.008)
                t0 = time.perf_counter()
                run_scaled_disk(
                    backend, n=128, t_end=2.0, obs=obs,
                    measure_energy=False, max_block_steps=40,
                )
                best = min(best, time.perf_counter() - t0)
            return best

        t_disabled = timed(None)
        t_enabled = timed(Observability())
        assert t_disabled <= t_enabled * 1.25 + 0.05

    def test_null_counter_inc_is_cheap(self):
        # a crude ceiling: 100k null incs must stay well under 100 ms
        from repro.obs import NULL_REGISTRY

        c = NULL_REGISTRY.counter("blockstep.total")
        t0 = time.perf_counter()
        for _ in range(100_000):
            c.inc()
        assert time.perf_counter() - t0 < 0.1


class TestEscapeEventCounters:
    def test_escape_counter_increments(self):
        obs = Observability()
        backend = HostDirectBackend(eps=0.008)
        res = run_scaled_disk(backend, n=32, t_end=1.0, obs=obs)
        sim = res.sim
        # fling one particle out and prune it
        sim.system.pos[0] = np.array([80.0, 0.0, 0.0])
        sim.system.vel[0] = np.array([0.0, 1.0, 0.0])  # v^2/2 > M/r
        removed = sim.remove_escapers()
        assert removed == 1
        assert obs.metrics.snapshot()["events.escape_total"] == 1.0
