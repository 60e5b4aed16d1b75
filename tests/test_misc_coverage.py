"""Gap-filling tests for smaller public-surface paths."""

import numpy as np
import pytest

from repro import quick_simulation
from repro.core import energy
from repro.errors import CommError, ConfigurationError
from repro.parallel import (
    ProgramContext,
    VirtualMachine,
    naive_copy_program,
    strategy_step,
)


class TestQuickSimulation:
    def test_facade_builds_and_runs(self):
        sim = quick_simulation(n=48, seed=3)
        assert sim.system.n == 50  # + 2 protoplanets
        e0 = energy(sim.system, sim.backend.eps, sim.external_field).total
        sim.evolve(5.0)
        sim.synchronize(5.0)
        e1 = energy(sim.system, sim.backend.eps, sim.external_field).total
        assert abs(e1 - e0) / abs(e0) < 1e-8

    def test_custom_eps(self):
        sim = quick_simulation(n=16, seed=1, eps=0.05)
        assert sim.backend.eps == 0.05


class TestCommSimulatorEdges:
    """Edge cases of the VM's per-link accounting, which replaced the
    phase simulator."""

    def test_reset(self):
        """Runs share no state: a second run counts from zero."""
        vm = VirtualMachine(4)
        ctx = ProgramContext(params={"hosts": 2, "n_active": 10})
        first = vm.run(naive_copy_program, ctx)
        second = vm.run(naive_copy_program, ctx)
        assert second.clock == first.clock
        assert second.link_bytes == first.link_bytes

    def test_empty_phase(self):
        def quiet(comm, ctx):
            return
            yield

        res = VirtualMachine(3, links={}).run(quiet, ProgramContext())
        assert res.clock == [0.0, 0.0, 0.0]
        assert res.total_bytes == 0
        assert not res.link_bytes

    def test_edge_bytes_accumulate(self):
        def twice(comm, ctx):
            if comm.rank == 0:
                yield comm.send(1, b"x" * 100)
                yield comm.send(1, b"x" * 150)
            else:
                yield comm.recv(0)
                yield comm.recv(0)

        res = VirtualMachine(2).run(twice, ProgramContext())
        assert res.link_bytes == {(0, 1): 250}

    def test_broadcast_excludes_root(self):
        res, _ = strategy_step("naive-copy", 3, 30)
        assert all(src != dst for src, dst in res.link_bytes)
        assert len(res.link_bytes) == 3 * 2


class TestEventOrderingAndEdgeCases:
    def test_simulation_events_time_ordered(self):
        """Events accumulated over a run carry non-decreasing times."""
        from repro.core import (
            CollisionPolicy,
            HostDirectBackend,
            KeplerField,
            ParticleSystem,
            Simulation,
            TimestepParams,
        )

        rng = np.random.default_rng(4)
        n = 8
        pos = np.array([20.0, 0.0, 0.0]) + 0.01 * rng.normal(size=(n, 3))
        vel = np.tile([0.0, 1 / np.sqrt(20.0), 0.0], (n, 1))
        s = ParticleSystem(np.full(n, 1e-8), pos, vel)
        sim = Simulation(
            s, HostDirectBackend(eps=1e-6),
            external_field=KeplerField(),
            timestep_params=TimestepParams(dt_max=0.25),
            collision_policy=CollisionPolicy(f_enhance=100.0),
        )
        sim.initialize()
        sim.evolve(30.0)
        times = [e.time for e in sim.events]
        assert times == sorted(times)

    def test_scheduler_peek_matches_next(self):
        from repro.core.scheduler import BlockScheduler

        rng = np.random.default_rng(5)
        t = np.zeros(10)
        dt = 2.0 ** rng.integers(-6, 0, 10).astype(float)
        s = BlockScheduler()
        assert s.peek_time(t, dt) == s.next_block(t, dt)[0]


class TestStrategyLargeP:
    def test_strategies_at_p64(self):
        from repro.parallel import HOST_STRATEGIES, strategies_for

        assert strategies_for(64) == list(HOST_STRATEGIES)
        for name in strategies_for(64):
            res, nic = strategy_step(name, 64, 2000)
            assert max(res.clock) > 0
            assert nic >= 0


class TestNetworkModes:
    def test_reduce_time_positive(self, rng):
        from repro.grape.board import ProcessorBoard
        from repro.grape.network import NetworkBoard

        boards = [ProcessorBoard(board_id=b, eps=0.01, n_chips=1) for b in range(2)]
        nb = NetworkBoard(nb_id=0, targets=boards)
        t = nb.reduce_time(9000)
        assert t > 0
        assert nb.uplink.bytes_total == 9000

    def test_reset_counters_recursive(self, rng):
        from repro.grape.board import ProcessorBoard
        from repro.grape.network import NetworkBoard

        boards = [ProcessorBoard(board_id=0, eps=0.01, n_chips=1)]
        nb = NetworkBoard(nb_id=0, targets=boards)
        nb.broadcast_time(100)
        nb.reset_counters()
        assert nb.comm_seconds == 0.0
        assert all(l.bytes_total == 0 for l in nb.downlinks)
