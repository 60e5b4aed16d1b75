"""Tests for the supervised multiprocess SPMD engine.

Covers the robustness contract of :mod:`repro.parallel.proc`: VM/process
parity on the shared rank programs, superstep-tagged protocol checking
across real processes, bounded op timeouts, seeded rank kills with
journal-replay restart, heartbeat-stall lease expiry, message delays,
and graceful degrade to the in-process scheduler.
"""

import os
import signal
import subprocess
import sys
from multiprocessing import shared_memory

import numpy as np
import pytest
from conftest import shm_segments, spmd_leak_guard, spmd_rank_children

from repro.errors import SpmdError, SpmdProtocolError, SpmdTimeoutError
from repro.parallel import (
    ProcConfig,
    ProcEngine,
    ProgramContext,
    VirtualMachine,
    partition_bounds,
    ring_force_program,
)
from repro.parallel.programs import grid_force_program
from repro.resilience import FaultInjector, FaultKind, FaultPlan, FaultSpec


def _cluster(n=60, seed=7):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=(n, 3)),
        rng.normal(size=(n, 3)),
        rng.uniform(0.5, 1.5, n),
    )


def _engine(n_ranks, cfg=None, injector=None, arrays=()):
    eng = ProcEngine(n_ranks, cfg, injector=injector)
    for name, arr in arrays:
        eng.share(name, arr)
    return eng


def _allreduce_gather(comm, ctx):
    total = yield comm.allreduce(float(comm.rank + 1))
    gathered = yield comm.allgather(comm.rank * 10)
    yield comm.barrier()
    return (total, gathered)


def _mismatched(comm, ctx):
    if comm.rank == 0:
        yield comm.barrier()
    else:
        yield comm.allreduce(1.0)
    return None


def _returns_early(comm, ctx):
    if comm.rank == 1:
        yield comm.barrier()
    return None


def _stuck_recv(comm, ctx):
    if comm.rank == 0:
        yield comm.recv(1)
    yield comm.barrier()
    return None


def _die_once(comm, ctx):
    # rank 1 SIGKILLs itself the first time through; the shared flag
    # makes the restarted incarnation take the live path, so the ops
    # before the kill must be served from the replay journal
    flag = ctx.arrays["flag"]
    total = yield comm.allreduce(float(comm.rank + 1))
    if comm.rank == 1 and flag[0] == 0:
        flag[0] = 1
        os.kill(os.getpid(), signal.SIGKILL)
    if comm.rank == 0:
        yield comm.send(1, total * 2)
    elif comm.rank == 1:
        got = yield comm.recv(0)
        total = total + got
    gathered = yield comm.allgather(total)
    return gathered


def _die_repeatedly(comm, ctx):
    total = yield comm.allreduce(float(comm.rank + 1))
    if comm.rank == 1 and ctx.arrays["flag"][0] < 2:
        ctx.arrays["flag"][0] += 1
        os.kill(os.getpid(), signal.SIGKILL)
    out = yield comm.allgather(total)
    return out


class TestProcBasics:
    def test_collectives_match_vm_semantics(self):
        with _engine(3, ProcConfig(op_timeout=20.0)) as eng:
            res = eng.run(_allreduce_gather)
        assert res.returns == [(6.0, [0, 10, 20])] * 3
        assert res.supersteps == 3
        assert res.wall_seconds > 0
        assert not res.degraded

    def test_single_rank(self):
        with _engine(1) as eng:
            res = eng.run(_allreduce_gather)
        assert res.returns == [(1.0, [0])]

    def test_engine_reusable_and_superstep_cumulative(self):
        with _engine(2) as eng:
            eng.run(_allreduce_gather)
            eng.run(_allreduce_gather)
            assert eng.supersteps == 6

    def test_closed_engine_rejects_runs(self):
        eng = _engine(2)
        eng.close()
        with pytest.raises(SpmdError, match="closed"):
            eng.run(_allreduce_gather)

    def test_shared_array_refresh(self):
        a = np.arange(6, dtype=float)
        eng = _engine(2, arrays=[("x", a)])

        def reader(comm, ctx):
            yield comm.barrier()
            return float(ctx.arrays["x"].sum())

        try:
            assert eng.run(reader).returns == [15.0, 15.0]
            eng.share("x", a * 10)  # refresh in place
            assert eng.run(reader).returns == [150.0, 150.0]
        finally:
            eng.close()


class TestProcParity:
    """The same program yields the same bits on VM and processes."""

    def test_ring_program_bit_identical(self):
        pos, vel, mass = _cluster()
        params = {"eps": 0.01, "bounds": partition_bounds(len(pos), 3)}
        ctx = ProgramContext(
            arrays={"pos": pos, "vel": vel, "mass": mass}, params=params
        )
        vm_res = VirtualMachine(n_ranks=3).run(ring_force_program, ctx)
        with _engine(
            3, arrays=[("pos", pos), ("vel", vel), ("mass", mass)]
        ) as eng:
            proc_res = eng.run(ring_force_program, params)
        for (lo, hi, a, j), (plo, phi, pa, pj) in zip(
            vm_res.returns[0], proc_res.returns[0]
        ):
            assert (lo, hi) == (plo, phi)
            assert np.array_equal(a, pa)
            assert np.array_equal(j, pj)

    def test_grid_program_bit_identical(self):
        pos, vel, mass = _cluster(n=40)
        q = 2
        params = {
            "eps": 0.01,
            "q": q,
            "bounds": partition_bounds(len(pos), q),
        }
        ctx = ProgramContext(
            arrays={"pos": pos, "vel": vel, "mass": mass}, params=params
        )
        vm_res = VirtualMachine(n_ranks=q * q).run(grid_force_program, ctx)
        with _engine(
            q * q, arrays=[("pos", pos), ("vel", vel), ("mass", mass)]
        ) as eng:
            proc_res = eng.run(grid_force_program, params)
        for vm_item, proc_item in zip(vm_res.returns[0], proc_res.returns[0]):
            if vm_item is None:
                assert proc_item is None
                continue
            assert (vm_item[0], vm_item[1]) == (proc_item[0], proc_item[1])
            assert np.array_equal(vm_item[2], proc_item[2])
            assert np.array_equal(vm_item[3], proc_item[3])


def _run_on(scheduler, program):
    if scheduler == "vm":
        return VirtualMachine(2).run(program, ProgramContext())
    with _engine(2, ProcConfig(op_timeout=20.0)) as eng:
        return eng.run(program)


class TestProcProtocol:
    @pytest.mark.parametrize("scheduler", ["vm", "proc"])
    @pytest.mark.parametrize("program, message, blocked", [
        (_mismatched,
         "collective mismatch across ranks: [('allreduce', 0), ('barrier', 0)]",
         {0: "barrier@s0", 1: "allreduce@s0"}),
        (_returns_early,
         "collective mismatch: ranks [1] wait on barrier@s0 but ranks [0] "
         "already returned without posting it",
         {1: "barrier@s0"}),
    ], ids=["mismatched", "returns_early"])
    def test_collective_mismatch_is_structured(self, scheduler, program,
                                               message, blocked):
        """Both schedulers raise the same error from the same rules."""
        with pytest.raises(SpmdProtocolError) as exc:
            _run_on(scheduler, program)
        assert type(exc.value) is SpmdProtocolError
        assert str(exc.value) == message
        assert exc.value.blocked == blocked

    def test_only_the_exchange_resolves_collectives(self):
        """The supervisor matches through ``spmd._Exchange``: no mail of
        its own, no collective kind it resolves itself."""
        import ast

        import repro.parallel.proc as proc

        with open(proc.__file__) as fh:
            tree = ast.parse(fh.read())
        kinds = {"barrier", "bcast", "allgather", "reduce", "allreduce"}
        names = {"mail", "_complete_collective"}
        offenders = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in kinds:
                offenders.append(f"{node.value!r} at line {node.lineno}")
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None) or getattr(node, "arg", None))
            if name in names:
                offenders.append(f"{name} at line {node.lineno}")
        assert offenders == []

    def test_recv_from_returned_peer_times_out_with_context(self):
        with _engine(2, ProcConfig(op_timeout=0.5)) as eng:
            with pytest.raises(SpmdTimeoutError, match="recv"):
                eng.run(_stuck_recv)

    def test_worker_exception_propagates(self):
        def boom(comm, ctx):
            yield comm.barrier()
            raise ValueError("worker-side failure")

        with _engine(2) as eng:
            with pytest.raises(SpmdError, match="worker-side failure"):
                eng.run(boom)


class TestRankDeathRecovery:
    def test_sigkill_restart_replays_journal(self):
        with _engine(
            3,
            ProcConfig(op_timeout=20.0, lease_seconds=3.0, max_restarts=2),
            arrays=[("flag", np.zeros(1))],
        ) as eng:
            res = eng.run(_die_once)
        assert res.returns == [[6.0, 18.0, 6.0]] * 3
        assert res.deaths == 1
        assert res.restarts == 1
        assert res.replayed_ops >= 1
        assert not res.degraded
        assert res.recovery_seconds > 0

    def test_restart_budget_exhaustion_degrades_bit_identically(self):
        with _engine(
            3,
            ProcConfig(op_timeout=20.0, lease_seconds=3.0, max_restarts=1),
            arrays=[("flag", np.zeros(1))],
        ) as eng:
            res = eng.run(_die_repeatedly)
        assert res.degraded
        assert res.deaths == 2
        # the degraded rerun still produces the correct (identical) data
        assert res.returns == [[6.0, 6.0, 6.0]] * 3

    def test_on_failure_raise(self):
        with _engine(
            2,
            ProcConfig(
                op_timeout=20.0, max_restarts=0, on_failure="raise"
            ),
            arrays=[("flag", np.zeros(1))],
        ) as eng:
            with pytest.raises(SpmdError, match="restart budget"):
                eng.run(_die_repeatedly)


class TestSeededRankFaults:
    def _forces_with_plan(self, plan, cfg):
        pos, vel, mass = _cluster(n=80, seed=11)
        params = {"eps": 0.01, "bounds": partition_bounds(len(pos), 4)}
        ctx = ProgramContext(
            arrays={"pos": pos, "vel": vel, "mass": mass}, params=params
        )
        ref = VirtualMachine(n_ranks=4).run(ring_force_program, ctx).returns
        with _engine(
            4,
            cfg,
            injector=FaultInjector(plan),
            arrays=[("pos", pos), ("vel", vel), ("mass", mass)],
        ) as eng:
            res = eng.run(ring_force_program, params)
        for (lo, hi, a, j), (plo, phi, pa, pj) in zip(
            ref[0], res.returns[0]
        ):
            assert (lo, hi) == (plo, phi)
            assert np.array_equal(a, pa)
            assert np.array_equal(j, pj)
        return res

    def test_rank_kill_recovers_bit_identically(self):
        plan = FaultPlan(
            [FaultSpec(FaultKind.RANK_KILL, at_block=0, target=1)], seed=3
        )
        res = self._forces_with_plan(
            plan, ProcConfig(op_timeout=20.0, lease_seconds=3.0)
        )
        assert res.deaths >= 1
        assert res.restarts >= 1

    def test_rank_stall_expires_lease_and_recovers(self):
        plan = FaultPlan(
            [FaultSpec(FaultKind.RANK_STALL, at_block=0, target=2)], seed=3
        )
        res = self._forces_with_plan(
            plan,
            ProcConfig(op_timeout=30.0, lease_seconds=0.5),
        )
        assert res.heartbeat_expiries >= 1
        assert res.restarts >= 1

    def test_msg_delay_is_transparent(self):
        plan = FaultPlan(
            [
                FaultSpec(
                    FaultKind.MSG_DELAY,
                    at_block=0,
                    target=0,
                    params={"seconds": 0.1},
                )
            ],
            seed=3,
        )
        res = self._forces_with_plan(plan, ProcConfig(op_timeout=20.0))
        assert res.deaths == 0

    def test_rank_kinds_not_fired_in_machine_domain(self):
        # a rank fault in the plan must not leak into apply_due()
        plan = FaultPlan(
            [FaultSpec(FaultKind.RANK_KILL, at_block=0, target=0)], seed=0
        )
        inj = FaultInjector(plan)
        inj.apply_due(100)  # machine domain: nothing should fire
        assert plan.n_pending == 1
        fired = inj.rank_actions(0)
        assert [s.kind for s in fired] == [FaultKind.RANK_KILL]
        assert plan.n_pending == 0


# -- gang lifetime -----------------------------------------------------------


def _rank_pids():
    return sorted(c.pid for c in spmd_rank_children())


def _sum_x(comm, ctx):
    total = yield comm.allreduce(float(ctx.arrays["x"].sum()) + comm.rank)
    return total


def _raises(comm, ctx):
    yield comm.barrier()
    raise ValueError("worker-side failure")


def _pid_alive(pid: int) -> bool:
    """False once the process is gone or a zombie nobody reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


class TestGangLifetime:
    """The gang is forked once per program, not once per run."""

    def test_runs_of_one_program_share_the_gang(self):
        from repro.obs import Observability

        obs = Observability()
        with ProcEngine(3, obs=obs) as eng:
            eng.share("x", np.ones(4))
            first = eng.run(_sum_x)
            pids = _rank_pids()
            assert len(pids) == 3
            for _ in range(5):
                assert eng.run(_sum_x).returns == first.returns
                assert _rank_pids() == pids
        assert obs.metrics.snapshot()["spmd.gang_forks_total"] == 3

    def test_share_reuses_capacity_across_shapes(self):
        def shape_of(comm, ctx):
            yield comm.barrier()
            return ctx.arrays["x"].shape, float(ctx.arrays["x"].sum())

        with ProcEngine(2) as eng:
            eng.share("x", np.arange(12.0).reshape(4, 3))
            assert eng.run(shape_of).returns[1] == ((4, 3), 66.0)
            name = eng._manifest()["x"][0]
            eng.share("x", np.arange(5.0))        # smaller: same segment
            assert eng.run(shape_of).returns[1] == ((5,), 10.0)
            assert eng._manifest()["x"][0] == name
            eng.share("x", np.ones(40))           # outgrown: replaced once
            assert eng.run(shape_of).returns[1] == ((40,), 40.0)
            assert eng._manifest()["x"][0] != name

    def test_idle_worker_sigkill_is_counted_and_restarted(self):
        with ProcEngine(2, ProcConfig(op_timeout=20.0)) as eng:
            eng.share("x", np.arange(6.0))
            clean = eng.run(_sum_x)
            assert (clean.deaths, clean.restarts) == (0, 0)
            victim = spmd_rank_children()[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            res = eng.run(_sum_x)
            assert (res.deaths, res.restarts) == (1, 1)
            assert not res.degraded
            assert res.returns == clean.returns
            assert len(_rank_pids()) == 2

    def test_switching_program_replaces_the_gang(self):
        with ProcEngine(2) as eng:
            eng.share("x", np.ones(3))
            eng.run(_sum_x)
            before = _rank_pids()
            assert eng.run(_allreduce_gather).returns == [(3.0, [0, 10])] * 2
            after = _rank_pids()
            assert len(after) == 2
            assert not set(before) & set(after)

    @pytest.mark.parametrize("bad", [_mismatched, _raises])
    def test_failed_run_retires_the_gang(self, bad):
        with ProcEngine(2, ProcConfig(op_timeout=20.0)) as eng:
            eng.run(_allreduce_gather)
            with pytest.raises(SpmdError):  # SpmdProtocolError is one
                eng.run(bad)
            assert spmd_rank_children() == []
            res = eng.run(_allreduce_gather)
            assert res.returns == [(3.0, [0, 10])] * 2
            assert (res.deaths, res.restarts) == (0, 0)

    def test_close_is_idempotent_and_leaves_no_child(self):
        import multiprocessing

        eng = ProcEngine(2)
        eng.run(_allreduce_gather)
        assert len(spmd_rank_children()) == 2
        eng.close()
        eng.close()
        assert multiprocessing.active_children() == []

    def test_unpicklable_params_raise(self):
        with ProcEngine(2) as eng:
            with pytest.raises(SpmdError, match="pickle"):
                eng.run(_allreduce_gather, {"callback": lambda: None})
            assert eng.run(_allreduce_gather).returns == [(3.0, [0, 10])] * 2

    def test_workers_exit_when_the_supervisor_is_killed(self):
        import subprocess
        import sys
        import time

        lease = 1.0
        script = (
            "import multiprocessing, sys, time\n"
            "from repro.parallel import ProcConfig, ProcEngine\n"
            "def prog(comm, ctx):\n"
            "    yield comm.barrier()\n"
            f"eng = ProcEngine(2, ProcConfig(lease_seconds={lease}))\n"
            "eng.run(prog)\n"
            "print(*[c.pid for c in multiprocessing.active_children()],"
            " flush=True)\n"
            "time.sleep(60)\n"
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            pids = [int(p) for p in parent.stdout.readline().split()]
            assert len(pids) == 2 and all(_pid_alive(p) for p in pids)
            parent.kill()  # SIGKILL: no atexit, no close()
            parent.wait(timeout=10.0)
            deadline = time.monotonic() + lease
            while time.monotonic() < deadline and any(map(_pid_alive, pids)):
                time.sleep(0.02)
            assert not any(map(_pid_alive, pids))
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()


class TestLeakGuard:
    """The autouse guard answers for segments the test process created,
    not for every ``psm_*`` file that appears in ``/dev/shm``."""

    def test_own_leaked_segment_fails_and_is_unlinked(self):
        with pytest.raises(pytest.fail.Exception, match="shared-memory"):
            with spmd_leak_guard():
                leaked = shared_memory.SharedMemory(create=True, size=8)
        leaked.close()
        assert leaked.name not in shm_segments()

    def test_another_process_segment_is_left_alone(self):
        child = subprocess.Popen(
            [sys.executable, "-c",
             "import sys\n"
             "from multiprocessing import shared_memory\n"
             "seg = shared_memory.SharedMemory(create=True, size=8)\n"
             "print(seg.name, flush=True)\n"
             "sys.stdin.read()\n"
             "seg.close()\n"
             "seg.unlink()\n"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            with spmd_leak_guard():  # fails the test if it counts the segment
                name = child.stdout.readline().strip()
                assert name in shm_segments()
            assert name in shm_segments()
        finally:
            child.communicate("", timeout=30)
        assert child.returncode == 0  # its own unlink found the segment
