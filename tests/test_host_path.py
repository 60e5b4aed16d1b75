"""The O(n_active) host path: kept update times and the one-gather step.

Two claims, each held to an independent oracle:

* the ``t + dt`` array :class:`BlockScheduler` keeps between blocks is,
  after every block, what a fresh ``t + dt`` would be, and the blocks it
  hands out are the ones a scheduler that keeps nothing hands out —
  through mergers, a mid-run ``synchronize``, ``remove_escapers`` and a
  kill-and-resume;
* ``Simulation.step`` and ``Simulation.synchronize`` leave, block for
  block, the bits the parent commit's ``step`` and ``synchronize``
  leave (``tests/_step_oracle.py``, verbatim copies with the timestep
  functions they called) — on the native step (one ``_tile.c`` call
  either side of the force) as on the NumPy twins, and they raise what
  that step raises with nothing written.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.accel import native
from repro.core import (
    CollisionPolicy,
    CompositeField,
    HostDirectBackend,
    KeplerField,
    ParticleSystem,
    Simulation,
    TimestepParams,
)
from repro.core import integrator
from repro.core.scheduler import BlockScheduler
from repro.errors import ConfigurationError, IntegrationError, SchedulerError
from repro.grape import Grape6Backend, Grape6Config, Grape6Machine
from repro.parallel import SpmdBackend
from repro.planetesimal import PlanetesimalDiskConfig, build_disk_system
from repro.resilience import CheckpointManager

from _step_oracle import parent_step, parent_synchronize

STATE = ("mass", "pos", "vel", "acc", "jerk", "t", "dt", "key")


def eventful_sim(**kwargs) -> Simulation:
    """A seeded disk plus a pair bound to merge and a hyperbolic
    runaway, so one run passes through every writer of ``t`` / ``dt``."""
    disk = build_disk_system(PlanetesimalDiskConfig(n_planetesimals=128, seed=1))
    v20 = 1.0 / np.sqrt(20.0)
    extra_pos = [[20.0, 0.0, 0.0], [20.001, 0.0, 0.0], [80.0, 0.0, 0.0]]
    extra_vel = [[0.0, v20, 0.0], [0.0, 0.999 * v20, 0.0], [0.4, 0.0, 0.0]]
    system = ParticleSystem(
        np.concatenate([disk.mass, [1e-8, 1e-8, 1e-9]]),
        np.concatenate([disk.pos, extra_pos]),
        np.concatenate([disk.vel, extra_vel]),
    )
    sim = Simulation(
        system, HostDirectBackend(eps=1e-5), external_field=KeplerField(),
        timestep_params=TimestepParams(dt_max=16.0),
        collision_policy=CollisionPolicy(f_enhance=400.0), **kwargs,
    )
    sim.initialize()
    return sim


BACKENDS = {
    "host": lambda: HostDirectBackend(eps=0.008),
    "grape": lambda: Grape6Backend(
        Grape6Machine(Grape6Config.single_node(), eps=0.008, mode="flat")),
    "spmd-vm": lambda: SpmdBackend(0.008, n_ranks=3, mode="vm"),
}


def quiet_sim(backend="host", field=KeplerField, **kwargs) -> Simulation:
    """A seeded disk with no collision policy (one corrector pass
    unless ``kwargs`` say otherwise)."""
    disk = build_disk_system(PlanetesimalDiskConfig(n_planetesimals=64, seed=3))
    sim = Simulation(disk, BACKENDS[backend](), external_field=field(),
                     timestep_params=TimestepParams(dt_max=16.0), **kwargs)
    sim.initialize()
    return sim


def close(*sims) -> None:
    for sim in sims:
        getattr(sim.backend, "close", lambda: None)()


class CheckedRun:
    """Steps a simulation and audits its scheduler around every block."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.blocks: list[tuple[float, tuple]] = []
        self.warm = 0
        handed_out = self.handed_out = []
        next_block = sim.scheduler.next_block

        def spy(t, dt):
            block = next_block(t, dt)
            handed_out.append(block)
            return block

        sim.scheduler.next_block = spy

    def step(self) -> None:
        sim = self.sim
        system = sim.system
        # what a scheduler that keeps nothing says, from copies
        want_t, want_rows = BlockScheduler().next_block(
            system.t.copy(), system.dt.copy())
        self.warm += sim.scheduler._kept(system.t, system.dt) is not None
        t_next, size = sim.step()
        got_t, got_rows = self.handed_out.pop()
        assert not self.handed_out
        assert got_t == want_t == t_next
        assert np.array_equal(got_rows, want_rows) and size == want_rows.size
        self.blocks.append((t_next, tuple(got_rows)))
        self.audit()

    def audit(self) -> None:
        """Whatever the scheduler would use next is a fresh ``t + dt``."""
        system = self.sim.system
        kept = self.sim.scheduler._kept(system.t, system.dt)
        if kept is not None:
            assert np.array_equal(kept, system.t + system.dt)
            assert self.sim.scheduler.peek_time(system.t, system.dt) == float(
                (system.t + system.dt).min())

    def run(self, t_end: float) -> None:
        sim = self.sim
        while sim.scheduler.peek_time(sim.system.t, sim.system.dt) <= t_end:
            self.step()


def resume(sim: Simulation, directory) -> Simulation:
    """Kill-and-resume: through a checkpoint file, into new objects."""
    manager = CheckpointManager(directory)
    manager.write(sim.system, {"time": float(sim.time)})
    system, state = manager.load_latest()
    return Simulation.from_restart(
        system, HostDirectBackend(eps=1e-5), state["time"],
        external_field=KeplerField(), timestep_params=sim.params,
        collision_policy=CollisionPolicy(f_enhance=400.0),
        block_steps=sim.block_steps, particle_steps=sim.particle_steps,
        mergers=sim.mergers,
    )


class TestKeptUpdateTimes:
    def test_every_block_of_an_eventful_run(self, tmp_path):
        run = CheckedRun(eventful_sim())
        sim = run.sim
        n0 = sim.system.n

        run.run(150.0)
        merged_at = [e.time for e in sim.events.of_kind("merger")]
        assert sim.mergers == len(merged_at) == n0 - sim.system.n
        assert sum(t > 1.0 for t in merged_at) >= 1  # one in mid-run

        sim.synchronize()
        run.audit()
        assert sim.scheduler._kept(sim.system.t, sim.system.dt) is None
        run.run(300.0)

        assert sim.remove_escapers(r_min=50.0) == 1
        run.audit()
        assert sim.scheduler._kept(sim.system.t, sim.system.dt) is None
        run.run(450.0)

        twin = CheckedRun(resume(sim, tmp_path))
        mark = len(run.blocks)
        run.run(800.0)
        twin.run(800.0)
        assert twin.blocks == run.blocks[mark:]
        for name in STATE:
            assert np.array_equal(getattr(twin.sim.system, name),
                                  getattr(sim.system, name)), name

        # not vacuous: small blocks, and all but a handful found the kept
        # array valid (the first of each leg and the one after each
        # merger start cold)
        assert len(run.blocks) > 200
        assert np.median([len(rows) for _, rows in run.blocks]) <= 4
        cold = len(run.blocks) - run.warm
        assert 3 <= cold <= 3 + sim.mergers
        assert twin.warm == len(twin.blocks) - 1

    def test_peek_between_blocks_sees_the_committed_rows(self):
        sim = eventful_sim()
        for _ in range(20):
            sim.step()
            fresh = float((sim.system.t + sim.system.dt).min())
            assert sim.scheduler.peek_time(sim.system.t, sim.system.dt) == fresh
            assert sim.scheduler.peek_time(sim.system.t, sim.system.dt) == fresh

    def test_a_block_never_committed_is_recomputed(self):
        """A caller that writes the arrays itself (the property suites)
        is served from a fresh sum every time."""
        sched = BlockScheduler()
        t, dt = np.zeros(4), np.array([0.25, 0.5, 0.25, 1.0])
        t_next, rows = sched.next_block(t, dt)
        t[rows] = t_next
        dt[rows] = 0.125
        assert sched._kept(t, dt) is None
        t_next, rows = sched.next_block(t, dt)
        assert t_next == 0.375 and list(rows) == [0, 2]

    def test_other_arrays_start_cold(self):
        sched = BlockScheduler()
        t, dt = np.zeros(3), np.array([0.5, 0.25, 1.0])
        _, rows = sched.next_block(t, dt)
        t[rows] = 0.25
        sched.commit()
        assert sched._kept(t, dt) is not None
        assert sched._kept(t.copy(), dt) is None
        assert sched._kept(t, dt.copy()) is None
        sched.invalidate()
        assert sched._kept(t, dt) is None

    @pytest.mark.parametrize("bad_t, bad_dt", [
        (0.25, 0.0), (0.25, -0.5), (0.25, np.inf), (0.25, np.nan),
        (np.nan, 0.5), (np.inf, 0.5),
    ])
    def test_a_bad_row_raises_at_commit_and_again_after(self, bad_t, bad_dt):
        sched = BlockScheduler()
        t, dt = np.zeros(3), np.array([0.5, 0.25, 1.0])
        _, rows = sched.next_block(t, dt)
        t[rows], dt[rows] = bad_t, bad_dt
        with pytest.raises(SchedulerError):
            sched.commit()
        with pytest.raises(SchedulerError):
            sched.next_block(t, dt)

    @pytest.mark.parametrize("bad", [0.0, np.inf])
    def test_a_block_step_that_writes_a_bad_step_raises(self, monkeypatch, bad):
        sim = eventful_sim()
        sim.step()

        def bad_step(block_correct):
            def wrapped(system, active, *args):
                block_correct(system, active, *args)
                system.dt[active] = bad
            return wrapped

        # whichever corrector the block takes, the tile's or the twin
        tile = sim._tile
        if tile is not None:
            monkeypatch.setattr(sim, "_tile", SimpleNamespace(
                block_predict=tile.block_predict,
                block_correct=bad_step(tile.block_correct)))
        monkeypatch.setattr(integrator, "block_correct",
                            bad_step(integrator.block_correct))
        with pytest.raises(SchedulerError):
            sim.step()
        monkeypatch.undo()
        with pytest.raises(SchedulerError):  # the row is still there
            sim.step()


class TestStepMatchesParent:
    """``step()`` against the parent commit's, block for block, on the
    kernel tier the host has."""

    @staticmethod
    def _pair(**kwargs):
        return eventful_sim(**kwargs), eventful_sim(**kwargs)

    @staticmethod
    def _assert_same(new, old, block):
        assert new.time == old.time and new.system.n == old.system.n
        for name in STATE:
            assert np.array_equal(getattr(new.system, name),
                                  getattr(old.system, name)), (name, block)

    @staticmethod
    def _spy_on_the_twin(monkeypatch, sim) -> list:
        """The block of every call of the NumPy twin ``block_correct``."""
        calls, twin = [], integrator.block_correct

        def spy(*args):
            calls.append(sim.block_steps)
            return twin(*args)

        monkeypatch.setattr(integrator, "block_correct", spy)
        return calls

    @staticmethod
    def _assert_twin_calls(calls, blocks, passes):
        """None on the native tier (every block here is on the grid);
        every pass of every block on the NumPy tier."""
        if native.load() is not None:
            assert calls == []
        else:
            assert calls == [b for b in range(blocks) for _ in range(passes)]

    @pytest.mark.parametrize("iterations", [1, 2])
    def test_block_for_block(self, monkeypatch, iterations):
        new, old = self._pair(corrector_iterations=iterations)
        self._assert_same(new, old, "start")
        calls = self._spy_on_the_twin(monkeypatch, new)
        blocks = 300 if iterations == 1 else 120
        for block in range(blocks):
            assert new.step() == parent_step(old)
            self._assert_same(new, old, block)
        assert new.mergers == old.mergers >= 2
        self._assert_twin_calls(calls, blocks, iterations)

    def test_without_field_or_policy(self):
        def bare():
            disk = build_disk_system(
                PlanetesimalDiskConfig(n_planetesimals=32, seed=5))
            sim = Simulation(disk, HostDirectBackend(eps=0.008),
                             timestep_params=TimestepParams(dt_max=4.0))
            sim.initialize()
            return sim

        new, old = bare(), bare()
        for block in range(150):
            assert new.step() == parent_step(old)
            self._assert_same(new, old, block)

    @pytest.mark.parametrize("backend, field", [
        ("host", KeplerField),
        ("grape", KeplerField),
        ("spmd-vm", KeplerField),
        ("host", lambda: CompositeField([KeplerField()])),
    ])
    def test_backends_and_fields(self, monkeypatch, backend, field):
        new, old = quiet_sim(backend, field), quiet_sim(backend, field)
        calls = self._spy_on_the_twin(monkeypatch, new)
        try:
            # the native step wherever the tier has one, whatever the
            # field; the NumPy twins on the NumPy tier
            for block in range(200):
                assert new.step() == parent_step(old)
                self._assert_same(new, old, block)
            self._assert_twin_calls(calls, 200, 1)
        finally:
            close(new, old)


@pytest.mark.usefixtures("numpy_tier")
class TestStepMatchesParentNumpyTier(TestStepMatchesParent):
    """The same, without the compiled row kernel."""


class TestSynchronizeMatchesParent:
    """``synchronize()`` mid-run against the parent commit's, then the
    blocks after it against the parent's ``step``."""

    @pytest.mark.parametrize("iterations", [1, 2])
    @pytest.mark.parametrize("field", [
        KeplerField, lambda: CompositeField([KeplerField()]),
    ], ids=["kepler", "composite"])
    @pytest.mark.parametrize("on_grid", [True, False],
                             ids=["on-grid", "off-grid"])
    def test_mid_run(self, field, iterations, on_grid):
        """At a time every pending ``t - t_i`` is a power of two (the
        tile's step on the native tier) or some is not (the twins)."""
        new, old = (quiet_sim(field=field, corrector_iterations=iterations)
                    for _ in range(2))
        for block in range(200):
            assert new.step() == parent_step(old)
            dt = new.time - new.system.t[new.system.t < new.time]
            if (block >= 30 and dt.size > 1
                    and (np.frexp(dt)[0] == 0.5).all() == on_grid):
                break
        else:
            pytest.fail("no block left the wanted pending steps")
        new.synchronize()
        parent_synchronize(old)
        TestStepMatchesParent._assert_same(new, old, "synchronize")
        assert new.particle_steps == old.particle_steps
        for block in range(50):
            assert new.step() == parent_step(old)
            TestStepMatchesParent._assert_same(new, old, block)


@pytest.mark.usefixtures("numpy_tier")
class TestSynchronizeMatchesParentNumpyTier(TestSynchronizeMatchesParent):
    """The same, without the compiled row kernel."""


ARRAYS = ("pos", "vel", "acc", "jerk", "t", "dt")


class TestStepErrors:
    """What the step raises, and that it writes nothing first; on the
    native step here, on the NumPy step in the subclass."""

    @staticmethod
    def _running() -> Simulation:
        sim = quiet_sim()
        for _ in range(5):
            sim.step()
        return sim

    @staticmethod
    def _next_rows(sim) -> np.ndarray:
        return BlockScheduler().next_block(sim.system.t.copy(),
                                           sim.system.dt.copy())[1]

    @staticmethod
    def _state(sim) -> dict:
        return {name: getattr(sim.system, name).copy() for name in ARRAYS}

    @staticmethod
    def _assert_unchanged(sim, state) -> None:
        for name in ARRAYS:
            assert np.array_equal(getattr(sim.system, name), state[name]), name

    def test_a_particle_at_the_origin(self):
        sim = self._running()
        row = self._next_rows(sim)[0]
        for name in ("pos", "vel", "acc", "jerk"):
            getattr(sim.system, name)[row] = 0.0
        sim.scheduler.invalidate()
        state = self._state(sim)
        with pytest.raises(ConfigurationError, match="origin"):
            sim.step()
        self._assert_unchanged(sim, state)

    @staticmethod
    def _poison_the_last_row(sim) -> None:
        """The backend's force on the last row it is asked for is NaN."""
        forces_on = sim.backend.forces_on

        def poisoned(system, active, t_now):
            acc, jerk = forces_on(system, active, t_now)
            acc = acc.copy()
            acc[-1, 1] = np.nan
            return acc, jerk

        sim.backend.forces_on = poisoned

    def test_a_non_finite_row_writes_no_row(self):
        sim = self._running()
        while self._next_rows(sim).size < 2:  # poison the last of several
            sim.step()
        self._poison_the_last_row(sim)
        state, kept = self._state(sim), sim.scheduler._t_next.copy()
        with pytest.raises(IntegrationError, match="non-finite"):
            sim.step()
        self._assert_unchanged(sim, state)
        assert np.array_equal(sim.scheduler._t_next, kept)

    def test_synchronize_a_non_finite_row_writes_no_row(self):
        """Where the parent wrote the NaN, ``synchronize`` raises and
        leaves every array as it was, ``dt`` included."""
        sim = self._running()
        while (sim.system.t < sim.time).sum() < 2:  # several pending rows
            sim.step()
        self._poison_the_last_row(sim)
        state = self._state(sim)
        with pytest.raises(IntegrationError, match="non-finite"):
            sim.synchronize()
        self._assert_unchanged(sim, state)

    def test_an_active_row_out_of_range(self, monkeypatch):
        sim = self._running()
        n = sim.system.n
        monkeypatch.setattr(sim.scheduler, "next_block",
                            lambda t, dt: (float(t[0] + dt[0]), np.array([0, n])))
        state = self._state(sim)
        with pytest.raises(IndexError):
            sim.step()
        self._assert_unchanged(sim, state)

    def test_a_step_off_the_block_grid_takes_the_numpy_step(self, monkeypatch):
        new, old = quiet_sim(), quiet_sim()
        for sim in (new, old):
            row = int(np.argmin(sim.system.t + sim.system.dt))
            sim.system.dt[row] *= 0.75
            sim.scheduler.invalidate()
        numpy_blocks = []  # (block, whether a step in it is off the grid)
        correct = integrator.correct

        def spy(*args):
            odd = bool((np.frexp(args[-1])[0] != 0.5).any())
            numpy_blocks.append((new.block_steps, odd))
            return correct(*args)

        monkeypatch.setattr(integrator, "correct", spy)
        for block in range(60):
            assert new.step() == parent_step(old)
            TestStepMatchesParent._assert_same(new, old, block)
        if native.load() is not None:
            # the odd step persists until it shrinks: exactly the blocks
            # that carry it take the NumPy step
            assert numpy_blocks[0] == (0, True) and len(numpy_blocks) < 60
            assert all(odd for _, odd in numpy_blocks)
        else:
            assert len(numpy_blocks) == 60

    def test_kill_and_resume(self, tmp_path):
        """Through a checkpoint file, into new objects, on this step."""
        sim = quiet_sim()
        sim.evolve(300.0)
        manager = CheckpointManager(tmp_path)
        manager.write(sim.system, {"time": float(sim.time)})
        system, saved = manager.load_latest()
        twin = Simulation.from_restart(
            system, HostDirectBackend(eps=0.008), saved["time"],
            external_field=KeplerField(), timestep_params=sim.params,
            block_steps=sim.block_steps, particle_steps=sim.particle_steps,
        )
        mark = sim.block_steps
        sim.evolve(900.0)
        twin.evolve(900.0)
        assert twin.block_steps == sim.block_steps > mark + 50
        for name in STATE:
            assert np.array_equal(getattr(twin.system, name),
                                  getattr(sim.system, name)), name


@pytest.mark.usefixtures("numpy_tier")
class TestStepErrorsNumpyTier(TestStepErrors):
    """The same on the NumPy step."""
