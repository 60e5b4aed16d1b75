"""``Simulation.evolve``'s native block loop against ``step()``.

On the native tier ``evolve`` takes runs of blocks in one
``NativeTile.run_blocks`` call wherever ``step()`` would do exactly the
same arithmetic.  Every test here holds an ``evolve`` to a twin driven
by ``while peek_time <= t_end: step()``, bit for bit and count for
count: the loop's blocks, the blocks it hands back to ``step()``
(threaded sums, steps off the power-of-two grid, failing blocks), and
the runs it must never take.  The NumPy-tier subclasses run the same
comparisons with no tile, where ``evolve`` is ``step()`` throughout.
"""

import gc
import re

import numpy as np
import pytest

from repro.accel import EngineConfig, KernelEngine, native
from repro.baselines import HostOnlyBackend
from repro.core import (
    CompositeField,
    HostDirectBackend,
    KeplerField,
    Simulation,
    TimestepParams,
)
from repro.core import integrator
from repro.errors import ConfigurationError, IntegrationError
from repro.obs import MetricsRegistry, Observability
from repro.planetesimal import PlanetesimalDiskConfig, build_disk_system

ARRAYS = ("pos", "vel", "acc", "jerk", "t", "dt")
#: the ``sparse_direct`` benchmark's shape: N = 256 (+2 protoplanets),
#: median block 2, over a short stretch of its time
T_END = 1024.0


def sparse_sim(engine=None, **kwargs) -> Simulation:
    disk = build_disk_system(PlanetesimalDiskConfig(n_planetesimals=256, seed=1))
    backend = HostDirectBackend(eps=0.008, engine=engine)
    params = TimestepParams(eta=0.02, eta_start=0.01, dt_max=16.0)
    sim = Simulation(disk, backend, external_field=KeplerField(),
                     timestep_params=params, **kwargs)
    sim.initialize()
    return sim


def step_to(sim: Simulation, t_end: float) -> None:
    """``evolve(t_end)`` as it stood before the loop: one ``step()`` per
    block."""
    while sim.scheduler.peek_time(sim.system.t, sim.system.dt) <= t_end:
        sim.step()


def assert_same(a: Simulation, b: Simulation) -> None:
    """The same state bytes, counts, block histogram and interactions."""
    for name in ARRAYS:
        assert getattr(a.system, name).tobytes() == getattr(b.system, name).tobytes(), name
    assert (a.time, a.block_steps, a.particle_steps) == (
        b.time, b.block_steps, b.particle_steps)
    sa, sb = a.scheduler.stats, b.scheduler.stats
    assert list(sa.size_counts.items()) == list(sb.size_counts.items())
    assert (sa.n_blocks, sa.n_particle_steps, sa.min_block, sa.max_block) == (
        sb.n_blocks, sb.n_particle_steps, sb.min_block, sb.max_block)
    ca, cb = a.backend.counter, b.backend.counter
    assert (ca.force_interactions, ca.jerk_interactions, ca.force_calls) == (
        cb.force_interactions, cb.jerk_interactions, cb.force_calls)


class LoopSpy:
    """Counts the blocks ``evolve`` takes through ``run_blocks`` (no
    tile, as on the NumPy tier: none)."""

    def __init__(self, monkeypatch, sim: Simulation) -> None:
        self.calls, self.blocks = 0, 0
        tile = sim._tile
        if tile is None:
            return
        run_blocks = tile.run_blocks

        def counted(*args):
            times, sizes = run_blocks(*args)
            self.calls += 1
            self.blocks += sizes.size
            return times, sizes

        monkeypatch.setattr(tile, "run_blocks", counted)


def native_only():
    if native.load() is None:
        pytest.skip("the block loop is native only")


@pytest.fixture
def engines():
    made = []

    def make(**config):
        engine = KernelEngine(EngineConfig(**config))
        engine.observe(MetricsRegistry())
        made.append(engine)
        return engine

    yield make
    for engine in made:
        engine.close()


def kernel_counts(engine) -> tuple:
    return engine._c_calls.value, engine._c_tile_bytes.value


class TestEvolveEqualsStepping:
    """``evolve`` against ``step()``, on the tier the host has."""

    @pytest.mark.parametrize("config", [
        {},
        {"threads": 1, "j_chunk": 48},
        {"threads": 2, "j_chunk": 48, "parallel_pairs": 258 * 8},
    ], ids=["one-chunk", "six-chunks", "threaded-blocks-handed-back"])
    def test_bit_for_bit(self, monkeypatch, engines, config):
        loop = sparse_sim(engines(**config))
        stepped = sparse_sim(engines(**config))
        spy = LoopSpy(monkeypatch, loop)
        loop.evolve(T_END)
        step_to(stepped, T_END)
        assert_same(loop, stepped)
        assert kernel_counts(loop.backend.engine) == kernel_counts(stepped.backend.engine)
        assert loop.block_steps > 300
        if loop._tile is None:
            return
        if "parallel_pairs" in config:
            # blocks of 8 rows and more thread: step() took those
            assert 0 < spy.blocks < loop.block_steps
            assert loop.scheduler.stats.max_block >= 8
        else:
            assert spy.blocks == loop.block_steps

    def test_max_block_steps_stops_after_exactly_k(self):
        for k in (1, 7, native.BLOCK_CAP + 5):
            loop, stepped = sparse_sim(), sparse_sim()
            loop.evolve(1e9, max_block_steps=k)
            for _ in range(k):
                stepped.step()
            assert loop.block_steps == k
            assert_same(loop, stepped)

    def test_a_callback_sees_every_block(self, monkeypatch):
        loop, stepped = sparse_sim(), sparse_sim()
        spy = LoopSpy(monkeypatch, loop)
        seen = []
        loop.evolve(256.0, callback=lambda sim: seen.append(
            (sim.time, sim.block_steps, sim.system.pos.sum())))
        want = []
        while stepped.scheduler.peek_time(stepped.system.t, stepped.system.dt) <= 256.0:
            stepped.step()
            want.append((stepped.time, stepped.block_steps, stepped.system.pos.sum()))
        assert seen == want and spy.calls == 0
        assert_same(loop, stepped)

    def test_off_grid_step_after_synchronize(self, monkeypatch):
        """A step that is not a power of two goes through the NumPy
        twins, one block, and the loop takes up again after it."""
        loop, stepped = sparse_sim(), sparse_sim()
        for sim in (loop, stepped):
            sim.evolve(200.0)
            sim.synchronize()
            row = int(np.argmin(sim.system.t + sim.system.dt))
            sim.system.dt[row] *= 0.75
            sim.scheduler.invalidate()
        odd_blocks = []
        correct = integrator.correct

        def spy_correct(*args):
            odd_blocks.append(bool((np.frexp(args[-1])[0] != 0.5).any()))
            return correct(*args)

        spy = LoopSpy(monkeypatch, loop)
        monkeypatch.setattr(integrator, "correct", spy_correct)
        start = loop.block_steps
        loop.evolve(600.0)
        monkeypatch.setattr(integrator, "correct", correct)
        step_to(stepped, 600.0)
        assert_same(loop, stepped)
        if loop._tile is not None:
            # the odd step persists until it shrinks (a step that grows
            # keeps its odd factor): only the blocks that carry it took
            # the twins, and the loop took some of the others
            assert odd_blocks and all(odd_blocks) and spy.calls >= 2
            assert 0 < spy.blocks <= loop.block_steps - start - len(odd_blocks)

    def test_kill_and_resume(self):
        whole = sparse_sim()
        whole.evolve(T_END)
        first = sparse_sim()
        first.evolve(T_END / 3)
        resumed = Simulation.from_restart(
            first.system.copy(), HostDirectBackend(eps=0.008), first.time,
            external_field=KeplerField(), timestep_params=first.params,
            block_steps=first.block_steps, particle_steps=first.particle_steps,
        )
        resumed.evolve(T_END)
        for name in ARRAYS:
            assert getattr(resumed.system, name).tobytes() == getattr(
                whole.system, name).tobytes(), name
        assert (resumed.time, resumed.block_steps, resumed.particle_steps) == (
            whole.time, whole.block_steps, whole.particle_steps)


@pytest.mark.usefixtures("numpy_tier")
class TestEvolveEqualsSteppingNumpyTier(TestEvolveEqualsStepping):
    """The same with no tile: ``evolve`` is ``step()`` throughout."""


class TestFailingBlocks:
    """A block the loop hands back raises in ``step()`` what it raised
    before the loop existed, after the same blocks, with nothing of it
    written."""

    @staticmethod
    def _race(monkeypatch, spoil, error, match):
        loop, stepped = sparse_sim(), sparse_sim()
        for sim in (loop, stepped):
            sim.evolve(100.0)
            spoil(sim)
            sim.scheduler.invalidate()
        spy = LoopSpy(monkeypatch, loop)
        # the NumPy twins divide by the underflowed h^2 before they check
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(error, match=match):
                loop.evolve(T_END)
            with pytest.raises(error, match=match):
                step_to(stepped, T_END)
        assert_same(loop, stepped)
        assert loop.block_steps > 0
        return spy

    def test_a_particle_at_the_origin(self, monkeypatch):
        def to_origin(sim):
            # at rest at the origin from 300 on: harmless as a source,
            # and many good blocks come before its own at 304
            row = int(np.argmax(sim.system.t + sim.system.dt))
            for name in ("pos", "vel", "acc", "jerk"):
                getattr(sim.system, name)[row] = 0.0
            sim.system.t[row], sim.system.dt[row] = 300.0, 4.0

        spy = self._race(monkeypatch, to_origin, ConfigurationError, "origin")
        if native.load() is not None:
            assert spy.blocks > 20

    def test_a_non_finite_row(self, monkeypatch):
        def blow_up(sim):
            # a step so small that the corrector's h^2 underflows: the
            # row is harmless as a source until its own block at 300
            row = int(np.argmax(sim.system.t + sim.system.dt))
            sim.system.t[row] = 300.0
            sim.system.dt[row] = 2.0 ** -1060

        spy = self._race(monkeypatch, blow_up, IntegrationError, "non-finite")
        if native.load() is not None:
            assert spy.blocks > 20


@pytest.mark.usefixtures("numpy_tier")
class TestFailingBlocksNumpyTier(TestFailingBlocks):
    """The same with no tile."""


class TestWhenTheLoopRuns:
    """``evolve`` enters ``run_blocks`` exactly where ``step()`` would do
    the loop's arithmetic and nothing else (native tier)."""

    def test_an_eligible_evolve_enters_the_loop(self, monkeypatch):
        native_only()
        sim = sparse_sim()
        spy = LoopSpy(monkeypatch, sim)
        sim.evolve(T_END)
        assert spy.calls >= 1 and spy.blocks == sim.block_steps > 300

    @pytest.mark.parametrize("change", [
        "callback", "two passes", "composite field", "observed",
        "forces_on wrapped", "step wrapped", "next_block wrapped",
        "host-only backend",
    ])
    def test_every_other_run_takes_step(self, monkeypatch, engines, change):
        native_only()
        kwargs, callback = {}, None
        if change == "two passes":
            kwargs["corrector_iterations"] = 2
        if change == "observed":
            kwargs["obs"] = Observability()
        sim = sparse_sim(engines(), **kwargs)
        if change == "callback":
            callback = lambda sim: None  # noqa: E731
        elif change == "composite field":
            sim.external_field = CompositeField([KeplerField()])
        elif change == "forces_on wrapped":
            sim.backend.forces_on = sim.backend.forces_on
        elif change == "step wrapped":
            sim.step = sim.step
        elif change == "next_block wrapped":
            sim.scheduler.next_block = sim.scheduler.next_block
        elif change == "host-only backend":
            sim.backend = HostOnlyBackend(eps=0.008)
        spy = LoopSpy(monkeypatch, sim)
        sim.evolve(64.0, callback=callback)
        assert spy.calls == 0 and sim.block_steps > 0


class TestRunBlocksEntryPoint:
    """``NativeTile.run_blocks`` itself (native tier)."""

    def test_one_call_takes_the_blocks_step_takes(self):
        native_only()
        loop, stepped = sparse_sim(), sparse_sim()
        times, sizes = loop._tile.run_blocks(
            loop.system, T_END, 50, 1.0, loop.params, 0.008 ** 2,
            loop.backend.engine.config)
        assert sizes.size == 50
        want = [stepped.step() for _ in range(50)]
        assert list(zip(times.tolist(), sizes.tolist())) == want
        for name in ARRAYS:
            assert getattr(loop.system, name).tobytes() == getattr(
                stepped.system, name).tobytes(), name

    def test_a_replaced_array_is_never_read_through_a_stale_pointer(self):
        native_only()
        loop, stepped = sparse_sim(), sparse_sim()
        loop.evolve(100.0)
        step_to(stepped, 100.0)
        for name in ARRAYS + ("mass",):
            setattr(loop.system, name, getattr(loop.system, name).copy())
        gc.collect()
        loop.evolve(300.0)
        step_to(stepped, 300.0)
        assert_same(loop, stepped)

    def test_each_step_body_exists_once(self):
        """The chunk force, the predictor and the corrector of the loop
        are the helpers their own entry points call: each is defined
        once and called by its entry point and by the loop."""
        source = native.SOURCE.read_text()
        for helper in ("active_chunk_add", "predict_block", "correct_block",
                       "write_block"):
            assert len(re.findall(rf"\b{helper}\(", source)) == 3, helper
        assert source.count("h5 / 120.0") == 1  # one Hermite corrector
