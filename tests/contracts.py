"""The bit-identity contracts of the repo, each stated once.

A run's answer must not depend on how the machine is laid out: on how
many threads sum the j-chunks, on whether a rank gang splits the sum, on
whether ``evolve`` takes the blocks in one native call or ``step()``
takes them one by one, on whether the run was killed and resumed.  The
engine gets all of it from one rule, the GRAPE-6 one: partial sums fold
in ascending j-chunk order whoever computed them
(:func:`repro.accel.fixed_order_reduce`).

Each entry of :data:`CONTRACTS` names the runs that must agree, each
held to the first, and the relation that holds between them.  A run is
a function of a :class:`Disk`: a small planetesimal disk (or a blob)
and the layout of the machine that integrates it; a run is a whole
integration, or one force evaluation of a strided block at a time off
the block grid.  :func:`check` holds one contract on
one disk; :func:`test_contract` holds every contract on disks drawn by
Hypothesis, plus :data:`PINNED`, which engages every layer at once
(the GRAPE hierarchy's floor, which holds on one disk only, is held on
``MATRIX`` by ``tests/test_backend_matrix.py``)::

    pytest tests/contracts.py                 # the tier-1 slice
    pytest tests/contracts.py --hypothesis-profile=contracts-deep

The per-file tests that name one of these equalities are pinned cases:
``check(name, disk)`` on the disk each always used, beside whatever
else that test asserts.
"""

from __future__ import annotations

import contextlib
import hashlib
import tempfile
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accel import EngineConfig, KernelEngine, fixed_order_reduce
from repro.baselines import TreeBackend
from repro.core import (
    CollisionPolicy,
    CompositeField,
    HostDirectBackend,
    KeplerField,
    ParticleSystem,
    Simulation,
    TimestepParams,
)
from repro.errors import SimulationKilled
from repro.grape import Grape6Backend, Grape6Config, Grape6Machine
from repro.hybrid import HybridBackend
from repro.obs import MetricsRegistry
from repro.parallel import SpmdBackend
from repro.planetesimal import PlanetesimalDiskConfig, build_disk_system
from repro.runio import ProductionRun

from _step_oracle import parent_step, parent_synchronize
from conftest import make_random_cluster, numpy_tier_context

#: The arrays a run must leave byte for byte.
STATE = ("mass", "pos", "vel", "acc", "jerk", "t", "dt", "key")


@dataclass(frozen=True)
class Disk:
    """A disk of ``n`` planetesimals (plus two protoplanets) integrated
    to ``t_end``, and the layout each run of it takes."""

    n: int = 24
    seed: int = 5
    eta: float = 0.02
    dt_max: float = 0.5
    t_end: float = 4.0
    eps: float = 0.008
    #: ``"kepler"``, ``"composite"`` (a Kepler field behind the generic
    #: field path) or ``None``
    field: str | None = "kepler"
    #: corrector passes (P(EC)^n)
    iterations: int = 1
    #: add a pair bound to merge and a hyperbolic runaway, under a
    #: collision policy
    eventful: bool = False
    #: the engine of every run (a serial run forces one thread)
    j_chunk: int = 2048
    threads: int = 1
    parallel_pairs: int = 1 << 18
    #: the backend of the runs not named by their contract:
    #: ``"host"``, ``"grape"`` (flat) or ``"spmd-vm"``
    backend: str = "host"
    #: the finite-theta hybrid and every hybrid's neighbour radius
    theta: float = 0.5
    r_neighbour: float = 0.05
    #: the rank gang
    n_ranks: int = 2
    route: str = "gather"
    #: ``"on-grid"`` / ``"off-grid"``: the step-by-step runs synchronize
    #: at the first block from the eighth on whose pending steps are all
    #: (none of them) powers of two
    sync: str | None = None
    #: the killed run checkpoints every ``checkpoint_every`` blocks and
    #: dies after block ``kill_at``
    checkpoint_every: int = 2
    kill_at: int = 5
    #: run on the NumPy kernel tier
    numpy: bool = False
    #: a Gaussian blob of ``n`` bodies in place of the disk
    cluster: bool = False
    #: the rows of a single force evaluation, strided over the system
    #: (every other row if ``None``)
    n_active: int | None = None

    def setup(self) -> dict:
        """Fresh keyword arguments of ``Simulation`` (and of its
        ``from_restart`` and ``ProductionRun.resume``) beside the
        backend."""
        return dict(
            external_field={"kepler": KeplerField, None: lambda: None,
                            "composite": lambda: CompositeField([KeplerField()]),
                            }[self.field](),
            timestep_params=TimestepParams(eta=self.eta, dt_max=self.dt_max),
            collision_policy=CollisionPolicy(f_enhance=400.0) if self.eventful else None,
            corrector_iterations=self.iterations,
        )

    def system(self) -> ParticleSystem:
        if self.cluster:
            return make_random_cluster(self.n, self.seed)
        disk = build_disk_system(
            PlanetesimalDiskConfig(n_planetesimals=self.n, seed=self.seed))
        if not self.eventful:
            return disk
        v20 = 1.0 / np.sqrt(20.0)
        return ParticleSystem(
            np.concatenate([disk.mass, [1e-8, 1e-8, 1e-9]]),
            np.concatenate([disk.pos, [[20.0, 0.0, 0.0], [20.001, 0.0, 0.0],
                                       [80.0, 0.0, 0.0]]]),
            np.concatenate([disk.vel, [[0.0, v20, 0.0], [0.0, 0.999 * v20, 0.0],
                                       [0.4, 0.0, 0.0]]]),
        )

    def simulation(self, backend, **kwargs) -> Simulation:
        """The disk on ``backend``, initialized."""
        sim = Simulation(self.system(), backend, **{**self.setup(), **kwargs})
        sim.initialize()
        return sim


class FoldBackend(HostDirectBackend):
    """The host force summed the way a rank gang sums it: every chunk of
    the engine's plan on its own, folded by ``fixed_order_reduce``."""

    def forces_on(self, system, active, t_now):
        parts = [self.engine.acc_jerk_active_chunk(system, active, t_now,
                                                   self.eps, j0, j1)
                 for j0, j1 in self.engine.jplan(system.n)]
        return tuple(fixed_order_reduce(p[k] for p in parts) for k in (0, 1))


def _grape(config, mode):
    def make(disk, engine):
        machine = Grape6Machine(config(), eps=disk.eps, mode=mode)
        machine.engine = engine
        return Grape6Backend(machine)
    return make


def _spmd(mode, route=None):
    return lambda disk, engine: SpmdBackend(
        disk.eps, n_ranks=disk.n_ranks, mode=mode, route=route or disk.route,
        engine=engine)


BACKENDS = {
    "host": lambda disk, engine: HostDirectBackend(disk.eps, engine=engine),
    "fold": lambda disk, engine: FoldBackend(disk.eps, engine=engine),
    "grape": _grape(Grape6Config.single_node, "flat"),
    "hierarchy": _grape(Grape6Config.scaled_down, "hierarchy"),
    "spmd-vm": _spmd("vm"),
    "spmd-proc": _spmd("proc"),
    "spmd-ring": _spmd("proc", "ring"),
    "tree0": lambda disk, engine: TreeBackend(eps=disk.eps, theta=0.0, engine=engine),
    "hybrid0": lambda disk, engine: HybridBackend(
        eps=disk.eps, theta=0.0, r_neighbour=disk.r_neighbour, engine=engine),
    "hybrid": lambda disk, engine: HybridBackend(
        eps=disk.eps, theta=disk.theta, r_neighbour=disk.r_neighbour,
        engine=engine),
}


def backend(disk: Disk, kind: str, stack, threads: int | None = None):
    """A ``kind`` backend on a fresh engine of the disk's layout, closed
    with ``stack``."""
    engine = KernelEngine(EngineConfig(
        threads=disk.threads if threads is None else threads,
        j_chunk=disk.j_chunk, parallel_pairs=disk.parallel_pairs))
    engine.observe(MetricsRegistry())
    stack.callback(engine.close)
    made = BACKENDS[kind](disk, engine)
    stack.callback(getattr(made, "close", lambda: None))
    return made


@dataclass
class Run:
    """A finished run and what it did on the way."""

    sim: Simulation
    #: ``((t, size), state digest)`` after every block (and
    #: ``("synchronize", digest)``) of a step-by-step run
    trace: list | None = None
    #: the sizes of the blocks the native loop took
    loop_sizes: list = field(default_factory=list)
    #: the threaded chunk sums the engine ran
    threaded: int = 0
    synced: bool = False
    report: object = None
    #: the block count a resumed run took over at
    resumed_from: int | None = None
    #: acceleration and jerk of a single force evaluation
    forces: tuple | None = None
    #: the pairs a hybrid summed in its near field (in the evaluation,
    #: if one)
    near: int = 0


def engine_of(sim: Simulation) -> KernelEngine:
    return getattr(sim.backend, "engine", None) or sim.backend.machine.engine


def digest(sim: Simulation) -> str:
    return hashlib.sha1(b"".join(
        getattr(sim.system, name).tobytes() for name in STATE)).hexdigest()


def evolved(kind: str | None = None, threads: int | None = None):
    """A run on a ``kind`` backend (the disk's own if ``None``) by
    ``Simulation.evolve``, on ``threads`` engine threads (the disk's if
    ``None``, at least two if ``"threaded"``)."""

    def build(disk, stack) -> Run:
        count = max(2, disk.threads) if threads == "threaded" else threads
        made = kind or disk.backend
        return _evolve(disk.simulation(backend(disk, made, stack, count)),
                       disk, made)

    return build


def evaluated(kind: str, threads: int | None = None):
    """One force evaluation on a ``kind`` backend (threads as in
    :func:`evolved`): ``disk.n_active`` rows of the initialized system,
    strided, at a time off the block grid."""

    def build(disk, stack) -> Run:
        count = max(2, disk.threads) if threads == "threaded" else threads
        sim = disk.simulation(backend(disk, kind, stack, count))
        n = sim.system.n
        active = (np.arange(0, n, 2) if disk.n_active is None else
                  np.arange(n)[::max(1, n // disk.n_active)][:disk.n_active])
        run = Run(sim, near=-getattr(sim.backend, "near_interactions", 0))
        engine = _count_pool(run, engine_of(sim))
        run.forces = sim.backend.forces_on(
            sim.system, active, float(sim.system.t.max()) + 1e-3)
        run.near += getattr(sim.backend, "near_interactions", 0)
        if kind == "host":
            assert run.threaded == _threads(engine, n)(active.size)
        return run

    return build


def _count_pool(run: Run, engine: KernelEngine) -> KernelEngine:
    """Count the engine's threaded sums into ``run.threaded``."""
    get_pool = engine._get_pool

    def pool():
        run.threaded += 1
        return get_pool()

    engine._get_pool = pool
    return engine


def _threads(engine: KernelEngine, n: int):
    """Whether the engine threads a block of ``size`` rows of ``n``."""
    config, chunks = engine.config, len(engine.jplan(n))
    return lambda size: (chunks > 1 and config.threads > 1
                         and size * n >= config.parallel_pairs)


def _evolve(sim: Simulation, disk: Disk, kind: str) -> Run:
    """``sim.evolve(disk.t_end)``, counting the engine's threaded sums
    and the native loop's blocks; holds both to what the layout asks."""
    run = Run(sim)
    threads = _threads(_count_pool(run, engine_of(sim)), sim.system.n)
    tile = sim._tile
    if tile is None:
        sim.evolve(disk.t_end)
    else:
        run_blocks = tile.run_blocks

        def logged(*args):
            times, sizes = run_blocks(*args)
            run.loop_sizes += sizes.tolist()
            return times, sizes

        tile.run_blocks = logged
        try:
            sim.evolve(disk.t_end)
        finally:
            del tile.run_blocks
    run.near = getattr(sim.backend, "near_interactions", 0)
    sizes = sim.scheduler.stats.size_counts
    assert not any(threads(size) for size in run.loop_sizes)
    if kind == "host" and not disk.eventful:
        # one engine sum per corrector pass: threaded exactly where the
        # layout threads, every block the loop handed back
        assert run.threaded == disk.iterations * sum(
            count for size, count in sizes.items() if threads(size))
        eligible = (tile is not None and disk.field != "composite"
                    and disk.iterations == 1)
        if not eligible:
            assert run.loop_sizes == []
        elif not any(threads(size) for size in sizes):
            assert len(run.loop_sizes) == sim.scheduler.stats.n_blocks
    return run


def stepped(step, synchronize=None):
    """A run on the disk's backend by one ``step(sim)`` per block, kept
    block by block in a trace; with ``synchronize``, the run calls it
    mid-run as ``Disk.sync`` asks."""

    def build(disk, stack) -> Run:
        sim = disk.simulation(backend(disk, disk.backend, stack))
        run = Run(sim, trace=[])
        while sim.scheduler.peek_time(sim.system.t, sim.system.dt) <= disk.t_end:
            run.trace.append((step(sim), digest(sim)))
            if synchronize and disk.sync and not run.synced and _sync_due(sim, disk.sync):
                synchronize(sim)
                run.synced = True
                run.trace.append(("synchronize", digest(sim)))
        return run

    return build


def _sync_due(sim: Simulation, sync: str) -> bool:
    dt = sim.time - sim.system.t[sim.system.t < sim.time]
    return (sim.block_steps >= 8 and dt.size > 1
            and (np.frexp(dt)[0] == 0.5).all() == (sync == "on-grid"))


def managed(disk: Disk, stack, directory, **kwargs) -> ProductionRun:
    """The disk as a managed run in ``directory``: energy samples four
    times a run, a checkpoint every ``disk.checkpoint_every`` blocks."""
    return ProductionRun(
        disk.simulation(backend(disk, disk.backend, stack)), directory,
        diagnostics_interval=disk.t_end / 4,
        checkpoint_interval=disk.checkpoint_every, **kwargs)


def uninterrupted(disk: Disk, stack) -> Run:
    with tempfile.TemporaryDirectory() as directory:
        run = managed(disk, stack, directory)
        return Run(run.sim, report=run.execute(disk.t_end))


def killed_and_resumed(disk: Disk, stack) -> Run:
    """Killed after block ``disk.kill_at``, then resumed from its newest
    checkpoint file and run on by at least one block."""

    def kill(sim):
        if sim.block_steps == disk.kill_at:
            raise SimulationKilled("power cut")

    with tempfile.TemporaryDirectory() as directory:
        with pytest.raises(SimulationKilled):
            managed(disk, stack, directory, on_block=kill).execute(disk.t_end)
        run = ProductionRun.resume(
            directory, backend(disk, disk.backend, stack), **disk.setup())
        resumed = Run(run.sim, resumed_from=run.sim.block_steps)
        resumed.report = run.execute()
    assert 0 < resumed.resumed_from <= disk.kill_at
    assert resumed.resumed_from < resumed.sim.block_steps
    return resumed


def restarted(disk: Disk, stack) -> Run:
    """Stopped after block ``disk.kill_at``, rebuilt by
    ``Simulation.from_restart`` from a copy of its state and evolved on
    by at least one block."""
    first = disk.simulation(backend(disk, disk.backend, stack))
    first.evolve(disk.t_end, max_block_steps=disk.kill_at)
    assert first.block_steps == disk.kill_at
    sim = Simulation.from_restart(
        first.system.copy(), backend(disk, disk.backend, stack), first.time,
        **disk.setup(), block_steps=first.block_steps,
        particle_steps=first.particle_steps, mergers=first.mergers)
    run = _evolve(sim, disk, disk.backend)
    assert sim.block_steps > disk.kill_at
    return run


# -- relations ---------------------------------------------------------------


def same_state(a: Run, b: Run) -> None:
    """The same state bytes, time and counts; block for block the same
    states where both runs kept a trace, and the same largest energy
    error where both were managed."""
    for name in STATE:
        assert getattr(a.sim.system, name).tobytes() == getattr(
            b.sim.system, name).tobytes(), name
    assert (a.sim.time, a.sim.block_steps, a.sim.particle_steps, a.sim.mergers) == (
        b.sim.time, b.sim.block_steps, b.sim.particle_steps, b.sim.mergers)
    if a.trace is not None and b.trace is not None:
        assert a.trace == b.trace
    if a.report is not None and b.report is not None:
        assert a.report.max_energy_error == b.report.max_energy_error


def same_run(a: Run, b: Run) -> None:
    """:func:`same_state` and the same block-size histogram."""
    same_state(a, b)
    sa, sb = a.sim.scheduler.stats, b.sim.scheduler.stats
    assert list(sa.size_counts.items()) == list(sb.size_counts.items())
    assert (sa.n_blocks, sa.n_particle_steps, sa.min_block, sa.max_block) == (
        sb.n_blocks, sb.n_particle_steps, sb.min_block, sb.max_block)


def same_books(a: Run, b: Run) -> None:
    """:func:`same_run`, the same interactions booked by the backend and
    the same calls and bytes booked by the engine."""
    same_run(a, b)
    ca, cb = a.sim.backend.counter, b.sim.backend.counter
    assert (ca.force_interactions, ca.jerk_interactions, ca.force_calls) == (
        cb.force_interactions, cb.jerk_interactions, cb.force_calls)
    ea, eb = engine_of(a.sim), engine_of(b.sim)
    assert (ea._c_calls.value, ea._c_tile_bytes.value) == (
        eb._c_calls.value, eb._c_tile_bytes.value)


def same_forces(a: Run, b: Run) -> None:
    """The same acceleration and jerk bytes from one evaluation."""
    for x, y in zip(a.forces, b.forces, strict=True):
        assert x.tobytes() == y.tobytes()


def near_host(a: Run, b: Run) -> None:
    """The same number of blocks, positions within 1e-6."""
    assert a.sim.block_steps == b.sim.block_steps
    assert np.allclose(a.sim.system.pos, b.sim.system.pos, atol=1e-6)


@dataclass(frozen=True)
class Contract:
    runs: tuple
    relation: object


#: The backend matrix's disk: 28 planetesimals for four time units.
MATRIX = Disk(n=28, seed=77, dt_max=1.0, t_end=4.0)


#: name -> the runs that must agree (each held to the first) and how.
CONTRACTS = {
    # the engine's threads change no bit; the threaded run threads
    # exactly where its layout says
    "serial_is_threaded": Contract(
        (evolved("host", 1), evolved("host", "threaded")), same_books),
    # the same through the tree and the hybrid's sums (threaded on the
    # NumPy tier; the native tree force is one serial call)
    "hybrid_serial_is_threaded": Contract(
        (evolved("hybrid", 1), evolved("hybrid", "threaded")), same_run),
    # a rank gang, in-process or forked, folds the chunks as the host
    "host_is_spmd": Contract(
        (evolved("host"), evolved("fold"), evolved("spmd-vm"),
         evolved("spmd-proc")), same_run),
    # the native block loop takes the blocks step() would, with the
    # same bits and books
    "evolve_is_step": Contract((stepped(Simulation.step), evolved()), same_books),
    # step() and synchronize() are the parent commit's, block for block
    "step_is_oracle": Contract(
        (stepped(parent_step, parent_synchronize),
         stepped(Simulation.step, Simulation.synchronize)), same_state),
    # one force evaluation, of a block of any size at a time off the
    # block grid: every engine layout, rank gang and route, GRAPE flat,
    # and the tree and the hybrid at theta = 0 sum the host's bits
    "evaluation_is_host": Contract(
        (evaluated("host", 1), evaluated("host", "threaded"),
         evaluated("fold"), evaluated("spmd-vm"), evaluated("spmd-proc"),
         evaluated("spmd-ring"), evaluated("grape"), evaluated("tree0"),
         evaluated("hybrid0")), same_forces),
    "hybrid_evaluation_serial_is_threaded": Contract(
        (evaluated("hybrid", 1), evaluated("hybrid", "threaded")), same_forces),
    # at theta = 0 every pair is summed directly, in the host's order
    "theta_zero_is_direct": Contract(
        (evolved("host"), evolved("tree0"), evolved("hybrid0")), same_run),
    "grape_flat_is_host": Contract((evolved("host"), evolved("grape")), same_run),
    # The hierarchy's boards sum in another order (1.6e-15 norm-relative
    # at worst on 60 drawn startup forces), yet on 100 drawn disks its
    # schedule parted from the host's between the 2nd and the 34th
    # block.  Its floor holds on the matrix disk, where
    # tests/test_backend_matrix.py holds it; it is not drawn.
    "grape_hierarchy_near_host": Contract(
        (evolved("host"), evolved("hierarchy")), near_host),
    "repeat_is_repeat": Contract((evolved(), evolved()), same_books),
    # a managed run killed and resumed from its checkpoint file
    "resume_is_uninterrupted": Contract(
        (uninterrupted, killed_and_resumed), same_state),
    # a run rebuilt from a copy of its state, on by the native loop
    "restart_is_uninterrupted": Contract((evolved(), restarted), same_state),
}


def check(name: str, disk: Disk) -> list[Run]:
    """Hold contract ``name`` on ``disk``; returns the runs."""
    contract = CONTRACTS[name]
    with contextlib.ExitStack() as stack:
        if disk.numpy:
            stack.enter_context(numpy_tier_context())
        runs = [build(disk, stack) for build in contract.runs]
    for other in runs[1:]:
        contract.relation(runs[0], other)
    return runs


# -- the driver --------------------------------------------------------------


@st.composite
def disks(draw) -> Disk:
    n = draw(st.integers(12, 32))
    dt_max = draw(st.sampled_from([0.5, 2.0, 16.0]))
    every = draw(st.integers(1, 3))
    return Disk(
        n=n, seed=draw(st.integers(0, 2**16)),
        eta=draw(st.sampled_from([0.01, 0.02, 0.04])),
        dt_max=dt_max, t_end=dt_max * draw(st.integers(8, 16)),
        field=draw(st.sampled_from(["kepler", None, "composite"])),
        iterations=draw(st.integers(1, 2)),
        j_chunk=draw(st.sampled_from([4, 8, 16, 2048])),
        threads=draw(st.integers(1, 3)),
        parallel_pairs=(n + 2) * draw(st.sampled_from([1, 2, 4, 16])),
        backend=draw(st.sampled_from(["host", "host", "grape", "spmd-vm"])),
        theta=draw(st.sampled_from([0.3, 0.5, 0.8])),
        r_neighbour=draw(st.sampled_from([0.0, 0.5, 4.0])),
        n_ranks=draw(st.integers(1, 3)),
        route=draw(st.sampled_from(["gather", "ring"])),
        sync=draw(st.sampled_from([None, "on-grid", "off-grid"])),
        checkpoint_every=every, kill_at=every + draw(st.integers(0, 4)),
        numpy=draw(st.booleans()),
        n_active=draw(st.sampled_from([None, 1, 7, 64])),
    )


#: One disk that engages every layer: 109 blocks, 20 of them of four
#: rows or more, which thread and so go back from the native loop to
#: ``step()``; six chunks, three ranks, a synchronize at an off-grid
#: block and a kill between checkpoints.
PINNED = Disk(n=40, seed=3, dt_max=16.0, t_end=128.0, j_chunk=8, threads=2,
              parallel_pairs=4 * 42, n_ranks=3, sync="off-grid",
              checkpoint_every=3, kill_at=40)


def _profile() -> settings:
    name = settings.get_current_profile_name()
    return settings.get_profile(name if name.startswith("contracts") else "contracts")


@pytest.mark.parametrize("name", sorted(
    set(CONTRACTS) - {"grape_hierarchy_near_host"}))
@settings(_profile())
@example(disk=PINNED)
@given(disk=disks())
def test_contract(name, disk):
    check(name, disk)
