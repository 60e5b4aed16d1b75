"""One pass of one workload: set up, step for real, check, tear down.

A *pass* is the unit the benchmark counts as an operation.  It builds
the disk, the backend and the ``Simulation`` (that is ``setup_s``),
drives real block steps to the workload's ``t_end`` (that is
``wall_s``), validates the outcome, and — whatever happened — closes
the backend, removes its run directory and verifies that no child
process is left.  A pass whose checks fail contributes no timing.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import signal
import statistics
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.accel import get_engine
from repro.core import (
    EnergyTracker,
    KeplerField,
    ParticleSystem,
    Simulation,
    TimestepParams,
)
from repro.obs import NULL_OBS, Observability, profile_spans
from repro.planetesimal import PlanetesimalDiskConfig, build_disk_system

from spec import ETA, Workload
from tracing import SpanRecorder, SpanTable

__all__ = [
    "ENERGY_TOLERANCE", "Deadline", "Inputs", "PassResult",
    "end_all_children", "make_system", "reap_children", "run_pass",
    "setup_batch",
]

#: A pass fails when the final |dE/E| exceeds this.
ENERGY_TOLERANCE = 1e-3

_ENGINE_OPS = (
    "acc_jerk_active", "acc_jerk", "acc_jerk_masked", "node_force",
    "pairwise_potential",
)


class Deadline(BaseException):
    """The global deadline expired (raised from the alarm handler).

    A ``BaseException`` so that no ``except Exception`` inside the
    program under test can swallow it; every ``finally`` still runs.
    """


# -- inputs ---------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    """Which system a pass integrates."""

    #: the disk realisation (``PlanetesimalDiskConfig.seed``)
    seed: int = 1
    #: driver runs only: draws the orientation and row order the
    #: realisation is presented in
    shuffle: int | None = None


def make_system(workload: Workload, inputs: Inputs) -> ParticleSystem:
    """The workload's input: disk realisation ``inputs.seed``.

    One close pair in a realisation can multiply the block count — and
    the wall — several times (README, "Seeds"), so runs that must do
    equal work (the driver's) keep one realisation and let
    ``inputs.shuffle`` draw a rotation about the disk axis and an order
    of the planetesimal rows: every coordinate of the input changes,
    the physical problem does not.
    """
    base = build_disk_system(
        PlanetesimalDiskConfig(n_planetesimals=workload.n, seed=inputs.seed)
    )
    if inputs.shuffle is None:
        return base
    rng = np.random.default_rng(inputs.shuffle)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    # protoplanets keep their place behind the planetesimals
    order = np.concatenate(
        [rng.permutation(workload.n), np.arange(workload.n, base.n)]
    )
    return ParticleSystem(
        base.mass[order], base.pos[order] @ rot.T, base.vel[order] @ rot.T,
        time=0.0,
    )


# -- set-up and teardown --------------------------------------------------


def _timestep_params(workload: Workload) -> TimestepParams:
    return TimestepParams(eta=ETA, eta_start=ETA / 2.0, dt_max=workload.dt_max)


@dataclass
class _Prepared:
    sim: Simulation
    backend: object
    run: object | None
    run_dir: Path | None
    setup_s: float
    build_s: float


def _prepare(workload: Workload, inputs: Inputs, work_dir: Path,
             obs=None, recorder: SpanRecorder | None = None,
             tally=None, backend=None) -> _Prepared:
    """Everything a run pays before its first block step (``setup_s``)."""
    t0 = perf_counter()
    system = make_system(workload, inputs)
    build_s = perf_counter() - t0
    run_dir = None
    try:
        if backend is None:
            backend = workload.make_backend()
        if tally is not None and hasattr(backend, "last_result"):
            _tally_gang(backend, tally)
        sim = Simulation(
            system, backend, external_field=KeplerField(),
            timestep_params=_timestep_params(workload), obs=obs,
        )
        run = None
        if workload.managed is not None:
            from repro.runio import ProductionRun

            run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_dir))
            run = ProductionRun(
                sim, run_dir, run_id=workload.name, **workload.managed
            )
        if recorder is not None:
            _install_proxies(recorder, sim, backend)
            with recorder.span("setup"):
                sim.initialize()
        else:
            sim.initialize()
    except BaseException:
        _teardown(backend, run_dir, recorder, obs)
        raise
    return _Prepared(sim, backend, run, run_dir, perf_counter() - t0, build_s)


def _tally_gang(backend, tally) -> None:
    """Fold the ``ProcResult`` of *every* force call into ``tally``:
    ``restarts`` and ``degraded`` are per call, so looking at the last
    one only would miss a rank lost in the middle of a pass.  Installed
    on timed passes too — a handful of additions beside a ~17 ms call."""
    forces_on = backend.forces_on

    def counted(system, active, t_now):
        forces = forces_on(system, active, t_now)
        tally.add(backend.last_result)
        return forces

    backend.forces_on = counted


def _install_proxies(rec: SpanRecorder, sim: Simulation, backend) -> None:
    rec.wrap(backend, "load", "backend.load")
    rec.wrap(backend, "forces_on", "backend.forces_on")
    rec.wrap(backend, "push_updates", "backend.push_updates")
    engine = get_engine()
    for op in _ENGINE_OPS:
        rec.wrap(engine, op, f"accel.{op}", group="accel")
    rec.wrap(sim.scheduler, "next_block", "core.next_block")
    rec.wrap(sim.scheduler, "peek_time", "core.peek_time")
    rec.wrap(sim, "step", "core.step")
    rec.wrap(sim, "synchronize", "core.synchronize")


@contextmanager
def _alarm_held():
    """Hold the deadline alarm back so that it cannot cut a teardown in
    half; a pending one is delivered as soon as the block ends."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def _teardown(backend, run_dir, recorder=None, obs=None) -> list[str]:
    """Release everything a pass holds; returns what was left behind."""
    problems = []
    with _alarm_held():
        if recorder is not None:
            recorder.uninstall()
        if obs is not None:
            # Simulation(obs=...) bound the process-wide engine to the
            # traced bundle; unbind it or every later untraced pass pays
            # for metrics.
            get_engine().observe(NULL_OBS)
        close = getattr(backend, "close", None)
        if close is not None:
            close()
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)
            if run_dir.exists():
                problems.append(f"run directory {run_dir} could not be removed")
        left = reap_children()
        if left:
            problems.append("child processes left running: " + ", ".join(left))
    return problems


def reap_children() -> list[str]:
    """Kill and join every live child; returns ``name[pid]`` of each.

    After a healthy pass there is none, so a non-empty answer is a
    failed operation — and either way nothing outlives the command.
    """
    children = multiprocessing.active_children()
    for child in children:
        child.kill()
    for child in children:
        child.join()
    return [f"{c.name}[{c.pid}]" for c in children]


def _child_pids() -> list[int]:
    """Every process whose parent is this one (``/proc``; Linux only)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ...", and comm may hold anything
                ppid = int(fh.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):  # ended while we looked
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def end_all_children() -> list[str]:
    """The command's last act: leave no process of any kind behind.

    ``multiprocessing.shared_memory`` (the ``spmd_proc`` gang) starts
    Python's resource tracker, a helper process that is *not* among
    ``active_children()`` and by default ends only some time after its
    parent has: stop it and wait for it.  Then kill and wait for
    whatever else still calls this process its parent; returns those
    (after a healthy command: none).
    """
    left = reap_children()
    # private, but the only way to end the tracker before we do; if it
    # is missing the sweep below ends the tracker like any other child
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # somebody else has waited for it
            continue
        left.append(f"pid {pid}")
    return left


def setup_batch(workload: Workload, inputs: Inputs, work_dir: Path,
                min_reps: int = 2, min_seconds: float = 0.2,
                max_reps: int = 12) -> tuple[list[float], list[float], list[str]]:
    """A few set-ups in a row: ``(setup_s samples, build_s samples,
    teardown problems)``.

    The caller runs one batch before the warm-up and one after every
    pass and takes the median over all of them: the machine changes
    speed in spells of several seconds, and set-ups measured in one
    burst would all sit in the same spell.
    """
    setups, builds, problems = [], [], []
    t0 = perf_counter()
    while len(setups) < min_reps or (
        perf_counter() - t0 < min_seconds and len(setups) < max_reps
    ):
        try:
            prep = _prepare(workload, inputs, work_dir)
        except Exception as exc:  # the pass that follows reports it too
            problems.append(_describe(exc))
            break
        problems += _teardown(prep.backend, prep.run_dir)
        setups.append(prep.setup_s)
        builds.append(prep.build_s)
    return setups, builds, problems


# -- the pass -------------------------------------------------------------


@dataclass
class PassResult:
    kind: str                      # "warmup" | "timed" | "traced" | "reference"
    failures: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    block_steps: int = 0
    particle_steps: int = 0
    energy_error: float = float("nan")
    digest: str = ""
    #: per-layer metrics ``name -> value`` (traced passes only)
    layers: dict = field(default_factory=dict)
    #: cross-check material from ``repro.obs`` (traced passes only)
    obs_profile: list = field(default_factory=list)
    obs_counters: dict = field(default_factory=dict)
    spans: SpanTable | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def state_digest(system) -> str:
    """SHA-256 over the final ``pos/vel/t/dt`` arrays."""
    h = hashlib.sha256()
    for name in ("pos", "vel", "t", "dt"):
        h.update(np.ascontiguousarray(getattr(system, name)).tobytes())
    return h.hexdigest()


def _advance(prep: _Prepared, t_end: float):
    """The timed region: real block steps to ``t_end``, then synchronise."""
    sim = prep.sim
    if prep.run is not None:
        return prep.run.execute(t_end)
    sim.evolve(t_end)
    sim.synchronize(min(t_end, float(sim.system.t.max())))
    return None


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_pass(workload: Workload, inputs: Inputs, t_end: float,
             work_dir: Path, kind: str = "timed",
             expect: PassResult | None = None,
             untraced_wall_s: float | None = None,
             backend=None) -> PassResult:
    """Run one pass; ``expect`` is an earlier pass of the same inputs
    whose counts and digest this one must reproduce.  ``backend``
    replaces the workload's own (the ``spmd_proc`` reference pass).

    Whatever the program under test raises is a failed operation, not
    the end of the command; only :class:`Deadline` passes through.
    """
    res = PassResult(kind)
    traced = kind == "traced"
    obs = Observability() if traced else None
    rec = SpanRecorder() if traced else None
    tally = _SpmdTally()
    try:
        prep = _prepare(workload, inputs, work_dir, obs=obs, recorder=rec,
                        tally=tally, backend=backend)
    except Exception as exc:  # _prepare has torn down what it had built
        res.failures.append(_describe(exc))
        return res
    sim, backend = prep.sim, prep.backend
    try:
        setup_spans = rec.cut() if traced else None
        res.failures += tally.health()
        tally.reset()  # the start-up force call belongs to set-up
        tracker = EnergyTracker(backend.eps, sim.external_field)
        tracker.start(sim.system)
        if traced:
            rec.cut()  # the energy reference is in neither timed region
        before = _backend_counters(backend)

        t0 = perf_counter()
        if traced:
            with rec.span("run"):
                report = _advance(prep, t_end)
        else:
            report = _advance(prep, t_end)
        res.wall_s = perf_counter() - t0
        run_spans = rec.cut() if traced else None

        res.block_steps = sim.block_steps
        res.particle_steps = sim.particle_steps
        res.energy_error = float(tracker.sample(sim.system))
        res.digest = state_digest(sim.system)
        res.failures += tally.health()
        _check_outcome(res, expect)
        if traced and res.ok:
            res.spans = run_spans
            res.layers = _layer_metrics(
                workload, prep, report, setup_spans, run_spans, before,
                tally, obs, res, untraced_wall_s,
            )
            res.obs_profile = [
                {"phase": s.name, "calls": s.count,
                 "total_s": s.total_seconds, "self_s": s.self_seconds}
                for s in profile_spans(obs.tracer).top(limit=12)
            ]
            res.obs_counters = {
                k: v for k, v in obs.metrics.snapshot().items()
                if k.startswith(("checkpoint.", "hybrid.", "blockstep."))
            }
        # last: resuming appends to the run directory measured above
        if prep.run is not None and res.ok:
            _check_managed(res, workload, prep, report)
    except Exception as exc:
        res.failures.append(_describe(exc))
    finally:
        res.failures += _teardown(backend, prep.run_dir, rec, obs)
    return res


# -- validity checks ------------------------------------------------------


def _check_outcome(res: PassResult, expect) -> None:
    if res.block_steps == 0:
        res.failures.append(
            "zero block steps: t_end is shorter than the first block time"
        )
    if not res.energy_error <= ENERGY_TOLERANCE:
        res.failures.append(
            f"|dE/E| = {res.energy_error:.3e} exceeds {ENERGY_TOLERANCE:g}"
        )
    if expect is not None:
        for name in ("block_steps", "particle_steps", "digest"):
            if getattr(res, name) != getattr(expect, name):
                res.failures.append(
                    f"{name} differs from the first timed pass: "
                    f"{getattr(expect, name)} vs {getattr(res, name)}"
                )


def _check_managed(res: PassResult, workload: Workload, prep: _Prepared,
                   report) -> None:
    """Checkpoint cadence, and resume ≡ uninterrupted."""
    from repro.runio import ProductionRun

    interval = workload.managed["checkpoint_interval"]
    written = len(list((prep.run_dir / "checkpoints").glob("ckpt_*.npz")))
    want = res.block_steps // interval
    if written != want or report.checkpoints_written != want:
        res.failures.append(
            f"{written} checkpoint files ({report.checkpoints_written} "
            f"reported) for {res.block_steps} blocks, expected {want}"
        )
        return
    if written == 0:
        return
    backend = workload.make_backend()
    try:
        resumed = ProductionRun.resume(
            prep.run_dir, backend, external_field=KeplerField(),
            timestep_params=_timestep_params(workload),
        )
        resumed.execute()
        digest = state_digest(resumed.sim.system)
    finally:
        res.failures += _teardown(backend, None)
    if digest != res.digest:
        res.failures.append(
            "resume from the last checkpoint does not reproduce the "
            "uninterrupted final state"
        )


# -- per-layer metrics ----------------------------------------------------


class _SpmdTally:
    """Sums of ``backend.last_result`` over the force calls of one pass."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.engine_wall_s = 0.0
        self.messages = 0
        self.bytes = 0
        self.supersteps = 0
        self.straggler_wait_s = 0.0
        self.restarts = 0
        self.degraded = 0

    def add(self, result) -> None:
        if result is None:  # the in-process modes run no gang
            return
        self.calls += 1
        self.engine_wall_s += result.wall_seconds
        self.messages += result.messages
        self.bytes += result.total_bytes
        self.supersteps += result.supersteps
        self.straggler_wait_s += result.straggler_wait_seconds
        self.restarts += result.restarts
        self.degraded += int(result.degraded)

    def health(self) -> list[str]:
        """A lost rank is a failed pass: its timing measured a recovery."""
        if self.restarts or self.degraded:
            return [f"spmd gang unhealthy: restarts={self.restarts} "
                    f"degraded calls={self.degraded}"]
        return []


_HYBRID_COUNTERS = (
    "builds", "build_seconds", "walk_seconds", "direct_seconds",
    "near_interactions", "far_interactions",
)


def _backend_counters(backend) -> dict:
    """Cumulative public counters, so a pass can report its own share
    (the start-up force call in ``initialize`` belongs to set-up)."""
    out = {"interactions": backend.counter.force_interactions}
    for name in _HYBRID_COUNTERS:
        if hasattr(backend, name):
            out[name] = getattr(backend, name)
    return out


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _dir_bytes(directory: Path, pattern: str) -> tuple[int, int]:
    files = list(directory.glob(pattern))
    return len(files), sum(f.stat().st_size for f in files)


def _layer_metrics(workload, prep, report, setup_spans: SpanTable,
                   run: SpanTable, before: dict, tally: _SpmdTally, obs,
                   res: PassResult, untraced_wall_s) -> dict:
    sim, backend = prep.sim, prep.backend
    layer = workload.backend_layer
    m: dict[str, float] = {}

    # core ----------------------------------------------------------------
    stats = sim.scheduler.stats
    steps = run.durations("core.step")
    step_s = sum(steps)
    in_step = (run.total("backend.forces_on", parent="core.step")
               + run.total("backend.push_updates", parent="core.step"))
    m["core.block_steps"] = res.block_steps
    m["core.particle_steps"] = res.particle_steps
    m["core.mean_block"] = stats.mean_block
    m["core.median_block"] = stats.median_block()
    m["core.step_s"] = step_s
    m["core.host_s"] = step_s - in_step
    m["core.host_us_per_block"] = 1e6 * (step_s - in_step) / max(len(steps), 1)
    m["core.scheduler_s"] = (run.total("core.next_block")
                             + run.total("core.peek_time"))
    m["core.sync_s"] = run.total("core.synchronize")
    m["core.block_ms_p50"] = 1e3 * _percentile(steps, 50)
    if len(steps) >= 1000:
        m["core.block_ms_p99"] = 1e3 * _percentile(steps, 99)
    m["core.energy_error"] = res.energy_error

    # accel ---------------------------------------------------------------
    engine = get_engine()
    per_op = {op: run.total(f"accel.{op}") for op in _ENGINE_OPS}
    calls = sum(run.count(f"accel.{op}") for op in _ENGINE_OPS)
    busy = sum(per_op.values())
    interactions = backend.counter.force_interactions - before["interactions"]
    m["accel.calls"] = calls
    m["accel.busy_s"] = busy
    m["accel.interactions"] = interactions
    m["accel.ns_per_interaction"] = 1e9 * busy / max(interactions, 1)
    m["accel.us_per_call"] = 1e6 * busy / max(calls, 1)
    m["accel.acc_jerk_active_s"] = per_op["acc_jerk_active"]
    m["accel.acc_jerk_s"] = per_op["acc_jerk"]
    m["accel.acc_jerk_masked_s"] = per_op["acc_jerk_masked"]
    m["accel.node_force_s"] = per_op["node_force"]
    m["accel.potential_s"] = per_op["pairwise_potential"]
    m["accel.startup_s"] = sum(
        setup_spans.total(f"accel.{op}") for op in _ENGINE_OPS
    )
    m["accel.workspace_bytes"] = engine.workspace_bytes
    m["accel.kernel_threads"] = engine.config.threads

    # self time per layer: every span belongs to exactly one package ------
    self_s = dict.fromkeys(
        ("core", "accel", "baselines", "hybrid", "grape", "parallel",
         "resilience", "runio"), 0.0)
    for name, seconds in run.self_times().items():
        if name == "run":
            self_s["runio" if prep.run is not None else "core"] += seconds
        elif name.startswith("accel."):
            self_s["accel"] += seconds
        elif name.startswith("backend."):
            self_s[layer] += seconds
        else:
            self_s["core"] += seconds

    # baselines + hybrid (the backend's own public clocks) -----------------
    if layer == "hybrid":
        delta = {k: getattr(backend, k) - before[k] for k in _HYBRID_COUNTERS}
        m["baselines.tree_builds"] = delta["builds"]
        m["baselines.tree_build_s"] = delta["build_seconds"]
        m["hybrid.walk_s"] = delta["walk_seconds"]
        m["hybrid.near_s"] = delta["direct_seconds"]
        m["hybrid.near_interactions"] = delta["near_interactions"]
        m["hybrid.far_interactions"] = delta["far_interactions"]
        m["hybrid.work_ratio"] = (
            (delta["near_interactions"] + delta["far_interactions"])
            / max(interactions, 1)
        )
        # the octree is built inside forces_on without touching the engine
        self_s["hybrid"] -= delta["build_seconds"]
        self_s["baselines"] += delta["build_seconds"]

    # grape: measured beside modelled -------------------------------------
    if layer == "grape":
        m["grape.load_s"] = setup_spans.total("backend.load")
        m["grape.forces_on_s"] = run.total("backend.forces_on")
        m["grape.push_updates_s"] = run.total("backend.push_updates")
        totals = report.grape_totals if report is not None else None
        if totals:
            total = totals["total_s"] or 1.0
            m["grape.model_total_s"] = totals["total_s"]
            m["grape.model_tflops"] = totals["achieved_flops"] / 1e12
            m["grape.model_host_share"] = totals["host_s"] / total
            m["grape.model_pipe_share"] = totals["pipe_s"] / total
            m["grape.model_comm_share"] = (
                totals["pci_s"] + totals["lvds_s"] + totals["gbe_s"]
            ) / total

    # resilience + runio (managed runs) -------------------------------------
    if prep.run is not None:
        from repro.resilience import CheckpointManager

        write_s = obs.metrics.histogram("checkpoint.write_seconds").sum
        n_ckpt, ckpt_bytes = _dir_bytes(prep.run_dir / "checkpoints", "ckpt_*.npz")
        n_snap, snap_bytes = _dir_bytes(prep.run_dir, "snap_*.npz")
        m["resilience.checkpoints"] = n_ckpt
        m["resilience.checkpoint_write_s"] = write_s
        m["resilience.checkpoint_bytes"] = ckpt_bytes
        m["runio.snapshots"] = n_snap
        m["runio.snapshot_bytes"] = snap_bytes
        m["runio.log_bytes"] = (prep.run_dir / "run.jsonl").stat().st_size
        m["runio.managed_overhead_s"] = (
            run.total("run") - step_s - run.total("core.peek_time")
            - run.total("core.synchronize") - write_s
        )
        self_s["runio"] -= write_s
        self_s["resilience"] += write_s
        # outside probe: what one durable checkpoint of the final state
        # costs, and what a restore costs, without the run around it
        probe = CheckpointManager(prep.run_dir / "probe")
        writes, loads = [], []
        for _ in range(20):
            t0 = perf_counter()
            probe.write(sim.system, {"time": float(sim.time)})
            writes.append(perf_counter() - t0)
        for _ in range(20):
            t0 = perf_counter()
            probe.load_latest()
            loads.append(perf_counter() - t0)
        m["resilience.checkpoint_ms_p50"] = 1e3 * statistics.median(writes)
        m["resilience.restore_s"] = statistics.median(loads)

    # parallel ---------------------------------------------------------------
    if layer == "parallel":
        forces_s = run.total("backend.forces_on")
        m["parallel.forces_on_s"] = forces_s
        m["parallel.ms_per_call"] = 1e3 * forces_s / max(tally.calls, 1)
        m["parallel.engine_wall_s"] = tally.engine_wall_s
        m["parallel.messages"] = tally.messages
        m["parallel.bytes"] = tally.bytes
        m["parallel.supersteps"] = tally.supersteps
        m["parallel.straggler_wait_s"] = tally.straggler_wait_s
        m["parallel.restarts"] = tally.restarts
        m["parallel.degraded"] = tally.degraded

    for name, seconds in self_s.items():
        m[f"self.{name}_s"] = seconds
    m["obs.traced_wall_s"] = res.wall_s
    m["obs.spans"] = len(run)
    if untraced_wall_s:
        m["obs.trace_overhead_ratio"] = res.wall_s / untraced_wall_s
    return m
