"""Shared fixtures, factories, and the per-test watchdog alarm."""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import signal
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core import (
    HostDirectBackend,
    KeplerField,
    ParticleSystem,
    Simulation,
    TimestepParams,
)

# -- Hypothesis profiles of the contract table (tests/contracts.py) ----------
#
# ``contracts`` is the tier-1 slice: derandomized, two drawn disks per
# contract beside the pinned one.  ``contracts-deep`` is the larger run,
# ``pytest tests/contracts.py --hypothesis-profile=contracts-deep``.

settings.register_profile(
    "contracts", max_examples=2, derandomize=True, database=None,
    deadline=None, suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "contracts-deep", max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# -- per-test watchdog alarm -------------------------------------------------
#
# The multiprocess SPMD suite exercises real deadlock/hang scenarios;
# if supervision ever regresses, a test must fail loudly instead of
# wedging the whole run.  SIGALRM-based so it needs no third-party
# plugin; per-test override via ``@pytest.mark.timeout(seconds)``.

DEFAULT_TEST_TIMEOUT = 120


def pytest_report_header(config):
    from repro.accel import native

    facts = native.describe()
    where = facts.get("object") or facts.get("error", "")
    lines = [f"repro kernel tier: {facts['tier']} ({facts.get('compiler', '?')}: {where})"]
    if facts.get("entry_points"):
        lines.append(f"repro native entry points: {', '.join(facts['entry_points'])}")
    return lines


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout(seconds): override the per-test watchdog alarm "
        f"(default {DEFAULT_TEST_TIMEOUT}s, SIGALRM-based)",
    )


@pytest.fixture(autouse=True)
def _test_watchdog(request):
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return
    marker = request.node.get_closest_marker("timeout")
    seconds = int(marker.args[0]) if marker and marker.args else DEFAULT_TEST_TIMEOUT

    def on_alarm(signum, frame):
        pytest.fail(
            f"test exceeded the {seconds}s watchdog alarm "
            "(likely a hung SPMD rank or deadlocked collective)",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- SPMD leak guard ---------------------------------------------------------
#
# The rank gang of ``repro.parallel.proc`` outlives a force call, so a
# test that forgets ``close()`` would leave workers and shared-memory
# segments behind for every later test.  Engines that merely went out of
# scope are given one ``gc.collect()`` (their ``__del__`` closes them)
# before anything counts as leaked.  Only segments this process created
# count: another program's ``psm_*`` files in ``/dev/shm`` (a concurrent
# benchmark gang, a test's subprocess) are neither reported nor removed.

_SHM_DIR = "/dev/shm"

#: Names of the segments this process created since the current test began.
_created_segments: set[str] = set()


class _RecordedSharedMemory(shared_memory.SharedMemory):
    """``SharedMemory`` that notes the name of each segment it creates."""

    def __init__(self, name=None, create=False, size=0, **kwargs):
        super().__init__(name, create, size, **kwargs)
        if create:
            _created_segments.add(self.name)


# forked children inherit the class but record into their own copy
shared_memory.SharedMemory = _RecordedSharedMemory


def shm_segments() -> set[str]:
    """Names of the Python shared-memory segments that exist right now."""
    try:
        return {f for f in os.listdir(_SHM_DIR) if f.startswith("psm_")}
    except OSError:  # pragma: no cover - no POSIX shm directory
        return set()


def spmd_rank_children() -> list:
    """The live ``spmd-rank-*`` worker processes of this process."""
    return [
        c for c in multiprocessing.active_children()
        if c.name.startswith("spmd-rank-")
    ]


def _spmd_leaks() -> list[str]:
    ranks = [f"{c.name}[{c.pid}]" for c in spmd_rank_children()]
    return ranks + sorted(_created_segments & shm_segments())


@contextlib.contextmanager
def spmd_leak_guard():
    """Fail if the body leaves ``spmd-rank-*`` workers or segments it
    created behind, after killing and unlinking them."""
    _created_segments.clear()
    yield
    if not _spmd_leaks():
        return
    gc.collect()
    leaked = _spmd_leaks()
    if not leaked:
        return
    # do not let one leak fail every test after it
    for child in spmd_rank_children():
        child.kill()
        child.join()
    for name in _created_segments & shm_segments():
        try:
            segment = shared_memory.SharedMemory(name)
        except OSError:
            continue
        segment.close()
        segment.unlink()  # also forgets it in the resource tracker
    pytest.fail(
        "test left SPMD workers or shared-memory segments behind "
        f"(missing close()?): {', '.join(leaked)}",
        pytrace=False,
    )


@pytest.fixture(autouse=True)
def _spmd_leak_guard():
    with spmd_leak_guard():
        yield


@contextlib.contextmanager
def numpy_tier_context():
    """The NumPy kernel tier, as if no C compiler were present: the
    native loader finds nothing, and the process-wide engine is rebuilt
    under it (and restored afterwards)."""
    from repro.accel import native, set_engine

    load = native.load
    native.load = lambda: None
    previous = set_engine(None)
    try:
        yield
    finally:
        native.load = load
        stand_in = set_engine(previous)
        if stand_in is not None:
            stand_in.close()


@pytest.fixture
def numpy_tier():
    """Run the test on the NumPy kernel tier (:func:`numpy_tier_context`).
    Classes that must hold on both tiers are subclassed with this
    fixture applied; the plain class runs on whatever tier the host
    has."""
    with numpy_tier_context():
        yield


def make_two_body(m1: float = 1.0, m2: float = 1e-3, a: float = 1.0, e: float = 0.0):
    """A bound two-body system in its centre-of-mass frame.

    Returns a :class:`ParticleSystem` with the pair at apocentre
    separation ``a * (1 + e)`` and the corresponding two-body velocity.
    """
    mtot = m1 + m2
    r = a * (1.0 + e)
    # Relative speed at apocentre from the vis-viva equation.
    v_rel = np.sqrt(mtot * (2.0 / r - 1.0 / a))
    pos = np.array([[-m2 / mtot * r, 0.0, 0.0], [m1 / mtot * r, 0.0, 0.0]])
    vel = np.array([[0.0, -m2 / mtot * v_rel, 0.0], [0.0, m1 / mtot * v_rel, 0.0]])
    return ParticleSystem(np.array([m1, m2]), pos, vel)


def make_random_cluster(n: int, seed: int = 0, scale: float = 1.0):
    """A Plummer-ish random particle blob for force-kernel tests."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(scale=scale, size=(n, 3))
    vel = rng.normal(scale=0.1, size=(n, 3))
    mass = rng.uniform(0.5, 1.5, size=n) / n
    return ParticleSystem(mass, pos, vel)


def make_disk_sim(
    n: int = 64,
    seed: int = 1,
    eps: float = 0.008,
    eta: float = 0.02,
    dt_max: float = 1.0,
) -> Simulation:
    """Small paper-style planetesimal simulation, initialised."""
    from repro.planetesimal import PlanetesimalDiskConfig, build_disk_system

    system = build_disk_system(PlanetesimalDiskConfig(n_planetesimals=n, seed=seed))
    sim = Simulation(
        system,
        HostDirectBackend(eps=eps),
        external_field=KeplerField(),
        timestep_params=TimestepParams(eta=eta, dt_max=dt_max),
    )
    sim.initialize()
    return sim


#: Rows whose ``(x0² + x1²) + x2²`` rounds differently from
#: ``x0² + (x1² + x2²)``: 1 plus two squares of 1.125 * 2**-53 rounds up
#: once or twice, depending on which pair is summed first.  Signs and
#: power-of-two scales keep that.
_Y = 1.5 * 2.0**-27
ORDER_SENSITIVE_ROWS = np.array([
    [1.0, _Y, _Y],
    [_Y, _Y, 1.0],
    [-4.0, 4.0 * _Y, -4.0 * _Y],
    [-_Y / 8.0, _Y / 8.0, 0.125],
])


def norm_other_order(x: np.ndarray) -> np.ndarray:
    """Row norms summed ``x0² + (x1² + x2²)``: not ``timestep._norm``."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return np.sqrt(x[:, 0] * x[:, 0] + (x[:, 1] * x[:, 1] + x[:, 2] * x[:, 2]))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
