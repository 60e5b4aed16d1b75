"""What the benchmark runs and what it reports: workloads and metric names.

This is the single declaration the runner, ``--compare``, the smoke test
and ``BENCHMARK.json`` agree on (the test checks the JSON against it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

__all__ = [
    "EPS", "ETA", "Workload", "WORKLOADS", "END_TO_END", "PER_LAYER",
    "EXACT_COUNTS", "smoke_variant",
]

# The physics settings are the CLI defaults (`repro run`), fixed here so
# that every workload differs only in N, dt_max, t_end and backend.
EPS = 0.008
ETA = 0.02


def _host_direct():
    from repro.core import HostDirectBackend

    return HostDirectBackend(eps=EPS)


def _hybrid():
    from repro.hybrid import HybridBackend

    return HybridBackend(eps=EPS, theta=0.6, r_neighbour=0.05)


def _grape():
    from repro.grape import Grape6Backend, Grape6Config, Grape6Machine

    return Grape6Backend(Grape6Machine(Grape6Config.paper_full_system(), eps=EPS))


def _spmd(mode: str = "proc"):
    from repro.parallel import SpmdBackend

    return SpmdBackend(eps=EPS, n_ranks=2, mode=mode, route="gather")


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line: which layer this workload makes visible, and why
    why: str
    n: int
    dt_max: float
    t_end: float
    make_backend: Callable
    #: the ``src/repro`` package the backend's own time is billed to
    backend_layer: str
    #: ``ProductionRun`` keyword arguments; None = bare ``Simulation``
    managed: dict | None = None
    #: block steps seed 1 takes (exact run to run; recorded, not tuned)
    seed1_blocks: int = 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dense_direct",
            "Nearly all particles active per block: >=99% of wall is accel "
            "tile arithmetic, so kernel/tile/threading work shows and "
            "host-side work does not.",
            n=2048, dt_max=1.0, t_end=30.0,
            make_backend=_host_direct, backend_layer="core", seed1_blocks=34,
        ),
        Workload(
            "sparse_direct",
            "The paper's regime (blocks << N): thousands of ~1 ms force "
            "calls where per-call cost and the core scheduler/predict/"
            "correct path dominate, not tile speed.",
            n=256, dt_max=16.0, t_end=8192.0,
            make_backend=_host_direct, backend_layer="core", seed1_blocks=5369,
        ),
        Workload(
            "sparse_hybrid",
            "Tree build, grouped walk and masked near field do the work; "
            "tree amortisation and walk changes show here and must not "
            "move the direct workloads.",
            n=2048, dt_max=16.0, t_end=144.0,
            make_backend=_hybrid, backend_layer="hybrid", seed1_blocks=211,
        ),
        Workload(
            "managed_grape",
            "The production path: fsync'd checkpoints and snapshots, energy "
            "diagnostics and run log beside the GRAPE simulator, so "
            "durable-write or GRAPE-model changes show here only.",
            n=512, dt_max=16.0, t_end=768.0,
            make_backend=_grape, backend_layer="grape",
            managed={"checkpoint_interval": 4, "snapshot_interval": 16.0,
                     "diagnostics_interval": 32.0},
            seed1_blocks=1263,
        ),
        Workload(
            "spmd_proc",
            "Fork + shared memory + pipe supervision per force call is the "
            "work and the arithmetic is negligible, so IPC changes show "
            "here and nowhere else.",
            n=256, dt_max=16.0, t_end=480.0,
            make_backend=_spmd, backend_layer="parallel", seed1_blocks=220,
        ),
    )
}


def spmd_reference_backend():
    """The equality baseline of ``spmd_proc``: the same rank program on
    the in-process virtual machine, no processes.

    Not ``mode="serial"``: the serial path picks its kernel by block
    shape, and on this workload (median block 2) it sums small blocks
    in another order than the rank chunk kernel, so proc == serial does
    not hold bit for bit on the current tree (proc == vm does).
    """
    return _spmd(mode="vm")


def smoke_variant(w: Workload) -> Workload:
    """Same shape, 1/4 of the particles for 1/4 of the time (the warm-up,
    an eighth of that, must still reach ``dense_direct``'s first block)."""
    return replace(w, n=w.n // 4, t_end=w.t_end / 4.0, seed1_blocks=0)


# -- end-to-end metrics: (name, unit, better, bound) ----------------------
#
# ``bound`` is the share of the reference median by which a metric may get
# worse before it counts as a regression.  Issue 12 wanted at most 10 % for
# ``wall_s`` and ``psteps_per_s``; that is NOT met.  Measured on the 2-core
# box with three timed passes per run (README, "Bounds"): ten-seed quartile
# spreads of 6-20 %, and medians of two sets taken twenty minutes apart up
# to 28 % apart — the machine changes speed in spells of minutes — so a
# bound below the contract's cap of 25 % would reject innocent changes.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("psteps_per_s", "particle-steps/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
]

# -- per-layer metrics: (name, unit, better) ------------------------------
PER_LAYER = [
    ("core.block_steps", "count", "lower"),
    ("core.particle_steps", "count", "lower"),
    ("core.mean_block", "count", "higher"),
    ("core.median_block", "count", "higher"),
    ("core.step_s", "s", "lower"),
    ("core.host_s", "s", "lower"),
    ("core.host_us_per_block", "us", "lower"),
    ("core.scheduler_s", "s", "lower"),
    ("core.sync_s", "s", "lower"),
    ("core.block_ms_p50", "ms", "lower"),
    ("core.block_ms_p99", "ms", "lower"),
    ("core.energy_error", "ratio", "lower"),
    ("accel.calls", "count", "lower"),
    ("accel.busy_s", "s", "lower"),
    ("accel.interactions", "count", "lower"),
    ("accel.ns_per_interaction", "ns", "lower"),
    ("accel.us_per_call", "us", "lower"),
    ("accel.acc_jerk_active_s", "s", "lower"),
    ("accel.acc_jerk_s", "s", "lower"),
    ("accel.acc_jerk_masked_s", "s", "lower"),
    ("accel.node_force_s", "s", "lower"),
    ("accel.potential_s", "s", "lower"),
    ("accel.startup_s", "s", "lower"),
    ("accel.workspace_bytes", "bytes", "lower"),
    ("accel.kernel_threads", "count", "higher"),
    ("baselines.tree_builds", "count", "lower"),
    ("baselines.tree_build_s", "s", "lower"),
    ("hybrid.walk_s", "s", "lower"),
    ("hybrid.near_s", "s", "lower"),
    ("hybrid.near_interactions", "count", "lower"),
    ("hybrid.far_interactions", "count", "lower"),
    ("hybrid.work_ratio", "ratio", "lower"),
    ("grape.load_s", "s", "lower"),
    ("grape.forces_on_s", "s", "lower"),
    ("grape.push_updates_s", "s", "lower"),
    ("grape.model_total_s", "s", "lower"),
    ("grape.model_tflops", "Tflops", "higher"),
    ("grape.model_host_share", "ratio", "lower"),
    ("grape.model_pipe_share", "ratio", "higher"),
    ("grape.model_comm_share", "ratio", "lower"),
    ("resilience.checkpoints", "count", "lower"),
    ("resilience.checkpoint_write_s", "s", "lower"),
    ("resilience.checkpoint_bytes", "bytes", "lower"),
    ("resilience.checkpoint_ms_p50", "ms", "lower"),
    ("resilience.restore_s", "s", "lower"),
    ("runio.snapshots", "count", "lower"),
    ("runio.snapshot_bytes", "bytes", "lower"),
    ("runio.log_bytes", "bytes", "lower"),
    ("runio.managed_overhead_s", "s", "lower"),
    ("parallel.forces_on_s", "s", "lower"),
    ("parallel.ms_per_call", "ms", "lower"),
    ("parallel.engine_wall_s", "s", "lower"),
    ("parallel.messages", "count", "lower"),
    ("parallel.bytes", "bytes", "lower"),
    ("parallel.supersteps", "count", "lower"),
    ("parallel.straggler_wait_s", "s", "lower"),
    ("parallel.restarts", "count", "lower"),
    ("parallel.degraded", "count", "lower"),
    ("planetesimal.build_s", "s", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.traced_wall_s", "s", "lower"),
    ("obs.spans", "count", "lower"),
    # self time per layer of the traced repeat; they sum to obs.traced_wall_s
    ("self.core_s", "s", "lower"),
    ("self.accel_s", "s", "lower"),
    ("self.baselines_s", "s", "lower"),
    ("self.hybrid_s", "s", "lower"),
    ("self.grape_s", "s", "lower"),
    ("self.parallel_s", "s", "lower"),
    ("self.resilience_s", "s", "lower"),
    ("self.runio_s", "s", "lower"),
]

#: Per-layer metrics that must repeat exactly between two sets of one
#: commit and seed (``--compare`` reports a mismatch separately).
EXACT_COUNTS = [
    "core.block_steps", "core.particle_steps", "core.energy_error",
    "accel.interactions", "baselines.tree_builds",
    "hybrid.near_interactions", "hybrid.far_interactions",
    "grape.model_total_s", "resilience.checkpoints", "runio.snapshots",
    "parallel.messages", "parallel.supersteps",
]
