"""Declared metric names — the single source of truth for instrumentation.

Every metric the library emits is declared here with its type and a
one-line help string; the Prometheus exporter pulls HELP text from this
table and ``tools/check_metric_names.py`` fails the build when source
code registers a literal metric name that is not declared (or declares
the wrong type).  Dynamic families (``events.<kind>_total``) are
admitted by prefix.

Naming convention: dotted lower-case components, ``<subsystem>.<what>``
with Prometheus-style unit/total suffixes (``_seconds``, ``_bytes``,
``_total``).  Dots become underscores in the text exposition, so
``grape.pipeline_seconds`` is scraped as ``grape_pipeline_seconds``.
"""

from __future__ import annotations

import re

__all__ = ["METRIC_CATALOGUE", "DYNAMIC_PREFIXES", "NAME_RE", "is_declared"]

#: ``name -> (kind, help)``; kind is ``counter`` / ``gauge`` / ``histogram``.
METRIC_CATALOGUE: dict[str, tuple[str, str]] = {
    # -- integrator / scheduler ------------------------------------------
    "blockstep.total": ("counter", "Block steps taken by the integrator"),
    "blockstep.active_particles": (
        "counter",
        "Cumulative particle steps (sum of active-block sizes)",
    ),
    "scheduler.block_size": ("histogram", "Active-block size distribution"),
    # -- events ----------------------------------------------------------
    "events.escape_total": ("counter", "Escape events logged"),
    "events.merger_total": ("counter", "Merger events logged"),
    "events.close_encounter_total": ("counter", "Close-encounter events logged"),
    # -- force backends --------------------------------------------------
    "force.interactions_total": (
        "counter",
        "Pairwise force interactions evaluated by the run's backend",
    ),
    # -- accel kernel engine ---------------------------------------------
    "kernel.calls_total": ("counter", "Kernel-engine op calls"),
    "kernel.tile_bytes_total": (
        "counter",
        "Operand bytes streamed by the kernels, one rule on both tiers: "
        "7 source values per pair, 9 more per quadrupole pair, plus for "
        "acc_jerk_active the 14-value resident row of every source and "
        "sink it predicts",
    ),
    "kernel.thread_efficiency": (
        "gauge",
        "Busy/wall fraction of the last threaded kernel sweep",
    ),
    "kernel.threads": ("gauge", "Worker threads of the active kernel engine"),
    "kernel.native": (
        "gauge",
        "1 when the compiled acc_jerk row kernel is loaded, 0 on the NumPy tier",
    ),
    "kernel.workspace_bytes": (
        "gauge",
        "Bytes held in the kernel engine's workspaces: threaded partial-sum "
        "slabs and the native tier's predicted-row scratch",
    ),
    # -- GRAPE-6 model ---------------------------------------------------
    "grape.blocks_total": ("counter", "Force blocks computed on the GRAPE machine"),
    "grape.interactions_total": (
        "counter",
        "i x j interactions streamed through the force pipelines",
    ),
    "grape.pipeline_seconds": (
        "counter",
        "Modelled force-pipeline time (the paper's t_pipe)",
    ),
    "grape.host_seconds": (
        "counter",
        "Modelled host computation time (the paper's t_host)",
    ),
    "grape.comm_seconds": (
        "counter",
        "Modelled PCI + LVDS + GbE communication time (the paper's t_comm)",
    ),
    "grape.peak_flops": ("gauge", "Peak speed of the attached machine shape"),
    # -- tree/direct hybrid backend --------------------------------------
    "hybrid.tree_builds_total": (
        "counter",
        "Octree rebuilds by the hybrid backend (one per force block)",
    ),
    "hybrid.near_interactions_total": (
        "counter",
        "In-sphere pairs the force pass emitted (neighbour-list entries)",
    ),
    "hybrid.far_interactions_total": (
        "counter",
        "Tree-walk interactions (particle-particle + node terms)",
    ),
    "hybrid.tree_seconds": (
        "counter",
        "Wall time in hybrid tree build + walk and evaluation, the "
        "in-sphere pair test inside the native walk included (t_tree)",
    ),
    "hybrid.direct_seconds": (
        "counter",
        "Wall time on neighbour pairs outside the walk (t_direct): the "
        "sort by sink row on the native tier, the NumPy pair pass on the "
        "NumPy tier",
    ),
    "hybrid.neighbour_count": (
        "histogram",
        "Mean neighbours per active particle, sampled per block",
    ),
    "hybrid.theta": ("gauge", "Opening angle of the hybrid's tree walk"),
    "hybrid.tree_build_seconds": (
        "counter",
        "Wall time constructing the octree (the rebuild-per-block cost)",
    ),
    "hybrid.tree_walk_seconds": (
        "counter",
        "Wall time grouping the sinks, walking the tree and evaluating "
        "its lists (the native walk's in-sphere pair test included)",
    ),
    "hybrid.walk.groups_total": (
        "counter",
        "Sink groups formed by the grouped tree walk",
    ),
    "hybrid.walk.node_terms_total": (
        "counter",
        "Sink-node multipole terms evaluated by the grouped walk",
    ),
    "hybrid.walk.pp_terms_total": (
        "counter",
        "Sink-particle terms evaluated from grouped-walk leaf lists",
    ),
    "hybrid.walk.group_size": (
        "histogram",
        "Sinks per grouped-walk group (n_crit caps the refinement)",
    ),
    # -- software communication substrate --------------------------------
    "comm.bytes_sent": ("counter", "Payload bytes sent over simulated links"),
    "comm.messages_total": ("counter", "Point-to-point messages sent"),
    # -- fault injection / detection -------------------------------------
    "faults.injected_total": ("counter", "Faults injected by the active fault plan"),
    "faults.detected_total": (
        "counter",
        "Hardware faults detected by the per-block force sanity guard",
    ),
    "faults.recovered_total": (
        "counter",
        "Faults recovered (mask / reload / retransmit) without aborting",
    ),
    "faults.link_retransmits_total": (
        "counter",
        "Link-level retransmissions charged to the GRAPE timing model",
    ),
    "faults.watchdog_trips_total": ("counter", "Energy-error watchdog trips"),
    "faults.masked_chips": (
        "gauge",
        "Chips currently masked out of the j-distribution",
    ),
    # -- recovery --------------------------------------------------------
    "recovery.seconds": (
        "counter",
        "Modelled hardware time spent on recovery re-evaluations",
    ),
    "recovery.reloads_total": (
        "counter",
        "Full j-memory reloads performed during recovery",
    ),
    "recovery.host_fallback_total": (
        "counter",
        "Blocks recovered on the host kernel (hardware unavailable)",
    ),
    "recovery.selftest_sweeps_total": ("counter", "In-run self-test sweeps"),
    # -- checkpoint / restart --------------------------------------------
    "checkpoint.writes_total": ("counter", "Checkpoints written"),
    "checkpoint.restores_total": ("counter", "Runs resumed from a checkpoint"),
    "checkpoint.write_seconds": (
        "histogram",
        "Wall seconds per checkpoint write (one atomic, fsynced snapshot file)",
    ),
    "checkpoint.skipped_total": (
        "counter",
        "Corrupt/truncated checkpoint candidates skipped during restore",
    ),
    # -- phase profiler ---------------------------------------------------
    "prof.spans_total": (
        "counter",
        "Spans aggregated by the phase profiler",
    ),
    "prof.phases": ("gauge", "Distinct phases in the last computed profile"),
    "prof.aggregate_seconds": (
        "counter",
        "Wall time the profiler spent aggregating spans (its own overhead)",
    ),
    # -- run-health watchdogs --------------------------------------------
    "health.checks_total": ("counter", "Health-detector evaluations"),
    "health.events_total": (
        "counter",
        "Health events emitted across all detectors",
    ),
    "health.last_severity": (
        "gauge",
        "Max severity of the latest health check (0 ok, 1 warning, 2 critical)",
    ),
    # -- bench-history store ---------------------------------------------
    "perf.history.records_total": (
        "counter",
        "Benchmark records appended to the history store",
    ),
    "perf.history.comparisons_total": (
        "counter",
        "Statistical benchmark comparisons performed (diff / gate)",
    ),
    "perf.history.regressions": (
        "gauge",
        "Significant slowdowns found by the last comparison",
    ),
    # -- multiprocess SPMD engine ----------------------------------------
    "spmd.runs_total": ("counter", "SPMD programs executed by the process engine"),
    "spmd.gang_forks_total": (
        "counter",
        "Worker processes forked: one per rank per gang, one per rank restart",
    ),
    "spmd.supersteps_total": (
        "counter",
        "Collective supersteps completed across the gang",
    ),
    "spmd.messages_total": ("counter", "Messages routed by the SPMD supervisor"),
    "spmd.bytes_total": ("counter", "Payload bytes routed by the SPMD supervisor"),
    "spmd.rank_deaths_total": (
        "counter",
        "Worker ranks observed dead (signal exit) or hung (lease expiry)",
    ),
    "spmd.rank_restarts_total": (
        "counter",
        "Worker ranks restarted with journal replay",
    ),
    "spmd.heartbeat_expiries_total": (
        "counter",
        "Rank heartbeat leases that expired (hung-rank detection)",
    ),
    "spmd.degrades_total": (
        "counter",
        "Runs degraded from processes to the in-process scheduler",
    ),
    "spmd.protocol_errors_total": (
        "counter",
        "Structured SPMD protocol errors (mismatched collective ordering)",
    ),
    "spmd.replayed_ops_total": (
        "counter",
        "Operations served from the replay journal after a rank restart",
    ),
    "spmd.recovery_seconds": (
        "counter",
        "Wall seconds spent restarting ranks or degrading (honest overhead)",
    ),
    "spmd.op_wait_seconds": (
        "histogram",
        "Blocked wait per completed SPMD operation (straggler profile)",
    ),
    "spmd.ranks": ("gauge", "Gang size of the active SPMD process engine"),
    "spmd.shm_bytes": (
        "gauge",
        "Bytes held in the engine's shared-memory particle segments",
    ),
    # -- whole-run measurements ------------------------------------------
    "run.wall_seconds": ("gauge", "Python wall-clock time of the measured run"),
    "run.energy_error": ("gauge", "Relative energy error at the end of the run"),
    "run.particles": ("gauge", "Particle count at the end of the run"),
}

#: Families whose member names are formed at runtime (kind is implied).
#: ``health.detector.`` admits the per-detector event counters
#: (``health.detector.<name>_events_total``) so custom detectors work
#: under a strict registry without a catalogue edit.
DYNAMIC_PREFIXES: tuple[str, ...] = ("events.", "health.detector.")

#: Legal metric name: dotted lower-case, Prometheus-safe after s/./_/g.
NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


def is_declared(name: str) -> bool:
    """Whether ``name`` is in the catalogue or an admitted dynamic family."""
    if name in METRIC_CATALOGUE:
        return True
    return any(name.startswith(p) for p in DYNAMIC_PREFIXES)
