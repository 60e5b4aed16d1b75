"""The assembled GRAPE-6 machine and its integrator-facing backend.

:class:`Grape6Machine` is the complete Figure-11 system: clusters of
nodes of boards of chips, plus the analytic timing model that prices
every block step.  It runs in one of two functional modes:

``"flat"`` (default)
    Forces are evaluated in one vectorised sweep (numerically identical
    to the host reference up to float summation order) while **all
    hardware costs are charged through the timing model** using the
    exact per-chip load shapes.  This is the fast path used by long
    benchmark runs.

``"hierarchy"``
    The force request actually descends the object tree — every chip
    predicts its resident j-slice and evaluates its partial forces,
    boards and network boards reduce them, links count bytes.  This is
    the validation path: tests assert it agrees with ``"flat"`` to
    float-reordering tolerance, and that the hardware counters agree
    with the analytic model.

:class:`Grape6Backend` adapts the machine to the
:class:`~repro.core.backends.ForceBackend` interface so a
:class:`~repro.core.integrator.Simulation` can run "on GRAPE-6".
"""

from __future__ import annotations

import numpy as np

from ..core.backends import ForceBackend
from ..core.forces import InteractionCounter
from ..core.predictor import predict_system
from ..errors import ConfigurationError, GrapeError, GrapeMemoryError
from .board import round_robin_slices
from .cluster import Cluster, Node
from .host import HostCostModel
from .timing import Grape6Config, Grape6TimingModel, TimingTotals

__all__ = ["Grape6Machine", "Grape6Backend"]


class Grape6Machine:
    """A complete GRAPE-6 machine (functional + performance simulator).

    Parameters
    ----------
    config:
        Machine shape; defaults to the paper's 2048-chip system.
    eps:
        Plummer softening baked into the force pipelines.
    mode:
        ``"flat"`` or ``"hierarchy"`` (see module docstring).
    emulate_precision:
        Route the pipelines through the reduced-precision emulation.
    jmem_capacity_per_chip:
        Override chip j-memory capacity (tests use small values to
        exercise overflow handling).
    """

    def __init__(
        self,
        config: Grape6Config | None = None,
        eps: float = 0.0,
        mode: str = "flat",
        emulate_precision: bool = False,
        jmem_capacity_per_chip: int | None = None,
        host_cost: HostCostModel | None = None,
        obs=None,
    ) -> None:
        if mode not in ("flat", "hierarchy"):
            raise ConfigurationError(f"unknown mode {mode!r}")
        self.config = config or Grape6Config()
        self.eps = float(eps)
        self.mode = mode
        self.emulate_precision = bool(emulate_precision)
        self.timing_model = Grape6TimingModel(self.config, host_cost=host_cost)
        self.totals = TimingTotals()
        self.jmem_capacity_per_chip = jmem_capacity_per_chip
        from ..accel import get_engine

        #: Force-kernel engine serving flat mode; shared with the host
        #: backend so flat results stay bitwise identical to it.
        self.engine = get_engine()
        self.clusters: list[Cluster] = []
        if mode == "hierarchy":
            self.clusters = self._build_clusters()
        self._n_loaded = 0
        #: Host key directory (hierarchy mode), rebuilt by :meth:`load`.
        self._directory: dict[int, list] = {}
        #: Resilience hooks (:mod:`repro.resilience`); ``None`` keeps the
        #: fault path at one-attribute-lookup cost per block.
        self.injector = None
        self.recovery = None
        self._block_index = 0
        self.observe(obs)

    # -- observability -------------------------------------------------------

    def observe(self, obs) -> None:
        """Attach an observability bundle (:class:`repro.obs.Observability`).

        Every block step then reports the modelled time split into the
        metrics registry (``grape.pipeline_seconds`` / ``host_seconds``
        / ``comm_seconds``, mirroring :attr:`totals`) and emits a
        ``grape.block_step`` span on the model-time track whose
        children are the per-stage critical path — host arithmetic,
        j-memory write (PCI), reduction tree (LVDS), force pipelines,
        GbE broadcast.  Pass ``None`` to detach (the null default).
        """
        from ..obs import NULL_OBS

        self.obs = obs or NULL_OBS
        m = self.obs.metrics
        self._c_blocks = m.counter("grape.blocks_total")
        self._c_interactions = m.counter("grape.interactions_total")
        self._c_pipe_s = m.counter("grape.pipeline_seconds")
        self._c_host_s = m.counter("grape.host_seconds")
        self._c_comm_s = m.counter("grape.comm_seconds")
        m.gauge("grape.peak_flops").set(self.config.peak_flops)
        if self.injector is not None:
            self.injector.observe(self.obs)
        if self.recovery is not None:
            self.recovery.observe(self.obs)

    # -- resilience ----------------------------------------------------------

    def attach_resilience(self, plan=None) -> None:
        """Arm the machine with a fault plan and a recovery manager.

        ``plan`` is a :class:`repro.resilience.FaultPlan` (or ``None``
        for detection/recovery without injected faults).  After this,
        every :meth:`compute_block` (a) applies faults the plan schedules
        for the current block index, (b) sanity-checks the returned
        forces, and (c) on any :class:`~repro.errors.GrapeError` masks
        the offending hardware, reloads the j-distribution and
        re-evaluates the block — the operational loop of a real GRAPE
        installation.
        """
        from ..resilience import FaultInjector, RecoveryManager

        self.injector = FaultInjector(plan, self, obs=self.obs)
        self.recovery = RecoveryManager(self, obs=self.obs)

    def iter_chips(self):
        """Yield ``(cluster_i, node_i, board_i, chip_i, chip)`` tuples."""
        for ci, cluster in enumerate(self.clusters):
            for ni, node in enumerate(cluster.nodes):
                for bi, board in enumerate(node.boards):
                    for chi, chip in enumerate(board.chips):
                        yield ci, ni, bi, chi, chip

    def iter_boards(self):
        """Yield ``(cluster_i, node_i, board_i, board)`` tuples."""
        for ci, cluster in enumerate(self.clusters):
            for ni, node in enumerate(cluster.nodes):
                for bi, board in enumerate(node.boards):
                    yield ci, ni, bi, board

    # -- construction -------------------------------------------------------

    def _build_clusters(self) -> list[Cluster]:
        cfg = self.config
        clusters = []
        for c in range(cfg.n_clusters):
            nodes = [
                Node(
                    node_id=c * cfg.nodes_per_cluster + k,
                    eps=self.eps,
                    boards_per_node=cfg.boards_per_node,
                    chips_per_board=cfg.chips_per_board,
                    jmem_capacity_per_chip=self.jmem_capacity_per_chip,
                    emulate_precision=self.emulate_precision,
                )
                for k in range(cfg.nodes_per_cluster)
            ]
            clusters.append(Cluster(cluster_id=c, nodes=nodes))
        return clusters

    # -- capacity ---------------------------------------------------------------

    @property
    def jmem_capacity(self) -> int:
        """Particles one full j-copy can hold (per cluster)."""
        if self.clusters:
            return self.clusters[0].capacity
        cap = self.jmem_capacity_per_chip or 16384
        return cap * self.config.chips_per_node * self.config.nodes_per_cluster

    # -- particle management ------------------------------------------------------

    def load(self, system) -> None:
        """Write the whole particle set into every cluster's j-copy."""
        n = system.n
        if n > self.jmem_capacity:
            raise GrapeMemoryError(
                f"{n} particles exceed the machine's j-capacity {self.jmem_capacity}"
            )
        self._n_loaded = n
        if self.recovery is not None and self.recovery.host_only:
            return  # hardware is out of capacity; the host kernel serves
        try:
            for cluster in self.clusters:
                cluster.load(
                    system.key, system.mass, system.pos, system.vel,
                    system.acc, system.jerk, system.t,
                )
        finally:
            # a load that ran out of capacity part-way still leaves rows
            # on some chips; the directory must name exactly those
            self._build_directory()

    def _build_directory(self) -> None:
        """Rebuild the host's key directory from the chips' j-memories.

        ``key -> [(node, chip), ...]``: every chip holding the key, one
        per cluster copy, in cluster order.
        """
        directory: dict[int, list] = {}
        for ci, ni, _, _, chip in self.iter_chips():
            node = self.clusters[ci].nodes[ni]
            for k in chip.jmem.key.tolist():
                directory.setdefault(k, []).append((node, chip))
        self._directory = directory

    def push_updates(self, system, active: np.ndarray) -> None:
        """Write corrected particles into every chip that holds them.

        The host routes each row through its key directory; every node
        holding an updated key pays one PCI j-write for the rows it holds.
        """
        if not self.clusters:
            return  # flat mode reads the live arrays; nothing stored
        idx = np.asarray(active)
        rows_of_chip: dict = {}
        rows_of_node: dict = {}
        for row, k in enumerate(system.key[idx].tolist()):
            for node, chip in self._directory.get(k, ()):
                rows_of_chip.setdefault(chip, []).append(row)
                rows_of_node.setdefault(node, set()).add(row)
        for node, rows in rows_of_node.items():
            node.host.write_j_particles(len(rows))
        for chip, rows in rows_of_chip.items():
            r = idx[rows]
            chip.jmem.update(
                system.key[r], system.mass[r], system.pos[r], system.vel[r],
                system.acc[r], system.jerk[r], system.t[r],
            )

    # -- force computation ----------------------------------------------------------

    def compute_block(
        self, system, active: np.ndarray, t_now: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Force + jerk on the active block; charges the timing model."""
        active = np.asarray(active)
        n_active = active.size
        n_total = system.n
        if self._n_loaded != n_total:
            raise GrapeMemoryError(
                "machine particle count is stale; call load() after changing N"
            )

        if self.injector is not None:
            self.injector.apply_due(self._block_index)
        self._block_index += 1

        try:
            if self.recovery is not None and self.recovery.host_only:
                acc, jerk = self._compute_flat(system, active, t_now)
            elif self.mode == "flat":
                acc, jerk = self._compute_flat(system, active, t_now)
            else:
                acc, jerk = self._compute_hierarchy(system, active, t_now)
            if self.recovery is not None:
                self.recovery.check_forces(acc, jerk)
        except GrapeError as exc:
            if self.recovery is None:
                raise
            acc, jerk = self.recovery.recover_block(system, active, t_now, exc)

        step = self.timing_model.block_step(n_active, n_total)
        self.totals.add(step, n_active, n_total)
        self._c_blocks.inc()
        self._c_interactions.inc(n_active * n_total)
        self._c_pipe_s.inc(step.pipe)
        self._c_host_s.inc(step.host)
        self._c_comm_s.inc(step.pci + step.lvds + step.gbe)
        if self.obs.enabled:
            self.obs.tracer.model_span(
                "grape.block_step",
                step.total,
                attrs={"n_active": int(n_active), "n_total": int(n_total)},
                children=[
                    ("grape.host_calc", step.host),
                    ("grape.jmem_write", step.pci),
                    ("grape.reduction_tree", step.lvds),
                    ("grape.pipeline", step.pipe),
                    ("grape.gbe_bcast", step.gbe),
                ],
            )

        # Retransmit cost of armed link faults: charged as pure overhead
        # (no block, no interactions), exactly like a flaky LVDS cable.
        if self.injector is not None:
            overhead = self.injector.link_overhead(step)
            if overhead:
                extra = sum(overhead.values())
                self.totals.add_overhead(**overhead)
                self._c_comm_s.inc(extra)
                if self.obs.enabled:
                    self.obs.tracer.model_span("grape.link_retransmit", extra)
        return acc, jerk

    def _compute_flat(self, system, active, t_now):
        # Same engine dispatch as HostDirectBackend.forces_on — the
        # kernel pick and the arithmetic match exactly, which is what
        # keeps flat mode bitwise identical to the host backend.
        return self.engine.acc_jerk_active(system, active, t_now, self.eps)

    def _compute_hierarchy(self, system, active, t_now):
        from ..core.predictor import predict_positions, predict_velocities

        # Host-side prediction of the i-block only; the chips predict
        # their own j-slices.
        dt = t_now - system.t[active]
        pos_i = predict_positions(
            system.pos[active], system.vel[active],
            system.acc[active], system.jerk[active], dt,
        )
        vel_i = predict_velocities(
            system.vel[active], system.acc[active], system.jerk[active], dt
        )
        i_keys = system.key[active]

        n_active = active.size
        acc = np.zeros((n_active, 3))
        jerk = np.zeros((n_active, 3))
        shares = round_robin_slices(n_active, len(self.clusters))
        for cluster, share in zip(self.clusters, shares):
            if share.size == 0:
                continue
            res = cluster.compute(
                pos_i[share], vel_i[share], i_keys[share],
                t_now, self.config.clock_hz,
            )
            acc[share] = res.acc
            jerk[share] = res.jerk
        return acc, jerk

    # -- neighbour search -----------------------------------------------------------

    def neighbours_of(self, system, active: np.ndarray, t_now: float, h):
        """Hardware neighbour-list query for the active block.

        Returns a :class:`~repro.grape.neighbours.NeighbourResult` with
        per-particle neighbour keys within radius ``h`` and nearest
        neighbours.  Free of pipeline cycles (rides the force pass on
        the real chip); the result transfer is small and not priced.
        """
        from ..core.predictor import predict_positions
        from .neighbours import merge_neighbour_results, neighbour_search

        active = np.asarray(active)
        dt = t_now - system.t[active]
        pos_i = predict_positions(
            system.pos[active], system.vel[active],
            system.acc[active], system.jerk[active], dt,
        )
        i_keys = system.key[active]

        if self.mode == "flat":
            predict_system(system, t_now)
            return neighbour_search(
                pos_i, system.pred_pos, system.key, h, exclude_keys=i_keys
            )

        # every cluster holds a full j-copy; query exactly one of them
        chip_results = [
            chip.neighbours(pos_i, i_keys, t_now, h)
            for ci, *_, chip in self.iter_chips()
            if ci == 0 and chip.n_resident
        ]
        return merge_neighbour_results(chip_results)

    # -- reporting ----------------------------------------------------------------

    def achieved_flops(self) -> float:
        """Modelled sustained speed over everything computed so far."""
        return self.totals.achieved_flops_per_s()

    def efficiency(self) -> float:
        """Achieved / peak over the accumulated run."""
        peak = self.config.peak_flops
        return self.achieved_flops() / peak if peak else 0.0

    def reset_counters(self) -> None:
        self.totals = TimingTotals()
        for cluster in self.clusters:
            cluster.reset_counters()


class Grape6Backend(ForceBackend):
    """:class:`~repro.core.backends.ForceBackend` adapter for the machine.

    Drop-in replacement for
    :class:`~repro.core.backends.HostDirectBackend`: the integration is
    identical (flat mode) or float-reordering-close (hierarchy mode),
    and the machine's :class:`~repro.grape.timing.TimingTotals` price
    what the run would have cost on the real hardware.
    """

    def __init__(self, machine: Grape6Machine) -> None:
        self.machine = machine
        self.counter = InteractionCounter()

    @property
    def eps(self) -> float:
        return self.machine.eps

    def load(self, system) -> None:
        self.machine.load(system)

    def forces_on(self, system, active: np.ndarray, t_now: float):
        acc, jerk = self.machine.compute_block(system, active, t_now)
        self.counter.add(np.asarray(active).size, system.n, with_jerk=True)
        return acc, jerk

    def push_updates(self, system, active: np.ndarray) -> None:
        self.machine.push_updates(system, active)
