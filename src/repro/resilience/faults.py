"""Deterministic fault injection for the GRAPE-6 simulator.

Production GRAPE-6 runs lived with hardware attrition: chips with
defective pipelines were masked at bring-up, boards died mid-run, LVDS
cables dropped transfers.  The paper's multi-hour production run
survived because the host software detected bad results, masked the
offending hardware and restarted from checkpoints.  This module
reproduces the *causes* so :mod:`repro.resilience.recover` can be
exercised: a :class:`FaultPlan` schedules :class:`FaultSpec` events at
block indices, and a :class:`FaultInjector` attached to a
:class:`~repro.grape.system.Grape6Machine` applies them as the run
crosses each index.

Everything is seeded and deterministic — the same plan against the same
machine injects the same faults into the same chips, so chaos tests are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..errors import ConfigurationError, SimulationKilled

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FAULT_DOMAINS",
    "RANK_KINDS",
]


class FaultKind(str, Enum):
    """Injectable fault categories.

    Hardware faults (chip/pipeline/board/j-memory) require a
    hierarchy-mode machine — in flat mode there is no per-chip state to
    damage, so they are skipped.  Link and host faults apply in
    both modes.  Rank faults target the multiprocess SPMD gang of
    :class:`~repro.parallel.proc.ProcEngine` — ``at_block`` is a
    *superstep* index there, not a machine block index.
    """

    CHIP_KILL = "chip_kill"          #: mask every pipeline of one chip
    PIPELINE_MASK = "pipeline_mask"  #: mask some pipelines of one chip
    BOARD_KILL = "board_kill"        #: mask every chip on one board
    JMEM_CORRUPT = "jmem_corrupt"    #: flip resident j-memory words to NaN
    LINK_DROP = "link_drop"          #: drop transfers on a hardware link
    LINK_DELAY = "link_delay"        #: one-shot bandwidth degradation
    HOST_KILL = "host_kill"          #: kill the run (checkpoint restart)
    RANK_KILL = "rank_kill"          #: SIGKILL one SPMD worker process
    RANK_STALL = "rank_stall"        #: wedge a worker (heartbeat stops)
    MSG_DELAY = "msg_delay"          #: hold one rank's deliveries briefly


#: Kinds that need a hierarchy-mode machine to have any effect.
HARDWARE_KINDS = frozenset(
    {
        FaultKind.CHIP_KILL,
        FaultKind.PIPELINE_MASK,
        FaultKind.BOARD_KILL,
        FaultKind.JMEM_CORRUPT,
    }
)

#: Kinds that target SPMD worker ranks (superstep-indexed).
RANK_KINDS = frozenset(
    {FaultKind.RANK_KILL, FaultKind.RANK_STALL, FaultKind.MSG_DELAY}
)

#: Which scheduling domain drives each kind.  ``machine`` kinds fire
#: from :meth:`FaultInjector.apply_due` at block indices and ``rank``
#: kinds from :meth:`FaultInjector.rank_actions` at SPMD
#: superstep boundaries.  ``tools/check_fault_matrix.py`` fails the
#: build if a kind has no domain or a domain has no live driver.
FAULT_DOMAINS: dict[FaultKind, str] = {
    FaultKind.CHIP_KILL: "machine",
    FaultKind.PIPELINE_MASK: "machine",
    FaultKind.BOARD_KILL: "machine",
    FaultKind.JMEM_CORRUPT: "machine",
    FaultKind.LINK_DROP: "machine",
    FaultKind.LINK_DELAY: "machine",
    FaultKind.HOST_KILL: "machine",
    FaultKind.RANK_KILL: "rank",
    FaultKind.RANK_STALL: "rank",
    FaultKind.MSG_DELAY: "rank",
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Parameters
    ----------
    kind:
        What breaks.
    at_block:
        Machine block index at which the fault fires (for rank kinds,
        the SPMD superstep index instead).
    target:
        Optional explicit coordinates — ``(cluster, node, board, chip)``
        prefixes for hardware faults, a link component name for link
        faults.  ``None`` picks deterministically from the plan's seed.
    params:
        Kind-specific knobs (``n_pipelines``, ``count``, ``factor``,
        ``component``, ``value``).
    """

    kind: FaultKind
    at_block: int
    target: tuple | str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.at_block < 0:
            raise ConfigurationError("at_block must be >= 0")


class FaultPlan:
    """An ordered, one-shot schedule of faults.

    Each spec fires exactly once, at the first block (or superstep)
    whose index reaches ``at_block`` — indices can be skipped by
    recovery re-evaluations, so the comparison is ``>=`` with
    consumption tracking rather than equality.
    """

    def __init__(self, specs, seed: int = 0) -> None:
        self.specs = sorted(specs, key=lambda s: s.at_block)
        self.seed = int(seed)
        self._fired: set[int] = set()

    def __len__(self) -> int:
        return len(self.specs)

    def due(self, index: int, domain: str = "machine") -> list[FaultSpec]:
        """Specs that fire at ``index`` in the requested domain,
        ``"machine"`` or ``"rank"`` (see :data:`FAULT_DOMAINS`)."""
        out = []
        for i, spec in enumerate(self.specs):
            if i in self._fired:
                continue
            if FAULT_DOMAINS[spec.kind] != domain:
                continue
            if index >= spec.at_block:
                self._fired.add(i)
                out.append(spec)
        return out

    @property
    def n_pending(self) -> int:
        return len(self.specs) - len(self._fired)

    @classmethod
    def random(
        cls,
        kinds,
        n_faults: int,
        max_block: int,
        seed: int = 0,
    ) -> "FaultPlan":
        """A seeded random plan of ``n_faults`` drawn from ``kinds``."""
        kinds = [FaultKind(k) for k in kinds]
        if not kinds:
            raise ConfigurationError("need at least one fault kind")
        rng = np.random.default_rng(seed)
        specs = [
            FaultSpec(
                kind=kinds[int(rng.integers(len(kinds)))],
                at_block=int(rng.integers(max_block)),
            )
            for _ in range(n_faults)
        ]
        return cls(specs, seed=seed)


class FaultInjector:
    """Applies a :class:`FaultPlan` to a machine as block indices pass.

    The machine calls :meth:`apply_due` at the top of every
    ``compute_block`` and :meth:`link_overhead` after pricing the step.
    Injection methods are named
    ``_inject_<kind.value>`` — ``tools/check_fault_matrix.py`` fails the
    build if a :class:`FaultKind` has no implementation.
    """

    def __init__(self, plan: FaultPlan | None, machine=None, obs=None) -> None:
        self.plan = plan
        self.machine = machine
        self.rng = np.random.default_rng(plan.seed if plan else 0)
        #: armed link faults drained by :meth:`link_overhead`:
        #: ("drop", component, count) or ("delay", component, factor)
        self._pending_link: list[tuple] = []
        #: armed rank faults drained by :meth:`rank_actions`
        self._pending_rank: list[FaultSpec] = []
        self.injected = 0
        self.observe(obs)

    def observe(self, obs) -> None:
        from ..obs import NULL_OBS

        self.obs = obs or NULL_OBS
        m = self.obs.metrics
        self._c_injected = m.counter("faults.injected_total")
        self._c_retrans = m.counter("faults.link_retransmits_total")
        self._g_masked = m.gauge("faults.masked_chips")

    # -- scheduling ------------------------------------------------------

    def apply_due(self, block_index: int) -> None:
        """Fire every machine-domain fault scheduled up to ``block_index``."""
        if self.plan is None:
            return
        for spec in self.plan.due(block_index):
            getattr(self, f"_inject_{spec.kind.value}")(spec)

    def _count(self) -> None:
        self.injected += 1
        self._c_injected.inc()

    def _update_masked_gauge(self) -> None:
        if self.machine is not None:
            dead = sum(
                1
                for *_, chip in self.machine.iter_chips()
                if chip.pipelines.is_dead
            )
            self._g_masked.set(dead)

    # -- target selection ------------------------------------------------

    def _alive_chips(self):
        if self.machine is None:
            return []
        return [
            (ci, ni, bi, chi, chip)
            for ci, ni, bi, chi, chip in self.machine.iter_chips()
            if not chip.pipelines.is_dead
        ]

    def _pick_chip(self, spec: FaultSpec):
        """The targeted chip, or a seeded-random alive one (None in flat
        mode / when everything is already dead)."""
        chips = self._alive_chips()
        if not chips:
            return None
        if spec.target is not None:
            want = tuple(spec.target)
            for entry in chips:
                if entry[: len(want)] == want:
                    return entry[-1]
            return None
        return chips[int(self.rng.integers(len(chips)))][-1]

    def _pick_board(self, spec: FaultSpec):
        if self.machine is None:
            return None
        boards = [
            (ci, ni, bi, board)
            for ci, ni, bi, board in self.machine.iter_boards()
            if board.alive_chips()
        ]
        if not boards:
            return None
        if spec.target is not None:
            want = tuple(spec.target)
            for entry in boards:
                if entry[: len(want)] == want:
                    return entry[-1]
            return None
        return boards[int(self.rng.integers(len(boards)))][-1]

    # -- injections ------------------------------------------------------

    def _inject_chip_kill(self, spec: FaultSpec) -> None:
        chip = self._pick_chip(spec)
        if chip is None:
            return
        chip.pipelines.mask_pipelines(chip.pipelines.n_pipelines)
        self._count()
        self._update_masked_gauge()

    def _inject_pipeline_mask(self, spec: FaultSpec) -> None:
        chip = self._pick_chip(spec)
        if chip is None:
            return
        n = int(spec.params.get("n_pipelines", 1))
        pipes = chip.pipelines
        already = pipes.n_pipelines - pipes.active_pipelines
        pipes.mask_pipelines(min(pipes.n_pipelines, already + n))
        self._count()
        self._update_masked_gauge()

    def _inject_board_kill(self, spec: FaultSpec) -> None:
        board = self._pick_board(spec)
        if board is None:
            return
        for chip in board.chips:
            chip.pipelines.mask_pipelines(chip.pipelines.n_pipelines)
        self._count()
        self._update_masked_gauge()

    def _inject_jmem_corrupt(self, spec: FaultSpec) -> None:
        """Flip resident j-memory words to a poison value.

        The predictor then emits non-finite positions, the pipelines
        emit non-finite partial forces, and the per-block force guard
        trips — the detection path a real bit-flip would take.
        """
        chips = [e for e in self._alive_chips() if e[-1].n_resident > 0]
        if not chips:
            return
        if spec.target is not None:
            want = tuple(spec.target)
            chips = [e for e in chips if e[: len(want)] == want] or chips
        chip = chips[int(self.rng.integers(len(chips)))][-1]
        value = float(spec.params.get("value", np.nan))
        slot = int(self.rng.integers(chip.jmem.n))
        chip.jmem.pos[slot] = value
        self._count()

    def _arm_hardware_link(self, component: str, count: int) -> None:
        """Also arm a concrete link object so byte/retransmit counters
        move in hierarchy mode (the timing charge is separate)."""
        if self.machine is None or not self.machine.clusters:
            return
        if component == "lvds":
            boards = [b for *_, b in self.machine.iter_boards()]
            if boards:
                boards[int(self.rng.integers(len(boards)))].link_in.fail_next(count)
        elif component == "gbe":
            clusters = self.machine.clusters
            clusters[int(self.rng.integers(len(clusters)))].gbe.fail_next(count)

    def _inject_link_drop(self, spec: FaultSpec) -> None:
        component = str(spec.target or spec.params.get("component", "lvds"))
        if component not in ("lvds", "pci", "gbe"):
            raise ConfigurationError(f"unknown link component {component!r}")
        count = int(spec.params.get("count", 3))
        self._pending_link.append(("drop", component, count))
        self._arm_hardware_link(component, count)
        self._count()

    def _inject_link_delay(self, spec: FaultSpec) -> None:
        component = str(spec.target or spec.params.get("component", "lvds"))
        if component not in ("lvds", "pci", "gbe"):
            raise ConfigurationError(f"unknown link component {component!r}")
        factor = float(spec.params.get("factor", 4.0))
        self._pending_link.append(("delay", component, factor))
        self._count()

    def _inject_host_kill(self, spec: FaultSpec) -> None:
        self._count()
        raise SimulationKilled(
            f"fault injector: host killed at block {spec.at_block}"
        )

    def _inject_rank_kill(self, spec: FaultSpec) -> None:
        self._pending_rank.append(spec)
        self._count()

    def _inject_rank_stall(self, spec: FaultSpec) -> None:
        self._pending_rank.append(spec)
        self._count()

    def _inject_msg_delay(self, spec: FaultSpec) -> None:
        self._pending_rank.append(spec)
        self._count()

    def rank_actions(self, superstep: int) -> list[FaultSpec]:
        """Rank-domain faults due at ``superstep``, armed and drained.

        :class:`~repro.parallel.proc.ProcEngine` calls this at every
        superstep boundary (and once at run start) and applies the
        returned specs itself — SIGKILLing the target worker, setting
        its stall flag, or delaying its message deliveries.  The target
        rank is ``spec.target`` (or ``spec.params["rank"]``), defaulting
        to ``at_block % n_ranks`` so seeded random plans spread kills
        across the gang deterministically.
        """
        if self.plan is not None:
            for spec in self.plan.due(superstep, domain="rank"):
                getattr(self, f"_inject_{spec.kind.value}")(spec)
        out, self._pending_rank = self._pending_rank, []
        return out

    # -- overhead accounting ---------------------------------------------

    def _backoff_latency(self, component: str) -> float:
        tm = getattr(self.machine, "timing_model", None)
        if tm is None:
            return 1e-5
        return getattr(tm, f"{component}_latency")

    def link_overhead(self, step) -> dict:
        """Extra seconds per timing component from armed link faults.

        A drop of ``count`` transfers costs ``count`` repeats of the
        step's component time plus exponential-backoff waits; a delay
        stretches one component by its factor.  Drained on call.
        """
        if not self._pending_link:
            return {}
        out: dict[str, float] = {}
        for kind, component, arg in self._pending_link:
            base = getattr(step, component)
            latency = self._backoff_latency(component)
            if kind == "drop":
                count = int(arg)
                extra = sum(base + latency * 2.0**k for k in range(count))
                self._c_retrans.inc(count)
            else:
                extra = base * (float(arg) - 1.0)
            out[component] = out.get(component, 0.0) + extra
        self._pending_link.clear()
        return out
