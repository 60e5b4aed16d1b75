"""The GRAPE-6 processor board (PB) model.

A processor board (paper Figure 8) carries 32 chips — eight daughter
cards of four chips — one LVDS input port and one LVDS output port, and
a hardware reduction tree that sums the partial forces of its chips.

The board's j-slice is distributed round-robin over its chips so chip
loads differ by at most one particle; the board's force time is the
*maximum* chip time (chips run in parallel), plus the reduction tree
(a few cycles per i-particle, negligible and folded into the pipeline
depth).
"""

from __future__ import annotations

import numpy as np

from ..constants import GRAPE6_CHIPS_PER_BOARD, GRAPE6_CHIPS_PER_DAUGHTER_CARD
from ..errors import GrapeMemoryError
from .chip import Grape6Chip
from .links import Link, lvds_link
from .pipeline import PipelineResult

__all__ = ["ProcessorBoard", "round_robin_slices", "capacity_slices", "sum_partials"]


def round_robin_slices(n_items: int, n_bins: int) -> list[np.ndarray]:
    """Index arrays assigning ``n_items`` to ``n_bins`` round-robin.

    Bin ``b`` receives items ``b, b+n_bins, b+2*n_bins, ...`` — the
    GRAPE-6 host library's j-distribution, which balances loads to ±1.
    """
    return [np.arange(b, n_items, n_bins) for b in range(n_bins)]


def capacity_slices(n_items: int, caps) -> list[slice]:
    """Contiguous slices of ``n_items`` in proportion to ``caps``.

    Target ``k`` ends at ``floor(cumsum(caps / total)[k] * n_items)``;
    the remainder is pinned on the last target with capacity, so a dead
    trailing target ends with an empty slice, not the rest.
    """
    caps = np.asarray(caps, dtype=float)
    total = caps.sum()
    if total == 0.0:
        if n_items:
            raise GrapeMemoryError("no working chips to hold the j-slice")
        return [slice(0, 0) for _ in caps]
    ends = np.floor(np.cumsum(caps / total) * n_items).astype(int)
    ends[int(np.nonzero(caps)[0][-1]):] = n_items
    starts = np.concatenate([[0], ends[:-1]])
    return [slice(int(a), int(b)) for a, b in zip(starts, ends)]


def sum_partials(n_i: int, results) -> PipelineResult:
    """One reduction-tree tier: the sum of its children's partial forces.

    Partials are added in child order; children run in parallel, so the
    tier takes the slowest child's cycles, and its interactions are the
    children's added up.
    """
    acc = np.zeros((n_i, 3))
    jerk = np.zeros((n_i, 3))
    max_cycles = 0
    interactions = 0
    for res in results:
        acc += res.acc
        jerk += res.jerk
        max_cycles = max(max_cycles, res.cycles)
        interactions += res.interactions
    return PipelineResult(
        acc=acc, jerk=jerk, cycles=max_cycles, interactions=interactions
    )


class ProcessorBoard:
    """One processor board: 32 chips behind one LVDS port pair."""

    def __init__(
        self,
        board_id: int,
        eps: float = 0.0,
        n_chips: int = GRAPE6_CHIPS_PER_BOARD,
        jmem_capacity_per_chip: int | None = None,
        emulate_precision: bool = False,
    ) -> None:
        self.board_id = int(board_id)
        kwargs = {}
        if jmem_capacity_per_chip is not None:
            kwargs["jmem_capacity"] = jmem_capacity_per_chip
        self.chips = [
            Grape6Chip(chip_id=c, eps=eps, emulate_precision=emulate_precision, **kwargs)
            for c in range(n_chips)
        ]
        self.link_in: Link = lvds_link()
        self.link_out: Link = lvds_link()
        #: Cumulative board-level force time [s] (max over chips per call).
        self.force_seconds = 0.0

    @property
    def n_chips(self) -> int:
        return len(self.chips)

    @property
    def n_daughter_cards(self) -> int:
        return -(-self.n_chips // GRAPE6_CHIPS_PER_DAUGHTER_CARD)

    @property
    def n_resident(self) -> int:
        """Total j-particles stored on this board."""
        return sum(chip.n_resident for chip in self.chips)

    @property
    def capacity(self) -> int:
        return sum(chip.jmem.capacity for chip in self.chips)

    @property
    def alive_capacity(self) -> int:
        """j-memory capacity of the working chips only (what the
        distribution layer may actually use after masking)."""
        return sum(c.jmem.capacity for c in self.alive_chips())

    # -- j-memory management -------------------------------------------------

    def alive_chips(self) -> list:
        """Chips with at least one working pipeline (dead ones are
        skipped by the j-distribution, as the production host library
        did for chips with fully defective pipeline sets)."""
        return [c for c in self.chips if not c.pipelines.is_dead]

    def load(self, key, mass, pos, vel, acc, jerk, t) -> None:
        """Distribute a j-slice round-robin over the working chips."""
        n = len(key)
        chips = self.alive_chips()
        if not chips and n > 0:
            raise GrapeMemoryError("no working chips on this board")
        cap = sum(c.jmem.capacity for c in chips)
        if n > cap:
            raise GrapeMemoryError(f"{n} particles exceed board capacity {cap}")
        for chip in self.chips:
            if chip.pipelines.is_dead and chip.n_resident:
                chip.jmem.load(
                    np.empty(0, dtype=np.int64), np.empty(0), np.empty((0, 3)),
                    np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)), np.empty(0),
                )
        for chip, idx in zip(chips, round_robin_slices(n, len(chips))):
            chip.jmem.load(
                key[idx], mass[idx], pos[idx], vel[idx], acc[idx], jerk[idx], t[idx]
            )

    # -- force computation ---------------------------------------------------

    def compute(
        self,
        pos_i: np.ndarray,
        vel_i: np.ndarray,
        i_keys: np.ndarray,
        t_now: float,
        clock_hz: float,
    ) -> PipelineResult:
        """Partial force on the i-block from this board's j-slice.

        Chips run in parallel; the board result is the reduction-tree
        sum and the board time is the slowest chip's cycle count.
        """
        res = sum_partials(
            len(pos_i),
            (
                chip.compute(pos_i, vel_i, i_keys, t_now)
                for chip in self.chips
                if chip.n_resident
            ),
        )
        self.force_seconds += res.cycles / clock_hz
        return res

    def reset_counters(self) -> None:
        self.force_seconds = 0.0
        self.link_in.reset()
        self.link_out.reset()
        for chip in self.chips:
            chip.reset_counters()
