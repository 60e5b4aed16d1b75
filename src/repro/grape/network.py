"""The GRAPE-6 network board (NB) model.

A network board (paper Figures 5, 7, 10) is the fan-out/fan-in element
between one host port and four downlinks (processor boards or cascaded
NBs).  It contains:

* a configurable distribution network for the downstream direction —
  **broadcast**, **2-way multicast**, or **point-to-point** (Section
  4.3: "Thus, we can use a 4-host, 16-processor board system as single
  entity, as two units, and as four separate units");
* a hardware **reduction tree** for the upstream direction that sums
  partial forces arriving from the downlinks;
* two output ports and three cascade inputs for connecting the NBs of
  different nodes in one cluster (modelled at cluster level).

Time model: all four downlinks run in parallel, so a broadcast of B
bytes costs one link transfer of B; point-to-point of per-target
payloads costs the slowest target's transfer.  The reduction tree adds
the uplink transfer of one result block.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..errors import ConfigurationError, GrapeLinkError
from .board import capacity_slices, sum_partials
from .host import JWRITE_BYTES
from .links import Link, lvds_link
from .pipeline import PipelineResult

__all__ = ["NetworkMode", "NetworkBoard"]


class NetworkMode(Enum):
    """Downstream routing configurations of a network board."""

    BROADCAST = "broadcast"
    MULTICAST_2WAY = "multicast-2way"
    POINT_TO_POINT = "point-to-point"


class NetworkBoard:
    """One network board with up to four downlink targets.

    ``targets`` are objects exposing the board compute interface
    (``compute``, ``load``, ``n_resident``, ``capacity``,
    ``alive_capacity``) —
    either :class:`~repro.grape.board.ProcessorBoard` or another
    :class:`NetworkBoard` (cascading, paper Section 4.3).
    """

    MAX_DOWNLINKS = 4

    def __init__(self, nb_id: int, targets, mode: NetworkMode = NetworkMode.BROADCAST):
        targets = list(targets)
        if not targets:
            raise ConfigurationError("a network board needs at least one target")
        if len(targets) > self.MAX_DOWNLINKS:
            raise ConfigurationError(
                f"a network board has at most {self.MAX_DOWNLINKS} downlinks"
            )
        self.nb_id = int(nb_id)
        self.targets = targets
        self.mode = mode
        self.uplink: Link = lvds_link()
        self.downlinks: list[Link] = [lvds_link() for _ in targets]
        #: Cumulative time spent in NB transfers [s].
        self.comm_seconds = 0.0

    # -- structure -----------------------------------------------------------

    @property
    def n_resident(self) -> int:
        return sum(t.n_resident for t in self.targets)

    @property
    def capacity(self) -> int:
        return sum(t.capacity for t in self.targets)

    @property
    def alive_capacity(self) -> int:
        """Capacity below this NB counting only working chips."""
        return sum(t.alive_capacity for t in self.targets)

    def descendants_boards(self):
        """All processor boards below this NB (flattening cascades)."""
        out = []
        for t in self.targets:
            if isinstance(t, NetworkBoard):
                out.extend(t.descendants_boards())
            else:
                out.append(t)
        return out

    # -- j-memory management ---------------------------------------------------

    def load(self, key, mass, pos, vel, acc, jerk, t) -> None:
        """Split a j-slice over the downlink targets by capacity share.

        Shares follow *alive* capacity, so a target whose chips are all
        masked receives nothing and the slice lands on working hardware.
        """
        slices = capacity_slices(len(key), [t_.alive_capacity for t_ in self.targets])
        for tgt, sl in zip(self.targets, slices):
            tgt.load(key[sl], mass[sl], pos[sl], vel[sl], acc[sl], jerk[sl], t[sl])
            # downstream write traffic
            self.comm_seconds += self.downlinks[0].transfer(
                (sl.stop - sl.start) * JWRITE_BYTES
            )

    # -- data movement -------------------------------------------------------

    def broadcast_time(self, nbytes: int) -> float:
        """Time to push ``nbytes`` to every target (parallel links)."""
        if self.mode is NetworkMode.POINT_TO_POINT:
            raise GrapeLinkError("broadcast not available in point-to-point mode")
        times = [link.transfer(nbytes) for link in self.downlinks]
        t = max(times)
        self.comm_seconds += t
        return t

    def reduce_time(self, nbytes: int) -> float:
        """Time for the reduction tree to emit one summed result block."""
        t = self.uplink.transfer(nbytes)
        self.comm_seconds += t
        return t

    # -- force computation -----------------------------------------------------

    def compute(
        self,
        pos_i: np.ndarray,
        vel_i: np.ndarray,
        i_keys: np.ndarray,
        t_now: float,
        clock_hz: float,
    ) -> PipelineResult:
        """Fan out the i-block, reduce the partial forces.

        Targets operate in parallel; the NB cost is the slowest target
        plus the up/down transfers, which the caller assembles from the
        link counters.
        """
        return sum_partials(
            len(pos_i),
            (tgt.compute(pos_i, vel_i, i_keys, t_now, clock_hz) for tgt in self.targets),
        )

    def reset_counters(self) -> None:
        self.comm_seconds = 0.0
        self.uplink.reset()
        for link in self.downlinks:
            link.reset()
        for t in self.targets:
            t.reset_counters()
