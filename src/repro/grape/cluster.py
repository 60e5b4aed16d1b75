"""Nodes and clusters: the GRAPE-6 system hierarchy above boards.

Paper Section 5.1: "we call a system of single host, single [network
board] and 4 processor boards a *node*, and a 4-node system with
hardware network a *cluster*."  The complete machine is four clusters
joined by Gigabit Ethernet (Figure 11).

Work division (the hybrid scheme of Section 5.1):

* **j-parallelism inside a cluster** — the four nodes of a cluster each
  hold one quarter of *all* particles in their j-memories; every node
  computes the partial force of its quarter on the cluster's i-block
  and the partials are summed over the cluster's hardware network
  (the NB data-exchange scheme of Figures 4-5, so the *hosts* never
  exchange particle data).
* **i-parallelism across clusters** — each cluster serves one quarter
  of the active block; clusters exchange corrected particles over
  Gigabit Ethernet.
"""

from __future__ import annotations

from ..constants import GRAPE6_BOARDS_PER_NODE
from ..errors import ConfigurationError
from .board import ProcessorBoard, capacity_slices, round_robin_slices, sum_partials
from .host import HostInterface
from .links import Link, gbe_link
from .network import NetworkBoard, NetworkMode
from .pipeline import PipelineResult

__all__ = ["Node", "Cluster"]


class Node:
    """One host + one network board + four processor boards."""

    def __init__(
        self,
        node_id: int,
        eps: float = 0.0,
        boards_per_node: int = GRAPE6_BOARDS_PER_NODE,
        chips_per_board: int = 32,
        jmem_capacity_per_chip: int | None = None,
        emulate_precision: bool = False,
    ) -> None:
        if boards_per_node < 1:
            raise ConfigurationError("a node needs at least one board")
        self.node_id = int(node_id)
        self.boards = [
            ProcessorBoard(
                board_id=b,
                eps=eps,
                n_chips=chips_per_board,
                jmem_capacity_per_chip=jmem_capacity_per_chip,
                emulate_precision=emulate_precision,
            )
            for b in range(boards_per_node)
        ]
        self.nb = NetworkBoard(nb_id=node_id, targets=self.boards, mode=NetworkMode.BROADCAST)
        self.host = HostInterface()

    @property
    def n_chips(self) -> int:
        return sum(b.n_chips for b in self.boards)

    @property
    def n_resident(self) -> int:
        return self.nb.n_resident

    @property
    def capacity(self) -> int:
        return self.nb.capacity

    @property
    def alive_capacity(self) -> int:
        return self.nb.alive_capacity

    def load(self, key, mass, pos, vel, acc, jerk, t) -> None:
        """Load this node's j-slice, split over its boards."""
        self.nb.load(key, mass, pos, vel, acc, jerk, t)

    def compute(
        self, pos_i, vel_i, i_keys, t_now: float, clock_hz: float
    ) -> PipelineResult:
        """Partial forces of this node's j-slice on the i-block."""
        self.host.send_i_particles(len(pos_i))
        result = self.nb.compute(pos_i, vel_i, i_keys, t_now, clock_hz)
        self.host.receive_results(len(pos_i))
        return result

    def reset_counters(self) -> None:
        self.host.reset_counters()
        self.nb.reset_counters()


class Cluster:
    """Four nodes with a dedicated inter-NB hardware network."""

    def __init__(self, cluster_id: int, nodes) -> None:
        nodes = list(nodes)
        if not nodes:
            raise ConfigurationError("a cluster needs at least one node")
        self.cluster_id = int(cluster_id)
        self.nodes = nodes
        #: Gigabit link of this cluster's hosts to the rest of the system.
        self.gbe: Link = gbe_link()

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_chips(self) -> int:
        return sum(n.n_chips for n in self.nodes)

    @property
    def capacity(self) -> int:
        return sum(n.capacity for n in self.nodes)

    @property
    def n_resident(self) -> int:
        return sum(n.n_resident for n in self.nodes)

    @property
    def alive_capacity(self) -> int:
        return sum(n.alive_capacity for n in self.nodes)

    def load(self, key, mass, pos, vel, acc, jerk, t) -> None:
        """Distribute *all* particles over this cluster's nodes (j-split).

        Healthy hardware gets the host library's round-robin split
        (loads balanced to ±1).  If masking has left some node short of
        its equal share, the split degrades to the network board's
        contiguous :func:`~repro.grape.board.capacity_slices` so the
        slice still fits.
        """
        n = len(key)
        slices = round_robin_slices(n, self.n_nodes)
        caps = [node.alive_capacity for node in self.nodes]
        if any(idx.size > cap for idx, cap in zip(slices, caps)):
            slices = capacity_slices(n, caps)
        for node, idx in zip(self.nodes, slices):
            node.load(key[idx], mass[idx], pos[idx], vel[idx], acc[idx], jerk[idx], t[idx])

    def compute(
        self, pos_i, vel_i, i_keys, t_now: float, clock_hz: float
    ) -> PipelineResult:
        """Full force on the i-block: sum the nodes' j-partials.

        The inter-node reduction runs on the cluster's hardware network
        (NB cascade links); nodes compute in parallel so the cluster
        pipeline time is the slowest node.
        """
        return sum_partials(
            len(pos_i),
            (node.compute(pos_i, vel_i, i_keys, t_now, clock_hz) for node in self.nodes),
        )

    def reset_counters(self) -> None:
        self.gbe.reset()
        for node in self.nodes:
            node.reset_counters()
