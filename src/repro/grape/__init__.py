"""GRAPE-6 hardware simulator (paper Sections 4-5, Figures 1-12).

The package mirrors the physical hierarchy:

* :mod:`~repro.grape.pipeline` — the 57-op force pipeline (6 per chip)
* :mod:`~repro.grape.chip` — chip: pipelines + predictor + j-memory
* :mod:`~repro.grape.board` — processor board: 32 chips + reduction
* :mod:`~repro.grape.network` — network board: fan-out + reduction tree
* :mod:`~repro.grape.host` — host CPU + PCI cost models
* :mod:`~repro.grape.cluster` — node (host + NB + 4 PB), 4-node cluster
* :mod:`~repro.grape.links` — LVDS / PCI / GbE link models
* :mod:`~repro.grape.timing` — machine config + analytic step model
* :mod:`~repro.grape.system` — the assembled machine and its
  :class:`~repro.core.backends.ForceBackend` adapter
* :mod:`~repro.grape.fixedpoint` — hardware number-format emulation
"""

from .board import ProcessorBoard, round_robin_slices
from .chip import Grape6Chip, JMemory
from .neighbours import NeighbourResult, neighbour_search
from .cluster import Cluster, Node
from .fixedpoint import FixedPointGrid, round_mantissa
from .host import HostCostModel, HostInterface
from .links import Link, gbe_link, lvds_link, pci_link
from .network import NetworkBoard, NetworkMode
from .pipeline import ForcePipelineArray, PipelineResult
from .selftest import ChipReport, SelfTestReport, self_test
from .system import Grape6Backend, Grape6Machine
from .timing import Grape6Config, Grape6TimingModel, StepTiming, TimingTotals

__all__ = [
    "ProcessorBoard",
    "round_robin_slices",
    "Grape6Chip",
    "JMemory",
    "NeighbourResult",
    "neighbour_search",
    "Cluster",
    "Node",
    "FixedPointGrid",
    "round_mantissa",
    "HostCostModel",
    "HostInterface",
    "Link",
    "gbe_link",
    "lvds_link",
    "pci_link",
    "NetworkBoard",
    "NetworkMode",
    "ForcePipelineArray",
    "PipelineResult",
    "ChipReport",
    "SelfTestReport",
    "self_test",
    "Grape6Backend",
    "Grape6Machine",
    "Grape6Config",
    "Grape6TimingModel",
    "StepTiming",
    "TimingTotals",
]
