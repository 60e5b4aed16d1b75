"""Host-computer cost model.

The paper's hosts are Athlon XP Linux PCs.  Under the GRAPE division of
labour the host performs, per active particle per block step, **O(1)**
work (prediction of the i-particle, the Hermite corrector, timestep
update, scheduler bookkeeping) while the GRAPE does the **O(N)** force
loop (Section 4.3).  The cost model below captures that with two
calibrated constants plus the PCI transfer costs of the host interface
board; the SCALE-NODES and HOST-VS-GRAPE benchmarks sweep them.

Default constants correspond to a ~1 Gflops-class early-2000s CPU
running the (C-implemented) host code of the production runs:
~2.5 microseconds per particle-step of host arithmetic and ~40
microseconds of fixed per-block overhead (scheduler + DMA setup).
"""

from __future__ import annotations

from dataclasses import dataclass

from .links import Link, pci_link

__all__ = [
    "HostCostModel", "HostInterface", "IPARTICLE_BYTES", "RESULT_BYTES", "JWRITE_BYTES",
]

#: Bytes the host ships per i-particle (predicted pos+vel, eps, key...).
IPARTICLE_BYTES = 56

#: Bytes returned per i-particle (acc, jerk, potential, neighbour info).
RESULT_BYTES = 56

#: Bytes per j-particle memory write (GRAPE-6 stores position as 3x64-bit
#: fixed point, velocity/acc/jerk as shorter words, mass and time).
JWRITE_BYTES = 88


@dataclass
class HostCostModel:
    """Per-step host CPU cost: ``t = fixed + per_particle * n_active``."""

    seconds_per_particle_step: float = 2.5e-6
    seconds_fixed_per_block: float = 4.0e-5

    def block_time(self, n_active: int) -> float:
        """Host CPU time for one block of ``n_active`` particles."""
        if n_active < 0:
            raise ValueError("n_active must be non-negative")
        return self.seconds_fixed_per_block + self.seconds_per_particle_step * n_active


class HostInterface:
    """The host-interface board (HIB): PCI transfers host <-> GRAPE."""

    def __init__(self, cost_model: HostCostModel | None = None) -> None:
        self.pci: Link = pci_link()
        self.cost_model = cost_model or HostCostModel()
        #: Cumulative host CPU seconds (modelled, not measured).
        self.host_seconds = 0.0
        #: Cumulative PCI seconds.
        self.pci_seconds = 0.0

    def send_i_particles(self, n: int) -> float:
        """Ship an i-block to the GRAPE side; returns the PCI time."""
        t = self.pci.transfer(n * IPARTICLE_BYTES)
        self.pci_seconds += t
        return t

    def receive_results(self, n: int) -> float:
        """Collect force results for ``n`` i-particles."""
        t = self.pci.transfer(n * RESULT_BYTES)
        self.pci_seconds += t
        return t

    def write_j_particles(self, n: int) -> float:
        """Write ``n`` corrected particles back to j-memory."""
        t = self.pci.transfer(n * JWRITE_BYTES)
        self.pci_seconds += t
        return t

    def charge_host_block(self, n_active: int) -> float:
        """Account the host CPU work for one block step."""
        t = self.cost_model.block_time(n_active)
        self.host_seconds += t
        return t

    def reset_counters(self) -> None:
        self.host_seconds = 0.0
        self.pci_seconds = 0.0
        self.pci.reset()
