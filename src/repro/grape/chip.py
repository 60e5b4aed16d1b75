"""The GRAPE-6 processor chip model.

One chip (paper Figure 9) integrates:

* six force pipelines (:class:`~repro.grape.pipeline.ForcePipelineArray`),
* one **predictor pipeline** that advances the chip's locally stored
  j-particles to the current block time with the Taylor predictor —
  exactly the arithmetic of :mod:`repro.core.predictor`,
* the j-particle **memory interface** (SSRAM on the daughter card) with
  a bounded particle capacity, and
* the network interface (modelled at board level).

A chip owns a *slice* of the global particle set.  The host writes
j-particles into chip memory at load time and rewrites individual slots
after each corrector step; the chip predicts and streams them through
the pipelines on every force request.
"""

from __future__ import annotations

import numpy as np

from ..constants import GRAPE6_JMEM_PARTICLES_PER_CHIP
from ..core.predictor import predict_positions, predict_velocities
from ..errors import GrapeMemoryError
from .host import JWRITE_BYTES
from .pipeline import ForcePipelineArray, PipelineResult

__all__ = ["JMemory", "Grape6Chip"]


class JMemory:
    """Fixed-capacity j-particle store of one chip.

    Slots hold ``(key, mass, pos, vel, acc, jerk, t)``; the predictor
    needs position derivatives up to jerk.  Writes address slots by
    *key* (the host keeps the key->(chip, slot) directory).
    """

    def __init__(self, capacity: int = GRAPE6_JMEM_PARTICLES_PER_CHIP) -> None:
        if capacity < 1:
            raise GrapeMemoryError("j-memory capacity must be positive")
        self.capacity = int(capacity)
        self.n = 0
        self.key = np.empty(0, dtype=np.int64)
        self.mass = np.empty(0)
        self.pos = np.empty((0, 3))
        self.vel = np.empty((0, 3))
        self.acc = np.empty((0, 3))
        self.jerk = np.empty((0, 3))
        self.t = np.empty(0)
        self._slot_of_key: dict[int, int] = {}
        #: Bytes written into this memory (for the comm model).
        self.bytes_written = 0

    def load(self, key, mass, pos, vel, acc, jerk, t) -> None:
        """Bulk-load a fresh particle slice (replaces all contents)."""
        n = len(key)
        if n > self.capacity:
            raise GrapeMemoryError(
                f"{n} particles exceed j-memory capacity {self.capacity}"
            )
        self.n = n
        self.key = np.ascontiguousarray(key, dtype=np.int64)
        self.mass = np.ascontiguousarray(mass, dtype=np.float64)
        self.pos = np.ascontiguousarray(pos, dtype=np.float64)
        self.vel = np.ascontiguousarray(vel, dtype=np.float64)
        self.acc = np.ascontiguousarray(acc, dtype=np.float64)
        self.jerk = np.ascontiguousarray(jerk, dtype=np.float64)
        self.t = np.ascontiguousarray(t, dtype=np.float64)
        self._slot_of_key = {int(k): i for i, k in enumerate(self.key)}
        self.bytes_written += n * JWRITE_BYTES

    def update(self, key, mass, pos, vel, acc, jerk, t) -> None:
        """Rewrite the slots of existing particles (post-corrector push)."""
        key = np.asarray(key, dtype=np.int64)
        slots = np.empty(len(key), dtype=np.int64)
        for i, k in enumerate(key):
            try:
                slots[i] = self._slot_of_key[int(k)]
            except KeyError:
                raise GrapeMemoryError(f"key {int(k)} not resident in this j-memory")
        self.mass[slots] = mass
        self.pos[slots] = pos
        self.vel[slots] = vel
        self.acc[slots] = acc
        self.jerk[slots] = jerk
        self.t[slots] = t
        self.bytes_written += len(key) * JWRITE_BYTES


class Grape6Chip:
    """One GRAPE-6 chip: j-memory + predictor + 6 force pipelines."""

    def __init__(
        self,
        chip_id: int,
        eps: float = 0.0,
        jmem_capacity: int = GRAPE6_JMEM_PARTICLES_PER_CHIP,
        emulate_precision: bool = False,
    ) -> None:
        self.chip_id = int(chip_id)
        self.jmem = JMemory(capacity=jmem_capacity)
        self.pipelines = ForcePipelineArray(
            n_pipelines=6, eps=eps, emulate_precision=emulate_precision
        )
        #: Cumulative hardware counters.
        self.force_cycles = 0
        self.predictor_cycles = 0
        self.interactions = 0

    @property
    def n_resident(self) -> int:
        """j-particles currently stored on this chip."""
        return self.jmem.n

    def predict_local(self, t_now: float) -> tuple[np.ndarray, np.ndarray]:
        """Run the predictor pipeline over the resident j-particles.

        One j-particle per cycle, overlapping the force pipelines in
        real hardware; counted separately here.
        """
        m = self.jmem
        dt = t_now - m.t
        pred_pos = predict_positions(m.pos, m.vel, m.acc, m.jerk, dt)
        pred_vel = predict_velocities(m.vel, m.acc, m.jerk, dt)
        self.predictor_cycles += m.n
        return pred_pos, pred_vel

    def compute(
        self,
        pos_i: np.ndarray,
        vel_i: np.ndarray,
        i_keys: np.ndarray,
        t_now: float,
    ) -> PipelineResult:
        """Partial force on the i-block from this chip's j-slice."""
        if self.jmem.n == 0:
            z = np.zeros((len(pos_i), 3))
            return PipelineResult(acc=z, jerk=z.copy(), cycles=0, interactions=0)
        pred_pos, pred_vel = self.predict_local(t_now)
        result = self.pipelines.evaluate(
            pos_i,
            vel_i,
            pred_pos,
            pred_vel,
            self.jmem.mass,
            exclude_keys=(np.asarray(i_keys, dtype=np.int64), self.jmem.key),
        )
        self.force_cycles += result.cycles
        self.interactions += result.interactions
        return result

    def neighbours(
        self,
        pos_i: np.ndarray,
        i_keys: np.ndarray,
        t_now: float,
        h: np.ndarray | float,
    ):
        """Neighbour query against this chip's (predicted) j-slice.

        On the real chip this rides the force pass for free; no cycles
        are charged here either.
        """
        from .neighbours import NeighbourResult, neighbour_search

        if self.jmem.n == 0:
            n_i = np.atleast_2d(pos_i).shape[0]
            return NeighbourResult(
                lists=[np.empty(0, dtype=np.int64) for _ in range(n_i)],
                nearest_key=np.full(n_i, -1, dtype=np.int64),
                nearest_dist=np.full(n_i, np.inf),
            )
        pred_pos, _ = self.predict_local(t_now)
        return neighbour_search(
            pos_i, pred_pos, self.jmem.key, h,
            exclude_keys=np.asarray(i_keys, dtype=np.int64),
        )

    def reset_counters(self) -> None:
        self.force_cycles = 0
        self.predictor_cycles = 0
        self.interactions = 0
