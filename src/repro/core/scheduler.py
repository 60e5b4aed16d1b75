"""Block individual-timestep scheduler.

The scheduler owns the "which particles move next" logic of the block
timestep algorithm ([McM86, Mak91]): every particle has a next update
time :math:`t_i + \\Delta t_i`; the system time advances to the minimum
of these, and *all* particles sharing that minimum form the active block
integrated in parallel.  Because steps are powers of two of a common
base (see :mod:`repro.core.timestep`), many particles share update times
and blocks are large enough to fill parallel hardware — the paper's
Section 4.2 discusses exactly this property (and its limits: "the
average number of particles which can be integrated in parallel might be
as few as one hundred or less, even for N = 1e5 or larger").

:class:`BlockStats` records the block-size distribution, which the
BLOCK-PAR benchmark uses to reproduce that claim quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SchedulerError

__all__ = ["BlockStats", "BlockScheduler"]


@dataclass
class BlockStats:
    """Accumulated statistics of scheduled blocks."""

    n_blocks: int = 0
    n_particle_steps: int = 0
    min_block: int = 0
    max_block: int = 0
    #: Histogram of block sizes keyed by size (kept exact; block-size
    #: diversity is small because sizes correlate with the level grid).
    size_counts: dict = field(default_factory=dict)

    def record(self, size: int) -> None:
        """Record one scheduled block of ``size`` particles."""
        size = int(size)
        self.n_blocks += 1
        self.n_particle_steps += size
        self.min_block = size if self.n_blocks == 1 else min(self.min_block, size)
        self.max_block = max(self.max_block, size)
        self.size_counts[size] = self.size_counts.get(size, 0) + 1

    def record_sizes(self, sizes: np.ndarray) -> None:
        """:meth:`record` each of ``sizes`` in turn, in one go (new
        sizes enter :attr:`size_counts` in the order they first occur)."""
        if not sizes.size:
            return
        values, first, counts = np.unique(sizes, return_index=True,
                                          return_counts=True)
        lo, hi = int(values[0]), int(values[-1])
        self.min_block = lo if self.n_blocks == 0 else min(self.min_block, lo)
        self.max_block = max(self.max_block, hi)
        self.n_blocks += int(sizes.size)
        self.n_particle_steps += int(sizes.sum())
        for k in np.argsort(first):
            size = int(values[k])
            self.size_counts[size] = self.size_counts.get(size, 0) + int(counts[k])

    @property
    def mean_block(self) -> float:
        """Average particles per block (the hardware-parallelism measure)."""
        return self.n_particle_steps / self.n_blocks if self.n_blocks else 0.0

    def median_block(self) -> float:
        """Median block size over all scheduled blocks."""
        if not self.size_counts:
            return 0.0
        sizes = np.array(sorted(self.size_counts))
        counts = np.array([self.size_counts[s] for s in sizes])
        cum = np.cumsum(counts)
        half = cum[-1] / 2.0
        return float(sizes[np.searchsorted(cum, half)])

    def size_histogram(self, n_bins: int = 8) -> list[tuple[int, int, int]]:
        """Logarithmic block-size histogram: ``(lo, hi, count)`` rows.

        Useful for reporting block-structure fragmentation compactly
        (the BLOCK-PAR benchmark prints it for large runs).
        """
        if not self.size_counts:
            return []
        lo = max(1, self.min_block)
        hi = max(lo + 1, self.max_block)
        edges = np.unique(
            np.geomspace(lo, hi + 1, n_bins + 1).astype(np.int64)
        )
        rows = []
        for a, b in zip(edges[:-1], edges[1:]):
            count = sum(c for s, c in self.size_counts.items() if a <= s < b)
            rows.append((int(a), int(b) - 1, count))
        return rows

    def reset(self) -> None:
        self.n_blocks = 0
        self.n_particle_steps = 0
        self.min_block = 0
        self.max_block = 0
        self.size_counts.clear()


class BlockScheduler:
    """Selects the next active block from per-particle times and steps.

    The scheduler keeps the update times ``t + dt`` between blocks: a
    block step changes ``n_active`` of them, so :meth:`commit` refreshes
    those rows and the next :meth:`next_block` is one ``min`` and one
    compare instead of a fresh O(N) sum and three O(N) checks.

    The kept array is a cache, never a second source of truth.  It is
    used only when the call passes the very ``t`` / ``dt`` array objects
    it was computed from *and* the block handed out before was
    committed; the owner of the arrays calls :meth:`invalidate` wherever
    it writes them outside a block.  Every other call — other arrays, a
    caller that never commits — recomputes ``t + dt`` and checks all of
    it, on the same path, so particle removal/addition by the
    integrator cannot desynchronise it.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) feeds the
    ``scheduler.block_size`` histogram; disabled by default via the null
    registry.
    """

    def __init__(self, metrics=None) -> None:
        from ..obs import NULL_REGISTRY

        self.stats = BlockStats()
        # explicit None test: an empty registry is falsy (len() == 0)
        registry = NULL_REGISTRY if metrics is None else metrics
        self._h_block = registry.histogram("scheduler.block_size")
        self.invalidate()

    def invalidate(self) -> None:
        """Forget the kept update times (``t`` or ``dt`` was written
        outside a block); the next call recomputes and checks them."""
        self._t = self._dt = self._t_next = None
        #: ``min(t + dt)``, or None until someone asks after a commit
        self._min = None
        #: rows of the block handed out and not yet committed
        self._pending = None

    def _kept(self, t: np.ndarray, dt: np.ndarray):
        """The kept ``t + dt`` if it stands for these arrays, else None."""
        if t is self._t and dt is self._dt and self._pending is None:
            return self._t_next
        return None

    def _next_time(self) -> float:
        if self._min is None:
            self._min = float(self._t_next.min())
        return self._min

    def next_block(self, t: np.ndarray, dt: np.ndarray) -> tuple[float, np.ndarray]:
        """Return ``(t_next, active_indices)`` for the earliest block.

        ``t_next`` is the minimum of ``t + dt`` and ``active_indices`` the
        (sorted) indices of every particle whose update time equals it.

        Raises
        ------
        SchedulerError
            If any step is non-positive or times are non-finite.
        """
        t_next_all = self._kept(t, dt)
        if t_next_all is None:
            self.invalidate()
            t_next_all = t + dt
            _check_rows(t_next_all, dt)
            self._t, self._dt, self._t_next = t, dt, t_next_all
        t_next = self._next_time()
        # Exact comparison is safe: block times are sums of powers of two
        # on a shared grid, which are exactly representable.
        active = np.nonzero(t_next_all == t_next)[0]
        if active.size == 0:  # pragma: no cover - defensive
            raise SchedulerError("empty active block")
        self._pending = active
        self.stats.record(active.size)
        self._h_block.observe(active.size)
        return t_next, active

    def commit(self) -> None:
        """The block handed out by :meth:`next_block` has been written
        back into ``t`` / ``dt``: refresh its rows of the kept update
        times and check them (the rows no block has touched were
        checked when they were written).

        Raises
        ------
        SchedulerError
            If a written step is non-positive or a time non-finite; the
            block stays uncommitted, so the next call recomputes, checks
            everything and raises it again.
        """
        rows = self._pending
        if rows is None:
            return
        dt_rows = self._dt[rows]
        t_next_rows = self._t[rows] + dt_rows
        _check_rows(t_next_rows, dt_rows)
        self._t_next[rows] = t_next_rows
        self._pending = self._min = None

    def peek_time(self, t: np.ndarray, dt: np.ndarray) -> float:
        """The next update time without recording a block."""
        if self._kept(t, dt) is None:
            return float((t + dt).min())
        return self._next_time()


def _check_rows(t_next: np.ndarray, dt: np.ndarray) -> None:
    if not np.isfinite(t_next).all():
        raise SchedulerError("non-finite update time in scheduler")
    if (dt <= 0.0).any():
        raise SchedulerError("non-positive timestep in scheduler")
