"""Preallocated, shape-bucketed scratch for the kernel engine.

GRAPE-6's pipeline working set is a fixed set of registers and the
j-memory, sized once at power-on.  :class:`KernelWorkspace` is the
software analogue for the buffers the engine itself owns: the
per-chunk partial-sum slabs of a threaded sweep
(:meth:`KernelWorkspace.partials`) and the native tier's predicted-row
scratch (:meth:`KernelWorkspace.vec`).  Each is bucketed on its row
count (rounded up to the next power of two), so a handful of buckets
serves every block size the scheduler produces and a warm engine
allocates nothing of its own.

One workspace is private to one thread.  The engine keeps a
thread-local workspace per executor worker plus one for the calling
thread; the only cross-thread arrays are the partial-sum slabs, which
are written by disjoint chunk indices and reduced by the caller in
fixed order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KernelWorkspace", "bucket_size"]


def bucket_size(n: int, floor: int = 8) -> int:
    """Round ``n`` up to the next power of two (at least ``floor``)."""
    n = max(int(n), 1)
    b = 1 << (n - 1).bit_length()
    return max(b, floor)


class KernelWorkspace:
    """Creates-or-reuses bucketed vectors and partial-sum slabs.

    Parameters
    ----------
    on_alloc:
        Optional callback ``f(nbytes)`` invoked whenever a new bucket
        is allocated (the engine uses it to aggregate workspace bytes
        across thread-local workspaces into one gauge).
    """

    def __init__(self, on_alloc=None) -> None:
        self._vectors: dict[tuple[int, int, int], np.ndarray] = {}
        self._on_alloc = on_alloc

    def vec(self, rows: int, ncomp: int) -> np.ndarray:
        """A ``(rows, ncomp)`` buffer, bucketed on the row dimension."""
        key = (bucket_size(rows), int(ncomp), 0)
        vec = self._vectors.get(key)
        if vec is None:
            vec = np.empty(key[:2])
            self._vectors[key] = vec
            if self._on_alloc is not None:
                self._on_alloc(vec.nbytes)
        return vec[:rows]

    def partials(self, n_chunks: int, rows: int, ncomp: int, slot: int = 0) -> np.ndarray:
        """Per-chunk partial-sum slab ``(n_chunks, rows[, ncomp])``.

        Backing store for the fixed-order reduction: chunk task ``k``
        writes slice ``[k]``; the caller sums slices in ascending ``k``
        (the software analogue of the GRAPE-6 network-board reduction
        tree).  The view is *not* zeroed — each chunk task zeroes its
        own slice before accumulating, so stale data from a previous
        (larger) call can never leak into a sum.
        """
        key = (
            bucket_size(n_chunks, floor=1) * 1024 + int(ncomp) * 64 + int(slot),
            bucket_size(rows),
            -1,
        )
        slab = self._vectors.get(key)
        if slab is None:
            shape = (bucket_size(n_chunks, floor=1), key[1]) + ((ncomp,) if ncomp else ())
            slab = np.empty(shape)
            self._vectors[key] = slab
            if self._on_alloc is not None:
                self._on_alloc(slab.nbytes)
        return slab[:n_chunks, :rows]
