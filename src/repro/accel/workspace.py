"""Preallocated, shape-bucketed tile buffers for the force kernels.

The reference kernels in :mod:`repro.core.forces` materialise every
``(n_i, n_j)`` interaction tile (``dr``, ``dv``, ``r2``, …) with fresh
allocations on every call — roughly ten large temporaries per block
step, re-acquired from the allocator thousands of times per simulated
orbit.  GRAPE-6 does the opposite: the pipeline's working set is a
fixed set of registers and the j-memory, sized once at power-on.

:class:`KernelWorkspace` is the software analogue.  It owns one set of
tile buffers per *shape bucket* (dimensions rounded up to the next
power of two, so a handful of buckets serves every block size the
scheduler produces) and hands out C-contiguous **views** of exactly the
shape requested, laid over the front of each bucket plane.  After
warm-up the hot loop performs zero heap allocations: every ufunc and
einsum in :mod:`repro.accel.kernels` runs in its ``out=`` form against
these buffers.

Every pairwise quantity is a ``(rows, cols)`` *component plane*
(structure of arrays: ``dx``, ``dy``, ``dz`` rather than one
``(rows, cols, 3)`` tile), so each kernel pass is a unit-stride stream
over whole planes instead of a length-3 inner loop.

One workspace is private to one thread.  The engine keeps a
thread-local workspace per executor worker plus one for the calling
thread, so tile buffers are never shared across threads; the only
cross-thread arrays are the per-chunk partial-sum slabs
(:meth:`KernelWorkspace.partials`), which are written by disjoint
chunk indices and reduced by the caller in fixed order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TileBuffers", "TileView", "KernelWorkspace", "bucket_size"]


def bucket_size(n: int, floor: int = 8) -> int:
    """Round ``n`` up to the next power of two (at least ``floor``)."""
    n = max(int(n), 1)
    b = 1 << (n - 1).bit_length()
    return max(b, floor)


class TileBuffers:
    """One bucket's worth of tile storage (allocated once).

    ``rows x cols`` is the bucket shape; :meth:`view` lays the live
    tile over the front of each plane.  Buffer roles (all float64):

    ``dx, dy, dz``
        ``(rows, cols)`` separation component planes.
    ``dvx, dvy, dvz``
        ``(rows, cols)`` relative-velocity component planes (the
        quadrupole pass reuses them for ``Q dr``).
    ``r2, rv, s, mr3, w``
        ``(rows, cols)`` scalar fields: softened distance^2, r.v,
        scratch (dot-product terms, r^3, r, …), mass/r^3, jerk
        weight.
    ``vec1, vec2``
        ``(rows, 3)`` einsum landing pads for force/jerk partials.
    ``row1``
        ``(rows,)`` scalar landing pad (potential partials).
    """

    PLANES = ("dx", "dy", "dz", "dvx", "dvy", "dvz", "r2", "rv", "s", "mr3", "w")

    __slots__ = ("rows", "cols") + PLANES + ("vec1", "vec2", "row1")

    def __init__(self, rows: int, cols: int) -> None:
        self.rows = int(rows)
        self.cols = int(cols)
        for name in self.PLANES:
            setattr(self, name, np.empty((rows, cols)))
        self.vec1 = np.empty((rows, 3))
        self.vec2 = np.empty((rows, 3))
        self.row1 = np.empty((rows,))

    @property
    def nbytes(self) -> int:
        return sum(
            getattr(self, name).nbytes
            for name in self.__slots__
            if isinstance(getattr(self, name), np.ndarray)
        )

    def view(self, rows: int, cols: int) -> "TileView":
        if rows > self.rows or cols > self.cols:
            raise ValueError(
                f"tile ({rows}, {cols}) exceeds bucket ({self.rows}, {self.cols})"
            )
        return TileView(self, rows, cols)


class TileView:
    """Exact-shape, C-contiguous views into one :class:`TileBuffers` bucket.

    Each plane is the first ``rows * cols`` elements of the bucket plane
    reshaped to ``(rows, cols)`` — not ``plane[:rows, :cols]``, whose
    row stride is the bucket's power-of-two width: with such a stride
    every row of all eleven planes maps to the same cache sets.
    """

    __slots__ = TileBuffers.PLANES + ("vec1", "vec2", "row1")

    def __init__(self, buf: TileBuffers, rows: int, cols: int) -> None:
        size = rows * cols
        for name in TileBuffers.PLANES:
            plane = getattr(buf, name).reshape(-1)[:size].reshape(rows, cols)
            setattr(self, name, plane)
        self.vec1 = buf.vec1[:rows]
        self.vec2 = buf.vec2[:rows]
        self.row1 = buf.row1[:rows]


class KernelWorkspace:
    """Creates-or-reuses :class:`TileBuffers` per shape bucket.

    Parameters
    ----------
    on_alloc:
        Optional callback ``f(nbytes)`` invoked whenever a new bucket
        is allocated (the engine uses it to aggregate workspace bytes
        across thread-local workspaces into one gauge).
    """

    def __init__(self, on_alloc=None) -> None:
        self._tiles: dict[tuple[int, int], TileBuffers] = {}
        self._vectors: dict[tuple[int, int, int], np.ndarray] = {}
        self._on_alloc = on_alloc

    # -- tile buffers -----------------------------------------------------

    def tile(self, rows: int, cols: int) -> TileView:
        """A tile view of exactly ``(rows, cols)``; bucketed storage."""
        key = (bucket_size(rows), bucket_size(cols))
        buf = self._tiles.get(key)
        if buf is None:
            buf = TileBuffers(*key)
            self._tiles[key] = buf
            if self._on_alloc is not None:
                self._on_alloc(buf.nbytes)
        return buf.view(rows, cols)

    # -- flat vectors -----------------------------------------------------

    def vec(self, rows: int, ncomp: int, slot: int = 0) -> np.ndarray:
        """A ``(rows, ncomp)`` (``(rows,)`` when ``ncomp`` is 0) buffer.

        ``slot`` distinguishes simultaneously live vectors of the same
        shape — e.g. the fused path's predicted source positions and
        velocities, or per-chunk prediction offsets.  Bucketed on the
        row dimension; never shared across slots.
        """
        key = (bucket_size(rows), int(ncomp), int(slot))
        vec = self._vectors.get(key)
        if vec is None:
            shape = (key[0], ncomp) if ncomp else (key[0],)
            vec = np.empty(shape)
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

    # -- introspection ----------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total bytes held across all buckets."""
        total = sum(b.nbytes for b in self._tiles.values())
        total += sum(a.nbytes for a in self._vectors.values())
        return total

    @property
    def n_buckets(self) -> int:
        return len(self._tiles) + len(self._vectors)
