"""Direct-summation gravitational force and jerk kernels.

These are the software equivalent of the GRAPE-6 force pipeline: for each
*i*-particle, accumulate over all *j*-particles the Plummer-softened
acceleration and its first time derivative (jerk),

.. math::

    \\mathbf{a}_i = \\sum_j m_j \\frac{\\mathbf{r}_{ij}}{(r_{ij}^2+\\epsilon^2)^{3/2}},
    \\qquad
    \\dot{\\mathbf{a}}_i = \\sum_j m_j \\left[
        \\frac{\\mathbf{v}_{ij}}{(r_{ij}^2+\\epsilon^2)^{3/2}}
        - \\frac{3 (\\mathbf{r}_{ij}\\cdot\\mathbf{v}_{ij})\\,\\mathbf{r}_{ij}}
               {(r_{ij}^2+\\epsilon^2)^{5/2}} \\right],

with :math:`\\mathbf{r}_{ij} = \\mathbf{r}_j - \\mathbf{r}_i`.  The jerk is
what makes the 4th-order Hermite scheme possible with a single force
evaluation per step (Makino & Aarseth 1992); GRAPE-6 computes it in
hardware at a cost the paper books as 19 extra operations on top of the
38-op force (57 ops per interaction total).

All kernels are NumPy-vectorised with broadcasting over an
``(n_i, n_j)`` interaction tile and chunk the *i* axis to bound the
temporary-memory footprint (guides: prefer broadcasting, mind cache and
memory).  They also count interactions so the benchmark harness can apply
the paper's flop-counting convention.

:func:`acc_jerk`, :func:`node_force` and :func:`pairwise_potential` are
also the NumPy tier of :class:`repro.accel.KernelEngine`, which calls
them once per j-chunk.  They work on ``(rows, n_j)`` *component planes*
(``dx``/``dy``/``dz`` rather than one ``(rows, n_j, 3)`` tile), so every
pass is a unit-stride stream; dot products add in x, y, z order and row
sums are one ``einsum("ij,ij->i")`` per component, so a row's sum
depends only on that row, never on the row chunk it landed in.  The
force is summed as ``sum_j (m_j / r^3) dr_ij`` directly — not the
BLAS-shaped ``sum_j (m_j / r^3) x_j - x_i sum_j (m_j / r^3)``, which
loses ``|x| / |dr|`` digits to cancellation for close neighbours in a
disk far from the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InteractionCounter",
    "acc_jerk",
    "acc_only",
    "potential_energy",
    "pairwise_potential",
    "node_force",
    "min_pairwise_distance",
    "nearest_pair",
]

#: Maximum number of pairwise-tile elements materialised at once
#: (n_i_chunk * n_j); 2**22 doubles * ~10 temporaries stays well under
#: typical L3 + keeps allocation overhead amortised.
_TILE_BUDGET = 1 << 22

#: Elements of one ``(rows, n_j)`` component plane the plane oracles
#: (:func:`acc_jerk`, :func:`node_force`, :func:`pairwise_potential`)
#: hold at once; about a dozen such planes are live per row chunk.
_PLANE_TILE_BUDGET = 1 << 15


@dataclass
class InteractionCounter:
    """Accumulates pairwise-interaction counts for flop accounting.

    The paper's performance figures use the Gordon Bell convention of 38
    floating-point operations per force interaction plus 19 for the jerk
    (57 total).  The counter records raw interaction counts; conversion to
    flops lives in :mod:`repro.perf.flops`.
    """

    force_interactions: int = 0
    jerk_interactions: int = 0
    force_calls: int = 0
    #: Per-call (n_active, n_source) history, kept only when ``trace=True``.
    trace: bool = False
    history: list = field(default_factory=list)

    def add(self, n_i: int, n_j: int, with_jerk: bool) -> None:
        """Record a force evaluation of ``n_i`` sinks against ``n_j`` sources."""
        pairs = int(n_i) * int(n_j)
        self.force_interactions += pairs
        if with_jerk:
            self.jerk_interactions += pairs
        self.force_calls += 1
        if self.trace:
            self.history.append((int(n_i), int(n_j), bool(with_jerk)))

    def reset(self) -> None:
        """Zero all counters and drop the trace history."""
        self.force_interactions = 0
        self.jerk_interactions = 0
        self.force_calls = 0
        self.history.clear()


def _i_chunk_size(n_j: int) -> int:
    """Number of i-particles per tile so that the tile fits the budget."""
    return max(1, _TILE_BUDGET // max(n_j, 1))


def _plane_rows(n_j: int) -> int:
    """Sink rows per chunk of the plane oracles."""
    return max(1, _PLANE_TILE_BUDGET // max(n_j, 1))


def _planes(a_i: np.ndarray, a_j: np.ndarray):
    """``a_j - a_i`` of two ``(n, 3)`` arrays as three component planes."""
    return tuple(a_j[None, :, k] - a_i[:, None, k] for k in range(3))


def _dot(a, b):
    """``a . b`` of two plane triples, summed in x, y, z order."""
    out = a[0] * b[0]
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


def _row_sums(weight, planes):
    """``(rows, 3)``: ``sum_j weight * p_k`` per component ``k``."""
    out = np.empty((weight.shape[0], 3))
    for k, plane in enumerate(planes):
        out[:, k] = np.einsum("ij,ij->i", weight, plane)
    return out


def _fill_self_pairs(tile, self_indices, start: int, stop: int, value) -> None:
    """Write ``value`` at the self pair of sink rows ``[start, stop)`` in
    their ``(rows, n_j)`` ``tile``.  ``self_indices[i]`` is sink ``i``'s
    column in the source list; ``-1`` means it has none (as in
    :class:`repro.accel.KernelEngine`), not "the last column"."""
    if self_indices is None:
        return
    cols = np.asarray(self_indices)[start:stop]
    rows = np.nonzero(cols >= 0)[0]
    tile[rows, cols[rows]] = value


def acc_jerk(
    pos_i: np.ndarray,
    vel_i: np.ndarray,
    pos_j: np.ndarray,
    vel_j: np.ndarray,
    mass_j: np.ndarray,
    eps: float,
    self_indices: np.ndarray | None = None,
    counter: InteractionCounter | None = None,
    include: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Softened acceleration and jerk on sinks ``i`` from sources ``j``.

    Parameters
    ----------
    pos_i, vel_i:
        Sink positions/velocities, shape ``(n_i, 3)``.
    pos_j, vel_j, mass_j:
        Source positions, velocities and masses, shapes ``(n_j, 3)`` and
        ``(n_j,)``.
    eps:
        Plummer softening length; must be > 0 if any sink coincides with a
        source (the self-interaction is removed explicitly instead).
    self_indices:
        If the sinks are a subset of the sources, the index of each sink
        within the source arrays (shape ``(n_i,)``); the corresponding
        diagonal interaction is excluded; an entry of ``-1`` excludes
        nothing for that sink.  ``None`` means sinks and sources are
        disjoint sets.
    counter:
        Optional :class:`InteractionCounter` to update.
    include:
        Optional boolean ``(n_i, n_j)`` mask: only pairs marked true
        contribute (the oracle of ``KernelEngine.acc_jerk_masked``).

    Returns
    -------
    acc, jerk:
        Arrays of shape ``(n_i, 3)``.
    """
    pos_i = np.atleast_2d(np.asarray(pos_i, dtype=np.float64))
    vel_i = np.atleast_2d(np.asarray(vel_i, dtype=np.float64))
    pos_j = np.atleast_2d(np.asarray(pos_j, dtype=np.float64))
    vel_j = np.atleast_2d(np.asarray(vel_j, dtype=np.float64))
    mass_j = np.asarray(mass_j, dtype=np.float64)

    n_i = pos_i.shape[0]
    n_j = pos_j.shape[0]
    acc = np.zeros((n_i, 3))
    jerk = np.zeros((n_i, 3))
    eps2 = float(eps) ** 2

    chunk = _plane_rows(n_j)
    for start in range(0, n_i, chunk):
        stop = min(start + chunk, n_i)
        dr = _planes(pos_i[start:stop], pos_j)
        r2 = _dot(dr, dr)
        r2 += eps2
        # Masking r2 (not the result) keeps every downstream term —
        # including the jerk's rv/r2 — finite and exactly zero.
        _fill_self_pairs(r2, self_indices, start, stop, np.inf)
        if include is not None:
            r2[~np.asarray(include, dtype=bool)[start:stop]] = np.inf
        dv = _planes(vel_i[start:stop], vel_j)
        rv = _dot(dr, dv)
        mr3 = mass_j[None, :] / (np.sqrt(r2) * r2)
        acc[start:stop] = _row_sums(mr3, dr)
        jerk[start:stop] = (_row_sums(mr3, dv)
                            - _row_sums(mr3 * rv / r2 * 3.0, dr))

    if counter is not None:
        counter.add(n_i, n_j, with_jerk=True)
    return acc, jerk


def acc_only(
    pos_i: np.ndarray,
    pos_j: np.ndarray,
    mass_j: np.ndarray,
    eps: float,
    self_indices: np.ndarray | None = None,
    counter: InteractionCounter | None = None,
) -> np.ndarray:
    """Softened acceleration only (no jerk) — the 38-op kernel.

    Used by the leapfrog / tree baselines which do not need derivatives.
    Arguments mirror :func:`acc_jerk`.
    """
    pos_i = np.atleast_2d(np.asarray(pos_i, dtype=np.float64))
    pos_j = np.atleast_2d(np.asarray(pos_j, dtype=np.float64))
    mass_j = np.asarray(mass_j, dtype=np.float64)

    n_i = pos_i.shape[0]
    n_j = pos_j.shape[0]
    acc = np.zeros((n_i, 3))
    eps2 = float(eps) ** 2

    chunk = _i_chunk_size(n_j)
    for start in range(0, n_i, chunk):
        stop = min(start + chunk, n_i)
        dr = pos_j[None, :, :] - pos_i[start:stop, None, :]
        r2 = np.einsum("ijk,ijk->ij", dr, dr) + eps2
        _fill_self_pairs(r2, self_indices, start, stop, np.inf)
        inv_r3 = 1.0 / (r2 * np.sqrt(r2))
        acc[start:stop] = np.einsum("ij,ijk->ik", mass_j[None, :] * inv_r3, dr)

    if counter is not None:
        counter.add(n_i, n_j, with_jerk=False)
    return acc


def pairwise_potential(
    pos_i: np.ndarray,
    pos_j: np.ndarray,
    mass_j: np.ndarray,
    eps: float,
    self_indices: np.ndarray | None = None,
) -> np.ndarray:
    """Softened potential ``phi_i = -sum_j m_j / sqrt(r_ij^2 + eps^2)``.

    Returns shape ``(n_i,)``; the sink's own mass does *not* appear
    (potential per unit mass).
    """
    pos_i = np.atleast_2d(np.asarray(pos_i, dtype=np.float64))
    pos_j = np.atleast_2d(np.asarray(pos_j, dtype=np.float64))
    mass_j = np.asarray(mass_j, dtype=np.float64)

    n_i = pos_i.shape[0]
    n_j = pos_j.shape[0]
    phi = np.zeros(n_i)
    eps2 = float(eps) ** 2

    chunk = _plane_rows(n_j)
    for start in range(0, n_i, chunk):
        stop = min(start + chunk, n_i)
        dr = _planes(pos_i[start:stop], pos_j)
        r2 = _dot(dr, dr)
        r2 += eps2
        _fill_self_pairs(r2, self_indices, start, stop, np.inf)
        phi[start:stop] = -np.einsum("ij->i", mass_j[None, :] / np.sqrt(r2))

    return phi


def node_force(
    pos_i: np.ndarray,
    vel_i: np.ndarray,
    com_j: np.ndarray,
    vel_j: np.ndarray,
    mass_j: np.ndarray,
    eps: float,
    quad_j: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Acceleration and jerk on sinks from a list of tree nodes.

    The oracle of ``KernelEngine.node_force``: monopole acceleration
    and jerk are :func:`acc_jerk` over the nodes' centres of mass;
    ``quad_j`` (``(n_j, 3, 3)`` traceless moments, mass included) adds
    the quadrupole term to the acceleration only,

        ``a_quad = Q s / r^5 - 2.5 (s^T Q s) s / r^7``,  ``s = sink - com``,

    evaluated with ``s = -dr`` as ``-(Q dr)/r^5 + 2.5 (dr^T Q dr) dr / r^7``
    (negating before or after the contractions carries the same bits).
    """
    acc, jerk = acc_jerk(pos_i, vel_i, com_j, vel_j, mass_j, eps)
    if quad_j is None:
        return acc, jerk
    pos_i = np.atleast_2d(np.asarray(pos_i, dtype=np.float64))
    com_j = np.atleast_2d(np.asarray(com_j, dtype=np.float64))
    quad_j = np.asarray(quad_j, dtype=np.float64)
    eps2 = float(eps) ** 2
    chunk = _plane_rows(com_j.shape[0])
    for start in range(0, pos_i.shape[0], chunk):
        stop = start + chunk
        dr = _planes(pos_i[start:stop], com_j)
        r2 = _dot(dr, dr)
        r2 += eps2
        qdr = tuple(_dot(quad_j[:, k].T, dr) for k in range(3))  # Q dr
        inv_r5 = 1.0 / (np.sqrt(r2) * r2 * r2)
        acc[start:stop] -= _row_sums(inv_r5, qdr)
        acc[start:stop] += _row_sums(inv_r5 / r2 * _dot(dr, qdr) * 2.5, dr)
    return acc, jerk


def potential_energy(pos: np.ndarray, mass: np.ndarray, eps: float) -> float:
    """Total mutual (softened) potential energy of one particle set.

    ``W = -1/2 * sum_i sum_{j != i} m_i m_j / sqrt(r_ij^2 + eps^2)``.
    """
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    n = pos.shape[0]
    from ..accel import get_engine

    phi = get_engine().pairwise_potential(pos, pos, mass, eps, self_indices=np.arange(n))
    return 0.5 * float(np.dot(mass, phi))


def nearest_pair(pos: np.ndarray) -> tuple[float, int, int]:
    """The closest pair of a particle set: ``(d, i, j)``.

    ``d`` is the unsoftened separation of rows ``i`` and ``j`` (the
    first such pair in row-major order on ties); fewer than two
    particles give ``(inf, -1, -1)``.  O(N^2), chunked.
    """
    pos = np.asarray(pos, dtype=np.float64)
    n = pos.shape[0]
    best = (np.inf, -1, -1)
    if n < 2:
        return best
    chunk = _i_chunk_size(n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        dr = pos[None, :, :] - pos[start:stop, None, :]
        r2 = np.einsum("ijk,ijk->ij", dr, dr)
        rows = np.arange(stop - start)
        r2[rows, rows + start] = np.inf
        i, j = divmod(int(np.argmin(r2)), n)
        d = float(np.sqrt(r2[i, j]))
        if d < best[0]:
            best = (d, start + i, j)
    return best


def min_pairwise_distance(pos: np.ndarray) -> float:
    """Smallest unsoftened pairwise separation in a particle set.

    The first element of :func:`nearest_pair` (``inf`` below two
    particles).  Useful in tests/diagnostics to confirm the softening
    scale is being exercised.
    """
    return nearest_pair(pos)[0]
