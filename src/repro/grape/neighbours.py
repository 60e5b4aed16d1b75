"""GRAPE-6 neighbour-list hardware emulation.

The real GRAPE-6 pipeline evaluates, alongside each force, whether the
j-particle lies within the i-particle's neighbour sphere ``h_i`` and
records its index into an on-chip neighbour memory (plus the index of
the nearest neighbour) — at **zero extra pipeline cycles**, since the
comparison rides the same datapath as the force.  Production codes use
the lists for close-encounter treatment and collision detection.

This module provides the functional equivalent used by
:class:`~repro.grape.system.Grape6Machine`:

* :func:`within_sphere` — the one range predicate (unsoftened
  ``dist2 < h**2``, strict) every neighbour query in the repo runs on;
* :func:`neighbour_search` — vectorised (i, j) range query returning,
  per i-particle, the j-keys within ``h_i`` and the nearest neighbour;
* :func:`neighbour_result_from_pairs` — the same result from a flat
  in-sphere pair list, which is what a force pass emits as a by-product
  (the hybrid backend's ``last_neighbours``);
* :func:`merge_neighbour_results` — board-level reduction combining
  per-chip query results for the same i-block;
* the machine-level plumbing lives in ``Grape6Machine.neighbours_of``
  (flat mode: one sweep; hierarchy mode: per-chip queries merged by the
  boards, mirroring the hardware's per-chip neighbour memories).

Both the search and the merge break exact nearest-distance ties by the
smallest j-key, so results are independent of source ordering and of
the chip partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "NeighbourResult",
    "within_sphere",
    "neighbour_search",
    "neighbour_result_from_pairs",
    "merge_neighbour_results",
]

_NO_KEY = np.iinfo(np.int64).max  # sentinel above any real j-key


@dataclass(frozen=True)
class NeighbourResult:
    """Neighbour query output for one i-block."""

    #: list (len n_i) of int64 arrays of j-keys within h_i
    lists: list
    #: nearest-neighbour j-key per i-particle (-1 if no candidates)
    nearest_key: np.ndarray
    #: distance to the nearest neighbour (inf if none)
    nearest_dist: np.ndarray


def within_sphere(pos_i: np.ndarray, pos_j: np.ndarray, h: np.ndarray):
    """Range predicate, elementwise over broadcast sinks and sources.

    ``pos_i`` and ``pos_j`` are ``(..., 3)`` arrays that broadcast
    against each other, ``h`` broadcasts against the leading shape.
    Returns ``(dist2, within)``: the unsoftened squared distance
    (``dr = source - sink``) and ``dist2 < h**2``, strict.
    :func:`neighbour_search` calls it on the ``(n_i, n_j)`` rectangle,
    the grouped tree walk on a flat list of candidate pairs; the
    arithmetic per pair is the same, so a list emitted by the force
    pass and one from a standalone query agree bit for bit.
    """
    dr = pos_j - pos_i
    dist2 = np.einsum("...k,...k->...", dr, dr)
    return dist2, dist2 < h**2


def neighbour_search(
    pos_i: np.ndarray,
    pos_j: np.ndarray,
    j_keys: np.ndarray,
    h: np.ndarray | float,
    exclude_keys: np.ndarray | None = None,
) -> NeighbourResult:
    """Range + nearest query of an i-block against a j-set.

    Parameters
    ----------
    pos_i, pos_j:
        Sink and source positions.
    j_keys:
        Source identity keys (returned in the lists).
    h:
        Neighbour radius per i-particle (scalar broadcasts).
    exclude_keys:
        Per-i key to exclude (the particle itself when resident).
    """
    pos_i = np.atleast_2d(np.asarray(pos_i, dtype=np.float64))
    pos_j = np.atleast_2d(np.asarray(pos_j, dtype=np.float64))
    j_keys = np.asarray(j_keys, dtype=np.int64)
    n_i = pos_i.shape[0]
    h = np.broadcast_to(np.asarray(h, dtype=np.float64), (n_i,))
    if np.any(h < 0):
        raise ConfigurationError("neighbour radius must be non-negative")
    if n_i == 0:
        return NeighbourResult(
            lists=[],
            nearest_key=np.empty(0, dtype=np.int64),
            nearest_dist=np.empty(0),
        )

    dist2, within = within_sphere(pos_i[:, None, :], pos_j[None, :, :], h[:, None])
    if exclude_keys is not None:
        excl = np.asarray(exclude_keys, dtype=np.int64)
        mask = j_keys[None, :] == excl[:, None]
        dist2[mask] = np.inf
        within[mask] = False
    lists = [j_keys[within[i]] for i in range(n_i)]

    if pos_j.shape[0] == 0:
        nearest_key = np.full(n_i, -1, dtype=np.int64)
        nearest_dist = np.full(n_i, np.inf)
    else:
        best = dist2.min(axis=1)
        # ties on exact distance resolve to the smallest j-key so the
        # result is independent of source ordering
        candidates = np.where(dist2 == best[:, None], j_keys[None, :], _NO_KEY)
        nearest_key = candidates.min(axis=1)
        nearest_dist = np.sqrt(best)
        nearest_key = np.where(np.isfinite(nearest_dist), nearest_key, -1)
        nearest_key = nearest_key.astype(np.int64)
    return NeighbourResult(lists=lists, nearest_key=nearest_key, nearest_dist=nearest_dist)


def neighbour_result_from_pairs(
    n_i: int, rows: np.ndarray, keys: np.ndarray, dist2: np.ndarray
) -> NeighbourResult:
    """A :class:`NeighbourResult` from a flat list of in-sphere pairs.

    ``rows`` (ascending sink row of each pair), ``keys`` (its source
    key) and ``dist2`` run in parallel; pairs of one sink keep their
    order in its list.  Only in-sphere sources are candidates, so the
    nearest neighbour is the nearest *inside the sphere* (``-1`` /
    ``inf`` for a sink with an empty list); ties break by the smallest
    key like :func:`neighbour_search`.
    """
    counts = np.bincount(rows, minlength=n_i)
    lists = np.split(keys, np.cumsum(counts)[:-1]) if n_i else []
    nearest_key = np.full(n_i, -1, dtype=np.int64)
    nearest_dist = np.full(n_i, np.inf)
    if rows.size:
        order = np.lexsort((keys, dist2, rows))
        srows = rows[order]
        first = order[np.concatenate(([True], srows[1:] != srows[:-1]))]
        nearest_key[rows[first]] = keys[first]
        nearest_dist[rows[first]] = np.sqrt(dist2[first])
    return NeighbourResult(lists=lists, nearest_key=nearest_key, nearest_dist=nearest_dist)


def merge_neighbour_results(results: list[NeighbourResult]) -> NeighbourResult:
    """Combine per-chip results for the same i-block (board reduction).

    The merged neighbour lists are key-sorted and the nearest-neighbour
    reduction breaks exact distance ties by the smallest j-key, so the
    outcome does not depend on the chip partition or ordering.  An
    i-block of zero particles merges to an empty result.
    """
    if not results:
        raise ConfigurationError("nothing to merge")
    n_i = len(results[0].lists)
    if any(len(r.lists) != n_i for r in results):
        raise ConfigurationError("chip results disagree on i-block size")
    if n_i == 0:
        return NeighbourResult(
            lists=[],
            nearest_key=np.empty(0, dtype=np.int64),
            nearest_dist=np.empty(0),
        )
    lists = []
    for i in range(n_i):
        parts = [r.lists[i] for r in results]
        merged = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        lists.append(np.sort(merged))
    dists = np.stack([r.nearest_dist for r in results])
    keys = np.stack([r.nearest_key for r in results])
    best = dists.min(axis=0)
    # ties across chips resolve to the smallest j-key (order-free)
    candidates = np.where(dists == best[None, :], keys, _NO_KEY)
    nearest_key = candidates.min(axis=0)
    nearest_key = np.where(np.isfinite(best), nearest_key, -1).astype(np.int64)
    return NeighbourResult(
        lists=lists,
        nearest_key=nearest_key,
        nearest_dist=best,
    )
