"""Build, cache and load the compiled ``acc_jerk`` row kernel.

``_tile.c`` (beside this file) is the pair loop of the paper in C.  It
is compiled on first use with the system C compiler into a per-user
cache directory and loaded through :mod:`ctypes` (which releases the
GIL for the duration of every call), so NumPy stays the only hard
dependency: without a compiler :func:`load` logs one line and returns
``None``, and the engine keeps running the plain-NumPy oracles of
:mod:`repro.core.forces`.

The two tiers sum in different orders, so they agree to ~1e-15
norm-relative, not bit for bit; *within* a tier every bit-identity
contract of the engine holds.  Which tier a process runs on is a fact
about its results: :func:`tier` names it, checkpoints record it, and
``python -m repro.accel.native`` prints how it was arrived at.

The same object carries a whole grouped tree force
(:meth:`NativeTile.tree_force`: group the sinks, walk per sink group,
sum the lists with the row kernel and keep the in-sphere pairs), the
tree build before it
(:meth:`NativeTile.tree_build`: predict every source, then
:class:`~repro.baselines.tree.Octree`'s level-synchronous build and
moments) and the host half of a block step
(:meth:`NativeTile.block_predict` / :meth:`NativeTile.block_correct`,
the one Hermite step body of :class:`repro.core.Simulation`; their
NumPy twins of the same names live in :mod:`repro.core.integrator`).
None is a second tier: the tree force emits exactly the NumPy
grouping's groups, the NumPy walk's lists and the NumPy pass's pairs,
the sums are the row kernel's, the build fills every ``Octree`` array
with the NumPy build's bits, and the block step gives its twins' exact
bits on every host.

Build hygiene: the object's name is a hash of (source, flags,
``cc --version``); it lives in the first usable of
``$XDG_CACHE_HOME/repro``, ``~/.cache/repro`` and a per-user directory
under :func:`tempfile.gettempdir` — never in the source tree — and is
written under a temporary name and moved into place with
:func:`os.replace`, so concurrent first users can not load a
half-written file.  :func:`load` resolves once per process; forked
workers inherit the handle.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shlex
import subprocess
import tempfile
import threading
import weakref
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError, IntegrationError

__all__ = ["FLAGS", "NativeTile", "describe", "load", "tier"]

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_tile.c")

#: No ``-march`` and no contraction: the bits must not depend on the
#: build host (see the header of ``_tile.c``; what FMA and wider vectors
#: would buy is recorded in ``docs/PERFORMANCE.md``).
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")

_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)
_ANCHOR = ctypes.c_char * 0

#: Row width of the block buffer of ``block_predict`` / ``block_correct``
#: (``BLOCK_COLS`` in ``_tile.c``).
BLOCK_COLS = 32

# return codes of the block entry points (``_tile.c``)
_BAD_INDEX, _ODD_STEP, _AT_ORIGIN, _NOT_FINITE = -1, 1, 2, 3

_size, _addr, _real = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double


class _TreeArrays(ctypes.Structure):
    """``tree_arrays`` of ``_tile.c``: the fields of an ``Octree``."""

    _fields_ = [("n", _size), ("n_nodes", _size)] + [
        (name, _addr) for name in (
            "pos", "vel", "mass", "com", "mom", "node_mass", "quad",
            "center", "half", "first_child", "n_children", "leaf_start",
            "leaf_count", "leaf_perm", "mask",
        )
    ]


class _SinkGroups(ctypes.Structure):
    """``sink_groups`` of ``_tile.c``: the fields of a ``SinkGroups``."""

    _fields_ = [("n_sinks", _size), ("n_groups", _size)] + [
        (name, _addr) for name in ("order", "ptr", "centroid", "radius", "h_max")
    ]


class _WalkLists(ctypes.Structure):
    """``walk_lists`` of ``_tile.c``: the CSR an ``InteractionLists``
    holds and the in-sphere pairs."""

    _fields_ = [(name, _addr) for name in
                ("node_ptr", "node_idx", "pp_ptr", "pp_idx")] + [
        ("node_cap", _size), ("pp_cap", _size)] + [
        (name, _addr) for name in ("pair_row", "pair_src", "pair_d2")] + [
        ("pair_cap", _size), ("n_pairs", _size)]


#: The ``tree_nodes`` arrays of ``_tile.c``: the
#: :class:`~repro.baselines.tree.Octree` field each fills, its dtype and
#: its values per node.
_NODE_FIELDS = (
    ("center", "node_center", _F64, 3), ("half", "node_half", _F64, 1),
    ("mass", "node_mass", _F64, 1), ("com", "node_com", _F64, 3),
    ("mom", "node_mom", _F64, 3), ("parent", "node_parent", _I64, 1),
    ("octant", "node_octant", _I64, 1),
    ("first_child", "node_first_child", _I64, 1),
    ("n_children", "node_n_children", _I64, 1),
    ("leaf_start", "node_leaf_start", _I64, 1),
    ("leaf_count", "node_leaf_count", _I64, 1),
    ("mask", "octant_masks", np.dtype(np.uint8), 1),
)
#: Levels of a tree below the depth cut-off (``TREE_LEVELS`` in ``_tile.c``).
TREE_LEVELS = 62


class _TreeNodes(ctypes.Structure):
    """``tree_nodes`` of ``_tile.c``: the node arrays a build fills."""

    _fields_ = ([("cap", _size)]
                + [(name, _addr) for name, *_ in _NODE_FIELDS]
                + [("leaf_perm", _addr), ("level_offsets", _addr)]
                + [(name, _size) for name in ("n_nodes", "n_leaves", "n_levels")])


#: Every entry point of ``_tile.c``: ``repro_<name>`` is bound to the
#: :class:`NativeTile` method ``<name>`` with these argument and result
#: types.  The test suite fails on an entry point missing here.
ENTRY_POINTS = {
    "acc_jerk_rows": (
        [_size, _size, _addr, _addr, _addr, _addr, _addr, _real,
         _addr, _size, _addr, _size, _addr, _addr, _addr], None),
    "acc_jerk_active_chunk": (
        [_size, _size, _addr, _addr, _addr, _addr, _addr, _addr, _addr,
         _real, _real, _size, _size, _addr, _addr, _addr], ctypes.c_int),
    "tree_force": (
        [_addr, _addr, _addr, _addr, _addr, _addr, _addr, _size, _real, _real,
         _size, _size, _addr, _addr, _addr, _addr], ctypes.c_int),
    "tree_build": (
        [_size, _addr, _addr, _addr, _addr, _addr, _real, _addr, _addr, _addr,
         _size, _addr, _addr, _addr], ctypes.c_int),
    "block_predict": (
        [_size, _size, _addr, _addr, _addr, _addr, _addr, _addr, _addr],
        ctypes.c_int),
    "block_correct": (
        [_size, _size, _addr, _addr, _addr, ctypes.c_int, _real, _real,
         _real, _real, _real, _addr, _addr, _addr, _addr, _addr, _addr,
         _addr], ctypes.c_int),
    "quantize": ([_size, _addr, _addr, _addr, _real, _real, _addr], None),
}


def _ptr(array: np.ndarray, offset: int = 0, output: bool = False):
    """``array``'s buffer address as a pointer argument.

    ``from_buffer`` refuses anything that is not C-contiguous (and any
    read-only array); a read-only *input* takes the slower route
    through ``ndarray.ctypes``.  The caller keeps ``array`` alive.
    """
    try:
        return _addr(ctypes.addressof(_ANCHOR.from_buffer(array, offset)))
    except TypeError:
        if output or not array.flags.c_contiguous:
            raise ValueError(
                "native kernel needs C-contiguous arrays and writable outputs"
            ) from None
        return _addr(array.ctypes.data + offset)


def _rows(array: np.ndarray, shape: tuple, what: str, output: bool = False,
          dtype: np.dtype = _F64):
    """``array``'s pointer, once it is ``dtype`` of exactly ``shape``."""
    if array.dtype != dtype or array.shape != shape:
        raise ValueError(
            f"{what}: expected {dtype} {shape}, got {array.dtype} {array.shape}"
        )
    return _ptr(array, output=output)


class NativeTile:
    """The loaded object: one method per entry point, checks in front.

    ``acc_jerk_rows`` is the row kernel on ready-made operands;
    ``acc_jerk_active_chunk`` runs the predictor on a system's resident
    arrays and the same row loop behind it; ``tree_build`` predicts
    every source and builds the octree, and ``tree_force`` groups the
    sinks, walks a tree per sink group, sums the lists with it and keeps
    the in-sphere pairs; ``block_predict`` and
    ``block_correct`` are the host half of a block step, and
    ``quantize`` the block quantisation they use.

    The calls a block step makes hold the pointer of each resident array
    (and of ``active`` and the block buffer) beside a weak reference to
    the array: the next call with the very same live array object (of
    the same shape) skips the checks and the pointer conversion, any
    other array is checked and converted afresh, so a replaced array
    never reuses a stale pointer.  Outputs made fresh for every call are
    converted every call.  Weak, so that the tile keeps nothing alive (a
    view over a shared-memory segment must be able to go before its
    segment is closed); numpy refuses to resize an array in place while
    a weak reference to it exists.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._lib = ctypes.CDLL(str(path))
        self._fn = {}
        for name, (argtypes, restype) in ENTRY_POINTS.items():
            fn = getattr(self._lib, f"repro_{name}")
            fn.argtypes, fn.restype = argtypes, restype
            self._fn[name] = fn
        self._held: dict = {}
        #: node / pp index / in-sphere pair capacity of the next tree
        #: walk (grow-only)
        self._list_caps = [1024, 1 << 14, 256]
        #: node capacity of the next tree build (grow-only)
        self._node_cap = 1024

    def _arg(self, slot: str, array: np.ndarray, shape: tuple,
             output: bool = False, dtype: np.dtype = _F64):
        """:func:`_rows` for the argument ``slot``, held between calls
        (an array held as an input is checked again as an output)."""
        key = (slot, output)
        held = self._held.get(key)
        if held is not None and held[0]() is array and array.shape == shape:
            return held[1]
        pointer = _rows(array, shape, slot, output, dtype)
        self._held[key] = (weakref.ref(array), pointer)
        return pointer

    def acc_jerk_rows(self, pos_i, vel_i, pos_j, vel_j, mass_j, eps2,
                      acc_out, jerk_out, j0=0, self_indices=None,
                      excluded=None, quad_j=None) -> None:
        """Add the pull of one j-chunk on every sink row into the outputs.

        ``pos_j``/``vel_j``/``mass_j`` are the chunk (columns ``[j0, j0
        + n_j)`` of the full source list); ``self_indices`` are int64
        columns in the full list, ``excluded`` the full ``(n_i, N)``
        boolean mask, ``quad_j`` the chunk's ``(n_j, 3, 3)`` quadrupole
        moments (tree nodes).  Everything must be C-contiguous.
        """
        n_i, n_j = pos_i.shape[0], pos_j.shape[0]
        sinks, sources = (n_i, 3), (n_j, 3)
        self_ptr = excl_ptr = quad_ptr = None
        stride = 0
        if quad_j is not None:
            quad_ptr = _rows(quad_j, (n_j, 3, 3), "quad_j")
        if self_indices is not None:
            self_ptr = _rows(self_indices, (n_i,), "self_indices", dtype=_I64)
        if excluded is not None:
            stride = excluded.shape[1] if excluded.ndim == 2 else -1
            if (excluded.dtype != np.bool_ or excluded.shape[0] != n_i
                    or not 0 <= j0 <= stride - n_j):
                raise ValueError("excluded: expected bool (n_i, >= j0 + n_j)")
            excl_ptr = _ptr(excluded, j0)
        self._fn["acc_jerk_rows"](
            n_i, n_j, _rows(pos_i, sinks, "pos_i"), _rows(vel_i, sinks, "vel_i"),
            _rows(pos_j, sources, "pos_j"), _rows(vel_j, sources, "vel_j"),
            _rows(mass_j, (n_j,), "mass_j"), eps2, self_ptr, j0, excl_ptr, stride,
            _rows(acc_out, sinks, "acc_out", output=True),
            _rows(jerk_out, sinks, "jerk_out", output=True), quad_ptr,
        )

    def acc_jerk_active_chunk(self, system, active, t_now, eps2, j0, j1,
                              scratch, acc_out, jerk_out) -> None:
        """Add the pull of the sources ``[j0, j1)`` of ``system``,
        predicted to ``t_now``, on its ``active`` rows into the outputs.

        ``system`` is anything with resident ``pos vel acc jerk t mass``
        arrays (a ``ParticleSystem``, an ``ArrayView`` over shared
        memory): float64, C-contiguous, ``(n, 3)`` / ``(n,)``.  Sinks
        are predicted by index inside the call, so ``active`` (1-D
        int64) is range-checked there: an entry outside ``[0, n)``
        raises ``IndexError``.  ``scratch`` (float64, at least ``6 *
        (n_i + j1 - j0)``) receives the predicted rows: sink positions,
        sink velocities, source positions, source velocities, in that
        order.
        """
        mass = system.mass
        n, n_i = mass.shape[0], active.shape[0]
        rows, sinks = (n, 3), (n_i, 3)
        if not 0 <= j0 <= j1 <= n:
            raise ValueError(f"chunk [{j0}, {j1}) outside the {n} sources")
        if scratch.size < 6 * (n_i + j1 - j0):
            raise ValueError("scratch: too small for the predicted rows")
        arg = self._arg
        bad = self._fn["acc_jerk_active_chunk"](
            n, n_i, arg("chunk.active", active, (n_i,), dtype=_I64),
            arg("chunk.pos", system.pos, rows), arg("chunk.vel", system.vel, rows),
            arg("chunk.acc", system.acc, rows), arg("chunk.jerk", system.jerk, rows),
            arg("chunk.t", system.t, (n,)), arg("chunk.mass", mass, (n,)),
            t_now, eps2, j0, j1,
            _rows(scratch, scratch.shape, "scratch", output=True),
            _rows(acc_out, sinks, "acc_out", output=True),
            _rows(jerk_out, sinks, "jerk_out", output=True),
        )
        if bad:
            raise IndexError(f"active index outside the {n} particles")

    def tree_force(self, tree, pos_i, vel_i, self_idx, h_i, n_crit, theta,
                   eps2, j_chunk, max_chunks, acc_out, jerk_out):
        """Group the sinks ``pos_i`` over ``tree``, walk it once per
        group and sum the lists into the outputs; returns ``(groups,
        lists, pairs)``.

        ``tree`` is an :class:`~repro.baselines.tree.Octree` (its
        ``node_quad`` is used when it has one), ``vel_i`` ``None`` means
        zero sink velocities, ``self_idx`` (int64 per sink, or ``None``)
        names each sink's own particle and ``h_i`` (per sink, or
        ``None``) its neighbour radius.  ``groups`` holds the fields of
        a :class:`~repro.hybrid.walk.SinkGroups` (``order, ptr,
        centroid, radius, h_max``), ``lists`` the CSR of an
        :class:`~repro.hybrid.walk.InteractionLists`; ``pairs`` is
        ``None`` without ``h_i``, else the in-sphere ``(row, src,
        dist2)`` in group order (rows ascending within a group, sources
        within a row).  The sums run over the engine's ``(j_chunk,
        max_chunks)`` plan.
        """
        if n_crit < 1:
            raise ValueError("n_crit must be >= 1")
        n, n_nodes, n_i = tree.n, tree.node_half.shape[0], pos_i.shape[0]
        rows, nodes, sinks = (n, 3), (n_nodes, 3), (n_i, 3)

        def ints(array, shape, what):
            return _rows(array, shape, what, dtype=_I64)

        arrays = _TreeArrays(
            n, n_nodes, _rows(tree.pos, rows, "tree.pos"),
            None if tree.vel is None else _rows(tree.vel, rows, "tree.vel"),
            _rows(tree.mass, (n,), "tree.mass"),
            _rows(tree.node_com, nodes, "tree.node_com"),
            _rows(tree.node_mom, nodes, "tree.node_mom"),
            _rows(tree.node_mass, (n_nodes,), "tree.node_mass"),
            None if tree.node_quad is None
            else _rows(tree.node_quad, (n_nodes, 3, 3), "tree.node_quad"),
            _rows(tree.node_center, nodes, "tree.node_center"),
            _rows(tree.node_half, (n_nodes,), "tree.node_half"),
            ints(tree.node_first_child, (n_nodes,), "tree.node_first_child"),
            ints(tree.node_n_children, (n_nodes,), "tree.node_n_children"),
            ints(tree.node_leaf_start, (n_nodes,), "tree.node_leaf_start"),
            ints(tree.node_leaf_count, (n_nodes,), "tree.node_leaf_count"),
            ints(tree.leaf_perm, (n,), "tree.leaf_perm"),
            _rows(tree.octant_masks, (n_nodes,), "tree.octant_masks",
                  dtype=np.dtype(np.uint8)),
        )
        # room for one group per sink
        order = np.empty(n_i, dtype=_I64)
        ptr = np.empty(n_i + 1, dtype=_I64)
        centroid = np.empty(sinks)
        radius = np.empty(n_i)
        h_max = None if h_i is None else np.empty(n_i)
        sink_groups = _SinkGroups(
            n_i, 0, _ptr(order), _ptr(ptr), _ptr(centroid), _ptr(radius),
            None if h_max is None else _ptr(h_max),
        )
        # the walk's queue and the per-node counts of the grouping; the
        # self columns, the surviving pair sources, the grouping's three
        # per-sink arrays and n zeroed mark bytes; the gathered sinks with
        # their four partial sums (18 values per sink) and one list's
        # gathered sources with quadrupoles (16)
        iscratch = np.zeros(2 * n_nodes + 4 * n_i + n + n // 8 + 1, dtype=_I64)
        fscratch = np.empty(18 * n_i + 16 * max(n, n_nodes))
        node_ptr = np.empty(n_i + 1, dtype=_I64)
        pp_ptr = np.empty(n_i + 1, dtype=_I64)
        caps = self._list_caps
        while True:
            node_idx = np.empty(caps[0], dtype=_I64)
            pp_idx = np.empty(caps[1], dtype=_I64)
            pair_row = np.empty(caps[2], dtype=_I64)
            pair_src = np.empty(caps[2], dtype=_I64)
            pair_d2 = np.empty(caps[2])
            lists = _WalkLists(
                _ptr(node_ptr), _ptr(node_idx), _ptr(pp_ptr), _ptr(pp_idx),
                caps[0], caps[1], _ptr(pair_row), _ptr(pair_src),
                _ptr(pair_d2), caps[2], 0,
            )
            over = self._fn["tree_force"](
                ctypes.addressof(arrays), ctypes.addressof(sink_groups),
                ctypes.addressof(lists), _rows(pos_i, sinks, "pos_i"),
                None if vel_i is None else _rows(vel_i, sinks, "vel_i"),
                None if self_idx is None else ints(self_idx, (n_i,), "self_idx"),
                None if h_i is None else _rows(h_i, (n_i,), "h_i"),
                n_crit, theta, eps2, j_chunk, max_chunks, _ptr(iscratch),
                _ptr(fscratch), _rows(acc_out, sinks, "acc_out", output=True),
                _rows(jerk_out, sinks, "jerk_out", output=True),
            )
            if over < 0:
                raise ValueError("tree_force: refused its input")
            g = sink_groups.n_groups
            if not over:
                break
            # a list or the pairs outgrew their buffer: size all three
            # for this walk, and keep the sizes for the next (grow-only)
            caps[0] = max(caps[0], int(node_ptr[g]))
            caps[1] = max(caps[1], int(pp_ptr[g]))
            caps[2] = max(caps[2], lists.n_pairs)
        groups = (order, ptr[: g + 1], centroid[:g], radius[:g],
                  None if h_max is None else h_max[:g])
        csr = (node_ptr[: g + 1], node_idx[: node_ptr[g]],
               pp_ptr[: g + 1], pp_idx[: pp_ptr[g]])
        p = lists.n_pairs
        pairs = None if h_i is None else (pair_row[:p], pair_src[:p], pair_d2[:p])
        return groups, csr, pairs

    def tree_build(self, pos, mass, vel, leaf_size, resident=None, t_now=0.0):
        """Build the octree of the particles ``pos`` (``vel``: their
        velocities, or ``None``) with masses ``mass``; returns the
        fields :meth:`repro.baselines.tree.Octree.from_arrays` takes,
        each the bits ``Octree._build`` computes.

        With ``resident`` (anything with resident ``pos vel acc jerk t``
        arrays, such as a ``ParticleSystem``) the call first predicts
        every resident row to ``t_now`` into ``pos`` / ``vel`` — the
        bits of :func:`repro.core.predictor.predict_system` — and builds
        over those.
        """
        n = mass.shape[0]
        rows = (n, 3)
        if n < 1:
            raise ValueError("tree_build: no particles")
        if leaf_size < 1:
            raise ConfigurationError("leaf_size must be >= 1")
        arg = self._arg
        if resident is None:
            source = (None,) * 5
            pos_ptr = _rows(pos, rows, "pos")
            vel_ptr = None if vel is None else _rows(vel, rows, "vel")
        else:
            source = (arg("build.pos", resident.pos, rows),
                      arg("build.vel", resident.vel, rows),
                      arg("build.acc", resident.acc, rows),
                      arg("build.jerk", resident.jerk, rows),
                      arg("build.t", resident.t, (n,)))
            pos_ptr = arg("build.pred_pos", pos, rows, output=True)
            vel_ptr = arg("build.pred_vel", vel, rows, output=True)
        iscratch = np.empty(2 * n, dtype=_I64)
        while True:
            cap = self._node_cap = max(self._node_cap, n)
            arrays = [np.empty((cap, width) if width > 1 else cap, dtype)
                      for _, _, dtype, width in _NODE_FIELDS]
            leaf_perm = np.empty(n, dtype=_I64)
            offsets = np.empty(TREE_LEVELS + 1, dtype=_I64)
            fscratch = np.empty(4 * cap + 10 * n + n // 8 + 1)
            nodes = _TreeNodes(cap, *map(_ptr, arrays), _ptr(leaf_perm),
                               _ptr(offsets), 0, 0, 0)
            full = self._fn["tree_build"](
                n, *source, t_now, pos_ptr, vel_ptr,
                _rows(mass, (n,), "mass"), leaf_size, ctypes.addressof(nodes),
                _ptr(iscratch), _ptr(fscratch),
            )
            if full < 0:
                raise ValueError("tree_build: refused its input")
            if not full:
                break
            self._node_cap = 2 * cap  # more nodes than room: grow, build again
        n_nodes = nodes.n_nodes
        fields = {field: array[:n_nodes]
                  for (_, field, *_), array in zip(_NODE_FIELDS, arrays)}
        fields.update(leaf_perm=leaf_perm, n_leaves=nodes.n_leaves,
                      level_offsets=offsets[: nodes.n_levels + 1].tolist())
        return fields

    def block_predict(self, system, active, block) -> bool:
        """Gather ``system``'s ``active`` rows into ``block`` and predict
        each over its own step ``dt`` (the twin's i-predictor).

        ``block`` is a float64 ``(>= n_i, BLOCK_COLS)`` buffer that
        :meth:`block_correct` finishes.  Returns ``False`` when some step
        is not a power of two: the corrector is exact only on the block
        grid, so that block takes the NumPy twins
        (``repro.core.integrator.block_predict`` / ``block_correct``),
        which work for any step.  An ``active`` (1-D int64) entry
        outside ``[0, n)`` raises ``IndexError``.
        """
        n, n_i = system.dt.shape[0], active.shape[0]
        rows = (n, 3)
        if block.shape[0] < n_i:
            raise ValueError(f"block: fewer than the {n_i} active rows")
        arg = self._arg
        code = self._fn["block_predict"](
            n, n_i, arg("step.active", active, (n_i,), dtype=_I64),
            arg("step.pos", system.pos, rows), arg("step.vel", system.vel, rows),
            arg("step.acc", system.acc, rows), arg("step.jerk", system.jerk, rows),
            arg("step.dt", system.dt, (n,)),
            arg("step.block", block, (block.shape[0], BLOCK_COLS), output=True),
        )
        if code == _BAD_INDEX:
            raise IndexError(f"active index outside the {n} particles")
        return code != _ODD_STEP

    def block_correct(self, system, active, acc1, jerk1, block, t_next,
                      kepler_mass, params) -> None:
        """Finish the block :meth:`block_predict` filled ``block`` for.

        Adds the Kepler field of ``kepler_mass`` (``None``: no field) at
        the predicted state to the backend's ``acc1`` / ``jerk1``,
        applies the Hermite corrector, and takes the Aarseth step
        quantised with ``params`` (:class:`repro.core.TimestepParams`)
        — then writes ``pos vel acc jerk t dt`` of the ``active`` rows,
        ``t`` = ``t_next``.  Called again on the same ``block`` it
        corrects the same prediction anew (a later P(EC)^n pass).
        Raises, with nothing written, what the NumPy twin raises:
        ``ConfigurationError`` for a particle at the origin,
        ``IntegrationError`` for a non-finite corrected row.
        """
        n, n_i = system.dt.shape[0], active.shape[0]
        rows, sinks = (n, 3), (n_i, 3)
        if block.shape[0] < n_i:
            raise ValueError(f"block: fewer than the {n_i} active rows")
        # named, so that a converted copy outlives the call
        acc1 = np.ascontiguousarray(acc1, _F64)
        jerk1 = np.ascontiguousarray(jerk1, _F64)
        arg = self._arg
        code = self._fn["block_correct"](
            n, n_i, arg("step.active", active, (n_i,), dtype=_I64),
            _rows(acc1, sinks, "acc1"), _rows(jerk1, sinks, "jerk1"),
            kepler_mass is not None, 0.0 if kepler_mass is None else kepler_mass,
            t_next, params.eta, params.dt_min, params.dt_max,
            arg("step.block", block, (block.shape[0], BLOCK_COLS), output=True),
            arg("step.pos", system.pos, rows, output=True),
            arg("step.vel", system.vel, rows, output=True),
            arg("step.acc", system.acc, rows, output=True),
            arg("step.jerk", system.jerk, rows, output=True),
            arg("step.t", system.t, (n,), output=True),
            arg("step.dt", system.dt, (n,), output=True),
        )
        if code == _BAD_INDEX:
            raise IndexError(f"active index outside the {n} particles")
        if code == _AT_ORIGIN:
            raise ConfigurationError("particle at the origin of a KeplerField")
        if code == _NOT_FINITE:
            raise IntegrationError(f"non-finite state after block at t={t_next}")

    def quantize(self, dt_desired, t_now, dt_current, params) -> np.ndarray:
        """:func:`repro.core.timestep.quantize` as :meth:`block_correct`
        computes it, on whole arrays (``dt_current`` may be ``None``)."""
        want = np.ascontiguousarray(dt_desired, _F64)
        n = want.shape[0]
        t_now = np.ascontiguousarray(t_now, _F64)
        old = None
        if dt_current is not None:
            dt_current = np.ascontiguousarray(dt_current, _F64)
            old = _rows(dt_current, (n,), "dt_current")
        out = np.empty(n)
        self._fn["quantize"](
            n, _rows(want, (n,), "dt_desired"), _rows(t_now, (n,), "t_now"),
            old, params.dt_min, params.dt_max, _rows(out, (n,), "out", True),
        )
        return out


# -- build ------------------------------------------------------------------


def _compiler() -> list[str]:
    return shlex.split(os.environ.get("CC", "").strip() or "cc")


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def _private_dir(path: Path) -> bool:
    """Make ``path`` and say whether only this user can write there (an
    object someone else could replace must never be loaded)."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return False
    return (st.st_uid == os.getuid() and not st.st_mode & 0o022
            and os.access(path, os.W_OK | os.X_OK))


def cache_dir() -> Path | None:
    """First usable of ``$XDG_CACHE_HOME``, ``~/.cache``, the temp dir."""
    candidates = []
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    if xdg:
        candidates.append(Path(xdg) / "repro")
    try:
        candidates.append(Path.home() / ".cache" / "repro")
    except RuntimeError:  # no home directory to be found
        pass
    candidates.append(Path(tempfile.gettempdir()) / f"repro-cache-{os.getuid()}")
    for path in candidates:
        if _private_dir(path):
            return path
    return None


def _build(report: dict) -> NativeTile:
    """Compile (or find cached) and load; ``report`` collects the facts
    ``python -m repro.accel.native`` prints.  Raises on any failure."""
    cc = _compiler()
    report.update(compiler=" ".join(cc), flags=" ".join(FLAGS))
    version = _run([*cc, "--version"])
    if version.returncode != 0:
        raise RuntimeError(f"`{cc[0]} --version` exited {version.returncode}")
    report["compiler_version"] = version.stdout.splitlines()[0] if version.stdout else ""
    source = SOURCE.read_bytes()
    key = hashlib.sha256(
        b"\0".join([source, " ".join(FLAGS).encode(), version.stdout.encode()])
    ).hexdigest()[:16]
    directory = cache_dir()
    if directory is None:
        raise RuntimeError("no writable cache directory")
    target = directory / f"tile-{key}.so"
    report["object"] = str(target)
    log_lines = report["build_log"] = []
    if target.exists():
        try:
            tile = NativeTile(target)
        except OSError as exc:  # damaged object: build it again
            log_lines.append(f"cached object unusable: {exc}")
        else:
            log_lines.append("(cached)")
            return tile
    fd, tmp = tempfile.mkstemp(prefix=target.name, suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        cmd = [*cc, *FLAGS, str(SOURCE), "-o", tmp, "-lm"]
        done = _run(cmd)
        log_lines += [" ".join(cmd), *(done.stdout + done.stderr).splitlines()]
        if done.returncode != 0:
            raise RuntimeError(f"compiler exited {done.returncode}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return NativeTile(target)


_lock = threading.Lock()
_resolved = False
_tile: NativeTile | None = None
_report: dict = {}


def load() -> NativeTile | None:
    """The process's row kernel, or ``None`` on the NumPy tier.

    Resolved once: the first call builds or finds the object, every
    later one (and every forked child) gets the same answer.
    """
    global _resolved, _tile
    if _resolved:
        return _tile
    with _lock:
        if not _resolved:
            try:
                _tile = _build(_report)
                _report["entry_points"] = [f"repro_{name}" for name in ENTRY_POINTS]
            except Exception as exc:  # whatever went wrong, NumPy still works
                _report["error"] = f"{type(exc).__name__}: {exc}"
                log.warning(
                    "repro.accel: no native acc_jerk kernel (%s); "
                    "running the repro.core oracles", _report["error"],
                )
            _resolved = True
    return _tile


def tier() -> str:
    """``"native"`` or ``"numpy"``: the kernel tier of this process."""
    return "native" if load() is not None else "numpy"


def describe() -> dict:
    """Tier, compiler, flags, cache path, build log, entry points."""
    return {"tier": tier(), **_report}


def main() -> int:
    for key, value in describe().items():
        if isinstance(value, list):
            value = "".join(f"\n  {line}" for line in value)
        print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
