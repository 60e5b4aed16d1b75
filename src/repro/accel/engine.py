"""Thread-parallel force-kernel engine over a fixed j-chunk plan.

:class:`KernelEngine` is the software stand-in for a GRAPE-6 cluster
host board: it owns the preallocated :class:`~repro.accel.workspace`
slabs and a persistent thread pool over the j-axis chunks.  Like the
board it has one implementation per op, reached one way, and only the
ops a force path calls: the ``acc_jerk`` family (``acc_jerk``,
``acc_jerk_masked``, ``node_force``, ``acc_jerk_active`` and its
distributable chunk) and ``pairwise_potential`` for the energy
diagnostics.  Every public op normalises its arguments, books the call,
opens its ``kernel.<op>`` span and hands :meth:`KernelEngine._sweep`
one chunk body.  Two ops are native only:
:meth:`KernelEngine.tree_force`, a whole grouped tree force in one call
(sink groups, walk, sums and in-sphere pairs in C), and
:meth:`KernelEngine.tree_build`, the predictor over every source and
the octree build before it; the NumPy tier groups, walks, sums and
cuts the pairs in :mod:`repro.hybrid.walk` instead, with the same
groups, lists and pairs and, through these ops, the per-group sums the
native call reproduces, and builds with
:class:`~repro.baselines.tree.Octree`.

Two kernel tiers sit behind the one chunk entry point of the
``acc_jerk`` family (:meth:`KernelEngine._acc_jerk_rows`): the compiled
row kernel of :mod:`repro.accel.native` — one call per (all sink rows x
j-chunk), GIL released — whenever a C compiler is present, else the
plain-NumPy oracles of :mod:`repro.core.forces`, called once per
j-chunk and added with one ``+=`` per output.  Those oracles are the
NumPy tier, the reference the tests and :mod:`repro.grape.selftest`
compare against, and ``pairwise_potential`` on both tiers.  The tier
is a property of the process, resolved when the first engine is built.

Determinism contract
--------------------
The j-axis chunk plan (:meth:`KernelEngine._jplan`) depends only on
``(n_j, j_chunk, max_chunks)`` — never on thread count, scheduling or
timing — and partial sums are reduced in ascending chunk order (the
software analogue of the GRAPE-6 network-board reduction tree).  The
serial path accumulates the same chunks in the same order, so results
are **bit-identical** whether the engine runs serial or threaded, and
independent of ``REPRO_KERNEL_THREADS`` — the one environment variable
the package reads (worker threads; 1 disables the pool).  The only
field that changes bits is ``j_chunk`` (it splits the j summation), a
constructor argument no environment variable or flag reaches.  All of
this holds *within* a tier; the two tiers order the sum inside a chunk
differently and agree to 1e-12 norm-relative (measured ~1e-15), not bit
for bit.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..core import forces
from ..core.predictor import predict_positions, predict_velocities
from ..obs import NULL_OBS, NULL_TRACER
from ..obs.history import usable_cpus
from .workspace import KernelWorkspace

__all__ = ["EngineConfig", "KernelEngine", "fixed_order_reduce"]

#: The engine's ops, named like their ``kernel.<op>`` spans (the
#: native-only ``tree_force`` and ``tree_build`` aside).  All but
#: ``potential`` run the row kernel on the native tier; ``potential``
#: is NumPy on both.
OPS = frozenset(
    ("acc_jerk", "acc_jerk_active", "acc_jerk_masked", "node_force", "potential")
)

#: ``kernel.tile_bytes_total`` books, per pair, the seven source values
#: (x y z vx vy vz m) the pair loop reads; per quadrupole pair the nine
#: moments beside them; and per ``predicted`` row the resident row (x v
#: a j, t, m) the predictor of ``acc_jerk_active`` reads.
ROW_KERNEL_VALUES = 7
QUAD_VALUES = 9
PREDICTOR_VALUES = 14


def fixed_order_reduce(partials):
    """Left-fold per-chunk partial arrays in ascending chunk order.

    ``partials`` is a sequence (indexed by chunk) of equally-shaped
    ndarrays; the result is ``(((0 + p0) + p1) + ...)`` — the exact
    summation order of :meth:`KernelEngine._sweep` in both its serial
    and threaded modes, which is what makes a distributed fold of
    :meth:`KernelEngine.acc_jerk_active_chunk` partials bit-identical
    to a single-process call.
    """
    partials = list(partials)
    if not partials:
        raise ValueError("nothing to reduce")
    out = np.zeros_like(partials[0])
    for part in partials:
        out += part
    return out


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return max(int(raw), 1)
    except ValueError:
        return default


def _native_module():
    """:mod:`repro.accel.native`, imported on first use so that
    ``python -m repro.accel.native`` runs the module only once."""
    from . import native

    return native


@dataclass(frozen=True)
class EngineConfig:
    """Immutable tuning knobs for one :class:`KernelEngine`.

    ``max_chunks`` caps the j-chunk count *independently of thread
    count* so the summation order (and therefore every bit of the
    result) does not change when ``threads`` does.
    """

    threads: int = 1
    j_chunk: int = 2048
    max_chunks: int = 16
    #: Below this many pairs a call runs serial (scheduling only — the
    #: chunk plan, and hence the bits, are unaffected).
    parallel_pairs: int = 1 << 18

    @classmethod
    def from_env(cls, **overrides) -> "EngineConfig":
        """The default config with ``threads`` from
        ``REPRO_KERNEL_THREADS`` (else the usable CPUs, at most 8) —
        the environment sets scheduling only, never a bit."""
        values = dict(
            threads=_env_int("REPRO_KERNEL_THREADS", min(usable_cpus(), 8)),
        )
        values.update(overrides)
        return cls(**values)

    def describe(self) -> dict:
        """JSON-friendly view (benchmark provenance block)."""
        return {
            "threads": self.threads,
            "j_chunk": self.j_chunk,
            "max_chunks": self.max_chunks,
            "parallel_pairs": self.parallel_pairs,
            "kernel_tier": _native_module().tier(),
        }


class KernelEngine:
    """Dispatches force-kernel ops over the j-chunk plan.

    One engine is meant to live as long as the process (see
    :func:`repro.accel.get_engine`): its thread pool and per-thread
    workspaces amortise across every block step of a run.
    """

    def __init__(self, config: EngineConfig | None = None, obs=None) -> None:
        self.config = config or EngineConfig.from_env()
        self._tls = threading.local()
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._ws_bytes = 0
        self._ws_lock = threading.Lock()
        #: the compiled row kernel, or None on the NumPy tier
        self._native = _native_module().load()
        self.observe(obs if obs is not None else NULL_OBS)

    # -- observability -----------------------------------------------------

    def observe(self, obs) -> None:
        """Bind the ``kernel.*`` metric family to ``obs`` (an
        :class:`~repro.obs.Observability` bundle or a bare registry)."""
        metrics = getattr(obs, "metrics", obs)
        self._tracer = getattr(obs, "tracer", NULL_TRACER)
        self._c_calls = metrics.counter("kernel.calls_total")
        self._c_tile_bytes = metrics.counter("kernel.tile_bytes_total")
        self._g_eff = metrics.gauge("kernel.thread_efficiency")
        self._g_threads = metrics.gauge("kernel.threads")
        self._g_ws_bytes = metrics.gauge("kernel.workspace_bytes")
        self._g_threads.set(self.config.threads)
        self._g_ws_bytes.set(self._ws_bytes)
        metrics.gauge("kernel.native").set(int(self._native is not None))

    def _on_alloc(self, nbytes: int) -> None:
        with self._ws_lock:
            self._ws_bytes += int(nbytes)
            self._g_ws_bytes.set(self._ws_bytes)

    @property
    def tier(self) -> str:
        """``"native"`` or ``"numpy"`` (see :mod:`repro.accel.native`)."""
        return "native" if self._native is not None else "numpy"

    @property
    def workspace_bytes(self) -> int:
        """Bytes currently held across all thread-local workspaces."""
        return self._ws_bytes

    # -- workers / workspaces ---------------------------------------------

    def _ws(self) -> KernelWorkspace:
        ws = getattr(self._tls, "ws", None)
        if ws is None:
            ws = self._tls.ws = KernelWorkspace(on_alloc=self._on_alloc)
        return ws

    def _get_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.config.threads,
                    thread_name_prefix="repro-kernel",
                )
            return self._pool

    def close(self) -> None:
        """Shut down the thread pool (workspaces stay warm)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    # -- chunk planning ----------------------------------------------------

    def _jplan(self, n_j: int) -> list[tuple[int, int]]:
        """Fixed j-axis chunk bounds — a pure function of the config.

        Near-equal integer split into ``min(ceil(n_j/j_chunk),
        max_chunks)`` chunks; never consults thread count or runtime
        state, which is what makes threaded results reproducible.
        """
        cfg = self.config
        n_chunks = max(1, min(-(-n_j // cfg.j_chunk), cfg.max_chunks))
        base, extra = divmod(n_j, n_chunks)
        bounds = []
        j0 = 0
        for k in range(n_chunks):
            j1 = j0 + base + (1 if k < extra else 0)
            bounds.append((j0, j1))
            j0 = j1
        return bounds

    # -- the sweep driver --------------------------------------------------

    def _sweep(self, n_i: int, n_j: int, chunk_body, scalar: bool = False):
        """An op's zeroed outputs, summed over the j-chunk plan.

        The outputs are ``acc, jerk`` (``(n_i, 3)`` each, returned as a
        pair) or, with ``scalar``, one ``(n_i,)`` array returned alone.
        ``chunk_body(ws, j0, j1, *outs)`` must *add* its chunk's
        contribution into them; empty input returns the zeros without
        calling it.  Serial mode accumulates chunks directly, in
        ascending order; threaded mode gives every chunk a zeroed
        partial-sum slice and reduces the slices in the same ascending
        order, so both orderings are ``(((0+t0)+t1)+...)`` and the
        results are bit-identical.
        """
        if scalar:
            outs = (np.zeros(n_i),)
            result = outs[0]
        else:
            result = outs = (np.zeros((n_i, 3)), np.zeros((n_i, 3)))
        if n_i == 0 or n_j == 0:
            return result
        chunks = self._jplan(n_j)
        cfg = self.config
        threaded = (
            len(chunks) > 1
            and cfg.threads > 1
            and n_i * n_j >= cfg.parallel_pairs
        )
        if not threaded:
            ws = self._ws()
            for j0, j1 in chunks:
                chunk_body(ws, j0, j1, *outs)
            return result

        main_ws = self._ws()
        slabs = [
            main_ws.partials(len(chunks), n_i, o.shape[1] if o.ndim == 2 else 0, slot=m)
            for m, o in enumerate(outs)
        ]
        busy = [0.0] * len(chunks)

        def task(k: int, j0: int, j1: int) -> None:
            t0 = perf_counter()
            ws = self._ws()
            parts = [slab[k] for slab in slabs]
            for part in parts:
                part[...] = 0.0
            chunk_body(ws, j0, j1, *parts)
            busy[k] = perf_counter() - t0

        t_wall = perf_counter()
        pool = self._get_pool()
        futures = [pool.submit(task, k, j0, j1) for k, (j0, j1) in enumerate(chunks)]
        for fut in futures:
            fut.result()
        # Fixed-order reduction: ascending chunk index, like the GRAPE
        # network boards summing pipeline partials in wired order.
        for out, slab in zip(outs, slabs):
            for k in range(len(chunks)):
                out += slab[k]
        wall = perf_counter() - t_wall
        if wall > 0.0:
            self._g_eff.set(min(sum(busy) / (cfg.threads * wall), 1.0))
        return result

    # -- public ops (normalise, count, span, run) --------------------------

    def _count_call(self, pairs: int, quad_pairs: int = 0,
                    predicted: int = 0, calls: int = 1) -> None:
        """Book ``calls`` engine calls and the operand bytes they stream
        (one rule on both tiers: see :data:`ROW_KERNEL_VALUES`)."""
        self._c_calls.inc(calls)
        values = (pairs * ROW_KERNEL_VALUES + quad_pairs * QUAD_VALUES
                  + predicted * PREDICTOR_VALUES)
        self._c_tile_bytes.inc(8 * values)

    def count_active_calls(self, sizes, n_j: int) -> None:
        """Book one :meth:`acc_jerk_active` call per entry of ``sizes``
        (its sinks) against ``n_j`` sources, as ``repro_run_blocks``
        made them inside one native call."""
        steps, calls = int(sizes.sum()), int(sizes.size)
        self._count_call(steps * n_j, predicted=steps + calls * n_j,
                         calls=calls)

    def acc_jerk(self, pos_i, vel_i, pos_j, vel_j, mass_j, eps,
                 self_indices=None, counter=None):
        """Softened acceleration and jerk; mirrors
        :func:`repro.core.forces.acc_jerk`.

        A ``self_indices`` entry of ``-1`` means "no self column in this
        source list" (no pair excluded for that sink row).  There is no
        size heuristic and no choice of kernel, so the same physics
        evaluated in slices of any shape sums in the same order.
        """
        pos_i, vel_i, pos_j, vel_j = _norm(pos_i, vel_i, pos_j, vel_j)
        mass_j = _mass(mass_j)
        n_i, n_j = pos_i.shape[0], pos_j.shape[0]
        if counter is not None:
            counter.add(n_i, n_j, with_jerk=True)
        self._count_call(n_i * n_j)
        with self._tracer.span("kernel.acc_jerk", n_i=n_i, n_j=n_j):
            return self._accel_acc_jerk(
                pos_i, vel_i, pos_j, vel_j, mass_j, eps,
                self_indices=_idx(self_indices),
            )

    def pairwise_potential(self, pos_i, pos_j, mass_j, eps, self_indices=None):
        """Softened potential per sink: on either tier
        :func:`repro.core.forces.pairwise_potential` once per j-chunk."""
        pos_i, pos_j = _norm(pos_i, pos_j)
        mass_j = _mass(mass_j)
        self_indices = _idx(self_indices)
        n_i, n_j = pos_i.shape[0], pos_j.shape[0]
        self._count_call(n_i * n_j)

        def body(ws, j0, j1, phi_o):
            phi_o += forces.pairwise_potential(
                pos_i, pos_j[j0:j1], mass_j[j0:j1], eps,
                self_indices=_chunk_columns(self_indices, j0, j1),
            )

        with self._tracer.span("kernel.potential", n_i=n_i, n_j=n_j):
            return self._sweep(n_i, n_j, body, scalar=True)

    def acc_jerk_masked(self, pos_i, vel_i, pos_j, vel_j, mass_j, eps,
                        include, counter=None):
        """Softened acceleration and jerk over an explicit pair mask.

        ``include`` is a boolean ``(n_i, n_j)`` matrix selecting which
        (sink, source) pairs contribute.  Excluded pairs cost their
        slot but contribute exact zeros (``r2`` driven to inf, the same
        mechanism as self-pair exclusion), so the fixed-order j-chunk
        reduction — and with it serial/threaded bit-identity — is
        untouched.  The counter books the *included* pair count.
        """
        pos_i, vel_i, pos_j, vel_j = _norm(pos_i, vel_i, pos_j, vel_j)
        mass_j = _mass(mass_j)
        n_i, n_j = pos_i.shape[0], pos_j.shape[0]
        include = np.ascontiguousarray(include, dtype=bool)
        if include.shape != (n_i, n_j):
            raise ValueError(
                f"include mask shape {include.shape} != ({n_i}, {n_j})"
            )
        if counter is not None:
            counter.add(int(include.sum()), 1, with_jerk=True)
        self._count_call(n_i * n_j)
        with self._tracer.span("kernel.acc_jerk_masked", n_i=n_i, n_j=n_j):
            return self._accel_acc_jerk(
                pos_i, vel_i, pos_j, vel_j, mass_j, eps, excluded=~include,
            )

    def node_force(self, pos_i, vel_i, com_j, vel_j, mass_j, eps,
                   quad_j=None, counter=None):
        """Multipole list kernel: monopole(+quadrupole) acc, monopole jerk.

        The grouped tree walk's bulk-evaluation op: sinks against a
        *list of accepted tree nodes* — ``com_j`` / ``vel_j`` /
        ``mass_j`` are the nodes' centres of mass, COM velocities
        (``mom / mass``) and total masses, ``quad_j`` the optional
        ``(n_j, 3, 3)`` traceless quadrupole moments (mass included).
        No self-pairs or masks: accepted nodes never contain a sink.
        The acceleration gains the quadrupole term when ``quad_j`` is
        given; the jerk stays monopole (the classical compromise of
        tree+Hermite hybrids, matching ``Octree.accelerations``).
        Mirrors :func:`repro.core.forces.node_force`.
        """
        pos_i, vel_i, com_j, vel_j = _norm(pos_i, vel_i, com_j, vel_j)
        mass_j = _mass(mass_j)
        n_i, n_j = pos_i.shape[0], com_j.shape[0]
        if quad_j is not None:
            quad_j = np.ascontiguousarray(quad_j, dtype=np.float64)
            if quad_j.shape != (n_j, 3, 3):
                raise ValueError(
                    f"quad_j shape {quad_j.shape} != ({n_j}, 3, 3)"
                )
        if counter is not None:
            counter.add(n_i, n_j, with_jerk=True)
        self._count_call(n_i * n_j, quad_pairs=0 if quad_j is None else n_i * n_j)
        with self._tracer.span("kernel.node_force", n_i=n_i, n_j=n_j):
            return self._accel_acc_jerk(pos_i, vel_i, com_j, vel_j, mass_j, eps,
                                        quad_j=quad_j)

    def tree_force(self, tree, pos_i, vel_i, theta, eps, exclude_self=None,
                   h_i=None, n_crit=32):
        """The grouped tree force in one native call: group the sinks,
        walk once per group, sum the group's lists, for every group.

        ``tree`` is an :class:`~repro.baselines.tree.Octree`, ``pos_i``
        the sinks (``vel_i`` ``None``: the jerk is of zero sink
        velocities), ``exclude_self`` each sink's own particle, ``h_i``
        each sink's neighbour radius (or ``None``) and ``n_crit`` the
        group size target.  The groups are
        :func:`~repro.hybrid.walk.build_groups`', the walk is
        :func:`~repro.hybrid.walk.walk_groups`, the sums are
        :func:`~repro.hybrid.walk.evaluate_lists` on this engine (nodes,
        then pp, each over :meth:`jplan`, then node + pp), bit for bit,
        and with ``h_i`` the walk keeps the in-sphere pairs of
        ``repro.hybrid.walk.engine._neighbour_pairs``.  Returns ``(acc,
        jerk, groups, lists, pairs)``: the fields of the
        :class:`~repro.hybrid.walk.SinkGroups`, the CSR of the
        :class:`~repro.hybrid.walk.InteractionLists` it walked, and
        ``None`` or the ``(row, src, dist2)`` pairs in group order.
        Native tier only; the NumPy tier runs those four functions.
        """
        if self._native is None:
            raise RuntimeError("tree_force needs the native kernel tier")
        pos_i = np.ascontiguousarray(pos_i, dtype=np.float64)
        if vel_i is not None:
            vel_i = np.ascontiguousarray(vel_i, dtype=np.float64)
        if h_i is not None:
            h_i = np.ascontiguousarray(h_i, dtype=np.float64)
        n_i = pos_i.shape[0]
        acc = np.zeros((n_i, 3))
        jerk = np.zeros((n_i, 3))
        cfg = self.config
        with self._tracer.span("kernel.tree_force", n_i=n_i):
            groups, csr, pairs = self._native.tree_force(
                tree, pos_i, vel_i, _idx(exclude_self), h_i, int(n_crit),
                float(theta), float(eps) ** 2, cfg.j_chunk, cfg.max_chunks,
                acc, jerk,
            )
        sizes = np.diff(groups[1])
        node_pairs = int(sizes @ np.diff(csr[0]))
        self._count_call(
            node_pairs + int(sizes @ np.diff(csr[2])),
            quad_pairs=node_pairs if tree.node_quad is not None else 0,
        )
        return acc, jerk, groups, csr, pairs

    def tree_build(self, system, t_now, leaf_size):
        """Predict every particle of ``system`` to ``t_now`` into
        ``system.pred_pos`` / ``pred_vel`` and build the monopole octree
        over them, in one native call.

        The prediction is :func:`~repro.core.predictor.predict_system`'s
        and the tree :class:`~repro.baselines.tree.Octree`'s over the
        predicted rows, bit for bit; returns the fields
        :meth:`~repro.baselines.tree.Octree.from_arrays` wraps.  Native
        tier only; the NumPy tier runs those two.
        """
        if self._native is None:
            raise RuntimeError("tree_build needs the native kernel tier")
        with self._tracer.span("kernel.tree_build", n=int(system.n)):
            return self._native.tree_build(
                system.pred_pos, system.mass, system.pred_vel, leaf_size,
                resident=system, t_now=float(t_now),
            )

    def acc_jerk_active(self, system, active, t_now, eps, counter=None):
        """Force+jerk on the active block of a particle system at ``t_now``.

        The op every backend block step goes through.  Sinks and
        sources are predicted per j-chunk inside the loop (the system's
        ``pred_pos``/``pred_vel`` stay untouched), and the sum runs in
        the order of the :meth:`acc_jerk_active_chunk` fold at every
        block size: every chunk, serial or threaded, is one
        :meth:`_fused_chunk`, so a one-particle block never pays an
        O(N) ``pred_pos`` write.  ``active`` holds row numbers in
        ``[0, n)``; any other entry raises ``IndexError``.
        """
        active = np.asarray(active)
        n_i, n_j = active.size, system.n
        if counter is not None:
            counter.add(n_i, n_j, with_jerk=True)
        self._count_call(n_i * n_j, predicted=n_i + n_j)
        t_now = float(t_now)
        with self._tracer.span("kernel.acc_jerk_active", n_i=n_i, n_j=n_j):
            sinks = self._sinks(system, active, t_now)
            rows = _idx(active)

            def body(ws, j0, j1, acc_o, jerk_o):
                self._fused_chunk(ws, system, rows, t_now, eps, sinks,
                                  j0, j1, acc_o, jerk_o)

            return self._sweep(n_i, n_j, body)

    # -- distributable chunk entry points ----------------------------------

    def jplan(self, n_j: int) -> list[tuple[int, int]]:
        """The public fixed j-chunk plan — the unit of distribution.

        A pure function of ``(n_j, j_chunk, max_chunks)``: any process
        with the same config computes the same bounds, so a rank gang
        can partition the plan, evaluate chunks independently with
        :meth:`acc_jerk_active_chunk`, and fold the partials with
        :func:`fixed_order_reduce` to reproduce the single-process
        result bit for bit.
        """
        return self._jplan(n_j)

    def acc_jerk_active_chunk(self, system, active, t_now, eps, j0, j1,
                              counter=None):
        """One j-chunk's partial of :meth:`acc_jerk_active`.

        Computes the fused predict-and-accumulate contribution of
        sources ``[j0, j1)`` on the active block — exactly the chunk
        body of :meth:`acc_jerk_active`, into freshly zeroed outputs.
        Summing these partials in ascending ``jplan`` order
        (``fixed_order_reduce``) reproduces the serial and threaded
        sweeps bit-identically, because both are the same left fold
        ``(((0 + c0) + c1) + ...)`` over the same chunk bounds.

        ``system`` may be a full ``ParticleSystem`` or any object with
        ``mass``/``pos``/``vel``/``acc``/``jerk``/``t`` arrays (e.g. a
        shared-memory :class:`repro.parallel.programs.ArrayView`).
        """
        active = np.asarray(active)
        n_i = active.size
        acc = np.zeros((n_i, 3))
        jerk = np.zeros((n_i, 3))
        j0, j1 = int(j0), int(j1)
        if n_i == 0 or j1 <= j0:
            return acc, jerk
        width = j1 - j0
        if counter is not None:
            counter.add(n_i, width, with_jerk=True)
        self._count_call(n_i * width, predicted=n_i + width)
        self._fused_chunk(
            self._ws(), system, _idx(active), float(t_now), eps,
            self._sinks(system, active, t_now), j0, j1, acc, jerk,
        )
        return acc, jerk

    # -- chunk bodies ------------------------------------------------------

    def _acc_jerk_rows(self, pos_i, vel_i, pos_j, vel_j, mass_j, eps,
                       acc_o, jerk_o, j0=0, self_indices=None,
                       excluded=None, quad_j=None) -> None:
        """Add one j-chunk's force + jerk on every sink row into the outputs.

        The one chunk body of the ``acc_jerk`` family.  ``pos_j`` /
        ``vel_j`` / ``mass_j`` (and ``quad_j``) are columns ``[j0, j0 +
        width)`` of the op's source list; ``self_indices`` (columns in
        that list, ``-1`` = none) and ``excluded`` (the op's full
        boolean mask) name the pairs that contribute exact zeros.
        Native tier: one call of the row kernel for all rows.  NumPy
        tier: :func:`repro.core.forces.acc_jerk` (or ``node_force``
        with ``quad_j``) on the chunk, one ``+=`` per output.
        """
        if self._native is not None:
            self._native.acc_jerk_rows(
                pos_i, vel_i, pos_j, vel_j, mass_j, float(eps) ** 2,
                acc_o, jerk_o, j0, self_indices, excluded, quad_j,
            )
            return
        if quad_j is not None:
            acc, jerk = forces.node_force(pos_i, vel_i, pos_j, vel_j, mass_j,
                                          eps, quad_j=quad_j)
        else:
            j1 = j0 + pos_j.shape[0]
            acc, jerk = forces.acc_jerk(
                pos_i, vel_i, pos_j, vel_j, mass_j, eps,
                self_indices=_chunk_columns(self_indices, j0, j1),
                include=None if excluded is None else ~excluded[:, j0:j1],
            )
        acc_o += acc
        jerk_o += jerk

    def _accel_acc_jerk(self, pos_i, vel_i, pos_j, vel_j, mass_j, eps,
                        self_indices=None, excluded=None, quad_j=None):
        """The pair sum of ``acc_jerk``, of ``acc_jerk_masked`` (with
        ``excluded``) and of ``node_force`` (``quad_j`` optional)."""

        def body(ws, j0, j1, acc_o, jerk_o):
            self._acc_jerk_rows(
                pos_i, vel_i, pos_j[j0:j1], vel_j[j0:j1], mass_j[j0:j1],
                eps, acc_o, jerk_o, j0, self_indices, excluded,
                None if quad_j is None else quad_j[j0:j1],
            )

        return self._sweep(pos_i.shape[0], pos_j.shape[0], body)

    def _sinks(self, system, active, t_now):
        """What :meth:`_fused_chunk` needs of the sinks beside their
        index: nothing on the native tier (the entry point predicts
        them by index), their predicted rows on the NumPy tier (none
        for an empty block).  Fancy indexing would wrap a negative row
        number around; the native entry point refuses one, so this
        does too."""
        if self._native is not None or not active.size:
            return None
        if active.min() < 0:
            raise IndexError(f"active index outside the {system.n} particles")
        return _predict_rows(system, active, t_now)

    def _fused_chunk(self, ws, system, active, t_now, eps, sinks,
                     j0, j1, acc_o, jerk_o) -> None:
        """Predict sources ``[j0, j1)`` and add their pull on the block.

        The one chunk body behind :meth:`acc_jerk_active` (every
        chunk, serial or threaded, through :meth:`_sweep`) and
        :meth:`acc_jerk_active_chunk` (one chunk, for a rank gang).
        Native tier: one call on the system's resident arrays — the
        predictor runs beside the pipeline, like on the chip.  NumPy
        tier: :mod:`repro.core.predictor` on the chunk's rows, then
        :meth:`_acc_jerk_rows`.  Both predict with the exact
        :mod:`repro.core.predictor` expression, so the pair sums see
        bit-identical coordinates.
        """
        if self._native is not None:
            self._native.acc_jerk_active_chunk(
                system, active, t_now, float(eps) ** 2, j0, j1,
                ws.vec(active.size + j1 - j0, 6), acc_o, jerk_o,
            )
            return
        self._acc_jerk_rows(
            *sinks, *_predict_rows(system, slice(j0, j1), t_now),
            system.mass[j0:j1], eps, acc_o, jerk_o, j0, active,
        )


def _predict_rows(system, rows, t_now):
    """Predicted position and velocity of ``rows`` of ``system`` at
    ``t_now`` (NumPy tier): the canonical expression, elementwise, so
    predicting a slice gives the bits of a full ``predict_system``."""
    dt = t_now - system.t[rows]
    args = (system.vel[rows], system.acc[rows], system.jerk[rows], dt)
    return predict_positions(system.pos[rows], *args), predict_velocities(*args)


def _chunk_columns(self_indices, j0: int, j1: int):
    """Self columns in the numbering of the chunk ``[j0, j1)``: ``-1``
    where a sink's column lies outside it."""
    if self_indices is None:
        return None
    inside = (self_indices >= j0) & (self_indices < j1)
    return np.where(inside, self_indices - j0, -1)


def _norm(*arrays):
    """C-contiguous float64 arrays, 2-D (single particles promoted to
    one row)."""
    return tuple(
        np.atleast_2d(np.ascontiguousarray(a, dtype=np.float64)) for a in arrays
    )


def _mass(mass_j):
    """C-contiguous float64 1-D mass array (never row-promoted)."""
    return np.ascontiguousarray(mass_j, dtype=np.float64)


def _idx(self_indices):
    """Self columns as the contiguous int64 the row kernel reads."""
    if self_indices is None:
        return None
    return np.ascontiguousarray(self_indices, dtype=np.int64)
