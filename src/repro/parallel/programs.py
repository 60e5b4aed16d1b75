"""Engine-portable SPMD rank programs.

The same generator programs run on two schedulers:

* :class:`~repro.parallel.spmd.VirtualMachine` — deterministic
  in-process execution with a LogP-style *predicted* cost model,
  priced per link;
* :class:`~repro.parallel.proc.ProcEngine` — real worker processes
  over pipes and shared memory, with *measured* wall-clock costs.

To be portable a program must be a module-level callable taking
``(comm, ctx)`` where ``ctx`` is a :class:`ProgramContext`: named
arrays (plain ndarrays on the VM, shared-memory views in workers) plus
a picklable parameter dict.  Programs treat ``ctx.arrays`` as
read-only input and move everything else through ``comm``.  ``ctx`` is
the *only* input: the process gang is forked once and then reused, so
whatever else a program reads (a module global, a closure variable) is
the parent's value as of that fork, not as of the run.

The force programs:

* :func:`ring_force_program` — the systolic travelling-block ring of
  :mod:`repro.parallel.ring`;
* :func:`grid_force_program` — the Figure-6 q x q host matrix of
  :mod:`repro.parallel.grid2d`;
* :func:`chunk_force_program` — the block-step force evaluation used
  by :class:`repro.parallel.backend.SpmdBackend`: ranks compute
  per-j-chunk partials with the accel engine's chunk kernel and the
  root folds them in ascending global chunk order, which is what keeps
  multiprocess results bit-identical to the serial and threaded
  single-process paths.

The paper's four host strategies (Section 4.3), as the traffic of one
block step on GRAPE-6 nodes — :func:`naive_copy_program` (Figure 3),
:func:`nb_exchange_program` (Figures 4-5), :func:`host_grid_program`
(Figure 6) and :func:`hybrid_program` (Figure 7).  :func:`strategy_step`
runs one on the VM over the links of :func:`machine_links` and counts
the bytes that crossed host network interfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..accel import get_engine
from ..errors import ConfigurationError
from ..grape.host import IPARTICLE_BYTES, JWRITE_BYTES, RESULT_BYTES
from ..grape.links import gbe_link, lvds_link, pci_link
from .spmd import VirtualMachine

__all__ = [
    "ProgramContext",
    "ArrayView",
    "partition_bounds",
    "ring_force_program",
    "grid_force_program",
    "chunk_force_program",
    "naive_copy_program",
    "nb_exchange_program",
    "host_grid_program",
    "hybrid_program",
    "HOST_STRATEGIES",
    "machine_links",
    "strategies_for",
    "strategy_step",
]


class ProgramContext:
    """Inputs of one SPMD program: named arrays + picklable params."""

    def __init__(self, arrays: dict | None = None, params: dict | None = None):
        self.arrays = dict(arrays or {})
        self.params = dict(params or {})


class ArrayView:
    """Duck-typed stand-in for a ``ParticleSystem`` built from bare arrays.

    Exposes exactly the attributes the accel engine's
    ``acc_jerk_active_chunk`` touches (``mass``/``pos``/``vel``/
    ``acc``/``jerk``/``t``/``n``), so workers can run force kernels
    against shared-memory segments without constructing a full system.
    """

    def __init__(self, mass, pos, vel, acc, jerk, t) -> None:
        self.mass = mass
        self.pos = pos
        self.vel = vel
        self.acc = acc
        self.jerk = jerk
        self.t = t

    @property
    def n(self) -> int:
        return self.mass.shape[0]

    @classmethod
    def from_arrays(cls, arrays: dict) -> "ArrayView":
        return cls(arrays["mass"], arrays["pos"], arrays["vel"],
                   arrays["acc"], arrays["jerk"], arrays["t"])


def partition_bounds(n: int, p: int) -> list[int]:
    """Bounds of contiguous ~n/p slices (picklable ints, length p+1)."""
    return [int(b) for b in np.linspace(0, n, p + 1).astype(int)]


@dataclass(frozen=True)
class _ForceRun:
    """Whole-system forces of a ring or grid run plus the VM's
    communication accounting."""

    acc: np.ndarray
    jerk: np.ndarray
    total_bytes: int
    messages: int
    #: logical end times per rank [s]
    clock: list


def _force_run(result, n: int) -> _ForceRun:
    """Place the ``(lo, hi, acc, jerk)`` slices rank 0 gathered (``None``
    entries carry nothing) into arrays for all ``n`` particles."""
    acc = np.zeros((n, 3))
    jerk = np.zeros((n, 3))
    for item in result.returns[0]:
        if item is not None:
            lo, hi, a, j = item
            acc[lo:hi] = a
            jerk[lo:hi] = j
    return _ForceRun(acc=acc, jerk=jerk, total_bytes=result.total_bytes,
                     messages=result.messages, clock=result.clock)


# -- the systolic ring (paper Figures 4-5, in software) ----------------------


def ring_force_program(comm, ctx):
    """Travelling-block all-pairs forces on a ring of ranks.

    ``ctx.arrays``: ``pos``/``vel``/``mass`` of the whole system;
    ``ctx.params``: ``eps`` and the partition ``bounds``.  Returns the
    per-rank ``(lo, hi, acc, jerk)`` gathered on every rank.
    """
    pos, vel, mass = ctx.arrays["pos"], ctx.arrays["vel"], ctx.arrays["mass"]
    eps = float(ctx.params["eps"])
    bounds = ctx.params["bounds"]
    lo, hi = bounds[comm.rank], bounds[comm.rank + 1]
    mine = np.arange(lo, hi)
    my_pos, my_vel = pos[lo:hi], vel[lo:hi]
    # travelling block starts as my own slice
    blk_idx, blk_pos, blk_vel, blk_mass = mine, pos[lo:hi], vel[lo:hi], mass[lo:hi]

    acc = np.zeros((mine.size, 3))
    jerk = np.zeros((mine.size, 3))
    left = (comm.rank - 1) % comm.size
    right = (comm.rank + 1) % comm.size

    engine = get_engine()
    for hop in range(comm.size):
        # the self block excludes the diagonal
        own = np.arange(mine.size) if np.array_equal(blk_idx, mine) else None
        a, j = engine.acc_jerk(my_pos, my_vel, blk_pos, blk_vel, blk_mass, eps,
                               self_indices=own)
        acc += a
        jerk += j
        if hop < comm.size - 1 and comm.size > 1:
            payload = (blk_idx, blk_pos, blk_vel, blk_mass)
            # even ranks send first to break the cycle deterministically
            if comm.rank % 2 == 0:
                yield comm.send(right, payload)
                incoming = yield comm.recv(left)
            else:
                incoming = yield comm.recv(left)
                yield comm.send(right, payload)
            blk_idx, blk_pos, blk_vel, blk_mass = incoming

    gathered = yield comm.allgather((lo, hi, acc, jerk))
    return gathered


# -- the Figure-6 2-D host matrix --------------------------------------------


def grid_force_program(comm, ctx):
    """All-pairs forces on a ``q x q`` rank matrix.

    Rank ``(r, c)`` computes its j-block's partial force on its row's
    i-block; partials reduce along each row to the row root (column 0,
    the "real host"), in ascending source-column order; row roots
    allgather.  ``ctx.params``: ``eps``, ``q``, ``bounds``.
    """
    pos, vel, mass = ctx.arrays["pos"], ctx.arrays["vel"], ctx.arrays["mass"]
    eps = float(ctx.params["eps"])
    q = int(ctx.params["q"])
    bounds = ctx.params["bounds"]
    row, col = divmod(comm.rank, q)
    ilo, ihi = bounds[row], bounds[row + 1]
    jlo, jhi = bounds[col], bounds[col + 1]

    a, j = get_engine().acc_jerk(
        pos[ilo:ihi], vel[ilo:ihi], pos[jlo:jhi], vel[jlo:jhi], mass[jlo:jhi],
        eps, self_indices=np.arange(ihi - ilo) if row == col else None,
    )

    root = row * q
    if col != 0:
        yield comm.send(root, (a, j))
        gathered = yield comm.allgather(None)
        return gathered
    for src_col in range(1, q):
        pa, pj = yield comm.recv(row * q + src_col)
        a = a + pa
        j = j + pj
    gathered = yield comm.allgather((ilo, ihi, a, j))
    return gathered


# -- the block-step chunk program (SpmdBackend) ------------------------------


def chunk_force_program(comm, ctx):
    """One block-step force evaluation, decomposed over j-chunks.

    The global chunk plan (``ctx.params["chunks"]``, the accel
    engine's ``jplan``) is dealt round-robin across ranks; each rank
    computes its chunks' ``(acc, jerk)`` partials with
    ``acc_jerk_active_chunk`` and routes them to rank 0, which folds
    them **in ascending global chunk index** — the exact summation
    order of the engine's serial and threaded sweeps, so the result is
    bit-identical to a single-process run.

    ``ctx.params["route"]`` selects the exchange pattern: ``"gather"``
    (every rank sends straight to the root) or ``"ring"`` (partials
    drain hop-by-hop toward rank 0 — the systolic pattern, exercising
    p2p chains).  A closing ``barrier`` marks the superstep boundary.
    Returns ``(acc, jerk)`` on rank 0, ``None`` elsewhere.
    """
    engine = get_engine()
    sysv = ArrayView.from_arrays(ctx.arrays)
    active = np.asarray(ctx.arrays["active"], dtype=np.intp)
    chunks = [tuple(c) for c in ctx.params["chunks"]]
    t_now = float(ctx.params["t_now"])
    eps = float(ctx.params["eps"])
    route = ctx.params.get("route", "gather")

    parts = {
        k: engine.acc_jerk_active_chunk(sysv, active, t_now, eps, j0, j1)
        for k, (j0, j1) in enumerate(chunks)
        if k % comm.size == comm.rank
    }

    if comm.size > 1:
        if route == "ring":
            # systolic drain: rank r collects from r+1, forwards to r-1
            if comm.rank < comm.size - 1:
                incoming = yield comm.recv(comm.rank + 1)
                parts.update(incoming)
            if comm.rank > 0:
                yield comm.send(comm.rank - 1, parts)
        else:
            if comm.rank == 0:
                for src in range(1, comm.size):
                    incoming = yield comm.recv(src)
                    parts.update(incoming)
            else:
                yield comm.send(0, parts)
    yield comm.barrier()

    if comm.rank != 0:
        return None
    acc = np.zeros((active.size, 3))
    jerk = np.zeros((active.size, 3))
    # Fixed-order reduction: ascending global chunk index, matching
    # the engine's serial accumulation and threaded slab fold.
    for k in range(len(chunks)):
        pa, pj = parts[k]
        acc += pa
        jerk += pj
    return acc, jerk


# -- the paper's host strategies (Section 4.3, Figures 3-7) ------------------
#
# One block step of ``n_active`` particles on ``hosts`` GRAPE-6 nodes.
# A node is two ranks: host ``h`` and its network board (NB) ``hosts +
# h``; the NBs of each ``cluster`` consecutive nodes form one NB network.
# Messages are byte records of the wire sizes of :mod:`repro.grape.host`;
# each host owns ``ceil(n_active / hosts)`` of the block.

#: Bytes of the per-step synchronisation record between hosts.
SYNC_BYTES = 64

#: Clusters of the built machine (Figure 7).
N_CLUSTERS = 4


def _records(n: int, size: int) -> np.ndarray:
    """``n`` wire records of ``size`` bytes."""
    return np.zeros(n * size, dtype=np.uint8)


def _swap(comm, peers, payload):
    """Send ``payload`` to every peer, then take one message from each."""
    for peer in peers:
        yield comm.send(peer, payload)
    for peer in peers:
        yield comm.recv(peer)


def _nb_exchange(comm, hosts: int, share: int, n_j: int, cluster: int):
    """The GRAPE data exchange inside one NB network of ``cluster``
    consecutive nodes.

    Each host writes its ``share`` i-particles and ``n_j`` j-updates to
    its NB over PCI; the NBs broadcast the i-particles to each other
    and return partial forces over LVDS; each NB hands its host the
    summed forces over PCI.
    """
    if comm.rank < hosts:
        nb = hosts + comm.rank
        yield comm.send(nb, _records(1, share * IPARTICLE_BYTES + n_j * JWRITE_BYTES))
        yield comm.recv(nb)
        return
    host = comm.rank - hosts
    first = host - host % cluster
    peers = [hosts + h for h in range(first, first + cluster) if h != host]
    yield comm.recv(host)
    yield from _swap(comm, peers, _records(share, IPARTICLE_BYTES))
    yield from _swap(comm, peers, _records(share, RESULT_BYTES))
    yield comm.send(host, _records(share, RESULT_BYTES))


def naive_copy_program(comm, ctx):
    """Figure 3: every host keeps a full particle copy, so it sends its
    corrected share to every other host over the host network."""
    hosts = ctx.params["hosts"]
    if comm.rank < hosts:
        share = -(-ctx.params["n_active"] // hosts)
        peers = [h for h in range(hosts) if h != comm.rank]
        yield from _swap(comm, peers, _records(share, JWRITE_BYTES))


def nb_exchange_program(comm, ctx):
    """Figures 4-5: the network boards of all nodes exchange the data;
    each host only passes a synchronisation record to the next host."""
    hosts = ctx.params["hosts"]
    share = -(-ctx.params["n_active"] // hosts)
    yield from _nb_exchange(comm, hosts, share, share, ctx.params["cluster"])
    if comm.rank < hosts and hosts > 1:
        yield comm.send((comm.rank + 1) % hosts, _records(1, SYNC_BYTES))
        yield comm.recv((comm.rank - 1) % hosts)


def host_grid_program(comm, ctx):
    """Figure 6: ``q x q`` hosts.  Row 0 are the real hosts and
    integrate ``ceil(n_active / q)`` particles each; the other hosts
    emulate network boards, passing each real host's j-updates down its
    column one hop at a time."""
    hosts = ctx.params["hosts"]
    q = math.isqrt(hosts)
    if comm.rank < hosts:
        if comm.rank < q:
            block = _records(-(-ctx.params["n_active"] // q), JWRITE_BYTES)
        else:
            block = yield comm.recv(comm.rank - q)
        if comm.rank + q < hosts:
            yield comm.send(comm.rank + q, block)


def hybrid_program(comm, ctx):
    """Figure 7, the machine that was built: the nodes of a cluster share
    one NB network, and host ``k`` of each cluster sends its j-updates
    to host ``k`` of every other cluster over Gigabit Ethernet."""
    hosts, size = ctx.params["hosts"], ctx.params["cluster"]
    share = -(-ctx.params["n_active"] // hosts)
    if comm.rank < hosts:
        column = range(comm.rank % size, hosts, size)
        yield from _swap(comm, [h for h in column if h != comm.rank],
                         _records(share, JWRITE_BYTES))
    yield from _nb_exchange(comm, hosts, share, hosts // size * share, size)


#: Strategy name -> rank program, in figure order.
HOST_STRATEGIES = {
    "naive-copy": naive_copy_program,
    "grape-exchange": nb_exchange_program,
    "host-2d-grid": host_grid_program,
    "hybrid": hybrid_program,
}


def machine_links(hosts: int, cluster: int = 1) -> dict:
    """Link table of ``hosts`` GRAPE-6 nodes for :class:`VirtualMachine`.

    Every host pair is on Gigabit Ethernet, host ``h`` reaches its NB
    ``hosts + h`` over PCI, and the NBs of each ``cluster`` consecutive
    nodes are joined by LVDS; the latencies and bandwidths are those of
    :mod:`repro.grape.links`.
    """
    gbe, pci, lvds = ((link.latency, link.bandwidth)
                      for link in (gbe_link(), pci_link(), lvds_link()))
    links = {}
    for a in range(hosts):
        links[a, hosts + a] = links[hosts + a, a] = pci
        for b in range(hosts):
            if a != b:
                links[a, b] = gbe
                if a // cluster == b // cluster:
                    links[hosts + a, hosts + b] = lvds
    return links


def strategies_for(hosts: int) -> list[str]:
    """The strategies that fit ``hosts`` nodes: the 2-D grid needs a
    square, the hybrid a multiple of :data:`N_CLUSTERS`."""
    q = math.isqrt(hosts)
    return [name for name in HOST_STRATEGIES
            if (name != "host-2d-grid" or q * q == hosts)
            and (name != "hybrid" or hosts % N_CLUSTERS == 0)]


def strategy_step(name: str, hosts: int, n_active: int):
    """Run one block step of strategy ``name`` on ``hosts`` nodes.

    Returns the VM's :class:`~repro.parallel.spmd.SpmdResult` and the
    mean bytes one host's network interface sent and received (the
    counted bytes on host-to-host links, times two, over ``hosts``).
    """
    if hosts < 1 or name not in strategies_for(hosts):
        raise ConfigurationError(f"strategy {name!r} cannot run on {hosts} hosts")
    cluster = {"grape-exchange": hosts, "hybrid": hosts // N_CLUSTERS}.get(name, 1)
    vm = VirtualMachine(2 * hosts, links=machine_links(hosts, cluster))
    ctx = ProgramContext(params={"hosts": hosts, "n_active": int(n_active),
                                 "cluster": cluster})
    result = vm.run(HOST_STRATEGIES[name], ctx)
    nic = sum(nbytes for (src, dst), nbytes in result.link_bytes.items()
              if src < hosts and dst < hosts)
    return result, 2 * nic / hosts
