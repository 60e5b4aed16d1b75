"""Deterministic SPMD mini-runtime: message-passing programs in-process.

This module runs *programs* — the style of the mpi4py tutorials —
deterministically in one process, so distributed algorithms (the
systolic ring of :mod:`repro.parallel.ring`, the paper's four host
strategies of :mod:`repro.parallel.programs`) can be implemented,
tested, and costed without real processes.  It is the repo's one model
of Section 4.3 communication: what a schedule costs is what its program
moves, priced per link.

A rank program is a generator that ``yield``s communication operations
and receives their results::

    def program(comm):
        if comm.rank == 0:
            yield comm.send(1, np.arange(10))
        else:
            data = yield comm.recv(0)
        total = yield comm.allreduce(float(comm.rank))
        return total

    vm = VirtualMachine(n_ranks=2)
    result = vm.run(program)
    result.returns      # per-rank return values
    result.clock        # per-rank logical end times [s]
    result.total_bytes  # bytes moved
    result.link_bytes   # point-to-point bytes per (src, dst) link

Semantics (the matching rules live in one place, ``_Exchange``, which
the multiprocess engine of :mod:`repro.parallel.proc` shares, so a
program matches the same way on both schedulers):

* point-to-point: ``send``/``recv`` match FIFO per (src, dst) pair;
* collectives: ``barrier``, ``bcast``, ``allgather``, ``reduce``,
  ``allreduce`` complete when every rank has posted its call (loose
  BSP); every rank must post collectives in the same order;
  reductions fold the payloads in rank order;
* protocol checking: every operation carries a **superstep tag** (the
  rank's collective counter).  Two ranks blocked on collectives with
  different kinds or different superstep tags — one in ``barrier``,
  another in ``allreduce`` — is a schedule bug that would hang a real
  MPI job; here it raises :class:`~repro.errors.SpmdProtocolError`
  immediately, with the per-rank blocked-op summary.

What the VM adds on top (the process engine measures wall time
instead):

* logical time (a LogP-style model): a send costs its sender
  ``latency + bytes/bandwidth`` of its link; a received message arrives
  at ``max(post time + latency + bytes/bandwidth, receiver clock)``; a
  collective finishes at ``max(all clocks) + latency + bytes/bandwidth``
  of the uniform interface over the root's payload (bcast), the largest
  payload (reduce) or all payloads (allgather, allreduce; a barrier
  moves none);
* links: every point-to-point message rides the ``(src, dst)`` entry
  of the VM's link table, so a machine of PCI buses, LVDS cables and
  Ethernet is one dict; without a table every pair uses the uniform
  ``latency``/``bandwidth``;
* determinism: the scheduler polls ranks in rank order — no threads,
  no races; a cycle with no runnable rank raises :class:`CommError`
  (deadlock) with the blocked-op summary.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import CommError, SpmdProtocolError

__all__ = ["VirtualMachine", "SpmdResult", "RankComm", "describe_op"]


def _payload_bytes(data) -> int:
    """Byte size of a message payload (ndarray-aware)."""
    if data is None:
        return 0
    if isinstance(data, np.ndarray):
        return int(data.nbytes)
    if isinstance(data, (bytes, bytearray)):
        return len(data)
    if isinstance(data, (int, float, bool, np.floating, np.integer)):
        return 8
    if isinstance(data, (list, tuple)):
        return sum(_payload_bytes(x) for x in data)
    return 64  # conservative default for small objects


# -- operation descriptors ---------------------------------------------------


@dataclass
class _Send:
    dst: int
    data: object
    nbytes: int
    superstep: int = -1


@dataclass
class _Recv:
    src: int
    superstep: int = -1


@dataclass
class _Collective:
    kind: str  # barrier | bcast | allgather | reduce | allreduce
    root: int | None
    data: object
    op: object
    #: superstep tag == the poster's collective counter.  In a legal
    #: BSP program every rank posts the same collective sequence, so
    #: simultaneously-blocked collectives must agree on (kind, tag).
    superstep: int = -1


def describe_op(op) -> str:
    """Human-readable ``kind@superstep`` label for a blocked operation."""
    if isinstance(op, _Collective):
        return f"{op.kind}@s{op.superstep}"
    if isinstance(op, _Send):
        return f"send(dst={op.dst})@s{op.superstep}"
    if isinstance(op, _Recv):
        return f"recv(src={op.src})@s{op.superstep}"
    return type(op).__name__


class RankComm:
    """Communicator handed to each rank program.

    ``superstep`` counts the collectives this rank has posted; every
    operation descriptor is stamped with it, which is what lets both
    schedulers turn a mismatched schedule into a structured error
    instead of a hang.
    """

    def __init__(self, rank: int, size: int) -> None:
        self.rank = rank
        self.size = size
        self.superstep = 0

    # Factory methods produce descriptors for the scheduler; programs
    # must ``yield`` them.

    def send(self, dst: int, data, nbytes: int | None = None) -> _Send:
        """Post a message to ``dst``; yields ``None`` on completion."""
        if not (0 <= dst < self.size) or dst == self.rank:
            raise CommError(f"invalid send destination {dst}")
        return _Send(dst=dst, data=data,
                     nbytes=_payload_bytes(data) if nbytes is None else int(nbytes),
                     superstep=self.superstep)

    def recv(self, src: int) -> _Recv:
        """Receive from ``src``; yields the payload."""
        if not (0 <= src < self.size) or src == self.rank:
            raise CommError(f"invalid recv source {src}")
        return _Recv(src=src, superstep=self.superstep)

    def _collective(self, kind, root=None, data=None, op=None) -> _Collective:
        c = _Collective(kind=kind, root=root, data=data, op=op,
                        superstep=self.superstep)
        self.superstep += 1
        return c

    def barrier(self) -> _Collective:
        """Synchronise all ranks; yields ``None``."""
        return self._collective("barrier")

    def bcast(self, data, root: int = 0) -> _Collective:
        """Yields the root's payload on every rank."""
        return self._collective("bcast", root=root, data=data)

    def allgather(self, data) -> _Collective:
        """Yields the list of payloads ordered by rank."""
        return self._collective("allgather", data=data)

    def reduce(self, data, root: int = 0, op=None) -> _Collective:
        """Yields the reduction on the root, ``None`` elsewhere."""
        return self._collective("reduce", root=root, data=data, op=op)

    def allreduce(self, data, op=None) -> _Collective:
        """Yields the reduction on every rank."""
        return self._collective("allreduce", data=data, op=op)


@dataclass
class SpmdResult:
    """Outcome of one :meth:`VirtualMachine.run`."""

    returns: list
    clock: list
    total_bytes: int
    messages: int
    #: point-to-point bytes per directed ``(src, dst)`` link
    link_bytes: Counter = field(default_factory=Counter)


def _default_reduce(parts):
    """Sum that works for ndarrays and scalars."""
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out


def blocked_summary(blocked, done) -> dict:
    """``rank -> blocked-op label`` of every live rank, for error
    context; a live rank with no blocked op reads ``"running"``."""
    return {
        r: "running" if op is None else describe_op(op)
        for r, op in enumerate(blocked)
        if not done[r]
    }


class _Exchange:
    """The matching rules of both schedulers: FIFO point-to-point mail
    and collective resolution.

    The VM and the process supervisor differ in how ranks reach their
    next operation and in what they charge for it; what a blocked
    operation is matched with, and what every rank gets back, is
    decided here and nowhere else.
    """

    def __init__(self, n_ranks: int) -> None:
        self.n_ranks = n_ranks
        #: (src, dst) -> FIFO of (send, stamp)
        self._mail: dict = {}

    def post(self, src: int, send: _Send, stamp=None) -> None:
        """Queue ``send`` from ``src``; ``stamp`` travels with it."""
        self._mail.setdefault((src, send.dst), deque()).append((send, stamp))

    def take(self, dst: int, recv: _Recv):
        """The oldest ``(send, stamp)`` from ``recv.src`` to ``dst``, or
        ``None`` when none is queued."""
        queue = self._mail.get((recv.src, dst))
        return queue.popleft() if queue else None

    def collective(self, blocked, done):
        """Resolve the collective the ranks are blocked on.

        ``blocked[r]`` is rank ``r``'s blocked op (``None`` when it has
        none) and ``done[r]`` whether it has returned.  Returns ``None``
        until every rank has posted, then the per-rank results: the
        root's payload (bcast), the rank-ordered payload list
        (allgather), the payloads folded in rank order (reduce on the
        root, allreduce everywhere), ``None`` (barrier).

        Superstep-tag check: two simultaneously-blocked collectives
        must agree on (kind, superstep) — in a legal program a rank
        cannot pass collective k until every rank has posted it.
        Disagreement (or a rank that returned without posting it) can
        never resolve, so it raises :class:`SpmdProtocolError` instead
        of deadlocking.
        """
        waiting = [r for r, op in enumerate(blocked)
                   if isinstance(op, _Collective)]
        if not waiting:
            return None
        tags = {(blocked[r].kind, blocked[r].superstep) for r in waiting}
        if len(tags) > 1:
            raise SpmdProtocolError(
                f"collective mismatch across ranks: {sorted(tags)}",
                blocked=blocked_summary(blocked, done),
            )
        if any(done):
            kind, step = next(iter(tags))
            finished = [r for r, d in enumerate(done) if d]
            raise SpmdProtocolError(
                f"collective mismatch: ranks {waiting} wait on "
                f"{kind}@s{step} but ranks {finished} already "
                "returned without posting it",
                blocked=blocked_summary(blocked, done),
            )
        if len(waiting) < self.n_ranks:
            return None
        n = self.n_ranks
        kind, root, op = blocked[0].kind, blocked[0].root, blocked[0].op
        payloads = [c.data for c in blocked]
        if kind == "barrier":
            return [None] * n
        if kind == "bcast":
            return [payloads[root]] * n
        if kind == "allgather":
            return [list(payloads)] * n
        reduced = (op or _default_reduce)(payloads)
        if kind == "reduce":
            return [reduced if r == root else None for r in range(n)]
        return [reduced] * n


class VirtualMachine:
    """Runs one SPMD program on ``n_ranks`` virtual hosts.

    Parameters
    ----------
    n_ranks:
        Number of ranks.
    bandwidth:
        Link bandwidth [bytes/s] of every rank's interface.
    latency:
        Per-message latency [s].
    links:
        Optional link table ``{(src, dst): (latency, bandwidth)}``.
        With it, a point-to-point message is priced on its link and a
        message between ranks with no link is a :class:`CommError`;
        collectives keep the uniform ``latency``/``bandwidth``.
    """

    def __init__(
        self,
        n_ranks: int,
        bandwidth: float = 100e6,
        latency: float = 50e-6,
        links: dict | None = None,
    ) -> None:
        if n_ranks < 1:
            raise CommError("need at least one rank")
        if any(bw <= 0 or lat < 0 for lat, bw in
               [(latency, bandwidth), *(links or {}).values()]):
            raise CommError("invalid link parameters")
        self.n_ranks = int(n_ranks)
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.links = links

    def _transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """Seconds one ``nbytes`` message from ``src`` to ``dst`` takes."""
        if self.links is None:
            return self.latency + nbytes / self.bandwidth
        try:
            latency, bandwidth = self.links[src, dst]
        except KeyError:
            raise CommError(f"no link from rank {src} to rank {dst}") from None
        return latency + nbytes / bandwidth

    # -- execution -----------------------------------------------------------

    def run(self, program, *args) -> SpmdResult:
        """Execute ``program(comm, *args)`` on every rank to completion.

        The VM adds only its pass order and its logical clock to the
        shared matching rules: each pass posts every blocked send, then
        serves every blocked recv in rank order, then resolves the
        collective if all ranks have posted it.
        """
        n = self.n_ranks
        gens = [program(RankComm(r, n), *args) for r in range(n)]
        exchange = _Exchange(n)
        clock = [0.0] * n
        returns: list = [None] * n
        done = [False] * n
        # what each rank is blocked on: None once it has returned
        blocked: list = [None] * n
        total_bytes = 0
        messages = 0
        link_bytes: Counter = Counter()

        def advance(r, value=None):
            """Resume rank r with ``value``; record its next blocked op."""
            try:
                blocked[r] = gens[r].send(value)
            except StopIteration as stop:
                returns[r] = stop.value
                done[r] = True
                blocked[r] = None

        for r in range(n):
            advance(r)

        for _ in range(10_000_000):  # hard cap against runaway programs
            if all(done):
                break
            progressed = False

            for r in range(n):
                op = blocked[r]
                if isinstance(op, _Send):
                    # sends are buffered (eager): sender proceeds after
                    # injecting; its clock pays the serialisation cost,
                    # and the stamp is the message's arrival time
                    clock[r] += self._transfer_time(r, op.dst, op.nbytes)
                    exchange.post(r, op, stamp=clock[r])
                    total_bytes += op.nbytes
                    link_bytes[r, op.dst] += op.nbytes
                    messages += 1
                    advance(r)
                    progressed = True
            for r in range(n):
                op = blocked[r]
                if isinstance(op, _Recv):
                    matched = exchange.take(r, op)
                    if matched is not None:
                        send, arrival = matched
                        clock[r] = max(arrival, clock[r])
                        advance(r, send.data)
                        progressed = True

            results = exchange.collective(blocked, done)
            if results is not None:
                sizes = [_payload_bytes(c.data) for c in blocked]
                kind = blocked[0].kind
                wire = (sizes[blocked[0].root] if kind == "bcast"
                        else max(sizes) if kind == "reduce" else sum(sizes))
                finish = max(clock) + self.latency + wire / self.bandwidth
                clock[:] = [finish] * n
                total_bytes += sum(sizes)
                messages += n
                for r in range(n):
                    advance(r, results[r])
                progressed = True

            if not progressed:
                waiting = blocked_summary(blocked, done)
                # a recv whose source has returned is a schedule bug,
                # not a transient stall
                for r, op in enumerate(blocked):
                    if isinstance(op, _Recv) and done[op.src]:
                        raise SpmdProtocolError(
                            f"rank {r} waits on recv(src={op.src}) but rank "
                            f"{op.src} returned without sending (superstep "
                            f"mismatch at s{op.superstep})",
                            blocked=waiting,
                        )
                raise CommError(f"deadlock: ranks blocked on {waiting}")
        else:  # pragma: no cover - loop cap
            raise CommError("program exceeded the scheduler's step budget")

        return SpmdResult(
            returns=returns, clock=clock, total_bytes=total_bytes,
            messages=messages, link_bytes=link_bytes,
        )
