"""Supervised multiprocess SPMD engine: real ranks, real failure modes.

:class:`ProcEngine` runs the same generator rank programs as the
in-process :class:`~repro.parallel.spmd.VirtualMachine`, but across
genuine worker processes: particle arrays live in
``multiprocessing.shared_memory`` segments, every communication
operation is proxied over a per-rank pipe to the supervisor, and the
supervisor matches the operations through the VM's own exchange
(:mod:`repro.parallel.spmd`: FIFO point-to-point mail, collectives
completing when every rank has posted the same superstep tag,
reductions folded in rank order).  Because the matching rules are one
piece of code and the data are identical, a program produces the same
bits on the VM and on the process gang — and the chunk-aligned force
program keeps those bits identical to the serial and threaded
single-process accel paths.  What this module adds is supervision.

The gang is **persistent**: it is forked by the first run of a program
and serves every later run of the same program object, one command per
rank per run, the way GRAPE-6's host processes live for the whole
simulation.  What a run must not inherit from the one before — the
``RankComm`` and its superstep tags, the replay journal, the restart
budget, blocked ops, injected delays, the lease start — is made afresh
for each run; processes, pipes, beat threads and segment attachments are
not (``docs/SPMD.md``, "Execution model").

Robustness model (the reason this module exists):

* **dead ranks** are detected through process sentinels and exit
  codes; **hung ranks** through a heartbeat lease (a worker-side beat
  thread stamps a shared clock array, and the supervisor kills a rank
  whose ``max(started, last_beat) + lease`` has passed);
* every operation carries a **superstep tag**; mismatched collective
  ordering raises :class:`~repro.errors.SpmdProtocolError` instead of
  deadlocking, and bounded op timeouts raise
  :class:`~repro.errors.SpmdTimeoutError` with straggler metrics;
* on rank death — mid-run, or between runs and found at the start of
  the next — the supervisor **restarts** the rank and replays its
  completed operations from a per-rank journal (the deterministic
  replay cursor): journaled results are served instantly, duplicate
  sends are suppressed, and the rank rejoins the gang live at the
  superstep where it died.  A fingerprint check on replayed ops turns
  non-deterministic programs into structured errors;
* when the restart budget is exhausted the engine **degrades
  gracefully**: the gang is retired and the same program re-runs on the
  in-process VM (bit-identical, since program + data + matching rules
  are the same), with the honest wall-clock overhead charged to the
  ``spmd.recovery_seconds`` metric — the same honesty contract as
  :mod:`repro.resilience.recover`;
* seeded rank-level faults (:class:`~repro.resilience.FaultKind`
  ``RANK_KILL`` / ``RANK_STALL`` / ``MSG_DELAY``) are drawn from an
  attached :class:`~repro.resilience.FaultInjector` at superstep
  boundaries, so chaos tests are reproducible.

Requires the ``fork`` start method (Linux); on platforms without it
construction raises :class:`~repro.errors.SpmdError` so callers can
fall back to the VM.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection, shared_memory
from multiprocessing.reduction import ForkingPickler

import numpy as np

from ..errors import SpmdError, SpmdProtocolError, SpmdTimeoutError
from .programs import ProgramContext
from .spmd import (
    RankComm,
    _Collective,
    _Exchange,
    _Recv,
    _Send,
    _payload_bytes,
    blocked_summary,
    describe_op,
)

__all__ = ["ProcConfig", "ProcResult", "ProcEngine"]

#: worker beat-thread stamp period [s]; a lease spans many beats
_HEARTBEAT_INTERVAL = 0.05
#: supervisor wait granularity [s]
_POLL_INTERVAL = 0.02


@dataclass(frozen=True)
class ProcConfig:
    """Supervision knobs of one :class:`ProcEngine`."""

    #: bounded wait for any single blocked op (barrier, recv, ...)
    op_timeout: float = 30.0
    #: lease expiry (no beat for this long) marks a rank as hung
    lease_seconds: float = 5.0
    #: rank restarts before the engine gives up on process execution
    max_restarts: int = 2
    #: ``degrade`` reruns on the in-process VM, ``raise`` propagates
    on_failure: str = "degrade"


@dataclass
class ProcResult:
    """Outcome of one :meth:`ProcEngine.run`."""

    returns: list
    wall_seconds: float
    total_bytes: int = 0
    messages: int = 0
    supersteps: int = 0
    restarts: int = 0
    deaths: int = 0
    heartbeat_expiries: int = 0
    replayed_ops: int = 0
    degraded: bool = False
    #: longest observed blocked wait on any op [s]
    straggler_wait_seconds: float = 0.0
    #: wall seconds spent restarting ranks / degrading
    recovery_seconds: float = 0.0


# -- worker side -------------------------------------------------------------


def _attach(attached: dict, manifest: dict) -> dict:
    """Views of the manifest's arrays over cached segment attachments.

    ``attached`` maps array name to the worker's ``SharedMemory``
    handle and lives as long as the worker.  A name whose segment the
    supervisor replaced (grown capacity) is re-attached; the caller
    must have dropped the previous run's views by then, because a view
    of a closed segment points at unmapped memory.
    """
    arrays = {}
    for name, (shm_name, shape, dtype) in manifest.items():
        seg = attached.get(name)
        if seg is None or seg.name != shm_name:
            if seg is not None:
                seg.close()
            # forked workers share the parent's resource tracker, so the
            # attach-side auto-registration is an idempotent no-op and the
            # parent's unlink() is the single point of cleanup
            seg = attached[name] = shared_memory.SharedMemory(name=shm_name)
        arrays[name] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
    return arrays


def _drive(rank, size, program, ctx, req_conn, rep_conn, stall) -> None:
    """One run of ``program`` on this rank, every op proxied to the
    supervisor.  The comm is per run, so superstep tags restart at 0 —
    the replay journal's fingerprints depend on that."""
    comm = RankComm(rank, size)

    def maybe_stall():
        # an injected heartbeat stall: the beat thread stops stamping
        # and the op loop wedges — exactly what a hung rank looks like
        while stall[rank]:
            time.sleep(0.01)

    try:
        gen = program(comm, ctx)
        idx = 0
        result = None
        try:
            op = next(gen)
            while True:
                maybe_stall()
                if isinstance(op, _Send):
                    req_conn.send(
                        ("op", idx, "send", op.superstep, op.dst, op.data,
                         op.nbytes)
                    )
                    result = None  # eager: no reply to wait for
                elif isinstance(op, _Recv):
                    req_conn.send(("op", idx, "recv", op.superstep, op.src))
                    result = rep_conn.recv()
                elif isinstance(op, _Collective):
                    req_conn.send(
                        ("op", idx, "coll", op.superstep, op.kind, op.root,
                         op.data, op.op)
                    )
                    result = rep_conn.recv()
                else:
                    raise SpmdError(f"rank {rank} yielded a non-op {op!r}")
                idx += 1
                op = gen.send(result)
        except StopIteration as stop_iter:
            req_conn.send(("done", stop_iter.value))
    except BaseException:
        try:
            req_conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
        raise


def _worker_main(rank, size, program, req_conn, rep_conn, inherited,
                 hb, stall):
    """One rank of a persistent gang: serve run commands until told to
    exit.  Between runs the worker blocks on its command pipe with the
    beat thread still stamping."""
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # supervisor owns ^C
    # fork copied the supervisor's ends of every pipe open at the time
    # (this rank's and its older siblings'); while any copy is open a
    # dead supervisor does not read as EOF
    for conn_ in inherited:
        conn_.close()
    hb[rank] = time.monotonic()
    stop = threading.Event()

    def beat():
        while not stop.is_set():
            if not stall[rank]:
                hb[rank] = time.monotonic()
            time.sleep(_HEARTBEAT_INTERVAL)

    threading.Thread(target=beat, daemon=True).start()
    attached: dict = {}
    try:
        while True:
            command = rep_conn.recv()
            if command[0] == "exit":
                break
            _, manifest, params = command
            ctx = ProgramContext(
                arrays=_attach(attached, manifest), params=params
            )
            _drive(rank, size, program, ctx, req_conn, rep_conn, stall)
            del ctx  # views go before _attach may close their segment
    except (EOFError, BrokenPipeError, ConnectionResetError):
        pass  # the supervisor vanished: nobody left to serve or tell
    finally:
        stop.set()
        for seg in attached.values():
            seg.close()


# -- supervisor state --------------------------------------------------------


@dataclass
class _Rank:
    """Supervisor-side view of one rank.

    ``proc``/``req``/``rep`` belong to the gang and carry over from run
    to run; every other field is per run and starts from its default.
    """

    proc: object = None
    req: object = None          # worker -> supervisor connection
    rep: object = None          # supervisor -> worker: commands, replies
    #: lease start: the run's start, or the restart's
    started: float = field(default_factory=time.monotonic)
    done: bool = False
    blocked: object = None      # live blocked op tuple or None
    posted: float = 0.0         # when the blocked op was posted
    #: completed ops: (fingerprint, needs_reply, result)
    journal: list = field(default_factory=list)
    restarts: int = 0
    #: deliveries held back by an injected message delay
    delay_until: float = 0.0


def _ops(ranks) -> tuple[list, list]:
    """Each rank's blocked op and done flag, in rank order."""
    return [s.blocked for s in ranks], [s.done for s in ranks]


class ProcEngine:
    """Supervised, persistent gang of worker processes for SPMD programs.

    Shared arrays are registered once with :meth:`share` (and cheaply
    refreshed with new values on later calls).  The first
    :meth:`run` of a program forks one worker per rank; the gang then
    serves every later run of the *same program object* — one command
    per rank per run — and is retired (and a new one forked) when a
    different program arrives, on :meth:`close`, on degrade and on any
    exception out of a run.  Workers see the parent's memory as it was
    at the fork, so a program may read its inputs only through ``ctx``.
    The superstep counter is cumulative across runs, which is what
    lets a seeded :class:`~repro.resilience.FaultPlan` target
    "superstep 7" of a multi-block simulation.

    Parameters
    ----------
    n_ranks:
        Gang size.
    config:
        :class:`ProcConfig` supervision knobs.
    injector:
        Optional :class:`~repro.resilience.FaultInjector` whose
        rank-domain faults fire at superstep boundaries.
    obs:
        Observability bundle; feeds the ``spmd.*`` metric family.
    """

    def __init__(self, n_ranks: int, config: ProcConfig | None = None,
                 injector=None, obs=None) -> None:
        if n_ranks < 1:
            raise SpmdError("need at least one rank")
        try:
            self._mp = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX
            raise SpmdError(
                "ProcEngine needs the fork start method; "
                "use the in-process VirtualMachine instead"
            ) from exc
        self.n_ranks = int(n_ranks)
        self.config = config or ProcConfig()
        self.injector = injector
        self.supersteps = 0  # cumulative across runs
        self._segments: dict[str, tuple] = {}  # name -> (shm, view)
        self._hb = self._mp.Array("d", self.n_ranks, lock=False)
        self._stall = self._mp.Array("b", self.n_ranks, lock=False)
        #: the live gang and the program object it was forked for
        self._gang: list[_Rank] | None = None
        self._program = None
        self._closed = False
        self.observe(obs)

    # -- observability ---------------------------------------------------

    def observe(self, obs) -> None:
        from ..obs import NULL_OBS

        self.obs = obs or NULL_OBS
        m = self.obs.metrics
        self._c_runs = m.counter("spmd.runs_total")
        self._c_forks = m.counter("spmd.gang_forks_total")
        self._c_steps = m.counter("spmd.supersteps_total")
        self._c_msgs = m.counter("spmd.messages_total")
        self._c_bytes = m.counter("spmd.bytes_total")
        self._c_deaths = m.counter("spmd.rank_deaths_total")
        self._c_restarts = m.counter("spmd.rank_restarts_total")
        self._c_expiries = m.counter("spmd.heartbeat_expiries_total")
        self._c_degrades = m.counter("spmd.degrades_total")
        self._c_proto = m.counter("spmd.protocol_errors_total")
        self._c_replayed = m.counter("spmd.replayed_ops_total")
        self._c_recovery = m.counter("spmd.recovery_seconds")
        self._h_wait = m.histogram("spmd.op_wait_seconds")
        self._g_ranks = m.gauge("spmd.ranks")
        self._g_shm = m.gauge("spmd.shm_bytes")
        self._g_ranks.set(self.n_ranks)

    # -- shared arrays ---------------------------------------------------

    def share(self, name: str, array: np.ndarray) -> None:
        """Publish (or refresh) a named array in shared memory.

        A name's segment only ever grows: an array that fits the
        capacity is copied into the segment already there, whatever its
        shape, and the manifest of the next run carries the logical
        shape.  A block-step caller whose ``active`` set changes size
        on most calls therefore opens no segment in the steady state.
        """
        array = np.ascontiguousarray(array)
        shm, view = self._segments.get(name, (None, None))
        if shm is None:
            shm = shared_memory.SharedMemory(
                create=True, size=max(array.nbytes, 1)
            )
        elif view.shape == array.shape and view.dtype == array.dtype:
            np.copyto(view, array)
            return
        elif array.nbytes > shm.size:
            # doubling bounds the reallocations of a slowly growing array
            capacity = max(array.nbytes, 2 * shm.size)
            del view, self._segments[name]  # views go before the mapping
            shm.close()
            shm.unlink()
            shm = shared_memory.SharedMemory(create=True, size=capacity)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        np.copyto(view, array)
        self._segments[name] = (shm, view)
        self._g_shm.set(sum(s.size for s, _ in self._segments.values()))

    def _manifest(self) -> dict:
        return {
            name: (shm.name, view.shape, view.dtype.str)
            for name, (shm, view) in self._segments.items()
        }

    def _parent_arrays(self) -> dict:
        return {name: view for name, (_, view) in self._segments.items()}

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Retire the gang and release the shared-memory segments
        (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._retire()
        for shm, _ in self._segments.values():
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()

    def __enter__(self) -> "ProcEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- rank process management ----------------------------------------

    def _spawn(self, state: _Rank, rank: int) -> None:
        """Fork rank ``rank`` of the current gang into ``state``."""
        req_parent, req_child = self._mp.Pipe(duplex=False)
        rep_parent, rep_child = self._mp.Pipe(duplex=False)
        inherited = [req_parent, rep_child] + [
            conn_ for other in self._gang for conn_ in (other.req, other.rep)
            if conn_ is not None
        ]
        self._stall[rank] = 0
        self._hb[rank] = time.monotonic()
        proc = self._mp.Process(
            target=_worker_main,
            args=(rank, self.n_ranks, self._program, req_child, rep_parent,
                  inherited, self._hb, self._stall),
            daemon=True,
            name=f"spmd-rank-{rank}",
        )
        proc.start()
        self._c_forks.inc()
        req_child.close()
        rep_parent.close()
        state.proc = proc
        state.req = req_parent
        state.rep = rep_child
        state.started = time.monotonic()
        state.blocked = None
        state.posted = 0.0

    def _kill(self, state: _Rank) -> None:
        proc = state.proc
        if proc is not None and proc.is_alive():
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - raced exit
                pass
            proc.join(timeout=5.0)
        for conn_ in (state.req, state.rep):
            if conn_ is not None:
                try:
                    conn_.close()
                except OSError:  # pragma: no cover
                    pass

    def _gang_for(self, program) -> list[_Rank]:
        """The gang serving ``program``, with fresh per-run state.

        A worker that died while idle is not looked for here: it gets
        its run command like the others, and the supervision loop sees
        its sentinel on the first tick and counts and restarts it.
        """
        if self._gang is not None and self._program is not program:
            self._retire()
        if self._gang is None:
            self._program = program
            self._gang = [_Rank() for _ in range(self.n_ranks)]
            for r, state in enumerate(self._gang):
                self._spawn(state, r)
        else:
            self._gang = [
                _Rank(proc=s.proc, req=s.req, rep=s.rep) for s in self._gang
            ]
        return self._gang

    def _retire(self) -> None:
        """End the gang: ``exit`` to the workers waiting for a command,
        SIGKILL to those mid-run (they would take it for an op reply)
        and to whatever ignores the request."""
        gang, self._gang, self._program = self._gang or [], None, None
        idle = [s for s in gang if s.done]
        for state in idle:
            _post(state, _EXIT)
        deadline = time.monotonic() + _EXIT_GRACE
        for state in idle:
            state.proc.join(timeout=max(deadline - time.monotonic(), 0.0))
        for state in gang:
            self._kill(state)

    # -- the run ---------------------------------------------------------

    def run(self, program, params: dict | None = None) -> ProcResult:
        """Execute ``program(comm, ctx)`` on every rank to completion.

        ``params`` travel to the workers over their command pipes and
        must pickle (:class:`~repro.errors.SpmdError` otherwise).
        """
        if self._closed:
            raise SpmdError("engine is closed")
        params = dict(params or {})
        self._c_runs.inc()
        t0 = time.monotonic()
        with self.obs.tracer.span("spmd.run", ranks=self.n_ranks):
            try:
                result = self._supervise(program, params)
            except BaseException as exc:
                if isinstance(exc, SpmdProtocolError):
                    self._c_proto.inc()
                # whatever state the ranks are in, the next run must not
                # inherit it
                self._retire()
                raise
        result.wall_seconds = time.monotonic() - t0
        return result

    def _degrade(self, program, params, res: ProcResult,
                 reason: str) -> ProcResult:
        """Retire the gang and rerun on the in-process VM (bit-identical)."""
        from .spmd import VirtualMachine

        t0 = time.monotonic()
        self._retire()
        self._c_degrades.inc()
        ctx = ProgramContext(arrays=self._parent_arrays(), params=params)
        with self.obs.tracer.span("spmd.degrade", reason=reason[:80]):
            vm_result = VirtualMachine(n_ranks=self.n_ranks).run(program, ctx)
        res.returns = vm_result.returns
        res.degraded = True
        overhead = time.monotonic() - t0
        res.recovery_seconds += overhead
        self._c_recovery.inc(overhead)
        return res

    def _supervise(self, program, params) -> ProcResult:
        cfg = self.config
        res = ProcResult(returns=[None] * self.n_ranks, wall_seconds=0.0)
        try:
            # pickled once, before any worker hears of the run
            command = ForkingPickler.dumps(("run", self._manifest(), params))
        except Exception as exc:  # PicklingError, AttributeError, TypeError...
            raise SpmdError(f"run params do not pickle: {exc}") from exc
        ranks = self._gang_for(program)
        exchange = _Exchange(self.n_ranks)
        #: deliveries held by an injected message delay: (release_t, rank, msg)
        held: list = []

        for state in ranks:
            _post(state, command)
        self._apply_rank_faults(ranks)

        def live(state):
            return not state.done and state.proc is not None

        def deliver(r, msg):
            state = ranks[r]
            now = time.monotonic()
            if state.delay_until > now:
                held.append((state.delay_until, r, msg))
                return
            try:
                state.rep.send(msg)
            except (BrokenPipeError, OSError):
                # the rank died between posting the op and this reply;
                # the result is already journaled, so the restarted
                # incarnation will be served from the replay cursor
                pass

        def waited(state):
            if state.blocked is None:
                return 0.0
            return time.monotonic() - state.posted

        def finish_op(r, op, result, needs_reply):
            """Journal a completed op and deliver its result."""
            state = ranks[r]
            fp = _fingerprint(op)
            state.journal.append((fp, needs_reply, result))
            if state.blocked is op:
                wait = waited(state)
                self._h_wait.observe(wait)
                res.straggler_wait_seconds = max(
                    res.straggler_wait_seconds, wait
                )
                state.blocked = None
            if needs_reply:
                deliver(r, result)

        def try_match():
            """Serve blocked recvs and collectives through the exchange."""
            progressed = True
            while progressed:
                progressed = False
                for r, state in enumerate(ranks):
                    op = state.blocked
                    if isinstance(op, _Recv):
                        matched = exchange.take(r, op)
                        if matched is not None:
                            finish_op(r, op, matched[0].data, needs_reply=True)
                            progressed = True
                blocked, done = _ops(ranks)
                results = exchange.collective(blocked, done)
                if results is not None:
                    nbytes = sum(_payload_bytes(c.data) for c in blocked)
                    res.total_bytes += nbytes
                    res.messages += self.n_ranks
                    self._c_bytes.inc(nbytes)
                    self._c_msgs.inc(self.n_ranks)
                    for r, op in enumerate(blocked):
                        finish_op(r, op, results[r], needs_reply=True)
                    res.supersteps += 1
                    self.supersteps += 1
                    self._c_steps.inc()
                    self._apply_rank_faults(ranks)
                    progressed = True

        def handle_request(r, msg):
            state = ranks[r]
            kind = msg[0]
            if kind == "done":
                state.done = True  # the worker now waits for a command
                res.returns[r] = msg[1]
                return
            if kind == "error":
                raise SpmdError(
                    f"rank {r} raised:\n{msg[1]}"
                )
            _, idx, op_kind, superstep, *rest = msg
            op = _reconstruct(op_kind, superstep, rest)
            if idx < len(state.journal):
                # replay: serve the journaled result, suppress effects
                fp, needs_reply, result = state.journal[idx]
                if fp != _fingerprint(op):
                    raise SpmdProtocolError(
                        f"rank {r} diverged on restart: replayed op "
                        f"{describe_op(op)} (index {idx}) does not match "
                        f"journal entry {fp}",
                        blocked=blocked_summary(*_ops(ranks)),
                    )
                res.replayed_ops += 1
                self._c_replayed.inc()
                if needs_reply:
                    deliver(r, result)
                return
            # live op
            if isinstance(op, _Send):
                exchange.post(r, op)
                res.total_bytes += op.nbytes
                res.messages += 1
                self._c_bytes.inc(op.nbytes)
                self._c_msgs.inc()
                finish_op(r, op, None, needs_reply=False)
            else:
                state.blocked = op
                state.posted = time.monotonic()

        def reap_and_restart():
            """Detect dead/hung ranks; restart or signal degrade."""
            now = time.monotonic()
            for r, state in enumerate(ranks):
                if state.done or state.proc is None:
                    continue
                hung = False
                if state.proc.is_alive():
                    deadline = (
                        max(state.started, self._hb[r]) + cfg.lease_seconds
                    )
                    if now < deadline:
                        continue
                    hung = True
                    res.heartbeat_expiries += 1
                    self._c_expiries.inc()
                # rank is dead or hung: drain its last requests first
                # (a completed "done"/"error" may be sitting in the pipe)
                try:
                    while state.req.poll():
                        handle_request(r, state.req.recv())
                        if state.done:
                            break
                except (EOFError, OSError):
                    pass
                if state.done:
                    continue
                t_rec = time.monotonic()
                self._kill(state)
                code = state.proc.exitcode
                why = (
                    "heartbeat lease expired" if hung
                    else f"worker died (exit code {code})" if code is not None
                    and code >= 0
                    else f"worker killed by signal {-code}" if code is not None
                    else "worker vanished"
                )
                res.deaths += 1
                self._c_deaths.inc()
                if state.restarts >= cfg.max_restarts:
                    raise _GangFailure(f"rank {r}: {why}; restart budget "
                                       f"({cfg.max_restarts}) exhausted")
                state.restarts += 1
                res.restarts += 1
                self._c_restarts.inc()
                state.blocked = None
                # drop deliveries addressed to the dead incarnation:
                # journal replay will re-serve every completed result
                held[:] = [h for h in held if h[1] != r]
                state.delay_until = 0.0
                self._spawn(state, r)
                _post(state, command)
                overhead = time.monotonic() - t_rec
                res.recovery_seconds += overhead
                self._c_recovery.inc(overhead)
                # a restart legitimately stalls its peers: refresh their
                # op timers so recovery is not misread as a straggler
                for other in ranks:
                    if other.blocked is not None:
                        other.posted = time.monotonic()

        def check_timeouts():
            now = time.monotonic()
            for r, state in enumerate(ranks):
                if state.blocked is None or state.done:
                    continue
                if now - state.posted > cfg.op_timeout:
                    raise SpmdTimeoutError(
                        f"rank {r} exceeded the {cfg.op_timeout:g}s op "
                        f"timeout in {describe_op(state.blocked)}",
                        blocked=blocked_summary(*_ops(ranks)),
                    )

        try:
            while not all(state.done for state in ranks):
                # release message deliveries whose delay has elapsed
                if held:
                    now = time.monotonic()
                    due = [h for h in held if h[0] <= now]
                    for h in due:
                        held.remove(h)
                        try:
                            ranks[h[1]].rep.send(h[2])
                        except (BrokenPipeError, OSError):
                            pass  # dead rank: replay re-serves it
                waitable = [
                    state.req for state in ranks
                    if live(state) and state.req is not None
                ] + [
                    state.proc.sentinel for state in ranks if live(state)
                ]
                if not waitable:
                    break
                connection.wait(waitable, timeout=_POLL_INTERVAL)
                for r, state in enumerate(ranks):
                    if not live(state):
                        continue
                    try:
                        while state.req.poll():
                            handle_request(r, state.req.recv())
                            if state.done:
                                break
                    except (EOFError, OSError):
                        pass  # death handled by reap_and_restart
                try_match()
                # consult the injector every tick, not only at superstep
                # boundaries: with the >=-and-consume schedule a due
                # fault fires promptly even mid-p2p-exchange
                self._apply_rank_faults(ranks)
                reap_and_restart()
                try_match()
                check_timeouts()
        except _GangFailure as failure:
            if cfg.on_failure != "degrade":
                raise SpmdError(str(failure)) from None
            return self._degrade(program, params, res, str(failure))
        return res

    # -- seeded rank faults ----------------------------------------------

    def _apply_rank_faults(self, ranks) -> None:
        """Fire rank-domain faults due at the current superstep."""
        if self.injector is None:
            return
        actions = self.injector.rank_actions(self.supersteps)
        for spec in actions:
            target = spec.target
            if target is None:
                target = spec.params.get("rank", spec.at_block % self.n_ranks)
            r = int(target) % self.n_ranks
            state = ranks[r]
            kind = spec.kind.value
            if kind == "rank_kill":
                if state.proc is not None and state.proc.is_alive():
                    os.kill(state.proc.pid, signal.SIGKILL)
            elif kind == "rank_stall":
                self._stall[r] = 1
                # the beat thread stops stamping; lease expiry will
                # SIGKILL and restart the rank (flag cleared on spawn)
            elif kind == "msg_delay":
                seconds = float(spec.params.get("seconds", 0.05))
                state.delay_until = time.monotonic() + seconds


class _GangFailure(Exception):
    """Internal: a rank exhausted its restart budget."""


# -- supervisor -> worker commands -------------------------------------------

_EXIT = ForkingPickler.dumps(("exit",))
#: how long a retiring worker gets to act on ``exit`` before SIGKILL [s]
_EXIT_GRACE = 1.0


def _post(state: _Rank, command: bytes) -> None:
    """Write a pickled command to a worker's command pipe."""
    try:
        state.rep.send_bytes(command)
    except OSError:
        pass  # a dead worker: its sentinel tells the supervision loop


# -- op plumbing shared with the worker --------------------------------------


def _reconstruct(op_kind, superstep, rest):
    if op_kind == "send":
        dst, data, nbytes = rest
        return _Send(dst=dst, data=data, nbytes=nbytes, superstep=superstep)
    if op_kind == "recv":
        (src,) = rest
        return _Recv(src=src, superstep=superstep)
    kind, root, data, op = rest
    return _Collective(kind=kind, root=root, data=data, op=op,
                       superstep=superstep)


def _fingerprint(op) -> tuple:
    """Replay identity of an op — payloads excluded (they are rebuilt
    deterministically by the restarted rank)."""
    if isinstance(op, _Send):
        return ("send", op.superstep, op.dst)
    if isinstance(op, _Recv):
        return ("recv", op.superstep, op.src)
    return ("coll", op.superstep, op.kind, op.root)
