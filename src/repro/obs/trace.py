"""Hierarchical span tracer with a wall-clock track and a model track.

Two timebases coexist in one trace:

``wall``
    Real elapsed time, measured with ``time.perf_counter_ns`` around
    ``with tracer.span("force"):`` blocks.  Nesting follows the Python
    call structure (block step -> predict / force / correct / ...).

``model``
    The analytic hardware clock.  The GRAPE timing model and the
    communication simulator *price* operations rather than time them,
    so their spans carry modelled durations laid out on a virtual
    timeline (:meth:`Tracer.model_span`).  Keeping them on a separate
    track preserves the Chrome-trace invariant that spans on one thread
    row nest properly — a modelled 2 ms pipeline pass inside a 0.1 ms
    wall-clock call would otherwise overflow its parent.

:class:`NullTracer` is the disabled twin: ``span()`` returns a shared
no-op context manager and ``model_span`` does nothing, so tracing costs
one attribute lookup when off.
"""

from __future__ import annotations

import time

__all__ = ["Span", "SpanLog", "Tracer", "NullTracer", "NULL_TRACER"]

#: Track identifiers (Chrome-trace thread ids are assigned in this order).
WALL_TRACK = "wall"
MODEL_TRACK = "model"


class Span:
    """One finished span: ``[ts_ns, ts_ns + dur_ns)`` on a track."""

    __slots__ = ("name", "track", "ts_ns", "dur_ns", "depth", "attrs")

    def __init__(self, name, track, ts_ns, dur_ns, depth, attrs) -> None:
        self.name = name
        self.track = track
        self.ts_ns = int(ts_ns)
        self.dur_ns = int(dur_ns)
        self.depth = int(depth)
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.track}, ts={self.ts_ns}ns, "
            f"dur={self.dur_ns}ns, depth={self.depth})"
        )


def _sorted_track(spans, track: str) -> list[Span]:
    """Spans of one track ordered by start time (ties: outermost first)."""
    return sorted(
        (s for s in spans if s.track == track),
        key=lambda s: (s.ts_ns, -s.dur_ns, s.depth),
    )


class SpanLog:
    """A read-only collection of finished spans (e.g. loaded from disk).

    Presents the same query surface as :class:`Tracer` (``spans``,
    ``of_track``, ``total_seconds``) so exporters and the phase profiler
    accept either a live tracer or spans loaded back from a Chrome trace.
    """

    enabled = True

    def __init__(self, spans) -> None:
        self.spans: list[Span] = list(spans)

    def of_track(self, track: str) -> list[Span]:
        return _sorted_track(self.spans, track)

    def total_seconds(self, name: str, track: str = WALL_TRACK) -> float:
        return sum(
            s.dur_ns for s in self.spans if s.name == name and s.track == track
        ) / 1e9


class _LiveSpan:
    """Context manager for one in-flight wall-clock span."""

    __slots__ = ("_tracer", "name", "attrs", "_start_ns", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_LiveSpan":
        tr = self._tracer
        self._depth = tr._depth
        tr._depth += 1
        self._start_ns = tr._clock()
        return self

    def __exit__(self, *exc) -> bool:
        tr = self._tracer
        end = tr._clock()
        tr._depth -= 1
        tr.spans.append(
            Span(
                self.name,
                WALL_TRACK,
                self._start_ns - tr._t0,
                end - self._start_ns,
                self._depth,
                self.attrs,
            )
        )
        return False


class Tracer:
    """Collects :class:`Span` records; export via :mod:`repro.obs.export`."""

    enabled = True

    def __init__(self, clock_ns=time.perf_counter_ns) -> None:
        self._clock = clock_ns
        self._t0 = clock_ns()
        self.spans: list[Span] = []
        self._depth = 0
        self._model_clock_ns = 0

    def span(self, name: str, **attrs) -> _LiveSpan:
        """Open a wall-clock span: ``with tracer.span("force", n=64): ...``"""
        return _LiveSpan(self, name, attrs)

    def model_span(self, name, duration_s, attrs=None, children=None) -> Span:
        """Append a modelled span on the virtual-time track.

        ``children`` is an optional sequence of ``(name, duration_s)`` or
        ``(name, duration_s, attrs)`` tuples laid out back-to-back from
        the parent's start; a child is clamped so it never outruns the
        parent (rounding guard), keeping the track properly nested.
        The virtual clock advances by the parent duration.
        """
        ts = self._model_clock_ns
        dur = max(0, int(round(float(duration_s) * 1e9)))
        parent = Span(name, MODEL_TRACK, ts, dur, 0, attrs or {})
        self.spans.append(parent)
        cursor = ts
        end = ts + dur
        for child in children or ():
            cname, cdur_s = child[0], child[1]
            cattrs = child[2] if len(child) > 2 else {}
            cdur = max(0, int(round(float(cdur_s) * 1e9)))
            cdur = min(cdur, end - cursor)
            self.spans.append(Span(cname, MODEL_TRACK, cursor, cdur, 1, cattrs))
            cursor += cdur
        self._model_clock_ns = end
        return parent

    # -- queries ----------------------------------------------------------

    def of_track(self, track: str) -> list[Span]:
        """Spans on one track, ordered by start time (ties: outermost first)."""
        return _sorted_track(self.spans, track)

    def total_seconds(self, name: str, track: str = WALL_TRACK) -> float:
        """Summed duration of every span called ``name`` on ``track``."""
        return sum(s.dur_ns for s in self.spans if s.name == name and s.track == track) / 1e9

    def reset(self) -> None:
        self.spans.clear()
        self._depth = 0
        self._model_clock_ns = 0
        self._t0 = self._clock()


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: shared no-op spans, never records anything."""

    enabled = False
    spans: tuple = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def model_span(self, name, duration_s, attrs=None, children=None) -> None:
        return None

    def of_track(self, track: str) -> list:
        return []

    def total_seconds(self, name: str, track: str = WALL_TRACK) -> float:
        return 0.0

    def reset(self) -> None:
        pass


NULL_TRACER = NullTracer()
