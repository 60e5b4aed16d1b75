"""Deterministic phase profiler: hotspot attribution from recorded spans.

The span tracer (:mod:`repro.obs.trace`) records *what happened when*;
this module answers *where the time went*.  :class:`PhaseProfile`
aggregates a finished trace — a live :class:`~repro.obs.trace.Tracer`
or a :class:`~repro.obs.trace.SpanLog` loaded back from disk — into
per-phase statistics on each track:

``total``
    Summed duration of every span with that name (a phase that calls
    itself is still counted once per span, so recursive totals can
    exceed the track length).
``self``
    Total minus the time spent in *direct child* spans — the classic
    flamegraph "self time", which is what hotspot ranking sorts by.

Because aggregation happens **after** the run, over spans the tracer
was recording anyway, the profiler adds no per-block cost to the run
itself; its only overhead is the aggregation sweep, which it meters
into ``prof.aggregate_seconds`` for honesty.

Exports:

* :meth:`PhaseProfile.render_top` — the top-table shown by
  ``repro report --trace`` and ``repro run --profile``;
* :meth:`PhaseProfile.collapsed_stacks` /
  :meth:`PhaseProfile.write_collapsed` — Brendan-Gregg folded-stack
  lines (``run;block_step;force 1234``) for ``flamegraph.pl`` or
  speedscope.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from .trace import MODEL_TRACK, WALL_TRACK

__all__ = [
    "PhaseStat",
    "PhaseProfile",
    "profile_spans",
    "profile_trace_file",
]


@dataclass
class PhaseStat:
    """Aggregate timing of one phase (span name) on one track."""

    name: str
    track: str
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0
    min_ns: int = 0
    max_ns: int = 0

    @property
    def total_seconds(self) -> float:
        return self.total_ns / 1e9

    @property
    def self_seconds(self) -> float:
        return self.self_ns / 1e9

    def _add(self, dur_ns: int, self_ns: int) -> None:
        if self.count == 0:
            self.min_ns = dur_ns
            self.max_ns = dur_ns
        else:
            self.min_ns = min(self.min_ns, dur_ns)
            self.max_ns = max(self.max_ns, dur_ns)
        self.count += 1
        self.total_ns += dur_ns
        self.self_ns += self_ns


@dataclass
class PhaseProfile:
    """Per-phase hotspot attribution for one recorded trace."""

    #: ``(track, name) -> PhaseStat``
    stats: dict = field(default_factory=dict)
    #: Track length: summed duration of top-level spans per track.
    track_ns: dict = field(default_factory=dict)
    #: Folded-stack self-time: ``(track, "a;b;c") -> ns``.
    folded: dict = field(default_factory=dict)
    n_spans: int = 0
    #: Wall seconds the aggregation sweep itself took.
    aggregate_seconds: float = 0.0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_spans(cls, source) -> "PhaseProfile":
        """Aggregate a tracer/:class:`SpanLog` (anything with ``of_track``).

        One sweep per track: spans sorted by start time are pushed on a
        stack of open intervals; a span starting inside the stack top is
        its direct child and bills its duration against the parent's
        self time.  The sweep is deterministic — identical spans give an
        identical profile, independent of dict order or wall clock.
        """
        t0 = time.perf_counter()
        prof = cls()
        for track in (WALL_TRACK, MODEL_TRACK):
            spans = source.of_track(track)
            if not spans:
                continue
            # stack entries: [end_ns, name, dur_ns, child_ns, stack_key]
            stack: list[list] = []
            top_level_ns = 0
            for s in spans:
                while stack and s.ts_ns >= stack[-1][0]:
                    prof._finish(track, stack.pop())
                if stack:
                    stack[-1][3] += s.dur_ns
                    key = f"{stack[-1][4]};{s.name}"
                else:
                    top_level_ns += s.dur_ns
                    key = s.name
                stack.append([s.ts_ns + s.dur_ns, s.name, s.dur_ns, 0, key])
                prof.n_spans += 1
            while stack:
                prof._finish(track, stack.pop())
            prof.track_ns[track] = top_level_ns
        prof.aggregate_seconds = time.perf_counter() - t0
        return prof

    def _finish(self, track: str, entry: list) -> None:
        _end, name, dur_ns, child_ns, key = entry
        self_ns = max(0, dur_ns - child_ns)  # clamp rounding overlaps
        stat = self.stats.get((track, name))
        if stat is None:
            stat = self.stats[(track, name)] = PhaseStat(name, track)
        stat._add(dur_ns, self_ns)
        self.folded[(track, key)] = self.folded.get((track, key), 0) + self_ns

    # -- queries ----------------------------------------------------------

    def top(self, track: str = WALL_TRACK, limit: int | None = None,
            by: str = "self") -> list[PhaseStat]:
        """Phases of one track, hottest first (``by``: self | total).

        Ties break on phase name so the ordering is fully deterministic.
        """
        key = (lambda s: (-s.self_ns, s.name)) if by == "self" else (
            lambda s: (-s.total_ns, s.name)
        )
        rows = sorted(
            (s for (t, _), s in self.stats.items() if t == track), key=key
        )
        return rows[:limit] if limit is not None else rows

    def phase(self, name: str, track: str = WALL_TRACK) -> PhaseStat | None:
        """The aggregate for one phase, or ``None``."""
        return self.stats.get((track, name))

    # -- rendering --------------------------------------------------------

    def render_top(self, track: str = WALL_TRACK, limit: int = 12) -> str:
        """Hotspot top-table for one track (empty string if no spans)."""
        from ..perf.report import Table

        rows = self.top(track, limit=limit)
        if not rows:
            return ""
        total = self.track_ns.get(track, 0) or 1
        clock = "wall" if track == WALL_TRACK else "model"
        table = Table(
            ["phase", "calls", "total_s", "self_s", "self_share"],
            title=f"Phase profile ({clock} clock)",
        )
        for s in rows:
            table.add_row(
                s.name, s.count, s.total_seconds, s.self_seconds,
                f"{s.self_ns / total:.1%}",
            )
        lines = [table.render()]
        lines.append(f"track total:      {total / 1e9:.4f} s over "
                     f"{self.n_spans} spans")
        return "\n".join(lines)

    def render(self, limit: int = 12) -> str:
        """Top tables for every populated track."""
        parts = [
            text
            for track in (WALL_TRACK, MODEL_TRACK)
            if (text := self.render_top(track, limit=limit))
        ]
        return "\n\n".join(parts)

    # -- flamegraph export -------------------------------------------------

    def collapsed_stacks(self, track: str = WALL_TRACK) -> list[str]:
        """Folded-stack lines ``a;b;c <microseconds>`` (self time).

        Deterministically ordered by stack path; zero-self stacks are
        dropped (pure pass-through frames still appear as prefixes of
        their children).
        """
        lines = []
        for (t, key), ns in sorted(self.folded.items()):
            if t != track:
                continue
            us = int(round(ns / 1e3))
            if us > 0:
                lines.append(f"{key} {us}")
        return lines

    def write_collapsed(self, path, track: str = WALL_TRACK) -> Path:
        """Write folded stacks for ``flamegraph.pl`` / speedscope."""
        path = Path(path)
        path.write_text("\n".join(self.collapsed_stacks(track)) + "\n")
        return path

    # -- metrics ----------------------------------------------------------

    def bind(self, metrics) -> None:
        """Record the ``prof.*`` family into a metrics registry."""
        metrics.counter("prof.spans_total").inc(self.n_spans)
        metrics.gauge("prof.phases").set(len(self.stats))
        metrics.counter("prof.aggregate_seconds").inc(self.aggregate_seconds)


def profile_spans(source) -> PhaseProfile:
    """Profile a live tracer or span log (alias for ``from_spans``)."""
    return PhaseProfile.from_spans(source)


def profile_trace_file(path) -> PhaseProfile:
    """Profile an exported Chrome-trace JSON file.

    Raises :class:`~repro.errors.SnapshotError` on a missing or
    unparseable file.
    """
    from .export import load_spans

    return PhaseProfile.from_spans(load_spans(path))
