"""Exporters: Chrome-trace JSON and Prometheus text.

Two formats, two audiences:

* :func:`write_chrome_trace` — a ``chrome://tracing`` / Perfetto file
  ("X" complete events, microsecond timestamps).  The wall and model
  tracks render as two thread rows of one process.
* :func:`write_prometheus` / :func:`parse_prometheus` — text exposition
  of a metrics registry and the matching reader used by
  ``repro report --metrics``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from ..errors import SnapshotError
from .trace import MODEL_TRACK, WALL_TRACK, Span, SpanLog

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "load_spans",
    "write_prometheus",
    "parse_prometheus",
]

#: Chrome-trace thread ids per track (process is always 1).
_TRACK_TIDS = {WALL_TRACK: 1, MODEL_TRACK: 2}

#: One exposition sample: ``name[{labels}] value`` (labels opaque here —
#: escaped quotes make label blocks non-trivial to split on whitespace).
_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?:[^"}]*"(?:[^"\\]|\\.)*")*[^}]*\})?'
    r'\s+(?P<value>\S+)$'
)


def chrome_trace_events(tracer) -> list[dict]:
    """The ``traceEvents`` list for a tracer (metadata + complete events)."""
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for track, tid in _TRACK_TIDS.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": f"{track} clock"},
            }
        )
    for track in (WALL_TRACK, MODEL_TRACK):
        tid = _TRACK_TIDS[track]
        for s in tracer.of_track(track):
            events.append(
                {
                    "name": s.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": s.ts_ns / 1e3,  # microseconds
                    "dur": s.dur_ns / 1e3,
                    "args": dict(s.attrs) if s.attrs else {},
                }
            )
    return events


def write_chrome_trace(tracer, path) -> Path:
    """Write the tracer's spans as a Chrome-trace JSON file."""
    path = Path(path)
    doc = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"format": "repro-obs-trace-v1"},
    }
    path.write_text(json.dumps(doc))
    return path


def _spans_from_chrome(doc, path) -> SpanLog:
    """Rebuild spans from a Chrome-trace document (depth from nesting)."""
    tid_to_track = {tid: track for track, tid in _TRACK_TIDS.items()}
    try:
        events = doc["traceEvents"]
    except (TypeError, KeyError) as exc:
        raise SnapshotError(f"{path} is not a Chrome-trace document") from exc
    raw = []
    for e in events:
        if e.get("ph") != "X":
            continue
        track = tid_to_track.get(e.get("tid"))
        if track is None:
            continue
        ts = int(round(float(e["ts"]) * 1e3))
        dur = int(round(float(e["dur"]) * 1e3))
        raw.append((ts, -dur, e["name"], track, e.get("args") or {}))
    spans = []
    stacks: dict[str, list[int]] = {WALL_TRACK: [], MODEL_TRACK: []}
    for ts, neg_dur, name, track, attrs in sorted(raw, key=lambda r: (r[3], r[0], r[1])):
        dur = -neg_dur
        stack = stacks[track]
        while stack and ts >= stack[-1]:
            stack.pop()
        depth = len(stack)
        stack.append(ts + dur)
        spans.append(Span(name, track, ts, dur, depth, attrs))
    return SpanLog(spans)


def load_spans(path) -> SpanLog:
    """Load spans from the Chrome-trace JSON of :func:`write_chrome_trace`.

    Raises :class:`~repro.errors.SnapshotError` when the file is
    missing, empty or not a Chrome-trace document.
    """
    path = Path(path)
    if not path.exists():
        raise SnapshotError(f"trace file not found: {path}")
    text = path.read_text()
    if not text.strip():
        raise SnapshotError(f"trace file {path} is empty")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"cannot parse trace file {path}: {exc}") from exc
    return _spans_from_chrome(doc, path)


def write_prometheus(registry, path) -> Path:
    """Write a registry's text exposition to ``path``."""
    path = Path(path)
    path.write_text(registry.to_prometheus())
    return path


def parse_prometheus(path) -> dict[str, float]:
    """Read a text exposition back into a flat ``name -> value`` dict.

    Names come back in their flattened (underscore) spelling.  Comment
    and blank lines are skipped; a malformed sample line raises
    :class:`~repro.errors.SnapshotError`.
    """
    path = Path(path)
    if not path.exists():
        raise SnapshotError(f"metrics file not found: {path}")
    out: dict[str, float] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise SnapshotError(f"malformed metrics line {lineno} in {path}: {line!r}")
        try:
            out[m.group("name")] = float(m.group("value"))
        except ValueError as exc:
            raise SnapshotError(
                f"non-numeric metric value on line {lineno} in {path}"
            ) from exc
    return out
