"""Outside-in span recorder: timing proxies the benchmark installs itself.

Nothing under ``src/`` knows about this file.  A :class:`SpanRecorder`
wraps *instance attributes* of objects the benchmark constructed
(``backend.forces_on``, ``sim.step``, the public ops of the shared
kernel engine, ...), so the class — and every other instance — is
untouched, and :meth:`SpanRecorder.uninstall` restores the object by
deleting the instance attribute again.

Each span is ``[name, start, end, parent]`` (seconds from
``perf_counter``; ``parent`` is an index into the same list, or -1),
kept in memory and only summarised after the run.  A span's
*self time* is its duration minus the duration of its direct children,
so the self times of all spans under one root add up to the root's
duration exactly — which is what lets the per-layer table account for
the whole traced wall.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

__all__ = ["SpanRecorder", "SpanTable"]


class SpanRecorder:
    """Records nested spans from instance-level call wrappers."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` in start order.
        self.spans: list[list] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str]] = []
        # Engine ops call each other (``acc_jerk_active`` may fall back to
        # ``acc_jerk``); only the outermost call is a span, otherwise the
        # inner one would be billed twice inside the same layer.
        self._group_depth: dict[str, int] = {}

    # -- recording --------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record a span around a ``with`` block (used for the roots)."""
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def wrap(self, obj, attr: str, name: str, group: str | None = None) -> None:
        """Replace ``obj.attr`` by a recording wrapper (instance level).

        ``group`` names a set of wrappers of which only the outermost
        active one records.
        """
        fn = getattr(obj, attr)
        depth = self._group_depth

        def recorded(*args, **kwargs):
            if group is not None:
                if depth.get(group, 0):
                    return fn(*args, **kwargs)
                depth[group] = 1
            index = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index)
                if group is not None:
                    depth[group] = 0

        setattr(obj, attr, recorded)
        self._installed.append((obj, attr))

    def uninstall(self) -> None:
        """Remove every wrapper; the objects fall back to their class."""
        while self._installed:
            obj, attr = self._installed.pop()
            try:
                delattr(obj, attr)
            except AttributeError:
                pass

    def cut(self) -> "SpanTable":
        """Hand over the spans recorded so far and start a fresh list.

        Only valid between roots (no span open), so parent indices stay
        local to the returned table.
        """
        if self._open:
            raise RuntimeError("cannot cut the span list inside an open span")
        spans, self.spans = self.spans, []
        return SpanTable(spans)


class SpanTable:
    """A finished list of spans and the summaries the benchmark reads."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans

    def __len__(self) -> int:
        return len(self.spans)

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Durations [s] of the spans called ``name`` (optionally only
        those whose direct parent is called ``parent``), in start order."""
        spans = self.spans
        return [
            end - start
            for span_name, start, end, up in spans
            if span_name == name
            and (parent is None or (up >= 0 and spans[up][0] == parent))
        ]

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(self.durations(name, parent))

    def count(self, name: str) -> int:
        return len(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Self time [s] per span name; sums to the roots' duration."""
        child_total = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_total[i]
        return out

    def to_records(self) -> list[dict]:
        """Spans as JSON-friendly dicts (written out when the run ends)."""
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
