"""Run-health watchdogs: anomaly detectors over live run metrics.

A 10-hour production run (the paper's was 10.3 h) fails slowly long
before it fails loudly: energy drifts, timesteps collapse under a hard
binary, a neighbour sphere outgrows the hardware list, a thread sits
idle, checkpoints start taking seconds.  This module turns those into
structured ``health`` events:

* :class:`HealthDetector` subclasses each watch one failure mode and
  are evaluated by a :class:`HealthMonitor` over a
  :class:`HealthSample` (simulation time + a flat metrics snapshot +
  the driver's own measurements);
* events carry a severity (``info`` / ``warning`` / ``critical``), the
  offending value and the threshold, and serialise to run-log records
  (``kind: "health"``) that ``repro report --run-log`` and ``repro
  top`` render;
* the monitor feeds the ``health.*`` metric family (checks, events,
  last severity) plus a per-detector dynamic counter
  ``health.detector.<name>_events_total``.

The production driver (:class:`repro.runio.ProductionRun`) runs a
default monitor at diagnostics cadence; detectors are cheap (a handful
of dict lookups and a short linear fit), so the stream costs nothing
measurable against a force evaluation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "SEVERITIES",
    "SEVERITY_LEVEL",
    "HealthSample",
    "HealthEvent",
    "HealthDetector",
    "EnergyDriftDetector",
    "BlockCollapseDetector",
    "NeighbourOverflowDetector",
    "ThreadImbalanceDetector",
    "CheckpointLatencyDetector",
    "HealthMonitor",
    "default_detectors",
    "render_health_events",
]

#: Severity names in increasing order of alarm.
SEVERITIES: tuple[str, ...] = ("info", "warning", "critical")

#: Severity name -> numeric level (what ``health.last_severity`` holds).
SEVERITY_LEVEL: dict[str, int] = {s: i for i, s in enumerate(SEVERITIES)}


@dataclass
class HealthSample:
    """One observation fed to every detector.

    ``metrics`` is a flat snapshot
    (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`); it is empty
    when observability is disabled, and detectors must tolerate missing
    keys.  The driver fills the direct measurements it already has
    (energy error, mean block size) so the core detectors work even
    without a metrics registry.
    """

    t: float
    metrics: dict = field(default_factory=dict)
    energy_error: float | None = None
    mean_block: float | None = None


@dataclass(frozen=True)
class HealthEvent:
    """One structured anomaly report."""

    detector: str
    severity: str
    message: str
    t: float
    value: float
    threshold: float

    def to_record(self) -> dict:
        """Run-log payload (``kind`` is added by the logger call)."""
        return {
            "detector": self.detector,
            "severity": self.severity,
            "message": self.message,
            "t": self.t,
            "value": self.value,
            "threshold": self.threshold,
        }


class HealthDetector:
    """Base class: one failure mode, one ``check`` per sample.

    ``name`` must be a lower-case identifier (it becomes part of the
    ``health.detector.<name>_events_total`` metric name).
    """

    name = "detector"

    def check(self, sample: HealthSample) -> HealthEvent | None:
        raise NotImplementedError

    def _event(self, severity: str, message: str, sample: HealthSample,
               value: float, threshold: float) -> HealthEvent:
        return HealthEvent(
            detector=self.name,
            severity=severity,
            message=message,
            t=float(sample.t),
            value=float(value),
            threshold=float(threshold),
        )


class EnergyDriftDetector(HealthDetector):
    """The run's energy check: an absolute limit and a drift slope.

    With ``limit`` set, a sample whose |dE/E| exceeds it is a
    ``critical`` event and sets :attr:`over_limit` for that sample (the
    production driver answers it with a self-test sweep, whether or not
    the monitor's repeat suppression logs the event).  Below the limit
    the detector catches the slower failure — a marginal chip or a
    collapsing timestep showing up as a steady drift rate — from a
    plain least-squares fit over a sliding window, in relative error
    per unit simulation time.
    """

    name = "energy_drift"

    def __init__(self, warn_slope: float = 1e-6, critical_slope: float = 1e-4,
                 window: int = 16, limit: float | None = None) -> None:
        self.warn_slope = float(warn_slope)
        self.critical_slope = float(critical_slope)
        self.limit = None if limit is None else float(limit)
        #: Whether the last checked sample exceeded ``limit``.
        self.over_limit = False
        self._samples: deque = deque(maxlen=int(window))

    def check(self, sample: HealthSample) -> HealthEvent | None:
        self.over_limit = False
        err = sample.energy_error
        if err is None:
            err = sample.metrics.get("run.energy_error")
        if err is None:
            return None
        err = abs(float(err))
        self._samples.append((float(sample.t), err))
        if self.limit is not None and err > self.limit:
            self.over_limit = True
            return self._event(
                "critical",
                f"energy error {err:.2e} exceeds the limit {self.limit:.1e}",
                sample, err, self.limit,
            )
        if len(self._samples) < 3:
            return None
        ts = [t for t, _ in self._samples]
        es = [e for _, e in self._samples]
        n = len(ts)
        t_mean = sum(ts) / n
        e_mean = sum(es) / n
        var = sum((t - t_mean) ** 2 for t in ts)
        if var == 0.0:
            return None
        slope = sum((t - t_mean) * (e - e_mean) for t, e in zip(ts, es)) / var
        if slope >= self.critical_slope:
            sev, limit = "critical", self.critical_slope
        elif slope >= self.warn_slope:
            sev, limit = "warning", self.warn_slope
        else:
            return None
        return self._event(
            sev,
            f"energy drift slope {slope:.2e}/t exceeds {limit:.1e}/t "
            f"over the last {n} samples",
            sample, slope, limit,
        )


class BlockCollapseDetector(HealthDetector):
    """Trips when the mean active-block size collapses towards 1.

    A hard binary or an unsoftened close encounter drags the global
    minimum timestep down; the scheduler then issues thousands of
    near-single-particle blocks and wall-clock progress stalls (the
    paper's block sizes average thousands).  Detected from the windowed
    mean of ``blockstep.active_particles / blockstep.total`` deltas, or
    from the driver-provided mean when metrics are off.
    """

    name = "block_collapse"

    def __init__(self, warn_mean: float = 2.0, critical_mean: float = 1.1,
                 min_blocks: int = 16) -> None:
        self.warn_mean = float(warn_mean)
        self.critical_mean = float(critical_mean)
        self.min_blocks = int(min_blocks)
        self._last: tuple[float, float] | None = None

    def check(self, sample: HealthSample) -> HealthEvent | None:
        blocks = sample.metrics.get("blockstep.total")
        psteps = sample.metrics.get("blockstep.active_particles")
        mean = None
        count = self.min_blocks
        if blocks is not None and psteps is not None:
            if self._last is not None:
                d_blocks = blocks - self._last[0]
                d_psteps = psteps - self._last[1]
                count = d_blocks
                if d_blocks >= self.min_blocks:
                    mean = d_psteps / d_blocks
            self._last = (blocks, psteps)
        elif sample.mean_block is not None:
            mean = float(sample.mean_block)
        if mean is None or count < self.min_blocks:
            return None
        if mean <= self.critical_mean:
            sev, limit = "critical", self.critical_mean
        elif mean <= self.warn_mean:
            sev, limit = "warning", self.warn_mean
        else:
            return None
        return self._event(
            sev,
            f"block-step collapse: mean active-block size {mean:.2f} "
            f"<= {limit:g} (timestep collapse / hard binary?)",
            sample, mean, limit,
        )


class NeighbourOverflowDetector(HealthDetector):
    """Trips when a neighbour sphere approaches the hardware list size.

    GRAPE-6 returns neighbour lists through fixed-length on-chip
    memory; a sphere holding more candidates than the list overflows
    and the interaction must be retried with a smaller ``h``.  The
    hybrid backend records per-block mean neighbour counts in
    ``hybrid.neighbour_count``; its running max is checked against the
    capacity.
    """

    name = "neighbour_overflow"

    def __init__(self, capacity: int = 256, warn_fraction: float = 0.8) -> None:
        self.capacity = int(capacity)
        self.warn_fraction = float(warn_fraction)

    def check(self, sample: HealthSample) -> HealthEvent | None:
        peak = sample.metrics.get("hybrid.neighbour_count.max")
        if peak is None:
            return None
        if peak >= self.capacity:
            return self._event(
                "critical",
                f"neighbour sphere holds {peak:.0f} particles — overflows "
                f"the hardware list capacity {self.capacity}",
                sample, peak, float(self.capacity),
            )
        limit = self.warn_fraction * self.capacity
        if peak >= limit:
            return self._event(
                "warning",
                f"neighbour sphere at {peak:.0f} particles — within "
                f"{(1 - self.warn_fraction):.0%} of list capacity "
                f"{self.capacity}",
                sample, peak, limit,
            )
        return None


class ThreadImbalanceDetector(HealthDetector):
    """Trips when the threaded kernel sweep leaves workers idle.

    ``kernel.thread_efficiency`` is busy/(threads x wall) of the last
    threaded sweep (:class:`repro.accel.KernelEngine`); a value far
    below 1 on a multi-thread engine means the j-chunk plan is starving
    workers (chunk count < threads, or one chunk dominating).
    """

    name = "thread_imbalance"

    def __init__(self, min_efficiency: float = 0.5) -> None:
        self.min_efficiency = float(min_efficiency)

    def check(self, sample: HealthSample) -> HealthEvent | None:
        threads = sample.metrics.get("kernel.threads", 0.0)
        eff = sample.metrics.get("kernel.thread_efficiency")
        if threads is None or threads <= 1 or not eff:
            return None
        if eff >= self.min_efficiency:
            return None
        return self._event(
            "warning",
            f"kernel thread efficiency {eff:.2f} below "
            f"{self.min_efficiency:g} on {threads:.0f} threads "
            "(load imbalance in the j-chunk plan)",
            sample, eff, self.min_efficiency,
        )


class CheckpointLatencyDetector(HealthDetector):
    """Trips when checkpoint writes get slow enough to stall the run.

    Reads the ``checkpoint.write_seconds`` histogram's max; a write
    budget of ~1 s keeps checkpointing below noise at production
    cadence, and multi-second writes usually mean a struggling disk.
    """

    name = "checkpoint_latency"

    def __init__(self, warn_seconds: float = 1.0,
                 critical_seconds: float = 5.0) -> None:
        self.warn_seconds = float(warn_seconds)
        self.critical_seconds = float(critical_seconds)

    def check(self, sample: HealthSample) -> HealthEvent | None:
        worst = sample.metrics.get("checkpoint.write_seconds.max")
        if worst is None:
            return None
        if worst >= self.critical_seconds:
            sev, limit = "critical", self.critical_seconds
        elif worst >= self.warn_seconds:
            sev, limit = "warning", self.warn_seconds
        else:
            return None
        return self._event(
            sev,
            f"slowest checkpoint write took {worst:.2f} s (budget {limit:g} s)",
            sample, worst, limit,
        )


def default_detectors(energy_limit: float | None = None) -> list[HealthDetector]:
    """The standard watchdog set with production-tuned thresholds.

    The energy check comes first; ``energy_limit`` is its absolute
    |dE/E| limit (None: drift slope only).
    """
    return [
        EnergyDriftDetector(limit=energy_limit),
        BlockCollapseDetector(),
        NeighbourOverflowDetector(),
        ThreadImbalanceDetector(),
        CheckpointLatencyDetector(),
    ]


class HealthMonitor:
    """Evaluates a detector set per sample and records the event stream.

    Re-raising the same anomaly every sample would bury the signal, so
    each detector is rate-limited: an event is emitted when the
    detector first fires, and again only when its severity changes or
    after ``repeat_every`` further firing checks.
    """

    def __init__(self, detectors=None, obs=None, repeat_every: int = 8,
                 max_events: int = 256) -> None:
        from . import NULL_OBS

        self.detectors = (
            list(detectors) if detectors is not None else default_detectors()
        )
        self.obs = obs or NULL_OBS
        self.repeat_every = max(1, int(repeat_every))
        self.events: deque = deque(maxlen=int(max_events))
        self.events_total = 0
        m = self.obs.metrics
        self._c_checks = m.counter("health.checks_total")
        self._c_events = m.counter("health.events_total")
        self._g_last = m.gauge("health.last_severity")
        self._c_by_detector = {
            d.name: m.counter(f"health.detector.{d.name}_events_total")
            for d in self.detectors
        }
        self._streak: dict[str, tuple[str, int]] = {}

    def check(self, sample: HealthSample) -> list[HealthEvent]:
        """Run every detector; returns the newly *emitted* events."""
        emitted = []
        worst = 0
        for det in self.detectors:
            self._c_checks.inc()
            event = det.check(sample)
            if event is None:
                self._streak.pop(det.name, None)
                continue
            worst = max(worst, SEVERITY_LEVEL.get(event.severity, 0))
            prev = self._streak.get(det.name)
            if prev is not None and prev[0] == event.severity:
                streak = prev[1] + 1
                self._streak[det.name] = (event.severity, streak)
                if streak % self.repeat_every != 0:
                    continue  # suppressed repeat
            else:
                self._streak[det.name] = (event.severity, 0)
            emitted.append(event)
            self.events.append(event)
            self.events_total += 1
            self._c_events.inc()
            self._c_by_detector[det.name].inc()
        self._g_last.set(worst)
        return emitted


def render_health_events(events, limit: int = 20) -> str:
    """A printable table of health events (newest last).

    ``events`` may be :class:`HealthEvent` objects or run-log dicts
    (``kind == "health"`` records); empty input gives ''.
    """
    from ..perf.report import Table

    rows = []
    for ev in events:
        if isinstance(ev, HealthEvent):
            rows.append((ev.severity, ev.t, ev.detector, ev.message))
        elif isinstance(ev, dict):
            rows.append(
                (
                    ev.get("severity", "info"),
                    float(ev.get("t", 0.0)),
                    ev.get("detector", "?"),
                    ev.get("message", ""),
                )
            )
    if not rows:
        return ""
    table = Table(
        ["severity", "t", "detector", "message"],
        title=f"Health events ({len(rows)} total)",
    )
    for sev, t, det, msg in rows[-limit:]:
        table.add_row(sev.upper(), t, det, msg)
    return table.render()
