"""Paper-style time breakdown rendered from collected metrics.

Section 5 of the paper argues its 29.5 Tflops headline from exactly
three numbers — pipeline time, host time and communication time — plus
the useful-operation count.  :func:`time_breakdown` recovers those from
a metrics snapshot (either the dotted names of
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` or the flattened
names of :func:`~repro.obs.export.parse_prometheus`) and
:func:`render_time_breakdown` prints them through the shared
:class:`~repro.perf.report.Table` machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "TimeBreakdown",
    "time_breakdown",
    "render_time_breakdown",
    "HybridBreakdown",
    "hybrid_breakdown",
]


def _get(metrics: dict, dotted: str, default: float = 0.0) -> float:
    """Fetch a metric by dotted name, accepting the flattened spelling."""
    if dotted in metrics:
        return float(metrics[dotted])
    return float(metrics.get(dotted.replace(".", "_"), default))


@dataclass(frozen=True)
class TimeBreakdown:
    """The paper's t_pipe / t_host / t_comm accounting for one run."""

    pipe_seconds: float
    host_seconds: float
    comm_seconds: float
    interactions: float
    peak_flops: float
    wall_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.pipe_seconds + self.host_seconds + self.comm_seconds

    @property
    def useful_flops(self) -> float:
        from ..constants import FLOPS_PER_INTERACTION

        return self.interactions * FLOPS_PER_INTERACTION

    @property
    def achieved_flops_per_s(self) -> float:
        if self.total_seconds == 0.0:
            return 0.0
        return self.useful_flops / self.total_seconds

    @property
    def peak_fraction(self) -> float:
        if self.peak_flops == 0.0:
            return 0.0
        return self.achieved_flops_per_s / self.peak_flops


def time_breakdown(metrics: dict) -> TimeBreakdown | None:
    """Build a :class:`TimeBreakdown`; ``None`` if no GRAPE time was logged."""
    bd = TimeBreakdown(
        pipe_seconds=_get(metrics, "grape.pipeline_seconds"),
        host_seconds=_get(metrics, "grape.host_seconds"),
        comm_seconds=_get(metrics, "grape.comm_seconds"),
        interactions=_get(metrics, "grape.interactions_total"),
        peak_flops=_get(metrics, "grape.peak_flops"),
        wall_seconds=_get(metrics, "run.wall_seconds"),
    )
    if bd.total_seconds == 0.0:
        return None
    return bd


@dataclass(frozen=True)
class HybridBreakdown:
    """t_tree / t_direct accounting of the hybrid backend: the one tree
    pass, and the neighbour pairs it emits as a by-product."""

    tree_seconds: float
    direct_seconds: float
    near_interactions: float
    far_interactions: float
    tree_builds: float

    @property
    def total_seconds(self) -> float:
        return self.tree_seconds + self.direct_seconds


def hybrid_breakdown(metrics: dict) -> HybridBreakdown | None:
    """Build a :class:`HybridBreakdown`; ``None`` if no hybrid time was logged."""
    bd = HybridBreakdown(
        tree_seconds=_get(metrics, "hybrid.tree_seconds"),
        direct_seconds=_get(metrics, "hybrid.direct_seconds"),
        near_interactions=_get(metrics, "hybrid.near_interactions_total"),
        far_interactions=_get(metrics, "hybrid.far_interactions_total"),
        tree_builds=_get(metrics, "hybrid.tree_builds_total"),
    )
    if bd.total_seconds == 0.0 and bd.tree_builds == 0.0:
        return None
    return bd


def _render_hybrid(bd: HybridBreakdown) -> str:
    from ..perf.report import Table

    table = Table(
        ["component", "seconds", "share", "interactions"],
        title="Hybrid force pass (t_tree) and its neighbour by-product (t_direct)",
    )
    total = bd.total_seconds or 1.0
    table.add_row(
        "tree build + walk (t_tree)", bd.tree_seconds,
        f"{bd.tree_seconds / total:.1%}", int(bd.far_interactions),
    )
    table.add_row(
        "neighbour pairs outside the walk (t_direct)", bd.direct_seconds,
        f"{bd.direct_seconds / total:.1%}", int(bd.near_interactions),
    )
    lines = [table.render()]
    if bd.tree_builds:
        lines.append(f"tree rebuilds:    {int(bd.tree_builds)}")
    return "\n".join(lines)


def render_time_breakdown(metrics: dict) -> str:
    """The breakdown as a printable table (empty string if nothing to show).

    Renders the GRAPE Section-5 table when modelled hardware time was
    logged, and appends the hybrid backend's t_tree/t_direct split when
    ``hybrid.*`` metrics are present (either may appear alone).
    """
    from ..perf.report import Table

    hybrid = hybrid_breakdown(metrics)
    bd = time_breakdown(metrics)
    if bd is None:
        return _render_hybrid(hybrid) if hybrid is not None else ""
    table = Table(
        ["component", "seconds", "share"],
        title="GRAPE-6 time breakdown (paper Section 5)",
    )
    total = bd.total_seconds
    for label, value in (
        ("pipeline (t_pipe)", bd.pipe_seconds),
        ("host (t_host)", bd.host_seconds),
        ("comm (t_comm)", bd.comm_seconds),
    ):
        table.add_row(label, value, f"{value / total:.1%}")
    table.add_row("total (model)", total, "100.0%")
    lines = [table.render()]
    lines.append(
        f"achieved:         {bd.achieved_flops_per_s / 1e12:.3f} Tflops"
        + (f" ({bd.peak_fraction:.1%} of peak)" if bd.peak_flops else "")
    )
    if bd.wall_seconds:
        lines.append(f"python wall:      {bd.wall_seconds:.2f} s")
    if hybrid is not None:
        lines.append(_render_hybrid(hybrid))
    return "\n".join(lines)
