"""Bench-history store and regression sentinel.

The repo keeps two committed baselines (``BENCH_kernels.json``,
``BENCH_spmd.json``) — single snapshots, useful for "what did the
paper-scale shapes cost last time somebody refreshed them".  What they
cannot answer is *did this commit make the kernels slower*, because a
single wall-clock number carries run-to-run noise that easily exceeds a
real few-percent regression.

This module adds the missing pieces:

* :func:`host_fingerprint` — the environment a record was measured on
  (Python, platform, CPU count, ``REPRO_KERNEL_THREADS``, NumPy), so a
  cross-host comparison can be recognised and discounted;
* :class:`BenchHistory` — an append-only store of versioned benchmark
  records under ``benchmarks/results/history/<benchmark>/`` with a
  monotone per-benchmark sequence number;
* :func:`compare_documents` — entry-matched statistical comparison of
  two benchmark documents.  When entries carry raw repeat samples
  (``samples_seconds``), significance comes from a deterministic
  bootstrap over the min-of-k estimator; legacy single-number entries
  fall back to a plain threshold on the point ratio.

``repro perf diff`` / ``trend`` / ``gate`` are thin shells over this
module.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigurationError, SnapshotError

__all__ = [
    "SCHEMA_VERSION",
    "TIME_FIELDS",
    "host_fingerprint",
    "usable_cpus",
    "BenchHistory",
    "entry_key",
    "entry_label",
    "EntryComparison",
    "ComparisonResult",
    "compare_documents",
    "render_comparison",
    "render_trend",
]

#: Version stamped on every history record / v2 benchmark document.
SCHEMA_VERSION = 2

#: Recognised primary measurements, in priority order.
TIME_FIELDS: tuple[str, ...] = ("best_seconds", "wall_seconds", "seconds")

#: Entry fields that are *measured outputs*, not identity: excluded from
#: the matching key alongside every float-valued field.
_MEASUREMENT_FIELDS = frozenset(
    TIME_FIELDS
    + (
        "samples_seconds",
        "repeats",
        "speedup_vs_reference",
        "speedup",
        "wall_per_block",
        "block_steps",
        "work_interactions",
        "work_per_block",
        "energy_error",
        "pairs_per_second",
        "interactions_per_second",
        "gflops",
        "checksum",
    )
)

#: Bootstrap resamples (fixed: determinism beats marginal CI accuracy).
_BOOTSTRAP_RESAMPLES = 400

#: Seed for the bootstrap RNG — fixed so diff/gate are reproducible.
_BOOTSTRAP_SEED = 0x5C2002


def usable_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the
    platform has one (``os.cpu_count`` ignores it, and a thread pool
    sized by it oversubscribes a pinned container)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def host_fingerprint() -> dict:
    """The measurement environment, for stamping into records.

    Comparisons across differing fingerprints are still performed but
    flagged by the CLI — a 2x "regression" measured on a different
    machine is a provenance problem, not a code problem.
    ``kernel_threads`` and ``kernel_tier`` are what the process-wide
    kernel engine resolved (building it if nothing has yet), not what
    the environment asked for.
    """
    from ..accel import get_engine

    engine = get_engine()
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "kernel_threads": engine.config.threads,
        "kernel_tier": engine.tier,
        "numpy": numpy_version,
    }


# -- entry identity --------------------------------------------------------


def entry_key(entry: dict) -> tuple:
    """Stable identity of one benchmark entry across documents.

    Identity is every non-float field that is not a known measurement
    (floats are always measurements or derived from them in this repo's
    benchmark documents; shape/backend/op fields are ints and strings).
    """
    return tuple(
        sorted(
            (k, str(v))
            for k, v in entry.items()
            if k not in _MEASUREMENT_FIELDS and not isinstance(v, float)
        )
    )


def entry_label(key: tuple) -> str:
    """Human spelling of an entry key: ``backend=direct n=64``."""
    return " ".join(f"{k}={v}" for k, v in key)


def _entry_samples(entry: dict) -> list[float] | None:
    samples = entry.get("samples_seconds")
    if isinstance(samples, (list, tuple)) and len(samples) >= 2:
        return [float(s) for s in samples]
    return None


def _entry_seconds(entry: dict) -> float | None:
    samples = _entry_samples(entry)
    if samples:
        return min(samples)
    for field_name in TIME_FIELDS:
        value = entry.get(field_name)
        if value is not None:
            return float(value)
    return None


# -- the store -------------------------------------------------------------


class BenchHistory:
    """Append-only benchmark record store with per-benchmark sequences.

    Layout: ``<root>/<benchmark>/<benchmark>-<seq:05d>.json``, one
    complete document per file.  Appends stamp ``schema_version``,
    ``seq`` and (if absent) a :func:`host_fingerprint`; nothing is ever
    rewritten, so the history is safe to commit alongside the code it
    measures.
    """

    DEFAULT_ROOT = Path("benchmarks/results/history")

    def __init__(self, root=None, obs=None) -> None:
        from . import NULL_OBS

        self.root = Path(root) if root is not None else self.DEFAULT_ROOT
        self.obs = obs or NULL_OBS
        self._c_records = self.obs.metrics.counter("perf.history.records_total")

    # -- writing ----------------------------------------------------------

    def append(self, document: dict) -> Path:
        """Store one benchmark document; returns the record path."""
        name = document.get("benchmark")
        if not name or not isinstance(name, str):
            raise ConfigurationError(
                "history records need a 'benchmark' name field"
            )
        bench_dir = self.root / name
        bench_dir.mkdir(parents=True, exist_ok=True)
        seq = self._next_seq(name)
        record = {
            "schema_version": SCHEMA_VERSION,
            "seq": seq,
            **document,
        }
        record.setdefault("host", host_fingerprint())
        path = bench_dir / f"{name}-{seq:05d}.json"

        def write(fh):
            json.dump(record, fh, indent=2, sort_keys=False)
            fh.write("\n")

        # a torn record would make every later records() call raise
        from ..core.snapshots import durable_write

        durable_write(path, write, text=True)
        self._c_records.inc()
        return path

    def _next_seq(self, name: str) -> int:
        return 1 + max(
            (r.get("seq", 0) for r in self.records(name)), default=0
        )

    # -- reading ----------------------------------------------------------

    def benchmarks(self) -> list[str]:
        """Benchmark names with at least one record."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir() and any(p.glob("*.json"))
        )

    def records(self, name: str) -> list[dict]:
        """Every record of one benchmark, oldest first (by seq)."""
        bench_dir = self.root / name
        if not bench_dir.is_dir():
            return []
        out = []
        for path in sorted(bench_dir.glob("*.json")):
            try:
                with open(path) as fh:
                    doc = json.load(fh)
            except (json.JSONDecodeError, OSError) as exc:
                raise SnapshotError(
                    f"corrupt history record {path}: {exc}"
                ) from exc
            if isinstance(doc, dict):
                out.append(doc)
        out.sort(key=lambda r: r.get("seq", 0))
        return out

    def latest(self, name: str) -> dict | None:
        """The newest record of one benchmark, or ``None``."""
        records = self.records(name)
        return records[-1] if records else None


# -- comparison ------------------------------------------------------------


@dataclass(frozen=True)
class EntryComparison:
    """One matched entry: baseline vs current."""

    key: tuple
    baseline_seconds: float
    current_seconds: float
    ratio: float
    #: Bootstrap CI over the min-of-k ratio; ``None`` without samples.
    ci_low: float | None
    ci_high: float | None
    #: ``ratio`` beyond threshold *and* statistically supported.
    regression: bool
    improvement: bool

    @property
    def label(self) -> str:
        return entry_label(self.key)

    @property
    def verdict(self) -> str:
        if self.regression:
            return "REGRESSION"
        if self.improvement:
            return "improved"
        return "ok"


@dataclass
class ComparisonResult:
    """Outcome of :func:`compare_documents`."""

    benchmark: str
    threshold: float
    entries: list = field(default_factory=list)
    #: Entry labels present in only one document.
    only_baseline: list = field(default_factory=list)
    only_current: list = field(default_factory=list)
    #: True when the two documents carry differing host fingerprints.
    host_mismatch: bool = False

    @property
    def regressions(self) -> list:
        return [e for e in self.entries if e.regression]

    @property
    def improvements(self) -> list:
        return [e for e in self.entries if e.improvement]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _bootstrap_ci(baseline: list, current: list) -> tuple[float, float]:
    """Deterministic bootstrap CI (2.5%..97.5%) of min(cur)/min(base)."""
    rng = random.Random(_BOOTSTRAP_SEED)
    nb, nc = len(baseline), len(current)
    ratios = []
    for _ in range(_BOOTSTRAP_RESAMPLES):
        b = min(baseline[rng.randrange(nb)] for _ in range(nb))
        c = min(current[rng.randrange(nc)] for _ in range(nc))
        if b > 0:
            ratios.append(c / b)
    if not ratios:
        return (1.0, 1.0)
    ratios.sort()
    lo = ratios[int(0.025 * len(ratios))]
    hi = ratios[min(len(ratios) - 1, int(0.975 * len(ratios)))]
    return (lo, hi)


def _compare_entry(base: dict, cur: dict, key: tuple,
                   threshold: float) -> EntryComparison | None:
    t_base = _entry_seconds(base)
    t_cur = _entry_seconds(cur)
    if t_base is None or t_cur is None or t_base <= 0:
        return None
    ratio = t_cur / t_base
    s_base = _entry_samples(base)
    s_cur = _entry_samples(cur)
    ci_low = ci_high = None
    if s_base and s_cur:
        ci_low, ci_high = _bootstrap_ci(s_base, s_cur)
        # beyond threshold AND the CI excludes "no change"
        regression = ratio > 1.0 + threshold and ci_low > 1.0
        improvement = ratio < 1.0 - threshold and ci_high < 1.0
    else:
        regression = ratio > 1.0 + threshold
        improvement = ratio < 1.0 - threshold
    return EntryComparison(
        key=key,
        baseline_seconds=t_base,
        current_seconds=t_cur,
        ratio=ratio,
        ci_low=ci_low,
        ci_high=ci_high,
        regression=regression,
        improvement=improvement,
    )


def compare_documents(baseline: dict, current: dict,
                      threshold: float = 0.10,
                      obs=None) -> ComparisonResult:
    """Match entries of two benchmark documents and judge each ratio.

    ``threshold`` is the fractional slowdown that counts (default 10%);
    with repeat samples on both sides the call additionally demands the
    bootstrap CI of the min-of-k ratio exclude 1.0, so a noisy single
    outlier repeat cannot fail a gate on its own.
    """
    from . import NULL_OBS

    obs = obs or NULL_OBS
    result = ComparisonResult(
        benchmark=current.get("benchmark") or baseline.get("benchmark") or "?",
        threshold=float(threshold),
    )
    base_entries = {
        entry_key(e): e for e in baseline.get("entries", ()) if isinstance(e, dict)
    }
    cur_entries = {
        entry_key(e): e for e in current.get("entries", ()) if isinstance(e, dict)
    }
    for key in base_entries:
        if key not in cur_entries:
            result.only_baseline.append(entry_label(key))
    for key, cur in cur_entries.items():
        if key not in base_entries:
            result.only_current.append(entry_label(key))
            continue
        cmp = _compare_entry(base_entries[key], cur, key, result.threshold)
        if cmp is not None:
            result.entries.append(cmp)
    result.entries.sort(key=lambda e: e.key)
    host_a, host_b = baseline.get("host"), current.get("host")
    result.host_mismatch = bool(host_a and host_b and host_a != host_b)
    obs.metrics.counter("perf.history.comparisons_total").inc()
    obs.metrics.gauge("perf.history.regressions").set(len(result.regressions))
    return result


# -- rendering -------------------------------------------------------------


def render_comparison(result: ComparisonResult) -> str:
    """The ``repro perf diff`` table (empty string without entries)."""
    from ..perf.report import Table

    if not result.entries:
        return ""
    table = Table(
        ["entry", "base_s", "cur_s", "ratio", "ci95", "verdict"],
        title=(
            f"Benchmark diff: {result.benchmark} "
            f"(threshold {result.threshold:.0%})"
        ),
    )
    for e in result.entries:
        ci = (
            f"[{e.ci_low:.3f}, {e.ci_high:.3f}]"
            if e.ci_low is not None
            else "-"
        )
        table.add_row(
            e.label, e.baseline_seconds, e.current_seconds,
            f"{e.ratio:.3f}", ci, e.verdict,
        )
    lines = [table.render()]
    if result.host_mismatch:
        lines.append(
            "note: host fingerprints differ — ratios compare machines, "
            "not commits"
        )
    for label in result.only_baseline:
        lines.append(f"note: entry only in baseline: {label}")
    for label in result.only_current:
        lines.append(f"note: entry only in current:  {label}")
    return "\n".join(lines)


def render_trend(records: list, benchmark: str, max_entries: int = 8) -> str:
    """Per-entry time trajectory across history records.

    One row per (record, entry); ``vs_first`` is the ratio against the
    oldest record carrying that entry.
    """
    from ..perf.report import Table

    series: dict[tuple, list] = {}
    for rec in records:
        seq = rec.get("seq", 0)
        for entry in rec.get("entries", ()):
            if not isinstance(entry, dict):
                continue
            seconds = _entry_seconds(entry)
            if seconds is None:
                continue
            series.setdefault(entry_key(entry), []).append((seq, seconds))
    if not series:
        return ""
    table = Table(
        ["entry", "seq", "seconds", "vs_first"],
        title=f"Benchmark trend: {benchmark} ({len(records)} records)",
    )
    shown = 0
    for key in sorted(series):
        if shown >= max_entries:
            table_note = len(series) - shown
            return table.render() + (
                f"\n({table_note} more entries — raise max_entries)"
            )
        shown += 1
        points = series[key]
        first = points[0][1]
        for seq, seconds in points:
            ratio = seconds / first if first > 0 else float("nan")
            table.add_row(entry_label(key), seq, seconds, f"{ratio:.3f}")
    return table.render()
