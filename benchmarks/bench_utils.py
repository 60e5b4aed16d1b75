"""Shared helpers for the benchmark suite.

Every benchmark emits its "paper vs measured" table through
:func:`emit`, which both prints it (visible with ``pytest -s``) and
writes it under ``benchmarks/results/`` so the tables survive pytest's
output capture.  EXPERIMENTS.md is assembled from those files.

:func:`emit_json` is the machine-readable twin: it writes a structured
result document (``benchmarks/results/<name>.json``, or any explicit
path such as the repo-root ``BENCH_kernels.json`` baseline) so the
perf trajectory can be tracked across commits by tooling instead of by
eyeball.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.history import SCHEMA_VERSION, BenchHistory, host_fingerprint
from repro.perf import Table

RESULTS_DIR = Path(__file__).parent / "results"
HISTORY_DIR = RESULTS_DIR / "history"


def emit(table: Table, name: str) -> Path:
    """Print a table and persist it to ``benchmarks/results/<name>.txt``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = table.render()
    print()
    print(text)
    path = RESULTS_DIR / f"{name}.txt"
    # append: one experiment may emit several tables
    with open(path, "a") as f:
        f.write(text + "\n\n")
    return path


def emit_json(document: dict, name: str, path: Path | str | None = None,
              history: bool = False) -> Path:
    """Persist a machine-readable benchmark document (schema v2).

    ``document`` must be JSON-serialisable; ``"benchmark": name``, a
    ``schema_version`` and a host fingerprint (Python, CPU counts, the
    kernel engine's resolved threads and tier, NumPy — see
    :func:`repro.obs.history.host_fingerprint`) are stamped in so later
    comparisons can tell a code regression from a machine change.
    Default destination is ``benchmarks/results/<name>.json``; pass
    ``path`` to write elsewhere (e.g. a repo-root ``BENCH_*.json``
    baseline).  ``history=True`` additionally appends the document to
    the bench-history store (``benchmarks/results/history/``) read by
    ``repro perf diff`` / ``trend`` / ``gate``.
    """
    document = {"benchmark": name, "schema_version": SCHEMA_VERSION, **document}
    document.setdefault("host", host_fingerprint())
    if path is None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.json"
    path = Path(path)
    with open(path, "w") as f:
        json.dump(document, f, indent=2, sort_keys=False)
        f.write("\n")
    if history:
        BenchHistory(HISTORY_DIR).append(document)
    return path


def fresh(name: str) -> None:
    """Remove previous results files so re-runs do not accumulate."""
    for suffix in (".txt", ".json"):
        path = RESULTS_DIR / f"{name}{suffix}"
        if path.exists():
            path.unlink()
