#!/usr/bin/env python3
"""Lint: every fault kind must be implemented, injectable, and tested.

For each member of :class:`repro.resilience.FaultKind` this check
requires:

1. an injector implementation — a ``_inject_<kind.value>`` method on
   :class:`repro.resilience.FaultInjector` (injection dispatches by
   name, so a missing method is a runtime AttributeError waiting for
   the first plan that schedules that kind);
2. an injection *site* — the kind must belong to a scheduling domain in
   :data:`repro.resilience.FAULT_DOMAINS`, and that domain's driver
   method (``apply_due`` for ``machine``, ``rank_actions`` for
   ``rank``) must both exist on the
   injector and be called somewhere in ``src/repro`` outside
   ``faults.py`` itself — a fault kind whose domain no subsystem drives
   can never fire;
3. at least one test referencing the kind — ``FaultKind.<NAME>`` or the
   string value ``"<kind.value>"`` somewhere under ``tests/``.

Pure standard library; run::

    python tools/check_fault_matrix.py [tests_dir]

Defaults to the repository's ``tests`` tree.  Exit code 1 on gaps.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.resilience import FAULT_DOMAINS, FaultInjector, FaultKind  # noqa: E402

__all__ = [
    "DOMAIN_DRIVERS",
    "missing_injectors",
    "missing_domains",
    "undriven_domains",
    "untested_kinds",
    "check",
    "main",
]

#: domain -> the injector method a subsystem must call to drive it
DOMAIN_DRIVERS = {
    "machine": "apply_due",
    "rank": "rank_actions",
}


def missing_injectors() -> list[str]:
    """Fault kinds without a ``_inject_*`` method on the injector."""
    return [
        kind.value
        for kind in FaultKind
        if not callable(getattr(FaultInjector, f"_inject_{kind.value}", None))
    ]


def missing_domains() -> list[str]:
    """Fault kinds not mapped to a scheduling domain."""
    return [
        kind.value
        for kind in FaultKind
        if FAULT_DOMAINS.get(kind) not in DOMAIN_DRIVERS
    ]


def undriven_domains(src_dir: Path | None = None) -> list[str]:
    """Domains whose driver method nothing in ``src/repro`` calls.

    ``faults.py`` itself is excluded — the driver being *defined* there
    is not an injection site; some other subsystem must invoke it.
    """
    src_dir = src_dir or (REPO_ROOT / "src" / "repro")
    corpus = "\n".join(
        p.read_text()
        for p in sorted(src_dir.rglob("*.py"))
        if p.name != "faults.py"
    )
    out = []
    for domain, driver in sorted(DOMAIN_DRIVERS.items()):
        if not callable(getattr(FaultInjector, driver, None)):
            out.append(f"{domain} (driver {driver} not on FaultInjector)")
        elif f".{driver}(" not in corpus:
            out.append(f"{domain} (no call site of {driver}() in {src_dir})")
    return out


def untested_kinds(tests_dir: Path) -> list[str]:
    """Fault kinds no test file mentions (by enum name or string value)."""
    corpus = "\n".join(
        p.read_text() for p in sorted(tests_dir.rglob("*.py"))
    )
    out = []
    for kind in FaultKind:
        if f"FaultKind.{kind.name}" in corpus or f'"{kind.value}"' in corpus:
            continue
        out.append(kind.value)
    return out


def check(tests_dir: Path, src_dir: Path | None = None) -> list[str]:
    """Human-readable gap messages."""
    problems = []
    for kind in missing_injectors():
        problems.append(
            f"FaultKind {kind!r} has no FaultInjector._inject_{kind} "
            "implementation"
        )
    for kind in missing_domains():
        problems.append(
            f"FaultKind {kind!r} has no scheduling domain in FAULT_DOMAINS "
            "— nothing will ever fire it"
        )
    for msg in undriven_domains(src_dir):
        problems.append(f"fault domain {msg} has no injection site")
    if tests_dir.is_dir():
        for kind in untested_kinds(tests_dir):
            problems.append(
                f"FaultKind {kind!r} is never referenced by a test under "
                f"{tests_dir}"
            )
    else:
        problems.append(f"tests directory not found: {tests_dir}")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    tests_dir = Path(argv[0]) if argv else REPO_ROOT / "tests"
    problems = check(tests_dir)
    for msg in problems:
        print(msg)
    if problems:
        print(f"{len(problems)} fault-matrix gap(s)")
        return 1
    print(
        f"fault matrix ok ({len(list(FaultKind))} kinds, "
        f"{len(DOMAIN_DRIVERS)} driven domains)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
