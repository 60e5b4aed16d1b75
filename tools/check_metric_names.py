#!/usr/bin/env python3
"""Lint: literal metric names and the catalogue must agree both ways.

Walks python sources for calls of the form ``<expr>.counter("name")``,
``<expr>.gauge("name")`` and ``<expr>.histogram("name")`` and fails
when a literal name is missing from
:data:`repro.obs.catalogue.METRIC_CATALOGUE` (dynamic families listed
in ``DYNAMIC_PREFIXES`` are admitted), or when the declared kind does
not match the accessor used.  Names built at runtime (f-strings etc.)
are skipped — they must belong to a declared dynamic family, which the
runtime registry's strict mode can enforce.

The reverse holds too (:func:`unregistered`): a catalogue entry that no
literal ``.counter/.gauge/.histogram(...)`` call in the scanned paths
registers is flagged, except names under ``DYNAMIC_PREFIXES``.  That
half is complete only when the paths cover every registration site, as
the default paths do.

The catalogue itself is validated too (:func:`check_catalogue`): every
declared name must satisfy the naming convention, carry a known kind
and a help string, and declared metric families (``hybrid.*`` etc.)
must not collide with the dynamic prefixes.

Pure standard library; run::

    python tools/check_metric_names.py [paths...]

Defaults to the repository's ``src`` tree plus ``benchmarks`` and
``tools`` (everything that registers metrics).  Exit code 1 on
violations.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.catalogue import (  # noqa: E402
    DYNAMIC_PREFIXES,
    METRIC_CATALOGUE,
    NAME_RE,
    is_declared,
)

__all__ = [
    "DEFAULT_PATHS",
    "find_metric_calls",
    "check_file",
    "check_paths",
    "check_catalogue",
    "unregistered",
    "main",
]

#: Everything that registers metrics.
DEFAULT_PATHS = [REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "tools"]

#: Accessor method name -> metric kind it creates.
_ACCESSORS = {"counter": "counter", "gauge": "gauge", "histogram": "histogram"}

#: The kinds a catalogue entry may declare.
_KINDS = frozenset(_ACCESSORS.values())


def find_metric_calls(tree: ast.AST):
    """Yield ``(lineno, kind, name)`` for literal-name metric registrations."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        kind = _ACCESSORS.get(node.func.attr)
        if kind is None or not node.args:
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            yield node.lineno, kind, arg.value


def check_file(path: Path) -> list[str]:
    """Human-readable violation messages for one python file."""
    try:
        tree = ast.parse(path.read_text(), filename=str(path))
    except SyntaxError as exc:
        return [f"{path}: cannot parse: {exc}"]
    problems = []
    for lineno, kind, name in find_metric_calls(tree):
        if not NAME_RE.match(name):
            problems.append(
                f"{path}:{lineno}: metric name {name!r} violates the naming "
                "convention (dotted lower-case)"
            )
        elif not is_declared(name):
            problems.append(
                f"{path}:{lineno}: metric {name!r} is not declared in "
                "repro.obs.catalogue.METRIC_CATALOGUE"
            )
        else:
            declared = METRIC_CATALOGUE.get(name)
            if declared is not None and declared[0] != kind:
                problems.append(
                    f"{path}:{lineno}: metric {name!r} is declared as "
                    f"{declared[0]} but registered via .{kind}()"
                )
    return problems


def _python_files(paths):
    for p in map(Path, paths):
        yield from sorted(p.rglob("*.py")) if p.is_dir() else [p]


def check_paths(paths) -> list[str]:
    """Violations across files and/or directory trees."""
    problems = []
    for f in _python_files(paths):
        problems.extend(check_file(f))
    return problems


def unregistered(paths, catalogue=None) -> list[str]:
    """Catalogue entries that no literal registration in ``paths`` names."""
    catalogue = METRIC_CATALOGUE if catalogue is None else catalogue
    registered = set()
    for f in _python_files(paths):
        try:
            tree = ast.parse(f.read_text(), filename=str(f))
        except SyntaxError:
            continue  # check_file reports it
        registered.update(name for _, _, name in find_metric_calls(tree))
    return [
        f"catalogue: {name!r} is declared but no scanned source registers it"
        for name in catalogue
        if name not in registered
        and not any(name.startswith(p) for p in DYNAMIC_PREFIXES)
    ]


def check_catalogue(catalogue=None) -> list[str]:
    """Self-validation of the declared catalogue."""
    catalogue = METRIC_CATALOGUE if catalogue is None else catalogue
    problems = []
    for name, entry in catalogue.items():
        if not NAME_RE.match(name):
            problems.append(
                f"catalogue: declared name {name!r} violates the naming "
                "convention (dotted lower-case)"
            )
        if len(entry) != 2 or entry[0] not in _KINDS:
            problems.append(
                f"catalogue: {name!r} must declare (kind, help) with kind "
                f"in {sorted(_KINDS)}, got {entry!r}"
            )
        elif not entry[1]:
            problems.append(f"catalogue: {name!r} has an empty help string")
        if any(name.startswith(p) for p in DYNAMIC_PREFIXES) and name not in (
            # the seed event counters double as documentation of the family
            "events.escape_total",
            "events.merger_total",
            "events.close_encounter_total",
        ):
            problems.append(
                f"catalogue: {name!r} shadows a dynamic prefix; declare it "
                "in DYNAMIC_PREFIXES terms or rename the family"
            )
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paths = argv or DEFAULT_PATHS
    problems = check_catalogue() + check_paths(paths) + unregistered(paths)
    for msg in problems:
        print(msg)
    if problems:
        print(f"{len(problems)} undeclared/ill-typed/unregistered metric name(s)")
        return 1
    print("metric names ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
