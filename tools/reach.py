#!/usr/bin/env python3
"""Report: which function bodies under ``src/repro`` the entry points never run.

A ``sys.setprofile`` hook (and ``threading.setprofile`` for the threads
started while it is on) records the code object of every Python
function entered while the entry points run, in this one process:

* the e2e benchmark's ``--smoke`` set (``benchmarks/e2e/run.py``);
* ``repro run`` on each backend (host, grape, tree, hybrid, spmd in both
  modes);
* a managed grape run with checkpoints, ``--profile``, ``--trace-out``
  and ``--metrics-out``, then its ``--resume``;
* ``repro perf``, ``perf gate``, ``info``, ``selftest``, ``top`` and
  ``report`` (on that run's metrics, trace and run log).

Every function of every module is then compiled from source; a line
counts as a *function-body line* when bytecode of a function (not the
module or a class body) maps to it, past the ``def`` line, and as
*unreached* when no function that ran covers it.  The report prints, per
module, the unreached and total body lines, then the unreached line
ranges.

The hook sees only this process.  Rank code that runs inside the
forked ``spmd --spmd-mode proc`` workers and the compiled tile object
are invisible to it, so their Python twins may read as unreached
although a worker ran them.  It is a report, not a gate: it exits 0.

Pure standard library; run::

    python tools/reach.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import io
import os
import sys
import tempfile
import threading
import traceback
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

__all__ = ["called_code", "body_lines", "unreached", "entry_points", "main"]


def called_code(fn, *args, **kwargs) -> set:
    """The code objects of every Python function entered while ``fn`` runs.

    Threads started during the call are hooked too; threads that were
    already running are not.
    """
    seen = set()

    def hook(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile(), threading.getprofile()
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    return set(seen)


def _functions(code):
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_NEWLOCALS:
                yield const
            yield from _functions(const)


def _body(code) -> set[int]:
    return {line for *_, line in code.co_lines()
            if line is not None and line != code.co_firstlineno}


def _key(code) -> tuple[str, int, str]:
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def body_lines(path) -> dict[tuple[str, int, str], set[int]]:
    """``(file, first line, name) -> body lines`` for each function of ``path``."""
    path = os.path.realpath(path)
    module = compile(Path(path).read_text(), path, "exec")
    return {_key(c): _body(c) for c in _functions(module)}


def unreached(root, called) -> dict[str, tuple[set[int], set[int]]]:
    """``module path -> (unreached, all)`` body lines under ``root``.

    ``called`` holds code objects (from :func:`called_code`); a line is
    reached when any function that ran covers it.
    """
    ran = {_key(c) for c in called}
    report = {}
    root = Path(root)
    for path in sorted(root.rglob("*.py")):
        every, reached = set(), set()
        for key, lines in body_lines(path).items():
            every |= lines
            if key in ran:
                reached |= lines
        report[path.relative_to(root).as_posix()] = (every - reached, every)
    return report


def _ranges(lines) -> str:
    out, lines = [], sorted(lines)
    for i, line in enumerate(lines):
        if i and line == lines[i - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def entry_points(work: Path) -> list[tuple[str, object]]:
    """``(label, zero-argument callable returning an exit code)`` pairs."""
    from repro.cli import main as repro

    def e2e_smoke():
        spec = importlib.util.spec_from_file_location(
            "e2e_run", REPO_ROOT / "benchmarks" / "e2e" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        return run.main(["--smoke", "-o", str(work / "e2e.json")])

    small = ["--n", "32", "--t-end", "2"]
    run_dir = work / "managed"
    obs = ["--trace-out", str(work / "trace.json"),
           "--metrics-out", str(work / "metrics.prom"), "--profile"]
    history = str(REPO_ROOT / "benchmarks" / "results" / "history")
    points = [("e2e --smoke", e2e_smoke)]
    points += [
        (f"run --backend {b}", lambda b=b: repro(["run", "--backend", b, *small]))
        for b in ("host", "grape", "tree", "hybrid", "spmd")
    ]
    points += [
        ("run --backend spmd --spmd-mode vm",
         lambda: repro(["run", "--backend", "spmd", "--spmd-mode", "vm", *small])),
        ("run --run-dir (managed grape)",
         lambda: repro(["run", "--backend", "grape", "--n", "32", "--t-end", "4",
                        "--run-dir", str(run_dir), "--checkpoint-interval", "5",
                        "--snapshot-interval", "1", "--diagnostics-interval", "1",
                        *obs])),
        ("run --resume", lambda: repro(["run", "--resume", str(run_dir), *obs])),
        ("perf", lambda: repro(["perf"])),
        ("perf gate", lambda: repro(["perf", "gate", "--history", history,
                                     "--baseline", str(REPO_ROOT / "BENCH_kernels.json")])),
        ("info", lambda: repro(["info"])),
        ("selftest", lambda: repro(["selftest"])),
        ("top --once", lambda: repro(["top", str(run_dir), "--once"])),
        ("report", lambda: repro([
            "report", "--results-dir", str(REPO_ROOT / "benchmarks" / "results"),
            "--metrics", str(work / "metrics.prom"),
            "--trace", str(work / "trace.json"), "--run-log", str(run_dir)])),
    ]
    return points


def _attempt(fn) -> str:
    """``fn()``'s exit code, or the traceback of what it raised: one
    failing entry point must not lose what the others reached."""
    try:
        return f"exit {fn()}"
    except Exception:
        return "raised\n" + traceback.format_exc()


def main() -> int:
    sys.path.insert(0, str(SRC))

    called = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        for label, fn in entry_points(Path(tmp)):
            outcome = []
            with contextlib.redirect_stdout(io.StringIO()):
                called |= called_code(lambda: outcome.append(_attempt(fn)))
            print(f"ran {label}: {outcome[0]}", file=sys.stderr)

    report = unreached(SRC / "repro", called)
    width = max(map(len, report))
    print(f"{'module':<{width}}  unreached   body")
    total_missed = total = 0
    for module, (missed, every) in report.items():
        total_missed += len(missed)
        total += len(every)
        if missed:
            mark = "  (never entered)" if missed == every else ""
            print(f"{module:<{width}}  {len(missed):>9}  {len(every):>5}{mark}")
            print(f"    {_ranges(missed)}")
    print(f"{'total':<{width}}  {total_missed:>9}  {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
