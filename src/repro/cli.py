"""Command-line interface: ``python -m repro <command>``.

The main entry points:

``run``
    Integrate a scaled paper disk with a chosen force backend and
    print run statistics (block counts, energy error, Tflops model for
    the GRAPE backend).  ``--trace-out`` / ``--metrics-out`` enable the
    :mod:`repro.obs` instrumentation and export a Chrome-trace JSON /
    Prometheus text file; ``--profile`` prints the phase-profiler
    hotspot table after the run; ``report --metrics`` renders the
    paper-style time breakdown from the exposition file.

``perf``
    Evaluate the GRAPE-6 timing model for a given machine shape,
    particle count and block size — the PERF-TFLOPS analysis without
    running a simulation.  Its subcommands read the bench-history
    store: ``perf diff`` (latest vs previous record, or two explicit
    documents), ``perf trend`` (trajectory per entry), ``perf gate``
    (committed ``BENCH_*.json`` baselines vs latest history; exits 1 on
    a statistically supported slowdown).

``top``
    Live view of a managed run directory: tails ``run.jsonl`` and
    redraws progress, event counts and health events until the final
    record lands (``--once`` for a single snapshot).

``info``
    Print the paper's constants and the machine configurations.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from dataclasses import fields

from .runio.spec import RunSpec

__all__ = ["main", "build_parser"]

_T_END = 20.0
_CADENCE = {  # managed-run cadence flags: type, metavar and help of each
    "snapshot_interval": (float, "T", "snapshot cadence in simulation time"),
    "diagnostics_interval": (float, "T", "energy-accounting cadence in simulation time"),
    "checkpoint_interval": (int, "BLOCKS", "checkpoint every BLOCKS block steps"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SC2002 GRAPE-6 planetesimal simulation reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scaled paper disk")
    for f in fields(RunSpec):
        p_run.add_argument(
            _flag(f.name), type=type(f.default), default=f.default,
            choices=f.metadata["choices"], help=f.metadata["help"],
        )
    p_run.add_argument("--t-end", type=float, default=_T_END,
                       help="end time [code units]")
    p_run.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome-trace/Perfetto JSON of the run (enables tracing)",
    )
    p_run.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write Prometheus text exposition of run metrics (enables metrics)",
    )
    p_run.add_argument(
        "--run-dir", metavar="DIR", default=None,
        help="managed production run: snapshots, run log, checkpoints in DIR",
    )
    for name, (kind, metavar, help) in _CADENCE.items():
        p_run.add_argument(_flag(name), type=kind, default=None,
                           metavar=metavar, help=help + " (needs --run-dir)")
    p_run.add_argument(
        "--resume", metavar="DIR", default=None,
        help="continue a managed run from the latest checkpoint in DIR "
             "(which holds its recipe, end time and cadences)",
    )
    p_run.add_argument(
        "--profile", action="store_true",
        help="print the phase-profiler hotspot table after the run "
             "(enables tracing)",
    )

    p_perf = sub.add_parser(
        "perf",
        help="evaluate the GRAPE-6 timing model / query bench history",
    )
    p_perf.add_argument("--n", type=int, default=1_800_000, help="total particles")
    p_perf.add_argument("--block", type=int, default=3000, help="active block size")
    p_perf.add_argument(
        "--config", choices=("board", "node", "cluster", "full"), default="full",
        help="machine shape",
    )
    perf_sub = p_perf.add_subparsers(dest="perf_command")

    def _history_flags(p, threshold=True):
        p.add_argument(
            "--history", metavar="DIR", default="benchmarks/results/history",
            help="bench-history store root",
        )
        p.add_argument(
            "--benchmark", metavar="NAME", default=None,
            help="restrict to one benchmark (default: all with history)",
        )
        if threshold:
            p.add_argument(
                "--threshold", type=float, default=0.10, metavar="FRAC",
                help="fractional slowdown that counts as a regression",
            )

    p_diff = perf_sub.add_parser(
        "diff", help="compare the two newest history records per benchmark"
    )
    _history_flags(p_diff)
    p_diff.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="explicit baseline document (with --current: skip the history)",
    )
    p_diff.add_argument(
        "--current", metavar="PATH", default=None,
        help="explicit current document (with --baseline)",
    )

    p_trend = perf_sub.add_parser(
        "trend", help="per-entry time trajectory across the history"
    )
    _history_flags(p_trend, threshold=False)

    p_gate = perf_sub.add_parser(
        "gate",
        help="fail (exit 1) when the latest history regresses vs the "
             "committed BENCH_*.json baselines",
    )
    _history_flags(p_gate)
    p_gate.add_argument(
        "--baseline", metavar="PATH", action="append", default=None,
        help="baseline document(s) (default: ./BENCH_*.json); repeatable",
    )
    p_gate.add_argument(
        "--current", metavar="PATH", default=None,
        help="explicit current document (default: latest history record)",
    )

    p_top = sub.add_parser(
        "top", help="live view of a managed run directory (run.jsonl)"
    )
    p_top.add_argument(
        "directory", help="run directory (or a run.jsonl path directly)"
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh cadence",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (no polling)",
    )

    sub.add_parser("info", help="print paper constants and machine shapes")

    p_st = sub.add_parser("selftest", help="run the GRAPE-6 hardware self-test")
    p_st.add_argument(
        "--config", choices=("board", "node", "cluster", "full"), default="node",
    )
    p_st.add_argument("--precision", action="store_true",
                      help="test the reduced-precision pipeline emulation")

    p_rep = sub.add_parser(
        "report", help="print the collected benchmark result tables"
    )
    p_rep.add_argument(
        "--results-dir", default="benchmarks/results",
        help="directory of tables written by pytest benchmarks",
    )
    p_rep.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="render the paper-style time breakdown from a metrics file "
             "written by `repro run --metrics-out`",
    )
    p_rep.add_argument(
        "--trace", metavar="PATH", default=None,
        help="render the phase-profile top table from an exported trace "
             "(the Chrome-trace JSON of `repro run --trace-out`)",
    )
    p_rep.add_argument(
        "--run-log", metavar="PATH", default=None,
        help="render the health events of a managed run "
             "(a run.jsonl file or its run directory)",
    )
    return parser


def _config_for(name: str):
    from .grape import Grape6Config

    return {
        "board": Grape6Config.single_board,
        "node": Grape6Config.single_node,
        "cluster": Grape6Config.single_cluster,
        "full": Grape6Config.paper_full_system,
    }[name]()


def _emit_run_observability(args, obs) -> int:
    """Shared ``run`` tail: export trace/metrics files, print the profile."""
    if obs is None:
        return 0
    try:
        if args.trace_out:
            path = obs.export_chrome_trace(args.trace_out)
            print(f"trace written:    {path} "
                  f"({len(obs.tracer.spans)} spans; load in chrome://tracing)")
        if args.metrics_out:
            path = obs.export_prometheus(args.metrics_out)
            print(f"metrics written:  {path} ({len(obs.metrics)} series)")
    except OSError as exc:
        print(f"error: cannot write observability output: {exc}")
        return 1
    breakdown = obs.render_time_breakdown()
    if breakdown:
        print(f"\n{breakdown}")
    if args.profile:
        from .obs import profile_spans

        text = profile_spans(obs.tracer).render()
        print(f"\n{text or 'no spans recorded — nothing to profile'}")
    return 0


def _checkpoint_spec(directory):
    """The newest loadable checkpoint's :class:`RunSpec`, and its path."""
    from pathlib import Path

    from .errors import CheckpointError, ConfigurationError
    from .resilience import CheckpointManager

    ckpt_dir = Path(directory) / "checkpoints"
    if not ckpt_dir.is_dir() or not any(ckpt_dir.glob("ckpt_*.npz")):
        raise CheckpointError(
            f"no checkpoint found in {ckpt_dir} — start the "
            "run with `repro run --run-dir DIR --checkpoint-interval N` first"
        )
    manager = CheckpointManager(ckpt_dir)
    # fallback-aware: a truncated/corrupt newest checkpoint is skipped
    _, state = manager.load_latest()
    path = manager.loaded_path
    try:
        return RunSpec.from_config(state.get("config")), path
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path.name}: {exc}") from None


def _cmd_run(args) -> int:
    """One spec and one backend, then a plain, managed or resumed run."""
    from .core import KeplerField
    from .errors import ConfigurationError
    from .obs import Observability
    from .perf import run_scaled_disk
    from .runio import ProductionRun

    # a flag this run would not use is an error, not a no-op
    ignored = [] if args.run_dir else [k for k in _CADENCE if getattr(args, k) is not None]
    why = "managed-run cadence needs --run-dir"
    if args.resume:
        ignored += [f.name for f in fields(RunSpec) if getattr(args, f.name) != f.default]
        ignored += ["t_end"] * (args.t_end != _T_END)
        ignored += ["run_dir"] * bool(args.run_dir)
        why = "the checkpoint holds the run's recipe, end time and cadence"
    if ignored:
        raise ConfigurationError(f"{why}: {', '.join(map(_flag, ignored))}")
    if args.resume:
        spec, path = _checkpoint_spec(args.resume)
    else:
        spec = RunSpec(**{f.name: getattr(args, f.name) for f in fields(RunSpec)})

    observed = args.trace_out or args.metrics_out or args.profile
    obs = Observability() if observed else None
    with closing(spec.build_backend()) as backend:
        if args.resume:
            run = ProductionRun.resume(args.resume, backend, external_field=KeplerField(),
                                       timestep_params=spec.timestep_params(), obs=obs)
            print(f"resuming from {path.name} at T = {run.sim.time:g}")
            print(run.execute().summary())
        elif args.run_dir:
            run = ProductionRun(spec.simulation(backend, obs), args.run_dir,
                                **{k: getattr(args, k) for k in _CADENCE},
                                checkpoint_metadata=spec.to_config(), run_id=f"disk-n{spec.n}")
            print(run.execute(args.t_end).summary())
        else:
            res = run_scaled_disk(backend, n=spec.n, t_end=args.t_end, seed=spec.seed,
                                  eta=spec.eta, dt_max=spec.dt_max, obs=obs)
            print(f"particles:        {res.n}")
            print(f"integrated to:    T = {res.t_end:g}")
            print(f"block steps:      {res.block_steps}")
            print(f"particle steps:   {res.particle_steps}")
            print(f"mean block size:  {res.mean_block:.1f}")
            print(f"interactions:     {res.interactions:,}")
            print(f"energy error:     {res.energy_error:.3e}")
            print(f"python wall:      {res.wall_seconds:.2f} s "
                  f"({res.interactions_per_second:.3g} interactions/s)")
            machine = getattr(backend, "machine", None)
            if machine is not None:
                print(f"GRAPE model:      {machine.totals.total_seconds:.4f} s, "
                      f"{machine.achieved_flops() / 1e12:.3f} Tflops "
                      f"({machine.efficiency():.1%} of peak)")
    return _emit_run_observability(args, obs)


def _load_bench_doc(path):
    """One benchmark JSON document; SnapshotError on missing/corrupt."""
    import json
    from pathlib import Path

    from .errors import SnapshotError

    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"cannot read benchmark document {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SnapshotError(f"{path} is not a benchmark document (want an object)")
    return doc


def _history_names(hist, args) -> list[str]:
    return [args.benchmark] if args.benchmark else hist.benchmarks()


def _cmd_perf_diff(args) -> int:
    from .errors import ConfigurationError
    from .obs import BenchHistory, compare_documents, render_comparison

    if bool(args.baseline) != bool(args.current):
        raise ConfigurationError(
            "--baseline and --current must be given together"
        )
    regressions = 0
    if args.baseline:
        result = compare_documents(
            _load_bench_doc(args.baseline), _load_bench_doc(args.current),
            threshold=args.threshold,
        )
        print(render_comparison(result) or "no comparable entries")
        regressions += len(result.regressions)
    else:
        hist = BenchHistory(args.history)
        names = _history_names(hist, args)
        if not names:
            print(f"no benchmark history under {hist.root} — run the "
                  "benchmarks first (pytest benchmarks/ --benchmark-only)")
            return 0
        for name in names:
            records = hist.records(name)
            if len(records) < 2:
                print(f"{name}: {len(records)} history record(s) — "
                      "need two to diff")
                continue
            result = compare_documents(
                records[-2], records[-1], threshold=args.threshold
            )
            print(render_comparison(result) or f"{name}: no comparable entries")
            print()
            regressions += len(result.regressions)
    if regressions:
        print(f"{regressions} significant regression(s) found")
        return 1
    return 0


def _cmd_perf_trend(args) -> int:
    from .obs import BenchHistory, render_trend

    hist = BenchHistory(args.history)
    names = _history_names(hist, args)
    if not names:
        print(f"no benchmark history under {hist.root}")
        return 0
    for name in names:
        records = hist.records(name)
        text = render_trend(records, name)
        print(text if text else f"{name}: no records with timed entries")
        print()
    return 0


def _cmd_perf_gate(args) -> int:
    from pathlib import Path

    from .obs import BenchHistory, compare_documents, render_comparison

    baselines = args.baseline or [
        str(p) for p in sorted(Path(".").glob("BENCH_*.json"))
    ]
    if not baselines:
        print("gate: no BENCH_*.json baselines found — nothing to check")
        return 0
    hist = BenchHistory(args.history)
    failed = checked = 0
    for path in baselines:
        base = _load_bench_doc(path)
        name = base.get("benchmark")
        if args.benchmark and name != args.benchmark:
            continue
        if args.current:
            current = _load_bench_doc(args.current)
            if current.get("benchmark") != name:
                continue
        else:
            current = hist.latest(name) if name else None
        if current is None:
            print(f"gate: no history record for {name!r} — skipped (advisory)")
            continue
        checked += 1
        result = compare_documents(base, current, threshold=args.threshold)
        print(render_comparison(result) or f"{name}: no comparable entries")
        print()
        if result.regressions:
            failed += 1
    if failed:
        print(f"gate FAILED: {failed} of {checked} benchmark(s) regressed "
              f"beyond {args.threshold:.0%}")
        return 1
    print(f"gate passed: {checked} benchmark(s) checked")
    return 0


def _cmd_perf(args) -> int:
    sub = getattr(args, "perf_command", None)
    if sub == "diff":
        return _cmd_perf_diff(args)
    if sub == "trend":
        return _cmd_perf_trend(args)
    if sub == "gate":
        return _cmd_perf_gate(args)

    from .grape import Grape6TimingModel

    cfg = _config_for(args.config)
    model = Grape6TimingModel(cfg)
    step = model.block_step(args.block, args.n)
    useful = args.block * args.n * 57
    print(f"machine:          {cfg.total_chips} chips, "
          f"{cfg.peak_flops / 1e12:.2f} Tflops peak")
    print(f"workload:         block {args.block} of N = {args.n:,}")
    print(f"step time:        {step.total * 1e3:.3f} ms")
    for name in ("host", "pci", "lvds", "pipe", "gbe"):
        val = getattr(step, name)
        print(f"  {name:<5}           {val * 1e3:8.3f} ms ({val / step.total:6.1%})")
    print(f"sustained:        {useful / step.total / 1e12:.2f} Tflops "
          f"({model.efficiency(args.block, args.n):.1%} of peak)")
    return 0


def _cmd_info(_args) -> int:
    from . import constants as c
    from .grape import Grape6Config

    print("Paper: Makino, Kokubo, Fukushige & Daisaka, SC 2002")
    print(f"  N planetesimals:    {c.PAPER_N_PLANETESIMALS:,} (+2 protoplanets)")
    print(f"  ring:               {c.PAPER_RING_INNER_AU:g}-{c.PAPER_RING_OUTER_AU:g} AU, "
          f"Sigma ~ r^{c.PAPER_SURFACE_DENSITY_EXPONENT:g}")
    print(f"  mass function:      N(m) ~ m^{c.PAPER_MASS_EXPONENT:g}")
    print(f"  softening:          {c.PAPER_SOFTENING_AU:g} AU")
    print(f"  achieved/peak:      {c.PAPER_ACHIEVED_TFLOPS} / {c.PAPER_PEAK_TFLOPS} Tflops")
    print(f"  ops/interaction:    {c.FLOPS_PER_INTERACTION} "
          f"({c.FLOPS_PER_FORCE} force + {c.FLOPS_PER_JERK} jerk)")
    print("\nMachine shapes:")
    for name in ("board", "node", "cluster", "full"):
        cfg = _config_for(name)
        print(f"  {name:<8} {cfg.total_chips:>5} chips  "
              f"{cfg.peak_flops / 1e12:8.2f} Tflops peak  "
              f"{cfg.n_hosts:>3} host(s)")
    return 0


def _cmd_selftest(args) -> int:
    from .grape import Grape6Machine, self_test

    cfg = _config_for(args.config)
    machine = Grape6Machine(
        cfg, eps=0.008, mode="hierarchy", emulate_precision=args.precision
    )
    tol = 1e-2 if args.precision else 1e-10
    report = self_test(machine, rel_tol=tol)
    print(report.summary())
    for c in report.failures():
        print(f"  FAIL chip c{c.cluster}.n{c.node}.b{c.board}.{c.chip}: "
              f"max rel error {c.max_rel_error:.2e}")
    return 0 if report.all_ok else 1


def _cmd_report(args) -> int:
    from pathlib import Path

    printed_any = False
    if args.metrics:
        # missing/truncated exposition raises SnapshotError -> exit 2
        from .obs import parse_prometheus, render_time_breakdown

        metrics = parse_prometheus(args.metrics)
        breakdown = render_time_breakdown(metrics)
        if breakdown:
            print(breakdown)
            print()
            printed_any = True
        else:
            print(f"no GRAPE time breakdown in {args.metrics} "
                  "(run with --backend grape --metrics-out)")

    if args.trace:
        from .obs import profile_trace_file

        profile = profile_trace_file(args.trace)
        text = profile.render()
        if text:
            print(text)
            print()
            printed_any = True
        else:
            print(f"no spans in {args.trace} — nothing to profile")

    if args.run_log:
        from .obs import render_health_events
        from .runio.runlog import read_run_log

        log_path = Path(args.run_log)
        if log_path.is_dir():
            log_path = log_path / "run.jsonl"
        records = read_run_log(log_path)
        health = [r for r in records if r.get("kind") == "health"]
        text = render_health_events(health)
        if text:
            print(text)
            print()
        else:
            print(f"no health events in {log_path} — clean run")
        printed_any = True

    results = Path(args.results_dir)
    files = sorted(results.glob("*.txt"))
    if not files:
        if printed_any:
            return 0
        print(f"no result tables in {results}; "
              "run `pytest benchmarks/ --benchmark-only` first")
        return 1
    for f in files:
        print(f.read_text().rstrip())
        print()
    return 0


def _render_top(records, directory) -> str:
    """One ``repro top`` frame from the run-log records."""
    header = records[0] if records and records[0].get("kind") == "header" else {}
    samples = [r for r in records if r.get("kind") == "sample"]
    counts: dict[str, int] = {}
    for r in records:
        kind = r.get("kind", "?")
        if kind not in ("header", "sample"):
            counts[kind] = counts.get(kind, 0) + 1
    lines = [
        f"run {header.get('run_id', '?')} in {directory} — "
        f"n={header.get('n', '?')} t_end={header.get('t_end', '?')}"
    ]
    if samples:
        s = samples[-1]
        done = bool(s.get("note") == "final")
        err = s.get("energy_error")
        lines.append(
            f"  t={s.get('t', 0.0):g}  blocks={s.get('block_steps', 0):,}  "
            f"particle steps={s.get('particle_steps', 0):,}  "
            f"n={s.get('n', '?')}  mean block={s.get('mean_block', 0.0):.1f}"
        )
        if err is not None:
            lines.append(f"  |dE/E| = {err:.3e}"
                         + ("  [run complete]" if done else ""))
    else:
        lines.append("  no samples yet")
    if counts:
        lines.append(
            "  events: "
            + "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
    health = [r for r in records if r.get("kind") == "health"]
    if health:
        from .obs import render_health_events

        lines.append("")
        lines.append(render_health_events(health, limit=8))
    return "\n".join(lines)


def _cmd_top(args) -> int:
    import time as _time
    from pathlib import Path

    from .errors import SnapshotError
    from .runio.runlog import read_run_log

    target = Path(args.directory)
    log_path = target if target.suffix == ".jsonl" else target / "run.jsonl"
    while True:
        try:
            records = read_run_log(log_path)
        except SnapshotError:
            if args.once:
                raise
            records = []
        if records:
            if sys.stdout.isatty() and not args.once:  # pragma: no cover
                print("\x1b[2J\x1b[H", end="")
            print(_render_top(records, target))
            samples = [r for r in records if r.get("kind") == "sample"]
            if samples and samples[-1].get("note") == "final":
                return 0
        else:
            print(f"waiting for {log_path} ...")
        if args.once:
            return 0
        _time.sleep(args.interval)  # pragma: no cover - interactive loop


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code.

    Library failures (snapshot/checkpoint problems, GRAPE hardware
    errors, comm-model errors, bad configuration values such as a
    negative ``--theta``) exit with code 2 and a one-line message on
    stderr instead of a traceback.
    """
    from .errors import CommError, ConfigurationError, GrapeError, SnapshotError

    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "perf": _cmd_perf,
        "info": _cmd_info,
        "selftest": _cmd_selftest,
        "report": _cmd_report,
        "top": _cmd_top,
    }[args.command]
    try:
        return handler(args)
    except (SnapshotError, GrapeError, CommError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
