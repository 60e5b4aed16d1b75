#!/usr/bin/env python3
"""The repo benchmark: five stepping workloads, one foreground command.

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed 1] [--repeats 5]
        [--workload NAME] [--smoke] [-o FILE]
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs every workload (warm-up, timed repeats, one traced
repeat), prints every metric by name with its unit and writes the result
document.  The last form is one driver run (see ``BENCHMARK.json``): it
measures a single workload — at least three timed passes and at least
``S`` seconds of stepping — and prints one JSON object as its last line:
end-to-end metrics with ``--trace 0``, per-layer metrics (one untraced
and one traced pass) with ``--trace 1``.

Everything runs in this process, in the foreground; nothing is detached,
and the command returns only after every child it caused has ended.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Measure this checkout's sources, not whatever `repro` may be installed.
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostinfo  # noqa: E402
import spec  # noqa: E402

WORK_ROOT = ROOT / ".bench_e2e"
SCHEMA = "repro-e2e/1"

#: Global deadlines [s]: the whole set, and one driver run (the driver
#: allows 180 s).  Past it the command tears down and exits 3.
SET_DEADLINE_S = 1500.0
DRIVER_DEADLINE_S = 170.0
#: A driver run reports the median of at least this many timed passes.
DRIVER_MIN_PASSES = 3
#: The realisation every driver run integrates (its ``--seed`` only
#: draws the presentation, so that all seeds do the same work).
DRIVER_REALISATION = 1


# -- statistics -----------------------------------------------------------


def summarise(samples: list[float], unit: str) -> dict:
    """Median, quartiles and sample count of one timing."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "unit": unit, "median": statistics.median(samples),
        "q1": q1, "q3": q3, "n": len(samples), "samples": samples,
    }


# -- one workload ---------------------------------------------------------


def measure_workload(workload, inputs, work_dir: Path, passes: int,
                     seconds: float, traced: bool) -> dict:
    """Warm-up, timed passes (at least ``passes`` of them, and until
    ``seconds`` of stepping are accumulated), then optionally one traced
    pass."""
    import harness

    failures: list[str] = []
    attempted = failed = 0
    setups: list[float] = []
    builds: list[float] = []

    def set_up():
        samples, build_samples, problems = harness.setup_batch(
            workload, inputs, work_dir)
        setups.extend(samples)
        builds.extend(build_samples)
        failures.extend(f"setup: {p}" for p in problems)

    def op(result):
        nonlocal attempted, failed
        attempted += 1
        if not result.ok:
            failed += 1
            failures.extend(f"{result.kind}: {f}" for f in result.failures)
        return result

    # set-ups are measured in batches spread over the run, see setup_batch
    set_up()
    op(harness.run_pass(workload, inputs, workload.t_end / 8.0, work_dir,
                        kind="warmup"))
    set_up()

    timed: list = []
    first = None
    tries = 0
    while True:
        result = op(harness.run_pass(workload, inputs, workload.t_end,
                                     work_dir, kind="timed", expect=first))
        set_up()
        tries += 1
        if result.ok:
            timed.append(result)
            first = first or result
        # a failed pass adds no stepping time: do not wait for more of it
        if tries >= passes and (
            not result.ok or sum(r.wall_s for r in timed) >= seconds
        ):
            break

    if first is not None and workload.backend_layer == "parallel":
        # the same inputs on the in-process reference gang must end in
        # the same counts and the same bits
        op(harness.run_pass(workload, inputs, workload.t_end, work_dir,
                            kind="reference", expect=first,
                            backend=spec.spmd_reference_backend()))

    doc = {
        "why": workload.why,
        "n_planetesimals": workload.n, "dt_max": workload.dt_max,
        "t_end": workload.t_end, "seed": inputs.seed,
        "shuffle": inputs.shuffle,
        "end_to_end": {}, "counts": {}, "per_layer": {},
    }
    if timed:
        walls = [r.wall_s for r in timed]
        rates = [r.particle_steps / r.wall_s for r in timed]
        units = {name: unit for name, unit, *_ in spec.END_TO_END}
        doc["end_to_end"] = {
            "wall_s": summarise(walls, units["wall_s"]),
            "psteps_per_s": summarise(rates, units["psteps_per_s"]),
            "setup_s": summarise(setups, units["setup_s"]),
        }
        n_total = workload.n + 2  # the default protoplanet pair
        doc["equiv_gflops"] = statistics.median(rates) * n_total * 57 / 1e9
        doc["counts"] = {
            "block_steps": first.block_steps,
            "particle_steps": first.particle_steps,
            "energy_error": first.energy_error,
            "digest": first.digest,
        }
        if inputs == harness.Inputs(seed=1) and workload.seed1_blocks:
            doc["counts"]["recorded_block_steps"] = workload.seed1_blocks

    if traced and first is not None:
        result = op(harness.run_pass(
            workload, inputs, workload.t_end, work_dir, kind="traced",
            expect=first, untraced_wall_s=statistics.median(walls),
        ))
        if result.ok:
            layers = dict(result.layers)
            layers["planetesimal.build_s"] = statistics.median(builds)
            doc["per_layer"] = {
                name: {"value": layers[name], "unit": unit}
                for name, unit, _ in spec.PER_LAYER if name in layers
            }
            doc["obs_cross_check"] = {
                "profile_spans_top": result.obs_profile,
                "counters": result.obs_counters,
            }
            doc["_spans"] = result.spans

    doc["ops_attempted"] = attempted
    doc["ops_failed"] = failed
    doc["failures"] = failures
    return doc


# -- reporting ------------------------------------------------------------


def print_workload(name: str, doc: dict) -> None:
    print(f"\n== {name}  (N={doc['n_planetesimals']}, dt_max={doc['dt_max']:g}, "
          f"t_end={doc['t_end']:g}, seed={doc['seed']}, "
          f"shuffle={doc['shuffle']})")
    for metric, s in doc["end_to_end"].items():
        print(f"  {metric:<28} {s['median']:>14.6g} {s['unit']:<17} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
    if "equiv_gflops" in doc:
        print(f"  {'equiv_gflops':<28} {doc['equiv_gflops']:>14.6g} "
              f"{'Gflops':<17} [informational: psteps/s x N x 57]")
    for key, value in doc["counts"].items():
        print(f"  {key:<28} {value!s:>14}")
    for metric, entry in doc["per_layer"].items():
        print(f"  {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'ops_attempted':<28} {doc['ops_attempted']:>14}")
    print(f"  {'ops_failed':<28} {doc['ops_failed']:>14}")
    for failure in doc["failures"]:
        print(f"  FAILED {failure}")


def driver_line(doc: dict, trace: bool) -> dict:
    """The one JSON object a driver run ends with."""
    if trace:
        measured = doc["per_layer"]
        # a layer the workload never enters did no work and took no time
        metrics = {
            name: {"value": measured.get(name, {}).get("value", 0.0),
                   "unit": unit}
            for name, unit, _ in spec.PER_LAYER
        }
    else:
        metrics = {
            name: {"value": s["median"], "unit": s["unit"]}
            for name, s in doc["end_to_end"].items()
        }
    return {
        "correct": doc["ops_failed"] == 0,
        "attempted": doc["ops_attempted"],
        "failed": doc["ops_failed"],
        "metrics": metrics,
    }


# -- set-to-set comparison ------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Print A vs B per end-to-end metric x workload; non-zero when a
    difference is wider than its bound or an exact count differs."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    common = [
        (name, a["workloads"][name], b["workloads"][name])
        for name in a["workloads"] if name in b["workloads"]
    ]
    wide = mismatched = 0
    print(f"{'workload':<15} {'metric':<13} {'A median':>12} {'B median':>12} "
          f"{'B vs A':>8} {'bound':>6}")
    for name, wa, wb in common:
        for metric, _unit, better, bound in spec.END_TO_END:
            if metric not in wa["end_to_end"] or metric not in wb["end_to_end"]:
                continue
            ma = wa["end_to_end"][metric]["median"]
            mb = wb["end_to_end"][metric]["median"]
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            flag = ""
            if abs(worse) > bound:
                wide += 1
                flag = "  <-- wider than bound"
            print(f"{name:<15} {metric:<13} {ma:>12.6g} {mb:>12.6g} "
                  f"{worse:>+8.1%} {bound:>6.0%}{flag}")
    print("\nexact counts (positive 'B vs A' above means B is worse):")
    for name, wa, wb in common:
        pairs = [(k, wa["counts"].get(k), wb["counts"].get(k))
                 for k in ("block_steps", "particle_steps", "energy_error",
                           "digest")]
        pairs += [
            (k, wa["per_layer"].get(k, {}).get("value"),
             wb["per_layer"].get(k, {}).get("value"))
            for k in spec.EXACT_COUNTS
        ]
        bad = [(k, va, vb) for k, va, vb in pairs if va != vb]
        mismatched += len(bad)
        for k, va, vb in bad:
            print(f"  MISMATCH {name} {k}: {va} vs {vb}")
        for side, w in (("A", wa), ("B", wb)):
            if w["ops_failed"]:
                mismatched += 1
                print(f"  FAILED OPS {name} in {side}: {w['ops_failed']}")
    if not mismatched:
        print("  all identical")
    print(f"\n{wide} difference(s) wider than bound, "
          f"{mismatched} exact mismatch(es)")
    return 1 if wide or mismatched else 0


# -- command line ---------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                   help="run one workload (default: all five)")
    p.add_argument("--seed", type=int, default=1,
                   help="the disk realisation; in a driver run, the "
                        "orientation and row order of realisation 1")
    p.add_argument("--repeats", type=int, default=5,
                   help="timed repeats per workload (>= 3 for a result set)")
    p.add_argument("--smoke", action="store_true",
                   help="N/4, t_end/4, one repeat: a self-test, not a result")
    p.add_argument("-o", "--output", type=Path,
                   help="result document (default .bench_e2e/result.json)")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    p.add_argument("--seconds", type=float,
                   help="driver run: measure --workload for about this long "
                        "and end with one JSON line")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="driver run: 1 reports the per-layer metrics")
    args = p.parse_args(argv)
    if args.seconds is not None and args.workload is None:
        p.error("--seconds needs --workload")
    if args.repeats < 1:
        p.error("--repeats must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found — the benchmark "
              "measures the sources of the checkout it sits in",
              file=sys.stderr)
        return 2
    env = hostinfo.repro_environment()
    if env:
        print(f"error: unset {', '.join(env)} — REPRO_* variables switch "
              "code paths and make result sets incomparable", file=sys.stderr)
        return 2

    import harness
    from repro.accel import get_engine

    driver = args.seconds is not None
    deadline = DRIVER_DEADLINE_S if driver else SET_DEADLINE_S
    if driver:
        inputs = harness.Inputs(DRIVER_REALISATION, shuffle=args.seed)
        traced = bool(args.trace)
        passes, seconds = (
            (1, 0.0) if traced else (DRIVER_MIN_PASSES, args.seconds)
        )
    else:
        inputs = harness.Inputs(args.seed)
        passes, seconds = (1 if args.smoke else args.repeats), 0.0
        traced = True

    def on_alarm(_signum, _frame):
        raise harness.Deadline(f"global deadline of {deadline:g} s expired")

    # The alarm repeats: Python drops an exception that a signal handler
    # raises inside a callback whose errors it ignores (the at-fork hooks
    # run on every spmd force call), and the next one gets through.
    previous_handler = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, deadline, 1.0)

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=WORK_ROOT))
    docs: dict[str, dict] = {}
    status = 0
    try:
        host = hostinfo.host_block(work_dir, get_engine().config.threads)
        for name in names:
            workload = spec.WORKLOADS[name]
            if args.smoke:
                workload = spec.smoke_variant(workload)
            docs[name] = measure_workload(
                workload, inputs, work_dir, passes, seconds, traced)
            print_workload(name, docs[name])
    except harness.Deadline as exc:
        signal.setitimer(signal.ITIMER_REAL, 0)
        print(f"error: {exc}", file=sys.stderr)
        status = 3
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_handler)
        shutil.rmtree(work_dir, ignore_errors=True)
        left = harness.end_all_children()
    if left:
        # every pass checks for children of its own, so this is a bug
        print("error: child processes left running at the end: "
              + ", ".join(left), file=sys.stderr)
        status = status or 1
    if status:
        return status

    failed = sum(d["ops_failed"] for d in docs.values())
    if not driver:
        spans = {
            name: d.pop("_spans").to_records() if "_spans" in d else []
            for name, d in docs.items()
        }
        out = args.output or WORK_ROOT / "result.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "schema": SCHEMA, "smoke": args.smoke, "seed": args.seed,
            "repeats": args.repeats, "host": host,
            "ops_attempted": sum(d["ops_attempted"] for d in docs.values()),
            "ops_failed": failed, "workloads": docs,
        }
        out.write_text(json.dumps(document, indent=1) + "\n")
        spans_out = out.with_suffix(".spans.json")
        spans_out.write_text(json.dumps(spans) + "\n")
        print(f"\nhost: {json.dumps(host)}")
        print(f"ops_attempted {document['ops_attempted']}  ops_failed {failed}")
        print(f"result written to {out} (spans: {spans_out})")
    else:
        doc = docs[names[0]]
        doc.pop("_spans", None)
        print(json.dumps(driver_line(doc, bool(args.trace))))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
