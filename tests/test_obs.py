"""Tests for the unified observability subsystem (repro.obs)."""

import json
import time

import pytest

from repro.errors import ConfigurationError, SnapshotError
from repro.obs import (
    NULL_OBS,
    NULL_REGISTRY,
    NULL_TRACER,
    METRIC_CATALOGUE,
    MetricsRegistry,
    Observability,
    Tracer,
    is_declared,
    parse_prometheus,
    render_time_breakdown,
    time_breakdown,
    write_chrome_trace,
)


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("blockstep.total")
        c.inc()
        c.inc(4)
        assert c.value == 5.0
        assert reg.counter("blockstep.total") is c  # idempotent per name

    def test_counter_cannot_decrease(self):
        c = MetricsRegistry().counter("blockstep.total")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("run.wall_seconds")
        g.set(2.0)
        g.inc(1.0)
        g.dec(0.5)
        assert g.value == 2.5

    def test_histogram_summary(self):
        h = MetricsRegistry().histogram("scheduler.block_size")
        for v in (4, 16, 10):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 30.0
        assert h.min == 4.0
        assert h.max == 16.0
        assert h.mean == 10.0

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("blockstep.total")
        with pytest.raises(ConfigurationError):
            reg.gauge("blockstep.total")

    def test_bad_name_rejected(self):
        reg = MetricsRegistry()
        for bad in ("Blocks", "no_dots", "a..b", "blockstep.Total"):
            with pytest.raises(ConfigurationError):
                reg.counter(bad)

    def test_strict_requires_declaration(self):
        reg = MetricsRegistry(strict=True)
        reg.counter("blockstep.total")  # declared
        reg.counter("events.whatever_total")  # dynamic family
        with pytest.raises(ConfigurationError):
            reg.counter("nope.not_declared")

    def test_snapshot_flattens_histograms(self):
        reg = MetricsRegistry()
        reg.counter("blockstep.total").inc(3)
        reg.histogram("scheduler.block_size").observe(8)
        snap = reg.snapshot()
        assert snap["blockstep.total"] == 3.0
        assert snap["scheduler.block_size.count"] == 1.0
        assert snap["scheduler.block_size.sum"] == 8.0

    def test_catalogue_names_are_well_formed(self):
        from repro.obs.catalogue import NAME_RE

        for name in METRIC_CATALOGUE:
            assert NAME_RE.match(name), name
            assert is_declared(name)


class TestNullObjects:
    def test_null_registry_noops(self):
        c = NULL_REGISTRY.counter("anything.at_all")
        c.inc(100)
        assert c.value == 0.0
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.to_prometheus() == ""
        assert len(NULL_REGISTRY) == 0

    def test_null_metrics_are_shared_singletons(self):
        assert NULL_REGISTRY.counter("a.b") is NULL_REGISTRY.counter("c.d")
        assert NULL_REGISTRY.gauge("a.b") is NULL_REGISTRY.gauge("c.d")

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("x", n=1):
            pass
        NULL_TRACER.model_span("y", 1.0)
        assert list(NULL_TRACER.spans) == []
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_null_obs_exports_are_empty_but_valid(self, tmp_path):
        p = NULL_OBS.export_chrome_trace(tmp_path / "t.json")
        doc = json.loads(p.read_text())
        assert all(e["ph"] == "M" for e in doc["traceEvents"])
        assert NULL_OBS.render_time_breakdown() == ""


class TestTracer:
    def test_wall_spans_nest(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner", n=3):
                pass
        inner, outer = tr.spans[0], tr.spans[1]  # children finish first
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.depth == 1 and outer.depth == 0
        assert outer.ts_ns <= inner.ts_ns
        assert inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns
        assert inner.attrs == {"n": 3}

    def test_model_spans_lay_out_sequentially(self):
        tr = Tracer()
        tr.model_span("a", 1e-3, children=[("a1", 0.4e-3), ("a2", 0.6e-3)])
        tr.model_span("b", 2e-3)
        a, a1, a2, b = tr.of_track("model")
        assert a.ts_ns == 0 and a.dur_ns == 1_000_000
        assert a1.ts_ns == 0 and a1.dur_ns == 400_000
        assert a2.ts_ns == 400_000
        assert b.ts_ns == 1_000_000  # virtual clock advanced by parent only

    def test_model_children_clamped_to_parent(self):
        tr = Tracer()
        tr.model_span("a", 1e-3, children=[("a1", 0.9e-3), ("a2", 0.9e-3)])
        a, a1, a2 = tr.of_track("model")
        assert a1.dur_ns + a2.dur_ns <= a.dur_ns
        assert a2.ts_ns + a2.dur_ns <= a.ts_ns + a.dur_ns

    def test_total_seconds_sums_by_name(self):
        tr = Tracer()
        tr.model_span("x", 1.0)
        tr.model_span("x", 0.5)
        assert tr.total_seconds("x", track="model") == pytest.approx(1.5)


def _assert_properly_nested(events):
    """Complete events on one tid must be monotonic and properly nested.

    Works in integer nanoseconds, like Chrome/Perfetto importers do
    (they multiply the microsecond floats by 1000 and truncate), so a
    1-ulp float wobble at a sibling boundary is not a false positive.
    """
    spans = sorted(
        (
            (round(e["ts"] * 1000), round(e["dur"] * 1000), e["name"])
            for e in events
        ),
        key=lambda s: (s[0], -s[1]),
    )
    stack = []  # open end-times
    prev_ts = None
    for ts, dur, name in spans:
        if prev_ts is not None:
            assert ts >= prev_ts, "timestamps not monotonic"
        prev_ts = ts
        while stack and ts >= stack[-1]:
            stack.pop()
        if stack:
            assert ts + dur <= stack[-1], (
                f"span {name} overflows its enclosing span"
            )
        stack.append(ts + dur)


class TestExporters:
    def make_traced_obs(self):
        obs = Observability()
        with obs.tracer.span("run"):
            with obs.tracer.span("block_step"):
                with obs.tracer.span("force", n_active=7):
                    time.sleep(0.001)
        obs.tracer.model_span(
            "grape.block_step", 2e-3,
            children=[("grape.pipeline", 1.5e-3), ("grape.host_calc", 0.5e-3)],
        )
        obs.metrics.counter("grape.pipeline_seconds").inc(1.5e-3)
        return obs

    def test_chrome_trace_is_valid_and_nested(self, tmp_path):
        obs = self.make_traced_obs()
        path = write_chrome_trace(obs.tracer, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["tid"] for e in events} == {1, 2}
        for tid in (1, 2):
            _assert_properly_nested([e for e in events if e["tid"] == tid])
        force = next(e for e in events if e["name"] == "force")
        assert force["args"] == {"n_active": 7}

    def test_prometheus_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("grape.pipeline_seconds").inc(0.25)
        reg.gauge("run.wall_seconds").set(1.5)
        reg.histogram("scheduler.block_size").observe(12)
        path = tmp_path / "m.prom"
        path.write_text(reg.to_prometheus())
        back = parse_prometheus(path)
        assert back["grape_pipeline_seconds"] == 0.25
        assert back["run_wall_seconds"] == 1.5
        assert back["scheduler_block_size_count"] == 1.0
        assert back["scheduler_block_size_sum"] == 12.0

    def test_prometheus_has_help_and_type(self):
        reg = MetricsRegistry()
        reg.counter("grape.pipeline_seconds").inc(1)
        text = reg.to_prometheus()
        assert "# HELP grape_pipeline_seconds" in text
        assert "# TYPE grape_pipeline_seconds counter" in text

    def test_parse_rejects_malformed(self, tmp_path):
        p = tmp_path / "bad.prom"
        p.write_text("a_b 1 2\n")
        with pytest.raises(SnapshotError):
            parse_prometheus(p)
        with pytest.raises(SnapshotError):
            parse_prometheus(tmp_path / "missing.prom")


class TestBreakdown:
    def test_breakdown_from_dotted_and_flat_names(self):
        dotted = {
            "grape.pipeline_seconds": 2.0,
            "grape.host_seconds": 1.0,
            "grape.comm_seconds": 1.0,
            "grape.interactions_total": 1e9,
            "grape.peak_flops": 57e12,
        }
        flat = {k.replace(".", "_"): v for k, v in dotted.items()}
        for metrics in (dotted, flat):
            bd = time_breakdown(metrics)
            assert bd.total_seconds == 4.0
            assert bd.achieved_flops_per_s == pytest.approx(1e9 * 57 / 4.0)
            assert 0 < bd.peak_fraction < 1

    def test_no_grape_time_returns_none(self):
        assert time_breakdown({"run.wall_seconds": 1.0}) is None
        assert render_time_breakdown({}) == ""

    def test_render_contains_paper_terms(self):
        text = render_time_breakdown(
            {
                "grape.pipeline_seconds": 2.0,
                "grape.host_seconds": 1.0,
                "grape.comm_seconds": 1.0,
                "grape.interactions_total": 1e9,
                "grape.peak_flops": 57e12,
            }
        )
        for needle in ("t_pipe", "t_host", "t_comm", "Tflops", "of peak"):
            assert needle in text


class TestPrometheusEscaping:
    def test_escape_help(self):
        from repro.obs import escape_help

        assert escape_help("a\\b\nc") == r"a\\b\nc"
        assert escape_help("plain") == "plain"

    def test_escape_label_value(self):
        from repro.obs import escape_label_value

        assert escape_label_value('say "hi"\\\n') == r'say \"hi\"\\\n'
        assert escape_label_value(42) == "42"

    def test_constant_labels_rendered_and_escaped(self):
        reg = MetricsRegistry()
        reg.counter("blockstep.total").inc(3)
        reg.histogram("blockstep.size").observe(2.0)
        text = reg.to_prometheus(labels={"run_id": 'd"isk\\1', "n": 256})
        # label block on every sample line, keys sorted, values escaped
        assert 'blockstep_total{n="256",run_id="d\\"isk\\\\1"} 3' in text
        assert 'blockstep_size_count{n="256",run_id="d\\"isk\\\\1"} 1' in text
        assert 'blockstep_size_sum{n="256"' in text

    def test_bad_label_name_rejected(self):
        reg = MetricsRegistry()
        reg.counter("blockstep.total")
        with pytest.raises(ConfigurationError):
            reg.to_prometheus(labels={"bad-name": "x"})

    def test_parse_tolerates_label_blocks(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("blockstep.total").inc(7)
        path = tmp_path / "m.prom"
        path.write_text(reg.to_prometheus(labels={"run_id": 'tri"cky}\\'}))
        parsed = parse_prometheus(path)
        assert parsed["blockstep_total"] == 7.0

    def test_unlabelled_round_trip_unchanged(self, tmp_path):
        reg = MetricsRegistry()
        reg.gauge("run.n_particles").set(512)
        path = tmp_path / "m.prom"
        path.write_text(reg.to_prometheus())
        assert parse_prometheus(path)["run_n_particles"] == 512.0

    def test_malformed_line_still_raises(self, tmp_path):
        path = tmp_path / "m.prom"
        path.write_text("ok_metric 1\nthis is } not a sample\n")
        with pytest.raises(SnapshotError):
            parse_prometheus(path)


class TestSpanRoundTrip:
    def make_tracer(self):
        tr = Tracer()
        with tr.span("run"):
            with tr.span("block_step"):
                with tr.span("force"):
                    time.sleep(0.001)
                with tr.span("correct"):
                    pass
        tr.model_span(
            "grape.block_step", 2e-3,
            children=[("grape.pipeline", 1.5e-3), ("grape.host_calc", 0.5e-3)],
        )
        return tr

    def test_chrome_round_trip_nesting_and_order(self, tmp_path):
        """Chrome trace -> SpanLog -> Chrome trace keeps tracks properly
        nested."""
        from repro.obs import load_spans

        tr = self.make_tracer()
        log = load_spans(write_chrome_trace(tr, tmp_path / "s.json"))
        chrome = write_chrome_trace(log, tmp_path / "t.json")
        events = json.loads(chrome.read_text())["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        for tid in (1, 2):
            _assert_properly_nested([e for e in complete if e["tid"] == tid])

    def test_chrome_reimport_recovers_depth(self, tmp_path):
        from repro.obs import load_spans

        tr = self.make_tracer()
        path = write_chrome_trace(tr, tmp_path / "t.json")
        log = load_spans(path)
        by_name = {s.name: s for s in log.spans}
        assert by_name["run"].depth == 0
        assert by_name["block_step"].depth == 1
        assert by_name["force"].depth == 2
        assert by_name["grape.pipeline"].depth == 1

    def test_load_spans_sniffs_formats(self, tmp_path):
        """A Chrome trace loads; a line-per-record file is refused."""
        from repro.obs import load_spans

        tr = self.make_tracer()
        chrome = write_chrome_trace(tr, tmp_path / "b.json")
        assert len(load_spans(chrome).spans) == len(tr.spans)
        lines = tmp_path / "a.jsonl"
        lines.write_text('{"kind": "header"}\n{"kind": "span"}\n')
        with pytest.raises(SnapshotError):
            load_spans(lines)

    def test_load_spans_errors(self, tmp_path):
        from repro.obs import load_spans

        with pytest.raises(SnapshotError):
            load_spans(tmp_path / "missing.json")
        empty = tmp_path / "empty.json"
        empty.write_text("   \n")
        with pytest.raises(SnapshotError):
            load_spans(empty)
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json at all {{{")
        with pytest.raises(SnapshotError):
            load_spans(garbage)
