"""Tests for the bench-history store and regression analysis."""

import copy
import json

import pytest

from repro.errors import ConfigurationError, SnapshotError
from repro.obs import (
    SCHEMA_VERSION,
    BenchHistory,
    MetricsRegistry,
    Observability,
    compare_documents,
    host_fingerprint,
    render_comparison,
    render_trend,
)
from repro.obs.history import entry_key, entry_label


def doc(best=1.0, samples=None, name="kern", op="acc_jerk", n=64):
    entry = {"op": op, "kernel": "tiled", "n_active": n, "n_source": 4096,
             "best_seconds": best, "repeats": 3}
    if samples is not None:
        entry["samples_seconds"] = samples
    return {"benchmark": name, "entries": [entry]}


class TestFingerprint:
    def test_fields_present(self):
        fp = host_fingerprint()
        for key in ("python", "platform", "cpu_count", "usable_cpus",
                    "kernel_threads", "kernel_tier", "numpy"):
            assert key in fp
        assert fp["cpu_count"] >= fp["usable_cpus"] >= 1
        assert fp["kernel_tier"] in ("native", "numpy")

    def test_kernel_threads_from_env(self, monkeypatch):
        """What the engine resolved, not the raw variable: an int, and
        that of the engine the process actually has."""
        from repro.accel import get_engine, set_engine

        assert host_fingerprint()["kernel_threads"] == get_engine().config.threads
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "7")
        previous = set_engine(None)
        try:
            assert host_fingerprint()["kernel_threads"] == 7
        finally:
            set_engine(previous).close()

    def test_default_threads_follow_the_affinity_mask(self, monkeypatch):
        import os

        from repro.accel import EngineConfig

        monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert EngineConfig.from_env().threads == 3
        assert host_fingerprint()["usable_cpus"] == 3

    def test_tier_follows_the_loader(self, numpy_tier):
        from repro.accel import EngineConfig

        assert host_fingerprint()["kernel_tier"] == "numpy"
        assert EngineConfig().describe()["kernel_tier"] == "numpy"


class TestEntryKey:
    def test_identity_excludes_measurements(self):
        a = {"op": "acc", "n": 64, "best_seconds": 1.0, "repeats": 3,
             "samples_seconds": [1.0], "speedup_vs_reference": 2.0}
        b = {"op": "acc", "n": 64, "best_seconds": 9.9, "repeats": 5}
        assert entry_key(a) == entry_key(b)

    def test_different_shape_differs(self):
        assert entry_key({"op": "acc", "n": 64}) != entry_key(
            {"op": "acc", "n": 128}
        )

    def test_label_spelling(self):
        assert entry_label(entry_key({"op": "acc", "n": 64})) == "n=64 op=acc"


class TestStore:
    def test_append_stamps_and_sequences(self, tmp_path):
        hist = BenchHistory(tmp_path / "h")
        p1 = hist.append(doc())
        p2 = hist.append(doc(best=1.1))
        assert p1 != p2
        records = hist.records("kern")
        assert [r["seq"] for r in records] == [1, 2]
        assert all(r["schema_version"] == SCHEMA_VERSION for r in records)
        assert all("host" in r for r in records)
        assert hist.latest("kern")["seq"] == 2

    def test_existing_host_preserved(self, tmp_path):
        hist = BenchHistory(tmp_path / "h")
        d = doc()
        d["host"] = {"python": "marker"}
        hist.append(d)
        assert hist.latest("kern")["host"] == {"python": "marker"}

    def test_benchmarks_listing(self, tmp_path):
        hist = BenchHistory(tmp_path / "h")
        assert hist.benchmarks() == []
        hist.append(doc(name="b_one"))
        hist.append(doc(name="a_two"))
        assert hist.benchmarks() == ["a_two", "b_one"]

    def test_nameless_document_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            BenchHistory(tmp_path / "h").append({"entries": []})

    def test_corrupt_record_raises(self, tmp_path):
        hist = BenchHistory(tmp_path / "h")
        hist.append(doc())
        (tmp_path / "h" / "kern" / "kern-99999.json").write_text("{ torn")
        with pytest.raises(SnapshotError):
            hist.records("kern")

    def test_crash_mid_append_leaves_no_record(self, tmp_path, monkeypatch):
        """A death halfway through ``json.dump`` leaves nothing under a
        record name, so the store keeps working without a hand repair."""
        hist = BenchHistory(tmp_path / "h")
        hist.append(doc())

        def torn_dump(obj, fh, **kwargs):
            fh.write('{"schema_version": ')
            raise OSError("simulated crash mid-dump")

        with monkeypatch.context() as patch:
            patch.setattr(json, "dump", torn_dump)
            with pytest.raises(OSError, match="mid-dump"):
                hist.append(doc(best=1.1))
        bench_dir = tmp_path / "h" / "kern"
        assert sorted(p.name for p in bench_dir.iterdir()) == ["kern-00001.json"]
        hist.append(doc(best=1.2))
        assert [r["seq"] for r in hist.records("kern")] == [1, 2]

    def test_metrics_recorded(self, tmp_path):
        obs = Observability(metrics=MetricsRegistry(strict=True))
        hist = BenchHistory(tmp_path / "h", obs=obs)
        hist.append(doc())
        assert obs.metrics.snapshot()["perf.history.records_total"] == 1.0


class TestCompare:
    def test_identical_documents_pass(self):
        result = compare_documents(doc(samples=[1.0, 1.01, 1.02]),
                                   doc(samples=[1.0, 1.01, 1.02]))
        assert result.ok
        assert result.entries[0].ratio == pytest.approx(1.0)

    def test_twenty_percent_slowdown_detected(self):
        base = doc(samples=[1.0, 1.01, 1.02])
        slow = doc(best=1.2, samples=[1.2, 1.21, 1.22])
        result = compare_documents(base, slow, threshold=0.10)
        assert not result.ok
        entry = result.entries[0]
        assert entry.regression
        assert entry.ci_low is not None and entry.ci_low > 1.0
        assert entry.verdict == "REGRESSION"

    def test_noise_within_threshold_passes(self):
        base = doc(samples=[1.0, 1.02, 0.99])
        close = doc(best=1.04, samples=[1.04, 1.05, 1.01])
        assert compare_documents(base, close, threshold=0.10).ok

    def test_point_ratio_fallback_without_samples(self):
        result = compare_documents(doc(best=1.0), doc(best=1.3))
        entry = result.entries[0]
        assert entry.regression and entry.ci_low is None

    def test_improvement_flagged(self):
        base = doc(samples=[1.0, 1.01, 1.02])
        fast = doc(best=0.7, samples=[0.7, 0.71, 0.72])
        result = compare_documents(base, fast)
        assert result.ok
        assert result.entries[0].improvement
        assert result.entries[0].verdict == "improved"

    def test_unmatched_entries_noted(self):
        base = doc()
        cur = doc(op="acc_only")
        result = compare_documents(base, cur)
        assert result.entries == []
        assert len(result.only_baseline) == 1
        assert len(result.only_current) == 1

    def test_host_mismatch_flagged(self):
        base, cur = doc(), doc()
        base["host"] = {"cpu_count": 1}
        cur["host"] = {"cpu_count": 64}
        assert compare_documents(base, cur).host_mismatch

    def test_deterministic_ci(self):
        base = doc(samples=[1.0, 1.05, 0.98])
        cur = doc(samples=[1.2, 1.25, 1.19])
        a = compare_documents(base, cur).entries[0]
        b = compare_documents(base, cur).entries[0]
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_metrics_recorded(self):
        obs = Observability(metrics=MetricsRegistry(strict=True))
        compare_documents(doc(), doc(best=2.0), obs=obs)
        snap = obs.metrics.snapshot()
        assert snap["perf.history.comparisons_total"] == 1.0
        assert snap["perf.history.regressions"] == 1.0

    def test_wall_seconds_entries_compare(self):
        base = {"benchmark": "hyb", "entries": [
            {"n": 64, "backend": "hybrid", "wall_seconds": 2.0}]}
        cur = {"benchmark": "hyb", "entries": [
            {"n": 64, "backend": "hybrid", "wall_seconds": 3.0}]}
        result = compare_documents(base, cur)
        assert not result.ok


class TestRendering:
    def test_comparison_table(self):
        text = render_comparison(compare_documents(doc(), doc(best=1.5)))
        assert "Benchmark diff: kern" in text
        assert "REGRESSION" in text

    def test_comparison_notes(self):
        base, cur = doc(), doc(op="other")
        base["host"], cur["host"] = {"a": 1}, {"a": 2}
        text = render_comparison(compare_documents(base, cur))
        assert text == ""  # no matched entries -> no table

    def test_trend_table(self, tmp_path):
        hist = BenchHistory(tmp_path / "h")
        hist.append(doc(best=1.0))
        hist.append(doc(best=1.5))
        text = render_trend(hist.records("kern"), "kern")
        assert "Benchmark trend: kern" in text
        assert "1.500" in text

    def test_trend_empty(self):
        assert render_trend([], "kern") == ""


class TestBaselineMigration:
    def test_committed_baselines_are_v2(self):
        """Both repo-root BENCH files carry the v2 schema + host block."""
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        for name in ("BENCH_kernels.json", "BENCH_spmd.json"):
            document = json.loads((root / name).read_text())
            assert document["schema_version"] == SCHEMA_VERSION
            assert "host" in document
            assert "cpu_count" in document["host"]

    def test_baselines_compare_with_themselves(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        for name in ("BENCH_kernels.json", "BENCH_spmd.json"):
            document = json.loads((root / name).read_text())
            result = compare_documents(document, copy.deepcopy(document))
            assert result.entries, name
            assert result.ok, name
