"""Tests for the API-doc generation tool."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

from check_backend_protocol import backend_subclasses, collect_classes
from check_backend_protocol import check as protocol_check
from check_backend_protocol import main as protocol_main
from check_backend_protocol import required_methods
from check_fault_matrix import check as fault_check
from check_fault_matrix import main as fault_main
from check_fault_matrix import missing_injectors, untested_kinds
from check_metric_names import DEFAULT_PATHS, check_catalogue, check_paths, unregistered
from check_metric_names import main as lint_main
from gen_api_docs import collect_modules, describe_module, main, render_api_docs
from reach import called_code, unreached


class TestCollect:
    def test_finds_all_packages(self):
        mods = collect_modules()
        assert "repro" in mods
        for pkg in ("repro.core", "repro.grape", "repro.parallel",
                    "repro.planetesimal", "repro.baselines", "repro.perf",
                    "repro.runio"):
            assert pkg in mods

    def test_skips_entry_point(self):
        assert "repro.__main__" not in collect_modules()

    def test_sorted(self):
        mods = collect_modules()
        assert mods == sorted(mods)


class TestDescribe:
    def test_module_with_all(self):
        info = describe_module("repro.core.forces")
        names = {s["name"] for s in info["symbols"]}
        assert "acc_jerk" in names
        assert info["doc"].startswith("Direct-summation")

    def test_symbols_have_docs(self):
        info = describe_module("repro.core.integrator")
        sim = next(s for s in info["symbols"] if s["name"] == "Simulation")
        assert sim["kind"] == "class"
        assert "Hermite" in sim["doc"]


class TestRender:
    def test_renders_every_public_module(self):
        text = render_api_docs()
        assert "## `repro.core.forces`" in text
        assert "## `repro.grape.system`" in text
        assert "acc_jerk" in text
        assert len(text.splitlines()) > 200

    def test_committed_api_reference_is_current(self):
        committed = Path(__file__).parent.parent / "docs" / "API.md"
        assert committed.read_text() == render_api_docs(), (
            "docs/API.md is stale: run `python tools/gen_api_docs.py`"
        )

    def test_main_writes_file(self, tmp_path):
        out = tmp_path / "API.md"
        assert main([str(out)]) == 0
        assert out.exists()
        assert "# API reference" in out.read_text()


class TestMetricNameLint:
    def test_repo_source_is_clean(self, capsys):
        assert lint_main([]) == 0
        assert "metric names ok" in capsys.readouterr().out

    def test_undeclared_name_flagged(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text('reg.counter("nope.not_declared")\n')
        problems = check_paths([bad])
        assert len(problems) == 1
        assert "not declared" in problems[0]
        assert lint_main([str(bad)]) == 1

    def test_wrong_kind_flagged(self, tmp_path):
        bad = tmp_path / "bad.py"
        # run.wall_seconds is declared as a gauge
        bad.write_text('reg.counter("run.wall_seconds")\n')
        problems = check_paths([bad])
        assert len(problems) == 1
        assert "declared as gauge" in problems[0]

    def test_ill_formed_name_flagged(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text('reg.gauge("NotDotted")\n')
        problems = check_paths([bad])
        assert "naming" in problems[0]

    def test_dynamic_family_admitted(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text('reg.counter("events.supernova_total")\n')
        assert check_paths([ok]) == []

    def test_fstring_names_skipped(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text('reg.counter(f"events.{kind}_total")\n')
        assert check_paths([ok]) == []

    def test_catalogue_self_validates(self):
        assert check_catalogue() == []

    def test_every_catalogue_entry_is_registered(self):
        assert unregistered(DEFAULT_PATHS) == []

    def test_unregistered_catalogue_entry_flagged(self):
        from repro.obs.catalogue import METRIC_CATALOGUE

        catalogue = dict(METRIC_CATALOGUE)
        catalogue["grape.never_registered_total"] = ("counter", "x")
        problems = unregistered(DEFAULT_PATHS, catalogue)
        assert len(problems) == 1
        assert "grape.never_registered_total" in problems[0]

    def test_catalogue_hybrid_family_declared(self):
        """The hybrid backend's whole metric family is in the catalogue."""
        from repro.obs.catalogue import METRIC_CATALOGUE

        hybrid = {k: v[0] for k, v in METRIC_CATALOGUE.items()
                  if k.startswith("hybrid.")}
        assert hybrid == {
            "hybrid.tree_builds_total": "counter",
            "hybrid.near_interactions_total": "counter",
            "hybrid.far_interactions_total": "counter",
            "hybrid.tree_seconds": "counter",
            "hybrid.direct_seconds": "counter",
            "hybrid.neighbour_count": "histogram",
            "hybrid.theta": "gauge",
            "hybrid.tree_build_seconds": "counter",
            "hybrid.tree_walk_seconds": "counter",
            "hybrid.walk.groups_total": "counter",
            "hybrid.walk.node_terms_total": "counter",
            "hybrid.walk.pp_terms_total": "counter",
            "hybrid.walk.group_size": "histogram",
        }

    def test_bad_catalogue_entries_flagged(self):
        bad = {
            "NotDotted": ("counter", "x"),
            "ok.name": ("thermometer", "x"),
            "ok.other": ("gauge", ""),
        }
        problems = check_catalogue(bad)
        assert len(problems) == 3
        assert any("naming" in p for p in problems)
        assert any("kind" in p for p in problems)
        assert any("help" in p for p in problems)


class TestReach:
    def test_uncalled_function_reported(self, tmp_path):
        import importlib.util

        path = tmp_path / "tiny.py"
        path.write_text(
            "def used(x):\n"
            "    return x + 1\n"
            "\n"
            "\n"
            "def unused(x):\n"
            "    y = x * 2\n"
            "    return y\n"
        )
        spec = importlib.util.spec_from_file_location("tiny", path)
        tiny = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tiny)

        report = unreached(tmp_path, called_code(tiny.used, 1))
        assert report == {"tiny.py": ({6, 7}, {2, 6, 7})}


class TestBackendProtocolLint:
    def test_repo_is_clean(self, capsys):
        assert protocol_main([]) == 0
        assert "backend protocol ok" in capsys.readouterr().out

    def test_required_surface_discovered(self):
        assert required_methods() == ["load", "forces_on", "push_updates"]

    def test_all_registered_backends_found(self):
        src = Path(__file__).parent.parent / "src" / "repro"
        names = {c.name for c in backend_subclasses(collect_classes(src))}
        assert {
            "HostDirectBackend", "Grape6Backend", "TreeBackend",
            "HostOnlyBackend", "HybridBackend",
        } <= names

    def test_missing_method_flagged(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "class HalfBackend(ForceBackend):\n"
            "    def __init__(self):\n"
            "        self.counter = object()\n"
            "    def load(self, system):\n"
            "        return None\n"
        )
        problems = protocol_check(tmp_path)
        missing = {m for m in ("forces_on", "push_updates")
                   if any(f"{m}()" in p for p in problems)}
        assert missing == {"forces_on", "push_updates"}
        assert not any("load()" in p for p in problems)
        assert protocol_main([str(tmp_path)]) == 1

    def test_missing_counter_flagged(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "class NoCounterBackend(ForceBackend):\n"
            "    def load(self, system): pass\n"
            "    def forces_on(self, system, active, t_now): pass\n"
            "    def push_updates(self, system, active): pass\n"
        )
        problems = protocol_check(tmp_path)
        assert len(problems) == 1
        assert "self.counter" in problems[0]

    def test_inherited_surface_accepted(self, tmp_path):
        """A subclass of a complete backend needs nothing of its own."""
        (tmp_path / "ok.py").write_text(
            "class FullBackend(ForceBackend):\n"
            "    def __init__(self):\n"
            "        self.counter = object()\n"
            "    def load(self, system): pass\n"
            "    def forces_on(self, system, active, t_now): pass\n"
            "    def push_updates(self, system, active): pass\n"
            "class ChildBackend(FullBackend):\n"
            "    pass\n"
        )
        assert protocol_check(tmp_path) == []

    def test_missing_src_dir_reported(self, tmp_path):
        problems = protocol_check(tmp_path / "nope")
        assert any("not found" in p for p in problems)
        assert protocol_main([str(tmp_path / 'nope')]) == 1


class TestFaultMatrixLint:
    def test_repo_is_clean(self, capsys):
        assert fault_main([]) == 0
        assert "fault matrix ok" in capsys.readouterr().out

    def test_every_kind_has_injector(self):
        assert missing_injectors() == []

    def test_untested_kind_flagged(self, tmp_path):
        (tmp_path / "test_one.py").write_text(
            "def test_x():\n    use(FaultKind.CHIP_KILL)\n"
        )
        missing = untested_kinds(tmp_path)
        assert "chip_kill" not in missing
        assert "host_kill" in missing
        problems = fault_check(tmp_path)
        assert any("host_kill" in p for p in problems)
        assert fault_main([str(tmp_path)]) == 1

    def test_missing_tests_dir_reported(self, tmp_path):
        problems = fault_check(tmp_path / "nope")
        assert any("not found" in p for p in problems)
        assert fault_main([str(tmp_path / "nope")]) == 1

