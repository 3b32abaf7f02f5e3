"""The repro.analysis static-analysis subsystem: diagnostics model,
spec dataflow lint (+ generator pruning), kernel reachability, the
determinism linter, ``--explain``, and the analyze/lint CLI surface."""

import dataclasses
import json
import os
import re

import pytest

import repro.analysis
from repro import cli
from repro.analysis import (
    ANALYSIS_FILE,
    AnalysisReport,
    CODE_TABLE,
    Diagnostic,
    analysis_summary,
    analyze_build,
    analyze_target,
    diag,
    explain_code,
    lint_sources,
    load_analysis_artifact,
    reachable_edge_universe,
    write_analysis_artifact,
)
from repro.analysis.reach import analyze_reachability
from repro.analysis.speclint import lint_spec
from repro.errors import SpecTypeError
from repro.fuzz.engine import EngineOptions, EofEngine
from repro.fuzz.generator import ProgramGenerator
from repro.fuzz.rng import FuzzRng
from repro.fuzz.stats import FuzzStats
from repro.fuzz.targets import get_target
from repro.instrument.sancov import decode_coverage_buffer
from repro.instrument.sites import CLAMPS, SiteAllocator, SiteInfo
from repro.obs import Observability, RingBufferSink
from repro.obs.report import render_report
from repro.oses.common.api import kapi, kfunc
from repro.spec.llmgen import generate_validated_specs
from repro.spec.model import (
    CallDef,
    FlagsDef,
    IntType,
    Param,
    ResourceDef,
    ResourceRef,
    SpecSet,
    StringType,
)
from repro.spec.validate import collect_api_mismatches, validate_against_api

from conftest import cached_build

ALL_OSES = ["freertos", "rt-thread", "zephyr", "nuttx", "pokos"]


# ---------------------------------------------------------------------------
# Diagnostic / AnalysisReport model
# ---------------------------------------------------------------------------

class TestDiagnosticModel:
    def test_unregistered_code_rejected(self):
        with pytest.raises(ValueError):
            diag("EOF999", "nope")

    def test_code_table_covers_all_passes(self):
        prefixes = {code[:4] for code in CODE_TABLE}
        assert prefixes == {"EOF1", "EOF2", "EOF3"}

    def test_diagnostic_round_trip(self):
        d = diag("EOF101", "m", where="w", severity="error", a=1, b="x")
        clone = Diagnostic.from_dict(d.to_dict())
        assert clone == d
        assert "EOF101" in d.render() and "[w]" in d.render()

    def test_report_round_trip_and_queries(self):
        report = AnalysisReport(target="t", summary={"k": 1})
        report.add(diag("EOF101", "a"))
        report.add(diag("EOF201", "b"))
        assert not report.clean
        assert [d.code for d in report.by_code("EOF2")] == ["EOF201"]
        assert report.codes() == ["EOF101", "EOF201"]
        clone = AnalysisReport.from_dict(report.to_dict())
        assert clone.target == "t" and clone.summary == {"k": 1}
        assert clone.codes() == report.codes()
        assert "diagnostics (2):" in report.render()


# ---------------------------------------------------------------------------
# Pass 1 — spec dataflow lint
# ---------------------------------------------------------------------------

def dead_chain_spec() -> SpecSet:
    """sem is healthy; mutex is never produced, so mutex_take is dead,
    which kills queue_create, which transitively kills queue_send."""
    spec = SpecSet(os_name="toy")
    spec.resources["sem"] = ResourceDef("sem")
    spec.resources["mutex"] = ResourceDef("mutex")
    spec.resources["queue"] = ResourceDef("queue")
    spec.flags["unused_opts"] = FlagsDef("unused_opts", (("A", 1),))
    spec.calls.extend([
        CallDef("sem_create", ret="sem"),
        CallDef("mutex_take",
                params=(Param("m", ResourceRef("mutex")),)),
        CallDef("queue_create",
                params=(Param("m", ResourceRef("mutex")),), ret="queue"),
        CallDef("queue_send",
                params=(Param("q", ResourceRef("queue")),)),
        CallDef("sem_take", params=(Param("s", ResourceRef("sem")),)),
        CallDef("dev_open", params=(
            Param("name", StringType(4, ("uart0", "a", "a"))),)),
    ])
    return spec


class TestSpecLint:
    def test_dead_call_chain(self):
        result = lint_spec(dead_chain_spec())
        assert result.unproduced_resources == {"mutex"}
        # mutex_take and queue_create directly, queue_send transitively.
        assert result.dead_call_ids == {1, 2, 3}
        codes = {d.code for d in result.diagnostics}
        assert {"EOF101", "EOF102", "EOF103", "EOF105"} <= codes

    def test_string_candidate_variants(self):
        result = lint_spec(dead_chain_spec())
        eof105 = [d for d in result.diagnostics if d.code == "EOF105"]
        messages = " ".join(d.message for d in eof105)
        assert "exceeds maxlen" in messages      # "uart0" > maxlen 4
        assert "shadows" in messages             # duplicate "a"

    def test_empty_int_range(self):
        spec = SpecSet(os_name="toy")
        spec.calls.append(CallDef(
            "bad", params=(Param("n", IntType(32, lo=5, hi=1)),)))
        result = lint_spec(spec)
        assert [d.code for d in result.diagnostics] == ["EOF104"]

    def test_registered_targets_are_clean(self):
        spec = generate_validated_specs(cached_build("rt-thread"))
        result = lint_spec(spec)
        assert result.clean
        assert result.summary()["spec.dead_calls"] == 0

    def test_generator_prunes_dead_calls(self):
        spec = dead_chain_spec()
        generator = ProgramGenerator(spec, FuzzRng(7))
        assert generator.pruned == {1, 2, 3}
        assert set(generator.enabled) == {0, 4, 5}
        for _ in range(200):
            program = generator.generate()
            for call in program.calls:
                assert call.api_id not in generator.pruned

    def test_generator_prunes_nothing_on_real_targets(self):
        spec = generate_validated_specs(cached_build("freertos"))
        generator = ProgramGenerator(spec, FuzzRng(7))
        assert generator.pruned == frozenset()


# ---------------------------------------------------------------------------
# Pass 2 — reachability
# ---------------------------------------------------------------------------

class ToyKernel:
    """Minimal kernel-shaped class for reachability unit tests."""

    @kapi(module="toy", sites=4)
    def api_alpha(self):
        self.helper()

    @kfunc(module="toy", sites=3)
    def helper(self):
        pass

    @kfunc(module="toy", sites=2)
    def orphan(self):
        pass


class RootedKernel(ToyKernel):
    """Same shape, but the orphan is declared as a dispatch root."""

    ANALYSIS_ROOTS = ("orphan",)


class OverflowKernel:
    @kapi(module="toy", sites=2)
    def api_over(self):
        self.ctx.cov(5)


def toy_site_table(cls):
    from repro.oses.common.api import collect_kfuncs
    allocator = SiteAllocator()
    for meta in collect_kfuncs(cls):
        allocator.allocate(meta.name, meta.module, meta.sites)
    return allocator.table


class TestReachability:
    @pytest.mark.parametrize("os_name", ALL_OSES)
    def test_every_kernel_fully_reachable(self, os_name):
        build = cached_build(os_name)
        result = analyze_build(build)
        assert result.dead_functions == []
        assert not [d for d in result.diagnostics if d.code == "EOF201"]
        assert result.reachable_edges > 0
        # Everything but the site-0 sentinel belongs to a live block.
        assert result.reachable_sites == result.total_sites - 1

    def test_dead_function_reported(self):
        result = analyze_reachability(ToyKernel,
                                      site_table=toy_site_table(ToyKernel))
        assert result.dead_functions == ["orphan"]
        eof201 = [d for d in result.diagnostics if d.code == "EOF201"]
        assert len(eof201) == 1 and eof201[0].where == "orphan"
        # alpha(4 sites) + helper(3 sites): intra 7+5, entries 2+2, one
        # instrumented call edge contributes 2.
        assert result.reachable_edges == (7 + 5) + 4 + 2

    def test_analysis_roots_revive_orphan(self):
        result = analyze_reachability(
            RootedKernel, site_table=toy_site_table(RootedKernel))
        assert result.dead_functions == []
        assert "orphan" in result.roots

    def test_static_cov_overflow_reported(self):
        result = analyze_reachability(OverflowKernel)
        eof202 = [d for d in result.diagnostics if d.code == "EOF202"]
        assert len(eof202) == 1
        assert dict(eof202[0].data)["sub_site"] == 5

    def test_universe_memoised_per_build_shape(self):
        build = cached_build("pokos", board="qemu-virt")
        first = reachable_edge_universe(build)
        assert first > 0
        assert reachable_edge_universe(build) == first

    def test_uninstrumented_build_has_no_universe(self):
        build = cached_build("pokos", board="qemu-virt", instrument=False)
        assert reachable_edge_universe(build) == 0


# ---------------------------------------------------------------------------
# Pass 3 — determinism lint
# ---------------------------------------------------------------------------

class TestDeterminismLint:
    def test_own_tree_is_clean(self):
        report = lint_sources()
        assert report.clean, report.render()
        assert report.summary["lint.rules"] >= 6
        assert report.summary["lint.files"] > 50

    def test_nondeterministic_call_flagged(self, tmp_path):
        bad = tmp_path / "clocky.py"
        bad.write_text("import time\n\n"
                       "def stamp():\n    return time.time()\n")
        report = lint_sources([str(bad)])
        assert report.codes() == ["EOF301"]

    def test_seeded_stream_not_flagged(self, tmp_path):
        ok = tmp_path / "streams.py"
        ok.write_text("def shuffle(self, items):\n"
                      "    self.rng.random.shuffle(items)\n")
        assert lint_sources([str(ok)]).clean

    def test_allowed_layers_exempt(self, tmp_path):
        obs_dir = tmp_path / "obs"
        obs_dir.mkdir()
        (obs_dir / "clock.py").write_text(
            "import time\n\ndef wall():\n    return time.time()\n")
        assert lint_sources([str(tmp_path)]).clean

    def test_bare_except_flagged(self, tmp_path):
        bad = tmp_path / "swallow.py"
        bad.write_text("def f():\n"
                       "    try:\n        pass\n"
                       "    except:\n        pass\n")
        report = lint_sources([str(bad)])
        assert report.codes() == ["EOF302"]

    def test_unregistered_event_flagged(self, tmp_path):
        bad = tmp_path / "emitter.py"
        bad.write_text("def f(bus):\n"
                       "    bus.emit('totally.unregistered', x=1)\n"
                       "    bus.emit('run.start')\n")
        report = lint_sources([str(bad)])
        assert report.codes() == ["EOF303"]
        assert len(report.diagnostics) == 1

    def test_unfrozen_spec_dataclass_flagged(self, tmp_path):
        spec_dir = tmp_path / "spec"
        spec_dir.mkdir()
        (spec_dir / "model.py").write_text(
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass Loose:\n    x: int = 0\n\n"
            "@dataclass(frozen=True)\nclass Tight:\n    x: int = 0\n")
        report = lint_sources([str(tmp_path)])
        assert report.codes() == ["EOF304"]
        assert dict(report.diagnostics[0].data)["cls"] == "Loose"

    def test_unparseable_file_flagged(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = lint_sources([str(bad)])
        assert report.codes() == ["EOF305"]

    def test_unregistered_metric_flagged(self, tmp_path):
        bad = tmp_path / "metrics.py"
        bad.write_text("def f(obs):\n"
                       "    obs.counter('totally.unregistered').inc()\n"
                       "    obs.counter('corpus.size').inc()\n")
        report = lint_sources([str(bad)])
        assert report.codes() == ["EOF306"]
        assert len(report.diagnostics) == 1

    def test_bare_persistent_write_flagged(self, tmp_path):
        bad = tmp_path / "writer.py"
        bad.write_text(
            "import json\n\n"
            "def save(run_dir, payload):\n"
            "    with open(run_dir + '/metrics.json', 'w') as fh:\n"
            "        json.dump(payload, fh)\n")
        report = lint_sources([str(bad)])
        assert report.codes() == ["EOF307"]
        assert dict(report.diagnostics[0].data)["artifact"] \
            == "/metrics.json"

    def test_constant_filename_write_flagged(self, tmp_path):
        bad = tmp_path / "constwriter.py"
        bad.write_text(
            "import os\n\n"
            "SERIES_FILE = 'timeseries.jsonl'\n\n"
            "def save(run_dir, text):\n"
            "    path = os.path.join(run_dir, SERIES_FILE)\n"
            "    with open(os.path.join(run_dir, SERIES_FILE),\n"
            "              mode='w') as fh:\n"
            "        fh.write(text)\n")
        report = lint_sources([str(bad)])
        assert report.codes() == ["EOF307"]

    def test_atomic_helper_and_streams_not_flagged(self, tmp_path):
        db_dir = tmp_path / "db"
        db_dir.mkdir()
        # The helper module itself is exempt; appends and writes to a
        # computed path (the streaming sinks) are out of scope.
        (db_dir / "io.py").write_text(
            "def atomic_write_text(path, text):\n"
            "    with open(path + '.json', 'w') as fh:\n"
            "        fh.write(text)\n")
        (tmp_path / "sink.py").write_text(
            "from repro.db.io import atomic_write_json\n\n"
            "def good(path, payload, stream_path):\n"
            "    atomic_write_json(path, payload)\n"
            "    with open(stream_path, 'a') as fh:\n"
            "        fh.write('x')\n"
            "    with open('events.jsonl', 'ab') as fh:\n"
            "        fh.write(b'x')\n")
        assert lint_sources([str(tmp_path)]).clean

    def test_threading_import_flagged(self, tmp_path):
        bad = tmp_path / "pool.py"
        bad.write_text(
            "import signal\n"
            "import threading\n"
            "import _thread\n"
            "from concurrent.futures import Future\n"
            "from concurrent import futures\n")
        report = lint_sources([str(bad)])
        assert report.codes() == ["EOF308"]
        assert [dict(d.data)["module"] for d in report.diagnostics] == [
            "threading", "_thread", "concurrent.futures",
            "concurrent.futures"]


# ---------------------------------------------------------------------------
# Satellite: coverage-buffer truncation + site clamp telemetry
# ---------------------------------------------------------------------------

class TestTruncationAndClamps:
    def make_raw(self, header_count, records):
        raw = header_count.to_bytes(4, "little")
        for record in records:
            raw += record.to_bytes(4, "little")
        return raw

    def test_truncation_counted_and_emitted(self):
        obs = Observability(run_id="t")
        ring = obs.attach(RingBufferSink())
        raw = self.make_raw(10, [0x10001, 0x10002])
        edges = decode_coverage_buffer(raw, obs=obs)
        assert edges == [0x10001, 0x10002]
        assert obs.counter("cov.truncated").value == 8
        events = ring.named("cov.truncated")
        assert len(events) == 1
        assert events[0].fields == {"lost_records": 8, "header_count": 10,
                                    "capacity": 2}

    def test_honest_header_stays_silent(self):
        obs = Observability(run_id="t")
        ring = obs.attach(RingBufferSink())
        raw = self.make_raw(2, [0x10001, 0x10002])
        assert decode_coverage_buffer(raw, obs=obs) == [0x10001, 0x10002]
        assert obs.counter("cov.truncated").value == 0
        assert ring.named("cov.truncated") == []

    def test_decode_without_obs_still_clamps(self):
        raw = self.make_raw(10, [0x10001])
        assert decode_coverage_buffer(raw) == [0x10001]

    def test_site_clamp_is_tallied(self):
        CLAMPS.reset()
        info = SiteInfo(symbol="f", module="m", base=10, count=4)
        assert info.site(2) == 12
        assert CLAMPS.count == 0
        assert info.site(7) == 10 + (7 % 4)
        assert CLAMPS.count == 1
        assert CLAMPS.by_symbol == {"f": 1}
        CLAMPS.reset()
        assert CLAMPS.count == 0


# ---------------------------------------------------------------------------
# Satellite: validate_against_api collects every mismatch
# ---------------------------------------------------------------------------

class TestValidateCollectsAll:
    def broken_spec_and_apis(self):
        build = cached_build("pokos", board="qemu-virt")
        spec = generate_validated_specs(build)
        calls = list(spec.calls)
        # Three independent defects: renamed call 0 (order), dropped
        # params on call 1 (arity), flipped ret on call 2.
        calls[0] = dataclasses.replace(calls[0], name="renamed")
        calls[1] = dataclasses.replace(calls[1], params=())
        calls[2] = dataclasses.replace(calls[2], ret="bogus_res")
        broken = SpecSet(os_name=spec.os_name, resources=spec.resources,
                         flags=spec.flags, calls=calls)
        return broken, build.api_defs

    def test_all_mismatches_collected(self):
        broken, api_defs = self.broken_spec_and_apis()
        diagnostics = collect_api_mismatches(broken, api_defs)
        codes = sorted(d.code for d in diagnostics)
        assert codes == ["EOF111", "EOF112", "EOF114"]

    def test_single_error_carries_diagnostics(self):
        broken, api_defs = self.broken_spec_and_apis()
        with pytest.raises(SpecTypeError) as excinfo:
            validate_against_api(broken, api_defs)
        assert len(excinfo.value.diagnostics) == 3
        assert "(+2 more)" in str(excinfo.value)

    def test_valid_spec_passes(self):
        build = cached_build("pokos", board="qemu-virt")
        spec = generate_validated_specs(build)
        assert collect_api_mismatches(spec, build.api_defs) == []
        validate_against_api(spec, build.api_defs)  # must not raise


# ---------------------------------------------------------------------------
# analyze_target + artifacts + engine saturation
# ---------------------------------------------------------------------------

class TestAnalyzeTargetAndArtifacts:
    def test_analyze_target_clean_with_universe(self):
        report = analyze_target("pokos", include_lint=False)
        assert report.clean, report.render()
        assert report.summary["reach.edge_universe"] > 0
        assert report.summary["spec.dead_calls"] == 0
        assert report.summary["spec.calls_total"] > 0

    def test_artifact_round_trip(self, tmp_path):
        report = analyze_target("pokos", include_lint=False)
        path = write_analysis_artifact(str(tmp_path), report)
        assert path.endswith(ANALYSIS_FILE)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["target"] == "pokos"
        loaded = load_analysis_artifact(str(tmp_path))
        assert loaded.summary == report.summary
        assert loaded.codes() == report.codes()

    def test_missing_artifact_is_none(self, tmp_path):
        assert load_analysis_artifact(str(tmp_path)) is None

    def test_stats_saturation_round_trip(self):
        stats = FuzzStats(reachable_edges=200)
        stats.record_point(100, 50)
        assert stats.coverage_saturation() == pytest.approx(0.25)
        assert "saturation=25.0%" in stats.summary()
        clone = FuzzStats.from_dict(stats.to_dict())
        assert clone.reachable_edges == 200
        assert clone.coverage_saturation() == pytest.approx(0.25)

    def test_no_universe_means_zero_saturation(self):
        stats = FuzzStats()
        stats.record_point(100, 50)
        assert stats.coverage_saturation() == 0.0
        assert "saturation" not in stats.summary()

    def test_bench_mean_saturation(self):
        from types import SimpleNamespace
        from repro.bench.runner import SeedSummary
        summary = SeedSummary(fuzzer="eof", target="t")
        for edges, universe in ((50, 200), (100, 200), (0, 0)):
            stats = FuzzStats(reachable_edges=universe)
            stats.record_point(10, edges)
            summary.results.append(SimpleNamespace(stats=stats))
        # The analysable seeds average (0.25 + 0.5) / 2; the
        # universe-less seed is excluded, not counted as zero.
        assert summary.mean_saturation == pytest.approx(0.375)
        assert SeedSummary(fuzzer="e", target="t").mean_saturation == 0.0

    def test_engine_computes_universe_and_report_shows_it(self):
        target = get_target("pokos")
        from repro.firmware.builder import build_firmware
        build = build_firmware(target.build_config())
        spec = generate_validated_specs(build)
        engine = EofEngine(build, spec,
                           EngineOptions(seed=3, budget_cycles=150_000))
        assert engine.stats.reachable_edges > 0
        result = engine.run()
        saturation = result.stats.coverage_saturation()
        assert 0.0 < saturation <= 1.5
        rendered = render_report({"run_id": "r",
                                  "stats": result.stats.to_dict()})
        assert "saturation" in rendered

    def test_engine_surfaces_reach_failure(self, monkeypatch):
        from repro.analysis import reach
        from repro.firmware.builder import build_firmware
        build = build_firmware(get_target("pokos").build_config())
        spec = generate_validated_specs(build)

        def broken(_build):
            raise RuntimeError("reach exploded")

        monkeypatch.setattr(reach, "reachable_edge_universe", broken)
        with pytest.raises(RuntimeError, match="reach exploded"):
            EofEngine(build, spec, EngineOptions(seed=3))


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCli:
    def test_analyze_writes_artifact(self, tmp_path, capsys):
        code = cli.main(["analyze", "pokos", "--no-lint",
                         "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "reach.edge_universe" in out
        assert (tmp_path / ANALYSIS_FILE).exists()

    def test_lint_clean_tree_exits_zero(self, capsys):
        assert cli.main(["lint"]) == 0
        assert "diagnostics: none" in capsys.readouterr().out

    def test_lint_dirty_path_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "dirty.py"
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert cli.main(["lint", str(bad)]) == 1
        assert "EOF301" in capsys.readouterr().out

    def test_lint_missing_path_exits_nonzero(self, tmp_path, capsys):
        # A mistyped path must not pass as "0 files, no diagnostics".
        missing = str(tmp_path / "gone")
        assert cli.main(["lint", missing]) == 1
        captured = capsys.readouterr()
        assert missing in captured.err
        assert "diagnostics" not in captured.out

    def test_explain_known_code(self, capsys):
        assert cli.main(["analyze", "--explain", "EOF308"]) == 0
        out = capsys.readouterr().out
        assert "EOF308" in out and "_graceful_stop" in out

    def test_explain_unknown_exits_one(self, capsys):
        assert cli.main(["analyze", "--explain", "EOF999"]) == 1
        assert "unknown diagnostic code" in capsys.readouterr().err

    def test_analyze_requires_target_or_explain(self, capsys):
        assert cli.main(["analyze"]) == 1
        assert "required" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# --explain + meta: code registration, docstring sync, report section
# ---------------------------------------------------------------------------

class TestExplain:
    @pytest.mark.parametrize("code", sorted(CODE_TABLE))
    def test_every_registered_code_explains(self, code):
        text = explain_code(code)
        assert text is not None and text.startswith(code)

    def test_explain_unknown_code_is_none(self):
        assert explain_code("EOF999") is None


DIAG_CALL = re.compile(r'diag\(\s*\n?\s*"(EOF\d{3})"')


class TestMeta:
    def _analysis_sources(self):
        package_dir = os.path.dirname(repro.analysis.__file__)
        for filename in sorted(os.listdir(package_dir)):
            if filename.endswith(".py"):
                path = os.path.join(package_dir, filename)
                with open(path, encoding="utf-8") as fh:
                    yield fh.read()

    def test_every_emitted_code_is_registered(self):
        # Any diag("EOFnnn", ...) literal in the analysis package must
        # have a CODE_TABLE entry.
        emitted = set()
        for source in self._analysis_sources():
            emitted.update(DIAG_CALL.findall(source))
        assert emitted, "no diag() literals found — regex rot?"
        unregistered = emitted - set(CODE_TABLE)
        assert not unregistered, unregistered

    def test_lint_docstring_documents_its_codes(self):
        import repro.analysis.lint as lint_module
        with open(lint_module.__file__, encoding="utf-8") as fh:
            emitted = set(DIAG_CALL.findall(fh.read()))
        documented = set(re.findall(r"EOF\d{3}",
                                    lint_module.__doc__ or ""))
        assert emitted <= documented, emitted - documented

    def test_report_txt_renders_analysis_section(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\n\ndef f():\n    return time.time()\n")
        data = {"run_id": "t", "meta": {},
                "analysis": analysis_summary(lint_sources([str(dirty)]))}
        text = render_report(data)
        assert "Static analysis" in text
        assert "EOF301 x1" in text
