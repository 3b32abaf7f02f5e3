"""Pass 4 — concurrency-effect analysis (EOF4xx) + inline suppressions.

Covers the tentpole contract from both sides: every rule fires exactly
once on its minimal fixture, the clean fixture and the repo's own
sources stay at zero, suppressions drop findings (and rot loudly via
EOF407), and the CLI surfaces (``eof-fuzz concurrency``, ``analyze
--explain``) behave.
"""

import os
import re

import pytest

import repro.cli as cli
from repro.analysis import analysis_summary, explain_code
from repro.analysis.concurrency import analyze_concurrency
from repro.analysis.diagnostics import CODE_TABLE
from repro.analysis.effects import build_index, signal_reachable
from repro.analysis.suppress import SuppressionIndex, scan_suppressions

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "concurrency")
ANALYSIS_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "src", "repro", "analysis")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


# ---------------------------------------------------------------------------
# the four rules, one minimal fixture each
# ---------------------------------------------------------------------------

class TestRuleFixtures:
    @pytest.mark.parametrize("filename,code", [
        ("eof401_atomic.py", "EOF401"),
        ("eof403_handler.py", "EOF403"),
        ("eof404_global.py", "EOF404"),
        ("eof405_external.py", "EOF405"),
    ])
    def test_fixture_triggers_exactly_once(self, filename, code):
        report = analyze_concurrency([fixture(filename)])
        assert [d.code for d in report.diagnostics] == [code], \
            report.render()
        assert filename in report.diagnostics[0].where

    def test_clean_fixture_is_clean(self):
        report = analyze_concurrency([fixture("clean_guarded.py")])
        assert report.clean, report.render()

    def test_own_tree_has_zero_eof4xx(self):
        # The concurrency contract of src/repro itself: the pass the CI
        # gate runs must stay clean, with the GUARDED_BY annotations of
        # WorkerCore, _RemoteHandle, CampaignOrchestrator and
        # CampaignStore as the machine-checked convention, and the CLI's
        # campaign stop handler as the one signal context.
        report = analyze_concurrency()
        assert report.clean, report.render()
        assert report.summary["conc.classes_guarded"] == 4
        assert report.summary["conc.signal_handlers"] == 1

    def test_contexts_discovered_on_fixture(self):
        # Signal context flows from the signal.signal() registration
        # along typed calls: the handler and the flag setter it reaches,
        # never the main loop that installed it.
        index = build_index([fixture("clean_guarded.py")])
        names = {fn.qual for fn in signal_reachable(index)}
        assert names == {"_on_int", "Run.stop"}

    def test_summary_keys_stable(self):
        report = analyze_concurrency([fixture("clean_guarded.py")])
        for key in ("conc.files", "conc.functions",
                    "conc.classes_guarded", "conc.signal_handlers",
                    "conc.diagnostics"):
            assert key in report.summary


# ---------------------------------------------------------------------------
# inline suppressions + EOF407
# ---------------------------------------------------------------------------

SUPPRESSED_TALLY = '''class Tally:
    GUARDED_BY = {"count": "@atomic"}

    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1  # eof: allow[EOF401]  benchmarked single-writer
'''


class TestSuppressions:
    def test_allow_comment_drops_the_diagnostic(self, tmp_path):
        path = tmp_path / "tally.py"
        path.write_text(SUPPRESSED_TALLY)
        report = analyze_concurrency([str(path)])
        # The finding is suppressed AND the allow is used, so no EOF407.
        assert report.clean, report.render()

    def test_unused_allow_raises_eof407(self, tmp_path):
        path = tmp_path / "stale.py"
        path.write_text("X = 1  # eof: allow[EOF404]\n")
        report = analyze_concurrency([str(path)])
        assert [d.code for d in report.diagnostics] == ["EOF407"]
        assert "allow[EOF404]" in report.diagnostics[0].message

    def test_eof407_scoped_to_executed_ranges(self, tmp_path):
        # An EOF3xx allow is invisible to the concurrency pass: lint
        # did not run, so the allow is unproven rather than stale.
        path = tmp_path / "other_range.py"
        path.write_text("import time  # eof: allow[EOF301]\n")
        report = analyze_concurrency([str(path)])
        assert report.clean, report.render()

    def test_lint_honors_suppression_and_flags_stale(self, tmp_path):
        from repro.analysis import lint_sources
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import time\n\n\n"
            "def f():\n"
            "    return time.time()  # eof: allow[EOF301]\n")
        report = lint_sources([str(dirty)])
        assert report.clean, report.render()
        stale = tmp_path / "stale.py"
        stale.write_text("Y = 2  # eof: allow[EOF302]\n")
        report = lint_sources([str(stale)])
        assert [d.code for d in report.diagnostics] == ["EOF407"]

    def test_suppression_index_suffix_matching(self):
        index = SuppressionIndex()
        index.scan_source("farm/state.py", "x = 1  # eof: allow[EOF401]\n")
        assert index.allows("repro/farm/state.py", 1, "EOF401")
        assert not index.allows("repro/farm/state.py", 2, "EOF401")
        assert not index.allows("repro/farm/other.py", 1, "EOF401")

    def test_scan_suppressions_ignores_missing_files(self, tmp_path):
        index = scan_suppressions([(str(tmp_path / "gone.py"), "gone.py")])
        assert index.suppressions == []


# ---------------------------------------------------------------------------
# --explain + CLI surfaces
# ---------------------------------------------------------------------------

class TestExplainAndCli:
    @pytest.mark.parametrize("code", sorted(CODE_TABLE))
    def test_every_registered_code_explains(self, code):
        text = explain_code(code)
        assert text is not None and text.startswith(code)

    def test_explain_unknown_code_is_none(self):
        assert explain_code("EOF999") is None

    def test_cli_explain_known(self, capsys):
        assert cli.main(["analyze", "--explain", "EOF401"]) == 0
        out = capsys.readouterr().out
        assert "EOF401" in out and "GUARDED_BY" in out

    def test_cli_explain_unknown_exits_one(self, capsys):
        assert cli.main(["analyze", "--explain", "EOF999"]) == 1
        assert "unknown diagnostic code" in capsys.readouterr().err

    def test_cli_analyze_requires_target_or_explain(self, capsys):
        assert cli.main(["analyze"]) == 1
        assert "required" in capsys.readouterr().err

    def test_cli_concurrency_clean_tree_exits_zero(self, capsys):
        assert cli.main(["concurrency"]) == 0
        assert "diagnostics: none" in capsys.readouterr().out

    def test_cli_concurrency_dirty_path_exits_nonzero(self, capsys):
        assert cli.main(["concurrency",
                         fixture("eof401_atomic.py")]) == 1
        assert "EOF401" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# meta: code registration + docstring sync + report section
# ---------------------------------------------------------------------------

DIAG_CALL = re.compile(r'diag\(\s*\n?\s*"(EOF\d{3})"')


class TestMeta:
    def _analysis_sources(self):
        for filename in sorted(os.listdir(ANALYSIS_SRC)):
            if filename.endswith(".py"):
                path = os.path.join(ANALYSIS_SRC, filename)
                with open(path, encoding="utf-8") as fh:
                    yield filename, fh.read()

    def test_every_emitted_code_is_registered(self):
        # The EOF306-was-missing regression class, closed permanently:
        # any diag("EOFnnn", ...) literal in the analysis package must
        # have a CODE_TABLE entry.
        emitted = set()
        for _filename, source in self._analysis_sources():
            emitted.update(DIAG_CALL.findall(source))
        assert emitted, "no diag() literals found — regex rot?"
        unregistered = emitted - set(CODE_TABLE)
        assert not unregistered, unregistered

    def test_lint_docstring_documents_its_codes(self):
        import repro.analysis.lint as lint_module
        source = open(lint_module.__file__.rstrip("c"),
                      encoding="utf-8").read()
        emitted = set(DIAG_CALL.findall(source))
        documented = set(re.findall(r"EOF\d{3}",
                                    lint_module.__doc__ or ""))
        assert emitted <= documented, emitted - documented

    def test_concurrency_docstring_documents_its_codes(self):
        import repro.analysis.concurrency as conc_module
        documented = set(re.findall(r"EOF\d{3}",
                                    conc_module.__doc__ or ""))
        assert {"EOF401", "EOF403", "EOF404", "EOF405"} <= documented

    def test_report_txt_renders_analysis_section(self):
        from repro.obs.report import render_report
        report = analyze_concurrency([fixture("eof401_atomic.py")])
        data = {"run_id": "t", "meta": {},
                "analysis": analysis_summary(report)}
        text = render_report(data)
        assert "Static analysis" in text
        assert "EOF401 x1" in text
