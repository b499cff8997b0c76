"""Engine + CLI behaviour: self-lint cleanliness, JSON output, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import LintEngine, lint_paths, registered_rules
from repro.analysis.cli import main
from repro.analysis.findings import Finding, Severity, summarize

REPO = Path(__file__).parent.parent
SRC = REPO / "src" / "repro"
FIXTURES = Path(__file__).parent / "analysis_fixtures"


# -- acceptance: the repo lints itself clean -------------------------------------

def test_self_lint_is_clean():
    findings = lint_paths([str(SRC)])
    assert findings == [], "\n".join(finding.format() for finding in findings)


def test_cli_clean_file_exits_zero(capsys):
    assert main([str(FIXTURES / "rpr001_good.py"), "--fail-on-findings"]) == 0
    assert "no findings" in capsys.readouterr().out


# -- rule registry -----------------------------------------------------------------

VP_RULES = {"RPR001", "RPR002", "RPR003", "RPR004", "RPR006", "RPR007"}


def test_all_five_vp_rules_registered():
    assert set(registered_rules()) == VP_RULES
    assert {rule.rule_id for rule in LintEngine().rules} == VP_RULES


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    output = capsys.readouterr().out
    for rule_id in VP_RULES:
        assert rule_id in output


# -- output formats ----------------------------------------------------------------

def test_cli_json_output_is_machine_readable(capsys):
    exit_code = main([str(FIXTURES / "rpr001_bad.py"), "--json", "--select", "RPR001"])
    assert exit_code == 0                      # no --fail-on-findings
    document = json.loads(capsys.readouterr().out)
    assert document["mode"] == "lint"
    assert document["total"] == len(document["findings"]) > 0
    first = document["findings"][0]
    assert first["rule"] == "RPR001"
    assert first["severity"] == "error"
    assert first["path"].endswith("rpr001_bad.py")
    assert isinstance(first["line"], int) and first["line"] > 0
    assert document["counts"] == {"RPR001": document["total"]}


def test_cli_fail_on_findings_exit_code():
    assert main([str(FIXTURES / "rpr001_bad.py"), "--select", "RPR001",
                 "--fail-on-findings"]) == 1


def test_cli_ignore_filters_rules():
    assert main([str(FIXTURES / "rpr001_bad.py"), "--ignore", "RPR001",
                 "--fail-on-findings"]) == 0


# -- findings model ----------------------------------------------------------------

def test_finding_format_and_json_round_trip():
    finding = Finding(rule="RPR001", severity=Severity.ERROR, path="a/b.py",
                      line=7, message="nope", context="extra")
    assert finding.format() == "a/b.py:7: error RPR001: nope [extra]"
    assert finding.to_json()["context"] == "extra"
    assert summarize([finding, finding]) == {"RPR001": 2}


def test_syntax_error_becomes_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    findings = lint_paths([str(bad)])
    assert len(findings) == 1
    assert findings[0].rule == "RPR000"
    assert "syntax error" in findings[0].message


# -- sanitize-run / determinism-run CLI modes ---------------------------------------

def test_cli_sanitize_run_quickstart_is_clean(capsys):
    quickstart = REPO / "examples" / "quickstart.py"
    assert main(["--sanitize-run", str(quickstart), "--fail-on-findings"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_sanitize_run_reports_seeded_violation(tmp_path, capsys):
    script = tmp_path / "seeded.py"
    script.write_text(
        "from repro.systemc.kernel import Kernel\n"
        "from repro.systemc.time import SimTime\n"
        "from repro.tlm.quantum import GlobalQuantum\n"
        "from repro.vcml.processor import Processor, SimulateAction, SimulateResult\n"
        "class Greedy(Processor):\n"
        "    def simulate(self, cycles):\n"
        "        return SimulateResult(cycles + 1, SimulateAction.CONTINUE)\n"
        "kernel = Kernel()\n"
        "Greedy('greedy', GlobalQuantum(SimTime.us(1)), parent=kernel)"
        "._invoke_simulate(100)\n"
    )
    assert main(["--sanitize-run", str(script), "--fail-on-findings"]) == 1
    assert "SAN004" in capsys.readouterr().out


def test_cli_determinism_run_quickstart(capsys):
    quickstart = REPO / "examples" / "quickstart.py"
    assert main(["--determinism-run", str(quickstart), "--fail-on-findings"]) == 0
    assert "trace digests" in capsys.readouterr().out


def test_cli_determinism_run_gives_the_script_its_own_argv(tmp_path, monkeypatch, capsys):
    script = tmp_path / "argparse_scenario.py"
    script.write_text(
        "import argparse\n"
        "from repro.systemc.kernel import Kernel\n"
        "from repro.systemc.time import SimTime\n"
        "parser = argparse.ArgumentParser()\n"
        "parser.add_argument('--steps', type=int, default=3)\n"
        "args = parser.parse_args()\n"
        "kernel = Kernel()\n"
        "def body():\n"
        "    for _ in range(args.steps):\n"
        "        yield SimTime.ns(10)\n"
        "kernel.spawn(body, name='stepper')\n"
        "kernel.run()\n"
    )
    argv = ["--fail-on-findings", "--determinism-run", str(script)]
    monkeypatch.setattr("sys.argv", ["repro.analysis", *argv])
    assert main(argv) == 0
    assert "trace digests" in capsys.readouterr().out


def test_cli_rejects_missing_script():
    with pytest.raises(SystemExit):
        main(["--sanitize-run", "/no/such/script.py"])


def test_cli_run_modes_are_mutually_exclusive(capsys):
    quickstart = str(REPO / "examples" / "quickstart.py")
    with pytest.raises(SystemExit) as exc:
        main(["--sanitize-run", quickstart, "--determinism-run", quickstart])
    assert exc.value.code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_cli_rejects_unknown_rule():
    with pytest.raises(SystemExit):
        main(["--select", "RPR999"])


def test_cli_rejects_missing_lint_path():
    # A typo'd path must not silently report "no findings" in CI.
    with pytest.raises(SystemExit):
        main(["/no/such/lint/dir", "--fail-on-findings"])


def test_cli_rejects_single_run_determinism():
    with pytest.raises(SystemExit):
        main(["--determinism-run", str(REPO / "examples" / "quickstart.py"),
              "--runs", "1"])
