"""Per-rule positive/negative fixture tests for the lint engine."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import lint_paths

FIXTURES = Path(__file__).parent / "analysis_fixtures"


def rules_fired(*paths, select=None):
    findings = lint_paths([str(p) for p in paths], select=select)
    return findings, {finding.rule for finding in findings}


# -- RPR001: wall clock / unseeded randomness -----------------------------------

def test_rpr001_fires_on_wall_clock_and_global_random():
    findings, rules = rules_fired(FIXTURES / "rpr001_bad.py", select=["RPR001"])
    assert rules == {"RPR001"}
    offenders = " ".join(finding.message for finding in findings)
    assert "time.time()" in offenders
    assert "random.random()" in offenders
    assert "perf_counter()" in offenders          # from-import alias form
    assert len(findings) == 3


def test_rpr001_silent_on_seeded_rng_and_sim_time():
    _, rules = rules_fired(FIXTURES / "rpr001_good.py", select=["RPR001"])
    assert rules == set()


def test_rpr001_allows_host_package_dir():
    # host/clockuser.py reads perf_counter but lives under host/: exempt.
    tree_findings = lint_paths([str(FIXTURES)], select=["RPR001"])
    assert not any("clockuser" in finding.path for finding in tree_findings)


# -- RPR002: blocking transport outside SC_THREAD -------------------------------

def test_rpr002_fires_on_elaboration_transport_and_sleep():
    findings, rules = rules_fired(FIXTURES / "rpr002_bad.py", select=["RPR002"])
    assert rules == {"RPR002"}
    messages = " ".join(finding.message for finding in findings)
    assert "__init__" in messages
    assert "end_of_elaboration" in messages
    assert "time.sleep" in messages
    assert len(findings) == 3


def test_rpr002_silent_on_thread_context_and_debug_transport():
    _, rules = rules_fired(FIXTURES / "rpr002_good.py", select=["RPR002"])
    assert rules == set()


def test_rpr002_allows_sleep_in_host_package_dir():
    # host/clockuser.py calls time.sleep but lives under host/: exempt,
    # same carve-out as RPR001.
    tree_findings = lint_paths([str(FIXTURES)], select=["RPR002"])
    assert not any("clockuser" in finding.path for finding in tree_findings)


# -- RPR003: mutable defaults / set iteration ------------------------------------

def test_rpr003_fires_on_mutable_default_and_set_iteration():
    findings, rules = rules_fired(
        FIXTURES / "kernelcode", select=["RPR003"])
    bad = [finding for finding in findings if "rpr003_bad" in finding.path]
    assert rules == {"RPR003"}
    assert any("mutable default" in finding.message for finding in bad)
    assert any("hash-order" in finding.message for finding in bad)
    assert len(bad) == 2


def test_rpr003_silent_on_none_default_and_membership_sets():
    findings = lint_paths([str(FIXTURES / "kernelcode")], select=["RPR003"])
    assert not any("rpr003_good" in finding.path for finding in findings)


# -- RPR004: SimulateAction coverage ---------------------------------------------

def test_rpr004_fires_when_variants_missing():
    findings, rules = rules_fired(FIXTURES / "rpr004_bad.py", select=["RPR004"])
    assert rules == {"RPR004"}
    assert "BREAK" in findings[0].message and "WAIT_IRQ" in findings[0].message


def test_rpr004_silent_with_single_fallthrough():
    _, rules = rules_fired(FIXTURES / "rpr004_good.py", select=["RPR004"])
    assert rules == set()


# -- RPR006: print() in simulation paths -------------------------------------------

def test_rpr006_fires_on_print_in_model_code():
    findings, rules = rules_fired(FIXTURES / "rpr006_bad.py", select=["RPR006"])
    assert rules == {"RPR006"}
    assert all("print()" in finding.message for finding in findings)
    assert len(findings) == 2


def test_rpr006_silent_on_logging_and_lookalike_names():
    _, rules = rules_fired(FIXTURES / "rpr006_good.py", select=["RPR006"])
    assert rules == set()


def test_rpr006_exempts_entry_points_and_reporting_dirs(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "results.py").write_text("print('table')\n")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__main__.py").write_text("print('usage: ...')\n")
    (tmp_path / "pkg" / "model.py").write_text("print('oops')\n")
    findings = lint_paths([str(tmp_path)], select=["RPR006"])
    assert len(findings) == 1
    assert findings[0].path.endswith("pkg/model.py")


# -- RPR007: raw GenericPayload construction outside the fabric ---------------------

def test_rpr007_fires_on_raw_payload_construction():
    findings, rules = rules_fired(FIXTURES / "rpr007_bad.py", select=["RPR007"])
    assert rules == {"RPR007"}
    messages = " ".join(finding.message for finding in findings)
    assert "GenericPayload.write(...)" in messages
    assert "GenericPayload.read(...)" in messages
    assert "GenericPayload(...)" in messages
    assert len(findings) == 3


def test_rpr007_silent_on_fabric_port_usage():
    _, rules = rules_fired(FIXTURES / "rpr007_good.py", select=["RPR007"])
    assert rules == set()


def test_rpr007_exempts_payload_lifecycle_dirs(tmp_path):
    source = ("from repro.tlm.payload import GenericPayload\n"
              "payload = GenericPayload.read(0x1000, 4)\n")
    (tmp_path / "tlm").mkdir()
    (tmp_path / "tlm" / "pool.py").write_text(source)
    (tmp_path / "fabric").mkdir()
    (tmp_path / "fabric" / "port.py").write_text(source)
    (tmp_path / "models").mkdir()
    (tmp_path / "models" / "dma.py").write_text(source)
    findings = lint_paths([str(tmp_path)], select=["RPR007"])
    assert len(findings) == 1
    assert findings[0].path.endswith("models/dma.py")


# -- suppression comments ----------------------------------------------------------

def test_suppression_comment_silences_one_line(tmp_path):
    source = (
        "import time\n"
        "def f():\n"
        "    return time.time()  # repro: ignore[RPR001]\n"
        "def g():\n"
        "    return time.time()\n"
    )
    path = tmp_path / "suppressed.py"
    path.write_text(source)
    findings = lint_paths([str(path)], select=["RPR001"])
    assert len(findings) == 1
    assert findings[0].line == 5


def test_unknown_rule_id_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        lint_paths([str(FIXTURES)], select=["RPR999"])
