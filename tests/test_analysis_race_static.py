"""Static race-rule tests: RPR008–RPR010 fixtures, the lane model's
classification, fingerprint stability, and the baseline's shrink-only
semantics (including the committed tree baseline)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import RACE_RULE_IDS, Baseline, lint_paths
from repro.analysis.baseline import BaselineEntry
from repro.analysis.cli import main as cli_main
from repro.analysis.engine import LintEngine
from repro.analysis.findings import Finding, Severity
from repro.analysis.lanes import CROSS_LANE_SHARED, LANE_LOCAL, LaneModel

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).parent.parent


def rules_fired(*paths, select=None):
    findings = lint_paths([str(p) for p in paths], select=select)
    return findings, {finding.rule for finding in findings}


# -- RPR008: shared attribute writes in simulate-leg paths -----------------------

def test_rpr008_fires_on_shared_attribute_writes():
    findings, rules = rules_fired(FIXTURES / "rpr008_bad.py", select=["RPR008"])
    assert rules == {"RPR008"}
    messages = " ".join(finding.message for finding in findings)
    assert "SharedStatusDevice.status" in messages
    assert "SharedStatusDevice.last_writer" in messages
    assert "PerCoreBanked.acks" in messages
    assert len(findings) == 3
    # Every finding names its lane path so the report reads as a chain.
    assert all("lane path:" in finding.context for finding in findings)


def test_rpr008_silent_on_port_barrier_and_lane_local_patterns():
    _, rules = rules_fired(FIXTURES / "rpr008_good.py", select=["RPR008"])
    assert rules == set()


# -- RPR009: shared container mutation --------------------------------------------

def test_rpr009_fires_on_two_cores_writing_shared_register_dict():
    findings, rules = rules_fired(FIXTURES / "rpr009_bad.py", select=["RPR009"])
    assert rules == {"RPR009"}
    messages = " ".join(finding.message for finding in findings)
    assert "SharedRegisterFile.regs" in messages          # subscript store
    assert "SharedRegisterFile.pending" in messages       # .add() / .pop()
    assert len(findings) == 3
    # drain() is only reachable *through* the transport handler: the
    # discovery chain must say so.
    drain = [finding for finding in findings if ".pop()" in finding.message]
    assert drain and "_dist_transport -> SharedRegisterFile.drain" in drain[0].context


def test_rpr009_silent_on_barrier_safe_mutations():
    _, rules = rules_fired(FIXTURES / "rpr009_good.py", select=["RPR009"])
    assert rules == set()


# -- RPR010: barrier-only kernel APIs ----------------------------------------------

def test_rpr010_fires_on_barrier_only_api_from_legs():
    findings, rules = rules_fired(FIXTURES / "rpr010_bad.py", select=["RPR010"])
    assert rules == {"RPR010"}
    messages = " ".join(finding.message for finding in findings)
    assert "request_update()" in messages
    assert "notify(<immediate>)" in messages
    assert len(findings) == 3
    assert all(finding.severity is Severity.ERROR for finding in findings)


def test_rpr010_silent_on_delta_notify_and_barrier_context():
    _, rules = rules_fired(FIXTURES / "rpr010_good.py", select=["RPR010"])
    assert rules == set()


# -- engine integration ---------------------------------------------------------------

def test_race_rules_are_not_in_the_default_pass():
    default_ids = {rule.rule_id for rule in LintEngine().rules}
    assert not default_ids & set(RACE_RULE_IDS)
    # ... so a plain lint of a racy fixture reports nothing race-related.
    findings, _ = rules_fired(FIXTURES / "rpr009_bad.py")
    assert not [f for f in findings if f.rule in RACE_RULE_IDS]


def test_suppression_comment_silences_race_rules(tmp_path):
    source = (FIXTURES / "rpr009_bad.py").read_text(encoding="utf-8")
    source = source.replace(
        "self.regs[payload.address] = payload.data",
        "self.regs[payload.address] = payload.data  # repro: ignore[RPR009]")
    target = tmp_path / "suppressed.py"
    target.write_text(source, encoding="utf-8")
    findings, _ = rules_fired(target, select=["RPR009"])
    assert not any("regs" in finding.message for finding in findings)


def test_fingerprints_are_stable_and_line_free(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    first, _ = rules_fired(FIXTURES / "rpr009_bad.py", select=["RPR009"])
    second, _ = rules_fired(FIXTURES / "rpr009_bad.py", select=["RPR009"])
    assert [f.fingerprint for f in first] == [f.fingerprint for f in second]
    regs = next(f for f in first if "regs" in f.message)
    assert regs.fingerprint == ("RPR009:tests/analysis_fixtures/rpr009_bad.py:"
                                "SharedRegisterFile._dist_transport:regs")


def test_lane_model_classification():
    engine = LintEngine(select=["RPR008"])
    ctx, _ = engine.load([FIXTURES / "rpr008_bad.py", FIXTURES / "rpr008_good.py"])
    model = LaneModel.of(ctx)
    for module in ctx.modules:
        model.collect(module)
    assert model.classify("SharedStatusDevice") == CROSS_LANE_SHARED
    assert model.classify("PerCoreBanked") == CROSS_LANE_SHARED
    assert model.classify("ScratchPad") == LANE_LOCAL
    summary = model.classification_summary()
    assert "SharedStatusDevice" in summary[CROSS_LANE_SHARED]


# -- baseline semantics ----------------------------------------------------------------

def _finding(fingerprint: str) -> Finding:
    rule = fingerprint.split(":", 1)[0]
    return Finding(rule=rule, severity=Severity.WARNING, path="x.py", line=1,
                   message="m", fingerprint=fingerprint)


def test_baseline_apply_splits_new_suppressed_stale():
    baseline = Baseline([BaselineEntry("RPR008:a"), BaselineEntry("RPR008:c")])
    new, suppressed, stale = baseline.apply(
        [_finding("RPR008:a"), _finding("RPR008:b")])
    assert [f.fingerprint for f in new] == ["RPR008:b"]
    assert [f.fingerprint for f in suppressed] == ["RPR008:a"]
    assert stale == ["RPR008:c"]


def test_baseline_staleness_is_scoped_to_the_rules_that_ran():
    baseline = Baseline([BaselineEntry("RPR008:x"), BaselineEntry("SAN005:y")])
    _, _, stale = baseline.apply([], rules=["RPR008"])
    assert stale == ["RPR008:x"]          # SAN005 entry not judged stale
    _, _, stale = baseline.apply([], rules=["SAN005"])
    assert stale == ["SAN005:y"]


def test_baseline_roundtrip_and_scoped_update(tmp_path):
    path = tmp_path / "baseline.json"
    baseline = Baseline([BaselineEntry("RPR008:x", note="models/gic.py:10"),
                         BaselineEntry("SAN005:y")])
    baseline.save(path)
    loaded = Baseline.load(path)
    assert loaded.fingerprints() == ["RPR008:x", "SAN005:y"]
    assert loaded.entries[0].note == "models/gic.py:10"
    # Updating the static rules must keep the dynamic entries.
    loaded.replace_rules([_finding("RPR008:z")], rules=["RPR008"])
    assert sorted(loaded.fingerprints()) == ["RPR008:z", "SAN005:y"]


def test_committed_baseline_matches_the_tree(monkeypatch):
    """Acceptance gate: --race over src + examples runs clean, no stale."""
    monkeypatch.chdir(REPO_ROOT)
    engine = LintEngine(select=list(RACE_RULE_IDS))
    findings = engine.run([REPO_ROOT / "src" / "repro", REPO_ROOT / "examples"])
    assert findings, "the race rules should flag the known hot spots"
    baseline = Baseline.load(REPO_ROOT / "benchmarks" / "race_baseline.json")
    new, suppressed, stale = baseline.apply(findings, rules=RACE_RULE_IDS)
    assert new == []
    assert suppressed
    assert stale == []
    # The known hot spots from the parallel-kernel plan are all covered.
    covered = " ".join(f.fingerprint for f in suppressed)
    assert "Gic400" in covered
    assert "HostLedger" in covered
    assert "DmiManager" in covered


# -- CLI ---------------------------------------------------------------------------------

def test_cli_race_mode_is_clean_on_the_tree(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = cli_main(["--race", "--strict-baseline", "src/repro", "examples"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no new findings" in out


def test_cli_race_json_reports_baseline_stats(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = cli_main(["--race", "--json", "src/repro", "examples"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["mode"] == "race"
    assert payload["total"] == 0
    assert payload["baseline"]["stale"] == []
    assert payload["baseline"]["suppressed"] > 0


def test_cli_race_fails_on_unbaselined_finding(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    code = cli_main(["--race", str(FIXTURES / "rpr009_bad.py"),
                     "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert code == 1
    assert "RPR009" in out


def test_cli_update_baseline_then_strict_shrink_cycle(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    bad = str(FIXTURES / "rpr009_bad.py")
    good = str(FIXTURES / "rpr009_good.py")
    assert cli_main(["--race", bad, "--baseline", str(baseline),
                     "--update-baseline"]) == 0
    assert cli_main(["--race", bad, "--baseline", str(baseline),
                     "--strict-baseline"]) == 0
    capsys.readouterr()
    # The "fix" lands (the racy file is gone): entries go stale — visible
    # always, fatal only under --strict-baseline.
    assert cli_main(["--race", good, "--baseline", str(baseline)]) == 0
    assert "stale baseline entry" in capsys.readouterr().out
    assert cli_main(["--race", good, "--baseline", str(baseline),
                     "--strict-baseline"]) == 1


def test_cli_race_modes_are_mutually_exclusive():
    with pytest.raises(SystemExit):
        cli_main(["--race", "--race-run", "x.py"])
