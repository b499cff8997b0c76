"""The dispatch contract: the digests CI pins, asserted in tier-1.

The kernel's dispatch stream is what every determinism digest folds.  A
change that moves a probe emission site, or touches the kernel, must
leave the stream where it was, with and without observers attached:

* the quickstart's DET001 digest (CI "Determinism check over quickstart");
* the same digest with telemetry and flight attached (CI "... with
  telemetry and flight attached");
* the cold vs snapshot-resumed selfcheck root (CI "Divergence A/B
  selfcheck").
"""

import json
from pathlib import Path

from repro.analysis.determinism import check_script_determinism
from repro.divergence.cli import main as divergence_main

QUICKSTART = Path(__file__).resolve().parent.parent / "examples" / "quickstart.py"

QUICKSTART_DIGEST = "92bc3f1f46227b84e01af26c39aff5016d90e852b8406315ddede7007e2fbe46"
SELFCHECK_ROOT = "f51f3651fe14b5095bdf6b37654f036c3a7b3cf719587a11ceeeec9207f74468"


def test_quickstart_digest_is_pinned(monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.delenv("REPRO_FLIGHT", raising=False)
    report = check_script_determinism(str(QUICKSTART))
    assert report.digests == [QUICKSTART_DIGEST] * 2


def test_quickstart_digest_is_pinned_with_telemetry_and_flight(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "telemetry"))
    monkeypatch.setenv("REPRO_FLIGHT", str(tmp_path / "flight"))
    report = check_script_determinism(str(QUICKSTART))
    assert report.digests == [QUICKSTART_DIGEST] * 2
    assert (tmp_path / "flight" / "quickstart_journal.jsonl").stat().st_size > 0


def test_selfcheck_root_is_pinned(capsys):
    assert divergence_main(["selfcheck", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["root_a"] == doc["root_b"] == SELFCHECK_ROOT
