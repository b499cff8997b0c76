"""Committed allowlist for race findings (static RPR008–010 + SAN005).

The race rules report *candidates*: state the parallel quantum kernel
will race on unless it moves behind a sanctioned channel first.  Until
that migration lands the known findings are recorded — reviewed, one by
one — in a committed baseline file (``benchmarks/race_baseline.json``),
and ``python -m repro.analysis --race`` only fails on findings **not** in
the baseline.

Entries match by :attr:`repro.analysis.findings.Finding.fingerprint`,
which deliberately contains no line numbers
(``RPR009:models/gic.py:Gic400._dist_write:pending_spi``), so unrelated
edits to a file do not churn the baseline.

The baseline can only shrink: an entry whose fingerprint no longer
matches any finding is reported as *stale*, and ``--strict-baseline``
turns stale entries into a nonzero exit so fixed races cannot silently
keep their allowlist slot (and nobody can hide a new finding behind a
recycled entry).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from .findings import Finding

#: the rules whose findings participate in the race baseline
RACE_RULE_IDS = ("RPR008", "RPR009", "RPR010")
#: the dynamic sanitizer's rule id (same baseline, same fingerprints)
RACE_SANITIZER_ID = "SAN005"

DEFAULT_BASELINE_PATH = "benchmarks/race_baseline.json"


class BaselineEntry:
    """One allowlisted finding: its fingerprint plus a review note."""

    __slots__ = ("fingerprint", "note")

    def __init__(self, fingerprint: str, note: str = ""):
        self.fingerprint = fingerprint
        self.note = note

    def to_json(self) -> Dict[str, str]:
        payload = {"fingerprint": self.fingerprint}
        if self.note:
            payload["note"] = self.note
        return payload


class Baseline:
    """A set of allowlisted fingerprints, loadable from / savable to JSON."""

    def __init__(self, entries: Sequence[BaselineEntry] = ()):
        self.entries: List[BaselineEntry] = list(entries)

    # -- persistence ----------------------------------------------------------
    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        raw_entries = data.get("entries", []) if isinstance(data, dict) else data
        entries = []
        seen = set()
        for raw in raw_entries:
            if isinstance(raw, str):
                fingerprint, note = raw, ""
            else:
                fingerprint = raw.get("fingerprint", "")
                note = raw.get("note", "")
            if not fingerprint or fingerprint in seen:
                continue
            seen.add(fingerprint)
            entries.append(BaselineEntry(fingerprint, note))
        return cls(entries)

    @classmethod
    def load_or_empty(cls, path: Path) -> "Baseline":
        return cls.load(path) if Path(path).is_file() else cls()

    def save(self, path: Path) -> None:
        payload = {
            "comment": (
                "Reviewed race findings allowlisted until their state moves "
                "behind a sanctioned channel (fabric.MemoryPort, queued IRQ, "
                "quantum-barrier merge). Matched by fingerprint; the file "
                "may only shrink — --strict-baseline fails on stale entries."
            ),
            "entries": [entry.to_json() for entry in sorted(
                self.entries, key=lambda e: e.fingerprint)],
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                              encoding="utf-8")

    # -- matching -------------------------------------------------------------
    def fingerprints(self) -> List[str]:
        return [entry.fingerprint for entry in self.entries]

    def apply(self, findings: Iterable[Finding],
              rules: Sequence[str] = ()) -> Tuple[
            List[Finding], List[Finding], List[str]]:
        """Split findings against the baseline.

        Returns ``(new, suppressed, stale)``: findings not in the baseline,
        findings the baseline suppressed, and baseline fingerprints that
        matched nothing (candidates for deletion — the baseline may only
        shrink).  ``rules`` limits staleness to entries belonging to the
        rules that actually ran, so a static ``--race`` pass does not
        report the dynamic SAN005 entries as stale and vice versa.
        """
        allowed = {entry.fingerprint for entry in self.entries}
        new: List[Finding] = []
        suppressed: List[Finding] = []
        matched = set()
        for finding in findings:
            if finding.fingerprint and finding.fingerprint in allowed:
                suppressed.append(finding)
                matched.add(finding.fingerprint)
            else:
                new.append(finding)
        unmatched = allowed - matched
        if rules:
            prefixes = tuple(f"{rule}:" for rule in rules)
            unmatched = {f for f in unmatched if f.startswith(prefixes)}
        return new, suppressed, sorted(unmatched)

    def replace_rules(self, findings: Iterable[Finding],
                      rules: Sequence[str]) -> int:
        """Replace the entries of ``rules`` with the given findings' prints.

        Entries belonging to other rules are kept, so updating the static
        baseline does not drop the dynamic SAN005 entries (and vice
        versa).  Returns the number of entries now covering ``rules``.
        """
        prefixes = tuple(f"{rule}:" for rule in rules)
        kept = [entry for entry in self.entries
                if not entry.fingerprint.startswith(prefixes)]
        fresh = self.from_findings(
            f for f in findings if f.fingerprint.startswith(prefixes))
        self.entries = kept + fresh.entries
        return len(fresh)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        entries = []
        seen = set()
        for finding in findings:
            if not finding.fingerprint or finding.fingerprint in seen:
                continue
            seen.add(finding.fingerprint)
            entries.append(BaselineEntry(
                finding.fingerprint,
                note=f"{finding.path}:{finding.line}" if finding.line else finding.path,
            ))
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)
