"""Finding model shared by the static lint engine and the runtime sanitizers.

Every problem the analysis subsystem reports — a lint rule firing on a
source line, a sanitizer catching a protocol violation at runtime, or the
determinism checker seeing two runs diverge — is a :class:`Finding`.
Findings render both as human-readable ``file:line: severity RULE: message``
lines and as JSON objects, so CI and editors can consume the same output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One diagnostic: where, which rule, how bad, and what happened."""

    rule: str                 # e.g. "RPR001" or "SAN004"
    severity: Severity
    path: str                 # repo-relative (lint) or logical location (sanitizers)
    line: int                 # 1-based; 0 when no source location applies
    message: str
    context: str = ""         # optional extra detail (offending snippet, values)

    def format(self) -> str:
        location = f"{self.path}:{self.line}" if self.line else self.path
        text = f"{location}: {self.severity.value} {self.rule}: {self.message}"
        if self.context:
            text += f" [{self.context}]"
        return text

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }
        if self.context:
            payload["context"] = self.context
        return payload


@dataclass
class FindingCollector:
    """Accumulates findings; used by sanitizers that fire mid-simulation."""

    findings: List[Finding] = field(default_factory=list)

    def add(self, finding: Finding) -> Finding:
        self.findings.append(finding)
        return finding

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def by_rule(self, rule: str) -> List[Finding]:
        return [f for f in self.findings if f.rule == rule]

    def clear(self) -> None:
        self.findings.clear()

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)


def summarize(findings: Iterable[Finding]) -> Dict[str, int]:
    """Count findings per rule id (stable, sorted by rule)."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return dict(sorted(counts.items()))
