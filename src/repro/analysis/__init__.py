"""VP-aware static analysis and runtime sanitizers.

Two halves, one findings model:

* :mod:`repro.analysis.engine` + :mod:`repro.analysis.rules` — an
  AST-walking lint framework with VP-specific rules (RPR001–RPR004,
  RPR006, RPR007) that keep the simulator free of the nondeterminism and
  TLM misuse that would invalidate the paper's "parallel mode changes
  performance, not semantics" claim.
* :mod:`repro.analysis.sanitize` + :mod:`repro.analysis.determinism` —
  an opt-in probe-bus sanitizer (SAN004) and an event-queue-order
  determinism checker (DET001).

CLI: ``python -m repro.analysis --help``.
"""

from .determinism import (
    DeterminismReport,
    check_determinism,
    check_script_determinism,
    trace_run,
)
from .engine import LintEngine, Rule, lint_paths, register, registered_rules
from .findings import Finding, FindingCollector, Severity, summarize
from .sanitize import SanitizerScope, sanitized

__all__ = [
    "DeterminismReport",
    "Finding",
    "FindingCollector",
    "LintEngine",
    "Rule",
    "SanitizerScope",
    "Severity",
    "check_determinism",
    "check_script_determinism",
    "lint_paths",
    "register",
    "registered_rules",
    "sanitized",
    "summarize",
    "trace_run",
]
