"""``python -m repro.analysis`` — lint, sanitize-run, determinism-run.

Modes (mutually exclusive; lint is the default):

* ``python -m repro.analysis [PATHS…]`` — static lint.  Defaults to
  ``src/repro`` when run from the repo root.
* ``python -m repro.analysis --sanitize-run SCRIPT`` — execute a script
  (typically an example) with the runtime sanitizers installed and report
  every violation they catch.
* ``python -m repro.analysis --determinism-run SCRIPT`` — execute a script
  twice and diff the kernel's event-queue pop order.

``--json`` switches output to one machine-readable JSON document;
``--fail-on-findings`` makes any finding exit nonzero (for CI).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import runpy
import sys
from pathlib import Path
from typing import List, Optional

from .determinism import check_script_determinism, script_argv
from .engine import LintEngine, registered_rules
from .findings import Finding, summarize
from .sanitize import sanitized


def _default_paths() -> List[str]:
    candidate = Path("src/repro")
    return [str(candidate)] if candidate.is_dir() else ["."]


def _emit(findings: List[Finding], as_json: bool, mode: str) -> None:
    if as_json:
        print(json.dumps({
            "mode": mode,
            "findings": [finding.to_json() for finding in findings],
            "counts": summarize(findings),
            "total": len(findings),
        }, indent=2))
        return
    for finding in findings:
        print(finding.format())
    if findings:
        counts = ", ".join(f"{rule}×{n}" for rule, n in summarize(findings).items())
        print(f"{len(findings)} finding(s): {counts}")
    else:
        print("no findings")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="VP-aware static lint, runtime sanitizers, determinism check.",
    )
    parser.add_argument("paths", nargs="*", help="files/directories to lint "
                        "(default: src/repro)")
    parser.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument("--fail-on-findings", action="store_true",
                        help="exit 1 when any finding is reported")
    parser.add_argument("--select", help="comma-separated rule ids to run")
    parser.add_argument("--ignore", help="comma-separated rule ids to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--sanitize-run", metavar="SCRIPT",
                        help="run SCRIPT under the runtime sanitizers")
    parser.add_argument("--determinism-run", metavar="SCRIPT",
                        help="run SCRIPT twice and diff kernel traces")
    parser.add_argument("--runs", type=int, default=2,
                        help="runs for --determinism-run (default 2)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule_class in registered_rules().items():
            print(f"{rule_id}  [{rule_class.severity.value:7s}] {rule_class.title}")
        return 0

    modes = [name for name, active in (
        ("--sanitize-run", args.sanitize_run),
        ("--determinism-run", args.determinism_run),
    ) if active]
    if len(modes) > 1:
        parser.error(f"{' and '.join(modes)} are mutually exclusive")

    if args.sanitize_run:
        script = Path(args.sanitize_run)
        if not script.is_file():
            parser.error(f"no such script: {script}")
        with sanitized() as scope:
            with contextlib.redirect_stdout(io.StringIO()) as captured, \
                    script_argv(script):
                runpy.run_path(str(script), run_name="__main__")
        findings = scope.findings
        _emit(findings, args.json, mode="sanitize")
        if not args.json and captured.getvalue():
            sys.stderr.write(captured.getvalue())
        return 1 if findings and args.fail_on_findings else 0

    if args.determinism_run:
        script = Path(args.determinism_run)
        if not script.is_file():
            parser.error(f"no such script: {script}")
        if args.runs < 2:
            parser.error("--runs must be at least 2")
        report = check_script_determinism(str(script), runs=args.runs)
        finding = report.to_finding(where=str(script))
        findings = [finding] if finding is not None else []
        _emit(findings, args.json, mode="determinism")
        if not args.json:
            print(f"trace digests: {report.digests}")
        return 1 if findings and args.fail_on_findings else 0

    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        engine = LintEngine(select=select, ignore=ignore)
    except ValueError as exc:
        parser.error(str(exc))
    paths = [Path(p) for p in (args.paths or _default_paths())]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")
    findings = engine.run(paths)
    _emit(findings, args.json, mode="lint")
    return 1 if findings and args.fail_on_findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
