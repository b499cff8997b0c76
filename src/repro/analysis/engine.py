"""AST-walking lint engine with VP-aware rules.

The engine parses every Python file under the requested paths once, then
runs each registered :class:`Rule` in two passes:

1. ``prescan`` — every rule sees every module first.  Rules use this to
   build cross-file knowledge (the ``SimulateAction`` member list)
   before judging any single file.
2. ``check`` — the rule inspects one module at a time and yields findings.

Rules register themselves with :func:`register`; importing
:mod:`repro.analysis.rules` pulls in the built-in VP rule set (RPR001…).
Severity, rule selection (``--select`` / ``--ignore``) and per-file
suppression via ``# repro: ignore[RPR00x]`` comments are handled here so
individual rules stay small.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from .findings import Finding, Severity

#: directories never scanned
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "build", "dist"}
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Z0-9,\s]+)\]")


class SourceModule:
    """A parsed source file plus the bits rules keep asking for."""

    def __init__(self, path: Path, relpath: str, text: str, tree: ast.Module):
        self.path = path
        self.relpath = relpath          # posix-style, relative to the scan root
        self.text = text
        self.tree = tree
        self.lines = text.splitlines()
        self._suppressions: Optional[Dict[int, set]] = None

    @property
    def suppressions(self) -> Dict[int, set]:
        """Map line number -> set of rule ids suppressed on that line."""
        if self._suppressions is None:
            table: Dict[int, set] = {}
            for number, line in enumerate(self.lines, start=1):
                match = _SUPPRESS_RE.search(line)
                if match:
                    rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
                    table[number] = rules
            self._suppressions = table
        return self._suppressions

    def in_package_dir(self, *names: str) -> bool:
        """True when the file lives under any of the given directory names
        (checked against path segments, e.g. ``host`` matches
        ``host/wallclock.py`` and ``repro/host/wallclock.py``)."""
        parts = self.relpath.split("/")[:-1]
        return any(name in parts for name in names)


class LintContext:
    """Shared state for one engine run: all modules + rule scratch space."""

    def __init__(self, root: Path):
        self.root = root
        self.modules: List[SourceModule] = []
        #: free-form per-rule storage filled during prescan
        self.shared: Dict[str, object] = {}


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id``/``title``/``severity`` and implement
    :meth:`check`; :meth:`prescan` is optional.
    """

    rule_id = "RPR000"
    title = "unnamed rule"
    severity = Severity.ERROR

    def prescan(self, ctx: LintContext, module: SourceModule) -> None:
        """First pass over every module; build cross-file state in ``ctx``."""

    def check(self, ctx: LintContext, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError

    # -- helpers --------------------------------------------------------------
    def finding(self, module: SourceModule, node: ast.AST, message: str,
                context: str = "") -> Finding:
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            path=module.relpath,
            line=getattr(node, "lineno", 0),
            message=message,
            context=context,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if rule_class.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.rule_id}")
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def registered_rules() -> Dict[str, Type[Rule]]:
    """All known rules (importing repro.analysis.rules populates this)."""
    from . import rules  # noqa: F401  (import for registration side effect)
    return dict(sorted(_REGISTRY.items()))


class LintEngine:
    """Collects sources, runs the two rule passes, returns findings."""

    def __init__(self, select: Optional[Sequence[str]] = None,
                 ignore: Optional[Sequence[str]] = None):
        available = registered_rules()
        wanted = set(select) if select else set(available)
        wanted -= set(ignore or ())
        unknown = wanted - set(available)
        if unknown:
            raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")
        self.rules: List[Rule] = [available[rule_id]() for rule_id in sorted(wanted)]

    # -- source collection ------------------------------------------------------
    @staticmethod
    def _iter_files(path: Path) -> Iterator[Path]:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            return
        for candidate in sorted(path.rglob("*.py")):
            parts = set(candidate.parts)
            if parts & _SKIP_DIRS or any(p.endswith(".egg-info") for p in candidate.parts):
                continue
            yield candidate

    @staticmethod
    def _scan_root(paths: Sequence[Path]) -> Path:
        roots = [p if p.is_dir() else p.parent for p in paths]
        root = roots[0]
        for other in roots[1:]:
            while root not in other.parents and root != other:
                if root.parent == root:
                    break
                root = root.parent
        return root

    def load(self, paths: Sequence[Path]) -> Tuple[LintContext, List[Finding]]:
        """Parse all sources; syntax errors become findings, not crashes."""
        root = self._scan_root(paths)
        ctx = LintContext(root)
        errors: List[Finding] = []
        seen = set()
        for path in paths:
            for file_path in self._iter_files(path):
                if file_path in seen:
                    continue
                seen.add(file_path)
                text = file_path.read_text(encoding="utf-8")
                try:
                    rel = file_path.relative_to(root).as_posix()
                except ValueError:
                    rel = file_path.as_posix()
                try:
                    tree = ast.parse(text, filename=str(file_path))
                except SyntaxError as exc:
                    errors.append(Finding(
                        rule="RPR000", severity=Severity.ERROR, path=rel,
                        line=exc.lineno or 0, message=f"syntax error: {exc.msg}",
                    ))
                    continue
                ctx.modules.append(SourceModule(file_path, rel, text, tree))
        return ctx, errors

    # -- the two passes -----------------------------------------------------------
    def run(self, paths: Sequence[Path]) -> List[Finding]:
        ctx, findings = self.load([Path(p) for p in paths])
        for rule in self.rules:
            for module in ctx.modules:
                rule.prescan(ctx, module)
        for rule in self.rules:
            for module in ctx.modules:
                for finding in rule.check(ctx, module):
                    if rule.rule_id in module.suppressions.get(finding.line, ()):
                        continue
                    findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return findings


def lint_paths(paths: Iterable[str], select: Optional[Sequence[str]] = None,
               ignore: Optional[Sequence[str]] = None) -> List[Finding]:
    """Convenience wrapper: lint the given files/directories."""
    return LintEngine(select=select, ignore=ignore).run([Path(p) for p in paths])
