"""The dispatch contract: the digests CI pins, asserted in tier-1.

The kernel's dispatch stream is what every determinism digest folds.  A
change that moves a probe emission site, or touches the kernel, must
leave the stream where it was, with and without observers attached:

* the quickstart's DET001 digest (CI "Determinism check over quickstart");
* the same digest with telemetry and flight attached (CI "... with
  telemetry and flight attached");
* the cold vs snapshot-resumed selfcheck root (CI "Divergence A/B
  selfcheck").

The layering contracts CI names are checked here on the syntax tree of
``src/repro``, so comments and strings never match and an exemption names
the function it allows, not a line of text:

* no observer patches a class or another component's attribute;
* no implicit kernel;
* one dispatch digest;
* phase programs read no guest memory.
"""

import ast
import json
import re
from pathlib import Path

import repro
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


# -- layering contracts, on the syntax tree ----------------------------------

SRC = Path(repro.__file__).resolve().parent


def identifiers(*packages: str):
    """``(path, scope, name, node)`` for every identifier in ``packages``.

    ``path`` is relative to ``src/repro``; ``scope`` is the qualified name
    of the innermost enclosing function or class (a def's own name belongs
    to the def), ``"<module>"`` at top level.  Names, attributes, defs,
    arguments, keywords and imports count; comments and strings do not.
    """
    roots = [SRC / package for package in packages] or [SRC]
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            relpath = path.relative_to(SRC).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            yield from _walk(relpath, tree, "<module>")


def _walk(relpath: str, node: ast.AST, scope: str):
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = (child.name if scope == "<module>"
                     else f"{scope}.{child.name}")
            yield relpath, inner, child.name, child
        elif isinstance(child, ast.Name):
            yield relpath, scope, child.id, child
        elif isinstance(child, ast.Attribute):
            yield relpath, scope, child.attr, child
        elif isinstance(child, (ast.arg, ast.keyword)) and child.arg:
            yield relpath, scope, child.arg, child
        elif isinstance(child, ast.alias):
            yield relpath, scope, child.name, child
            if child.asname:
                yield relpath, scope, child.asname, child
        elif isinstance(child, ast.ImportFrom) and child.module:
            yield relpath, scope, child.module, child
        yield from _walk(relpath, child, inner)


def violations(hits, allowed=frozenset()):
    return sorted(f"{path}:{node.lineno} {scope}: {name}"
                  for path, scope, name, node in hits
                  if (path, scope) not in allowed)


def matching(pattern: str, *packages: str):
    regex = re.compile(pattern)
    return [hit for hit in identifiers(*packages) if regex.search(hit[2])]


#: the functions that may set an attribute by name or a socket's transport
PATCHERS = {
    ("systemc/probes.py", "ProbeBus.__init__"),
    ("systemc/probes.py", "ProbeBus._rebuild"),
    ("snapshot/restore.py", "_rebuild_heap"),
    ("tlm/sockets.py", "TargetSocket.__init__"),
}


def test_no_observer_patches_a_class_or_another_components_attribute():
    # Observers subscribe to the probe bus; only the bus itself, the
    # snapshot restorer and the TargetSocket constructor set these.
    hits = [hit for hit in identifiers()
            if hit[2] in ("setattr", "__setattr__")
            or (hit[2] == "_transport_fn" and isinstance(hit[3], ast.Attribute)
                and not isinstance(hit[3].ctx, ast.Load))]
    assert violations(hits, PATCHERS) == []


def test_no_implicit_kernel():
    # Every kernel is passed by hand: nothing in the kernel package
    # resolves a current, ambient or per-thread kernel.
    hits = matching(r"current_kernel|ambient|_KernelContext|threading",
                    "systemc")
    assert violations(hits) == []


def test_one_dispatch_digest():
    # systemc.kernel.DispatchDigest is the one fold over the dispatch
    # stream: the analysis package hashes nothing itself, and no second
    # digest structure comes back.
    hits = matching(r"hashlib", "analysis") + matching(r"DigestTree")
    assert violations(hits) == []


#: the executor's own RAM helpers and the flag phases that call them
PHASE_RAM = {
    ("iss/phase.py", "PhaseContext.read_u64"),
    ("iss/phase.py", "PhaseContext.write_u64"),
    ("iss/phase.py", "_flag_reached"),
    ("iss/phase.py", "_step_store_flag"),
    ("iss/phase.py", "_step_atomic_add"),
}


def test_phase_programs_read_no_guest_memory():
    # A phase program waits with Wfi(address, value) or SpinUntil and the
    # executor reads the flag, so a snapshot stores the program's position,
    # not a replay journal.
    hits = matching(r"read_u64|write_u64|flag_set|wfi_wait|_journal",
                    "vp", "workloads", "iss")
    assert violations(hits, PHASE_RAM) == []
