"""Layer map: which simulator layer each source file of ``src/repro`` belongs to.

A layer is named after its module under ``src/repro``.  ``vp`` also covers
the workload and bench packages that assemble platforms, ``tooling`` the
offline analysis, trace and debug packages, and ``python`` everything that
is not under ``src/repro`` at all: the standard library, builtins and this
harness's own glue.  ``test_harness.py`` checks that every ``.py`` under
``src/repro`` maps to a named layer, so a new package cannot land in
``python`` unnoticed.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional

#: relative path prefix under src/repro -> layer; the longest prefix wins
LAYER_MAP = {
    "__init__.py": "vp",
    "analysis/": "tooling",
    "arch/": "arch",
    "bench/": "vp",
    "core/": "core",
    "debug/": "tooling",
    "divergence/": "divergence",
    "fabric/": "fabric",
    "flight/": "flight",
    "host/": "host",
    "iss/__init__.py": "iss.executor",
    "iss/dbt.py": "iss.dbt",
    "iss/executor.py": "iss.executor",
    "iss/interpreter.py": "iss.interpreter",
    "iss/phase.py": "iss.phase",
    "kvm/": "kvm",
    "models/": "models",
    "obs/": "obs",
    "snapshot/": "snapshot",
    "systemc/": "systemc",
    "telemetry/": "telemetry",
    "tlm/": "tlm",
    "trace/": "tooling",
    "vcml/": "vcml",
    "vp/": "vp",
    "workloads/": "vp",
}

#: every layer, in report order
LAYERS = (
    "systemc", "tlm", "vcml", "fabric",
    "iss.interpreter", "iss.executor", "iss.phase", "iss.dbt",
    "arch", "kvm", "core", "models", "host", "vp", "snapshot",
    "telemetry", "flight", "obs", "divergence", "tooling", "python",
)


def layer_of_relpath(relpath: str) -> Optional[str]:
    """Layer of a path relative to ``src/repro`` (``/``-separated), or None."""
    best = None
    for prefix, layer in LAYER_MAP.items():
        matches = relpath == prefix if prefix.endswith(".py") else relpath.startswith(prefix)
        if matches and (best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    return None if best is None else best[1]


class LayerMapper:
    """Maps the file names cProfile reports to layers (memoized)."""

    def __init__(self, package_dir: str):
        self._root = os.path.realpath(package_dir) + os.sep
        self._cache: Dict[str, str] = {}

    def __call__(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            real = os.path.realpath(filename) if filename.endswith(".py") else ""
            if real.startswith(self._root):
                rel = real[len(self._root):].replace(os.sep, "/")
                layer = layer_of_relpath(rel) or "python"
            else:
                layer = "python"
            self._cache[filename] = layer
        return layer


def layer_totals(stats: pstats.Stats, mapper: LayerMapper) -> Dict[str, dict]:
    """Sum cProfile self time (tottime) and call counts per layer."""
    totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _line, _func), (_cc, calls, tottime, _ct, _callers) in stats.stats.items():
        entry = totals[mapper(filename)]
        entry["self_s"] += tottime
        entry["calls"] += calls
    return totals
