"""Bench trend tracking: append run summaries, render trends, gate ratios.

``python -m repro.bench --history BENCH_obs.json`` appends one entry per
bench invocation — per-experiment MIPS, modeled wall time, and the phase
totals from the attribution fold — and ``--history-check`` compares the
newest entry against the median of the previous ones with a ratio gate.
Because the "performance" being trended is *modeled* host time, the
numbers are deterministic for a given revision: a gate failure means the
code changed the model, not that the CI machine was noisy.

History file schema ``repro.obs.bench-history/1``::

    {"schema": "repro.obs.bench-history/1",
     "entries": [{"timestamp": "...", "label": "...",
                  "experiments": {"fig5": {"mips": ..., "wall_ns": ...,
                                           "instructions": ...,
                                           "windows": ...,
                                           "phases": {"guest": ..., ...}}},
                  ...}]}

Entries are ordered oldest → newest and capped (oldest dropped first).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from ..host.wallclock import utc_timestamp
from .attribution import PHASES

HISTORY_SCHEMA = "repro.obs.bench-history/1"

#: default cap on retained entries (oldest dropped first)
DEFAULT_KEEP = 200

#: default allowed fractional MIPS regression vs. the baseline median
DEFAULT_TOLERANCE = 0.25


def load_history(path: str) -> dict:
    """Read a history file; a missing file is an empty history.

    Malformed files — invalid JSON, a top level that is not an object, a
    foreign schema, ``entries`` that is not a list — raise ValueError.
    """
    if not os.path.exists(path):
        return {"schema": HISTORY_SCHEMA, "entries": []}
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: history is a {type(data).__name__}, "
                         "not an object")
    schema = data.get("schema")
    if schema != HISTORY_SCHEMA:
        raise ValueError(f"{path}: unsupported history schema {schema!r}")
    if not isinstance(data.setdefault("entries", []), list):
        raise ValueError(f"{path}: history entries are not a list")
    return data


def save_history(path: str, history: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=2, sort_keys=True)
        handle.write("\n")


def make_entry(experiments: Dict[str, List[dict]],
               label: str = "") -> dict:
    """Build one history entry from per-experiment attribution summaries.

    ``experiments`` maps experiment name to the list of per-platform
    attribution summary dicts (``AttributionSummary.to_json()``) the run
    produced; MIPS per experiment is the throughput of the whole matrix
    (total instructions over total modeled wall time), so one entry stays
    comparable run-to-run even though each experiment builds many
    platforms.
    """
    entry_experiments = {}
    for name, summaries in sorted(experiments.items()):
        instructions = sum(s.get("instructions", 0) for s in summaries)
        wall_ns = sum(s.get("wall_time_ns", 0.0) for s in summaries)
        windows = sum(s.get("windows", 0) for s in summaries)
        phases = {p: 0.0 for p in PHASES}
        for summary in summaries:
            for lane in summary.get("lanes", {}).values():
                for phase, nanoseconds in lane.get("phases", {}).items():
                    phases[phase] = phases.get(phase, 0.0) + nanoseconds
        entry_experiments[name] = {
            "mips": (instructions / wall_ns * 1e3) if wall_ns > 0 else 0.0,
            "wall_ns": wall_ns,
            "instructions": instructions,
            "windows": windows,
            "platforms": len(summaries),
            "phases": phases,
        }
    return {
        "timestamp": utc_timestamp(),
        "label": label,
        "experiments": entry_experiments,
    }


def append_entry(path: str, entry: dict, keep: int = DEFAULT_KEEP) -> dict:
    """Append ``entry`` to the history at ``path`` (created if missing)."""
    history = load_history(path)
    history["entries"].append(entry)
    if keep > 0:
        history["entries"] = history["entries"][-keep:]
    save_history(path, history)
    return history


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def check_history(history: dict,
                  tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Ratio-gate the newest entry against the median of the older ones.

    For every experiment present in both the newest entry and at least one
    older entry, fail if ``newest_mips < median_mips * (1 - tolerance)``.
    Returns a list of human-readable failures (empty == pass).  A history
    with fewer than two entries trivially passes — the first run *seeds*
    the baseline.
    """
    entries = history.get("entries", [])
    if len(entries) < 2:
        return []
    newest = entries[-1]
    failures = []
    for name, current in sorted(newest.get("experiments", {}).items()):
        baseline_mips = [
            entry["experiments"][name]["mips"]
            for entry in entries[:-1]
            if name in entry.get("experiments", {})
        ]
        if not baseline_mips:
            continue
        baseline = _median(baseline_mips)
        floor = baseline * (1.0 - tolerance)
        if current["mips"] < floor:
            failures.append(
                f"{name}: MIPS {current['mips']:.1f} fell below "
                f"{floor:.1f} (median of {len(baseline_mips)} baseline "
                f"entries = {baseline:.1f}, tolerance {tolerance:.0%})")
    return failures


def trend_report(history: dict, last: int = 10,
                 tolerance: float = DEFAULT_TOLERANCE) -> str:
    """Plain-text trend table over the last ``last`` entries."""
    entries = history.get("entries", [])[-last:]
    lines = [f"=== bench trend ({len(entries)} of "
             f"{len(history.get('entries', []))} entries) ==="]
    if not entries:
        lines.append("(history is empty — run repro.bench --history first)")
        return "\n".join(lines) + "\n"
    names = sorted({name for entry in entries
                    for name in entry.get("experiments", {})})
    header = f"{'timestamp':20s} {'label':12s}" + "".join(
        f" {name:>14s}" for name in names)
    lines.append(header)
    lines.append(f"{'':20s} {'':12s}" + "".join(
        f" {'(MIPS)':>14s}" for _ in names))
    for entry in entries:
        cells = []
        for name in names:
            experiment = entry.get("experiments", {}).get(name)
            cells.append(f" {experiment['mips']:14.1f}" if experiment
                         else f" {'-':>14s}")
        label = (entry.get("label") or "")[:12]
        lines.append(f"{entry.get('timestamp', '?'):20s} {label:12s}"
                     + "".join(cells))
    failures = check_history(history, tolerance)
    if failures:
        lines.append("REGRESSIONS:")
        lines.extend(f"  !! {failure}" for failure in failures)
    else:
        lines.append(f"gate: OK (newest within {tolerance:.0%} of the "
                     f"baseline median)")
    return "\n".join(lines) + "\n"
