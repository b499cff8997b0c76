"""Divergence bundles: one directory holding everything about a mismatch.

The divergence sibling of :class:`repro.flight.CrashBundler` — same
layout philosophy (one self-contained directory, JSON + plain text,
printed path), built from the flight bundle machinery
(:func:`repro.flight.bundle.write_core_states` for registers/sysregs/
disassembly, the journal's JSONL format for the event slice)::

    divergence-000-w17/
      meta.json          window id, lane, reasons, both root digests
      windows.json       the divergent WindowRecord from each ledger
      ledger_a.json      full ledger of each side (they are O(windows))
      ledger_b.json
      zoom_a.jsonl       full event capture of the divergent window
      zoom_b.jsonl
      diff.txt           first differing trace entry, DET001-style
      diff.json
      journal.jsonl      flight-recorder slice inside the window (if a
                         recorder was attached during the zoom re-run)
      cores/             registers/sysregs/disassembly (if a platform is
                         still alive to freeze)

Offline comparisons (two ledger files, no scenario to re-run) simply omit
the zoom/diff/journal/cores pieces; ``meta.json`` says which inputs were
available.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Tuple

from ..flight.bundle import write_core_states
from .bisect import LedgerComparison
from .ledger import RunLedger


def write_divergence_bundle(
    out_dir: str,
    comparison: LedgerComparison,
    ledger_a: RunLedger, ledger_b: RunLedger,
    labels: Tuple[str, str] = ("A", "B"),
    zoom_a=None, zoom_b=None, event_diff=None,
    vp=None, flight=None,
) -> str:
    """Dump one divergence bundle; returns (and prints) its path."""
    point = comparison.point
    tag = f"w{point.window}" if point is not None else "root"
    index = 0
    while True:
        name = f"divergence-{index:03d}-{tag}"
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            break
        index += 1
    os.makedirs(path)

    meta = {
        "kind": "divergence",
        "labels": {"a": labels[0], "b": labels[1]},
        "comparison": comparison.to_json(),
        "meta_a": ledger_a.meta,
        "meta_b": ledger_b.meta,
        "inputs": {
            "zoom": zoom_a is not None and zoom_b is not None,
            "event_diff": event_diff is not None,
            "journal": flight is not None,
            "cores": vp is not None,
        },
    }
    with open(os.path.join(path, "meta.json"), "w") as stream:
        json.dump(meta, stream, indent=2, sort_keys=True)
        stream.write("\n")

    windows = {
        "a": (point.record_a.to_json()
              if point is not None and point.record_a is not None else None),
        "b": (point.record_b.to_json()
              if point is not None and point.record_b is not None else None),
    }
    with open(os.path.join(path, "windows.json"), "w") as stream:
        json.dump(windows, stream, indent=2, sort_keys=True)
        stream.write("\n")

    ledger_a.save(os.path.join(path, "ledger_a.json"))
    ledger_b.save(os.path.join(path, "ledger_b.json"))

    for side, zoom in (("a", zoom_a), ("b", zoom_b)):
        if zoom is None:
            continue
        with open(os.path.join(path, f"zoom_{side}.jsonl"), "w") as stream:
            for entry in zoom.entries:
                stream.write(json.dumps(entry.to_json(), sort_keys=True))
                stream.write("\n")

    if event_diff is not None:
        with open(os.path.join(path, "diff.txt"), "w") as stream:
            stream.write(event_diff.describe())
            stream.write("\n")
        doc = {
            "index": event_diff.index,
            "first": event_diff.first,
            "second": event_diff.second,
            "context": event_diff.context,
        }
        with open(os.path.join(path, "diff.json"), "w") as stream:
            json.dump(doc, stream, indent=2, sort_keys=True)
            stream.write("\n")

    if flight is not None and point is not None:
        _write_journal_slice(flight, path, point.window, comparison.window_ps)

    if vp is not None:
        write_core_states(vp, os.path.join(path, "cores"))

    sys.stderr.write(f"[repro.divergence] divergence bundle written to {path}\n")
    return path


def _write_journal_slice(flight, path: str, window: int,
                         window_ps: int) -> None:
    """The flight journal restricted to the divergent window."""
    lo = window * window_ps
    hi = lo + window_ps
    with open(os.path.join(path, "journal.jsonl"), "w") as stream:
        for event in flight.recorder:
            if lo <= event.t_ps < hi:
                stream.write(event.to_json())
                stream.write("\n")
