"""Importing flight-recorder crash bundles as *partial* snapshots.

A crash bundle (:mod:`repro.flight.bundle`) freezes what a human needs for
post-mortem — per-core registers, the event journal, console tail — but
not the complete VP state (no RAM image, no kernel event queue).  This
module lifts a bundle into the snapshot format as a ``partial`` snapshot:
it shares the container/manifest machinery (save, load, ``snapshot_id``,
inspection), but ``restore()`` and ``fork()`` refuse it — resuming
execution from post-mortem state would silently invent the missing state.
"""

from __future__ import annotations

import json
import os

from .format import FORMAT, SnapshotError
from .image import Snapshot


def _read_object(path: str) -> dict:
    """One bundle file, which must hold a JSON object."""
    try:
        with open(path, "r") as stream:
            value = json.load(stream)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"{path}: unreadable bundle file ({exc})") from exc
    if not isinstance(value, dict):
        raise SnapshotError(f"{path}: expected a JSON object, "
                            f"got {type(value).__name__}")
    return value


def snapshot_from_flight_bundle(path: str) -> Snapshot:
    """Wrap a crash-bundle directory as a partial :class:`Snapshot`."""
    meta_path = os.path.join(path, "meta.json")
    if not os.path.isfile(meta_path):
        raise SnapshotError(f"{path}: not a flight bundle (no meta.json)")
    meta = _read_object(meta_path)

    cores = []
    cores_dir = os.path.join(path, "cores")
    if os.path.isdir(cores_dir):
        for name in sorted(os.listdir(cores_dir)):
            if name.endswith(".json"):
                cores.append(_read_object(os.path.join(cores_dir, name)))

    metrics_path = os.path.join(path, "metrics.json")
    metrics = (_read_object(metrics_path) if os.path.isfile(metrics_path)
               else None)

    platform = meta.get("platform", {})
    if not isinstance(platform, dict):
        raise SnapshotError(f"{meta_path}: platform is not a JSON object")
    kind = "aoa" if "Aoa" in str(platform.get("kind", "")) else "avp64"
    manifest = {
        "format": FORMAT,
        "kind": kind,
        "partial": True,
        "lineage": {"parent": None, "fork_index": None},
        "sim": {"now_ps": meta.get("sim_time_ps", 0)},
        "flight": {
            "bundle_path": os.path.abspath(path),
            "reason": meta.get("reason"),
            "detail": meta.get("detail"),
            "platform": platform,
            "simctl": meta.get("simctl"),
            "total_instructions": meta.get("total_instructions"),
            "console_tail": meta.get("console_tail"),
        },
        "cores": cores,
        "metrics": metrics,
        "ram": {"size": 0, "page_size": 0, "pages": {}},
        "trace": None,
        "scenario": {},
    }
    return Snapshot(manifest, {})
