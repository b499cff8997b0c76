"""``repro-bench`` snapshot paths: warm-boot capture and matrix resume.

Two modes, both exercised by CI (see .github/workflows):

* ``--snapshot-at MS --snapshot-out FILE`` boots the Linux workload with a
  :class:`repro.snapshot.TraceRecorder` attached, captures the platform at
  the requested simulated time, and saves a standalone ``.rsnap`` container.
  The scenario metadata (workload, cores, scale) travels in the manifest so
  the resume side can rebuild the identical guest software.

* ``--from-snapshot FILE --matrix D1,D2,...`` loads the container once,
  forks one copy-on-write child per matrix entry, restores each into a
  fresh platform and runs it to the entry's total simulated duration.  Each
  experiment reports a DET001 dispatch digest covering the replayed boot
  prefix plus the resumed run — with ``--verify-cold`` the same duration is
  also run cold from construction and the two digests must match
  bit-for-bit, which is the snapshot subsystem's correctness gate.
"""

from __future__ import annotations

import json
from typing import List, Optional

from ..analysis.determinism import trace_run
from ..systemc.time import SimTime
from ..vp.config import VpConfig
from ..vp.platform import build_platform

#: scenario-manifest schema for snapshots produced by this CLI
SCENARIO_WORKLOAD = "linux_boot"


def _software(scenario: dict):
    from ..vp.linux import LinuxBootParams, linux_boot_software
    if scenario.get("workload") != SCENARIO_WORKLOAD:
        from ..snapshot import SnapshotError
        raise SnapshotError(
            f"snapshot scenario {scenario.get('workload')!r} is not a "
            f"{SCENARIO_WORKLOAD!r} capture from repro-bench")
    return linux_boot_software(
        scenario["cores"], LinuxBootParams().scaled(scenario["scale"]))


def _config(cores: int, quantum_us: float, parallel: bool) -> VpConfig:
    return VpConfig(num_cores=cores, quantum=SimTime.us(quantum_us),
                    parallel=parallel, wfi_annotations=True)


def snapshot_boot(out_path: str, at_ms: float, kind: str, cores: int,
                  scale: float, quantum_us: float, parallel: bool,
                  emit_json: bool) -> int:
    """Boot the Linux workload to ``at_ms`` simulated ms and save a snapshot."""
    from ..snapshot import TraceRecorder, capture_platform
    scenario = {"workload": SCENARIO_WORKLOAD, "cores": cores, "scale": scale,
                "quantum_us": quantum_us}
    software = _software(scenario)
    vp = build_platform(kind, _config(cores, quantum_us, parallel), software)
    with TraceRecorder() as recorder:
        vp.run(SimTime.ms(at_ms))
    snapshot = capture_platform(vp, trace=recorder.entries, scenario=scenario)
    written = snapshot.save(out_path)
    if emit_json:
        print(json.dumps({
            "snapshot": out_path,
            "snapshot_id": snapshot.snapshot_id,
            "sim_time_ps": snapshot.sim_time_ps,
            "bytes": written,
            "pages": len(snapshot.manifest["ram"]["pages"]),
        }, indent=2, sort_keys=True))
    else:
        print(f"snapshot: {out_path} ({written} bytes, "
              f"id {snapshot.snapshot_id[:16]}…, "
              f"@ {snapshot.sim_time_ps // 1_000_000} us sim time)")
    return 0


def run_matrix(snapshot_path: str, matrix: List[float], verify_cold: bool,
               emit_json: bool) -> int:
    """Fork the snapshot into one child per matrix entry and resume each.

    ``matrix`` entries are *total* simulated durations in ms (from cold
    boot, not from the snapshot point) so cold-run digests are directly
    comparable.  Returns the number of failed experiments.
    """
    from ..snapshot import Snapshot, SnapshotError
    snapshot = Snapshot.load(snapshot_path)
    scenario = snapshot.manifest.get("scenario", {})
    snap_ms = snapshot.sim_time_ps / 1_000_000_000
    for duration_ms in matrix:
        if duration_ms * 1_000_000_000 <= snapshot.sim_time_ps:
            raise SnapshotError(
                f"matrix entry {duration_ms}ms is not beyond the snapshot "
                f"point ({snap_ms:.3f}ms)")

    children = snapshot.fork(len(matrix))
    results = []
    failures = 0
    for duration_ms, child in zip(matrix, children):
        software = _software(scenario)
        remaining = SimTime.ms(duration_ms) - SimTime(child.sim_time_ps)
        warm = trace_run(lambda: _resume(child, software, remaining))
        row = {
            "duration_ms": duration_ms,
            "digest": warm.digest(),
            "dispatches": len(warm),
        }
        if verify_cold:
            cold = trace_run(
                lambda: _cold_run(snapshot, scenario, duration_ms))
            row["cold_digest"] = cold.digest()
            row["match"] = cold.digest() == warm.digest()
            if not row["match"]:
                failures += 1
        results.append(row)
    if emit_json:
        print(json.dumps({
            "snapshot": snapshot_path,
            "snapshot_id": snapshot.snapshot_id,
            "snapshot_ms": snap_ms,
            "results": results,
            "failures": failures,
        }, indent=2, sort_keys=True))
    else:
        print(f"snapshot {snapshot_path} (id {snapshot.snapshot_id[:16]}…, "
              f"captured @ {snap_ms:.3f} ms)")
        for row in results:
            line = (f"  {row['duration_ms']:8.3f} ms  "
                    f"digest {row['digest'][:16]}…  "
                    f"{row['dispatches']} dispatches")
            if verify_cold:
                line += "  cold: " + ("MATCH" if row["match"] else "MISMATCH")
            print(line)
        if failures:
            print(f"{failures} experiment(s) diverged from cold boot")
    return failures


def _resume(child, software, remaining: SimTime) -> None:
    child.restore(software).run(remaining)


def _cold_run(snapshot, scenario: dict, duration_ms: float) -> None:
    from ..snapshot import config_from_manifest
    config = config_from_manifest(snapshot.manifest["config"])
    build_platform(snapshot.kind, config, _software(scenario)).run(
        SimTime.ms(duration_ms))
