"""Post-mortem crash bundles.

When a run dies — a wedged core (same kick id delivered twice), an
exception escaping kernel dispatch, a runtime-sanitizer finding, or a
guest panic through ``SimControl`` — the bundler freezes everything a
human needs into one directory and prints its path:

::

    bundle-000-watchdog/
      meta.json            why, when (sim + modeled host time), run config
      journal.jsonl        the flight recorder's last-N events
      mmio.jsonl           every retained MMIO request/response pair
      metrics.json         journal tallies, telemetry snapshot, profile,
                           last-known host-time attribution (repro.obs)
      cores/
        core0.json         registers, sysregs, backtrace hint
        core0.disasm.txt   disassembly window around the PC
        ...

Register/sysreg state and disassembly ride the existing
:class:`repro.debug.Debugger` (debug transport: side-effect free); guests
without interpreter state (phase-mode workloads) degrade to a PC +
counters summary instead of raising.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List, Optional

from ..obs.scope import fold_of

#: disassembly window: this many instructions before and after the PC
DISASM_BEFORE = 8
DISASM_AFTER = 8


def _json_safe(value):
    """Best-effort conversion of trigger payloads to JSON-dumpable data."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "_asdict"):                       # NamedTuple payloads
        return {key: _json_safe(item) for key, item in value._asdict().items()}
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return repr(value)


def collect_core_state(vp, core: int):
    """(state dict, disassembly lines) for one core, degrading gracefully.

    Module-level so every bundle flavour — crash bundles here, divergence
    bundles in :mod:`repro.divergence.bundle` — freezes registers, sysregs
    and a disassembly window through the same debug transport.
    """
    cpu = vp.cpus[core]
    saved_break = cpu.debug_break_enabled
    try:
        from ..debug.debugger import Debugger
        try:
            debugger = Debugger(vp, core)
        except TypeError:
            return _fallback_core_state(cpu), [
                "<no interpreter state: disassembly unavailable "
                "for this execution mode>"]
        state = {
            "core": core,
            "registers": debugger.registers(),
            "sysregs": debugger.sysregs(),
            "backtrace": debugger.backtrace_hint(),
            "instructions_retired": cpu.instructions_retired,
        }
        pc = debugger.state.pc
        start = max(0, pc - 4 * DISASM_BEFORE)
        disasm = debugger.disassemble(start, DISASM_BEFORE + DISASM_AFTER)
        return state, disasm
    finally:
        cpu.debug_break_enabled = saved_break


def _fallback_core_state(cpu) -> dict:
    vcpu = getattr(cpu, "vcpu", None)
    executor = vcpu.executor if vcpu is not None else cpu.executor
    return {
        "core": cpu.core_id,
        "registers": {"pc": getattr(executor, "pc", 0)},
        "instructions_retired": cpu.instructions_retired,
        "num_mmio": cpu.num_mmio,
        "num_bus_errors": cpu.num_bus_errors,
    }


def write_core_states(vp, cores_dir: str) -> None:
    """Dump ``coreN.json`` + ``coreN.disasm.txt`` for every core of ``vp``."""
    os.makedirs(cores_dir, exist_ok=True)
    for core in range(len(vp.cpus)):
        state, disasm = collect_core_state(vp, core)
        with open(os.path.join(cores_dir, f"core{core}.json"), "w") as stream:
            json.dump(state, stream, indent=2, sort_keys=True)
            stream.write("\n")
        with open(os.path.join(cores_dir, f"core{core}.disasm.txt"), "w") as stream:
            stream.write("\n".join(disasm))
            stream.write("\n")


class CrashBundler:
    """Dumps bundle directories on behalf of a :class:`repro.flight.Flight`."""

    def __init__(self, flight, crash_dir: str, last_n: int = 256,
                 max_bundles: int = 5):
        self.flight = flight
        self.crash_dir = crash_dir
        self.last_n = last_n
        self.max_bundles = max_bundles
        self.bundles: List[str] = []
        self.num_skipped = 0
        self._dumping = False

    def trigger(self, vp, reason: str, detail: str = "",
                payload=None) -> Optional[str]:
        """Dump one bundle; returns its path (None when capped/re-entered)."""
        if self._dumping:
            # A probe fired while we were dumping (e.g. a sanitizer finding
            # during a debug read): one wreck, one bundle.
            return None
        if len(self.bundles) >= self.max_bundles:
            self.num_skipped += 1
            return None
        self._dumping = True
        try:
            path = self._dump(vp, reason, detail, payload)
        finally:
            self._dumping = False
        self.bundles.append(path)
        sys.stderr.write(f"[repro.flight] {reason}: crash bundle written to {path}\n")
        return path

    # -- bundle contents ------------------------------------------------------
    def _dump(self, vp, reason: str, detail: str, payload) -> str:
        name = f"bundle-{len(self.bundles):03d}-{reason}"
        path = os.path.join(self.crash_dir, name)
        suffix = 0
        while os.path.exists(path):
            suffix += 1
            path = os.path.join(self.crash_dir, f"{name}.{suffix}")
        cores_dir = os.path.join(path, "cores")
        os.makedirs(cores_dir)

        recorder = self.flight.recorder
        recorder.write_jsonl(os.path.join(path, "journal.jsonl"), last=self.last_n)
        with open(os.path.join(path, "mmio.jsonl"), "w") as stream:
            for event in recorder.of_kind("mmio_req", "mmio_resp"):
                stream.write(event.to_json())
                stream.write("\n")

        write_core_states(vp, cores_dir)

        self._write_metrics(vp, os.path.join(path, "metrics.json"))
        self._write_meta(vp, os.path.join(path, "meta.json"),
                         reason, detail, payload)
        return path

    def _write_metrics(self, vp, path: str) -> None:
        metrics = {
            "journal": {
                "counts": self.flight.recorder.counts(),
                "recorded": self.flight.recorder.num_recorded,
                "dropped": self.flight.recorder.num_dropped,
            },
        }
        telemetry = getattr(vp, "telemetry", None)
        if telemetry is not None:
            metrics["telemetry"] = telemetry.metrics_snapshot()
        if self.flight.profiler is not None:
            metrics["profile_per_symbol"] = self.flight.profiler.per_symbol()
        attribution = self._attribution_snapshot(vp)
        if attribution is not None:
            metrics["attribution"] = attribution
        with open(path, "w") as stream:
            json.dump(metrics, stream, indent=2, sort_keys=True)
            stream.write("\n")

    @staticmethod
    def _attribution_snapshot(vp) -> Optional[dict]:
        """Last-known host-time attribution (phases per lane) for the wreck:
        the platform's one attribution fold, kept while telemetry or obs is
        attached, open windows included; else nothing.  A crash dump must
        never die on its own bookkeeping.
        """
        fold = fold_of(vp)
        if fold is None:
            return None
        try:
            return fold.summary(
                platform=vp.name, num_cores=len(vp.cpus),
                sim_time_ps=vp.kernel.now.picoseconds,
                instructions=vp.total_instructions(),
                include_open=True).to_json()
        except Exception:
            return None

    def _write_meta(self, vp, path: str, reason: str, detail: str,
                    payload) -> None:
        config = vp.config
        quantum = getattr(config.quantum, "picoseconds", config.quantum)
        simctl = getattr(vp, "simctl", None)
        meta = {
            "reason": reason,
            "detail": detail,
            "payload": _json_safe(payload),
            "sim_time_ps": vp.kernel.now.picoseconds,
            "platform": {
                "name": vp.name,
                "kind": type(vp).__name__,
                "num_cores": len(vp.cpus),
                "quantum_ps": quantum,
                "parallel": config.parallel,
            },
            "simctl": None if simctl is None else {
                "stop_reason": simctl.stop_reason,
                "exit_code": simctl.exit_code,
                "panic_code": simctl.panic_code,
                "checkpoints": len(simctl.checkpoints),
            },
            "console_tail": vp.uart.tx_text()[-2000:],
            "total_instructions": vp.total_instructions(),
        }
        with open(path, "w") as stream:
            json.dump(meta, stream, indent=2, sort_keys=True)
            stream.write("\n")
