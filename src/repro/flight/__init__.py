"""repro.flight — black-box flight recorder, crash bundles, guest profiler.

Three tools that make a wedged or diverging run diagnosable without
rerunning it under a debugger:

* :class:`FlightRecorder` — an always-on bounded ring journal of typed
  platform events (KVM exits, MMIO, IRQs, WFI, watchdog, quantum syncs,
  console lines) stamped with simulation time and modeled host time;
* :class:`CrashBundler` — on a wedged core, a kernel-dispatch exception,
  a sanitizer finding or a guest panic, dumps a post-mortem bundle
  directory (journal tail, per-core registers/sysregs/disassembly, MMIO
  history, metrics, run metadata) and prints its path;
* :class:`GuestProfiler` — samples the guest PC on the modeled-cycle axis,
  symbolizes against the image's symbol table and emits per-symbol cycle
  attribution plus folded stacks for flamegraph tooling.

Everything attaches as subscribers on the platform kernel's probe bus
(:mod:`repro.systemc.probes`, the same points ``repro.telemetry`` uses),
so determinism digests are unchanged whether flight is on or off.

Usage::

    from repro.flight import enable_flight
    flight = enable_flight(vp)                      # before vp.run()
    ...
    flight.write_journal("journal.jsonl")
    flight.profiler.write_folded("profile.folded")

or scoped, auto-attaching every platform built inside (the hook
``repro.bench --profile-dir`` and ``REPRO_FLIGHT=dir`` use)::

    with recording() as flight:
        vp = build_platform("aoa", config, software)
        vp.run()
"""

from ..obs.scope import opened
from .attach import Flight, enable_flight
from .bundle import CrashBundler
from .profiler import GuestProfiler, parse_folded
from .recorder import FlightEvent, FlightRecorder, read_jsonl

__all__ = [
    "Flight", "FlightEvent", "FlightRecorder", "CrashBundler",
    "GuestProfiler", "parse_folded", "read_jsonl",
    "enable_flight", "recording",
]


def recording(**kwargs):
    """Scope within which every ``build_platform`` auto-attaches a flight
    recorder (and profiler); mirrors ``repro.telemetry.collecting``."""
    return opened(Flight(**kwargs))
