"""Built-in VP-aware lint rules.

Importing this package registers every rule with the engine:

========  =====================================================================
RPR001    wall-clock / unseeded randomness in simulation paths
RPR002    blocking TLM transport outside SC_THREAD context
RPR003    mutable default arguments; set-iteration order dependence in kernel code
RPR004    incomplete ``SimulateAction`` handling on ``SimulateResult`` consumers
RPR005    overlapping constant address ranges passed to ``Router.map``
RPR006    ``print()`` in simulation paths (stdout belongs to entry points)
RPR007    raw ``GenericPayload`` construction outside ``repro.fabric``/``repro.tlm``
RPR008    cross-lane shared attribute written outside MemoryPort/barrier paths
RPR009    unsynchronized container mutation on an object reachable from ≥2 cores
RPR010    barrier-only kernel API (``request_update``, immediate ``notify``)
          called from a simulate-leg path
RPR012    non-serializable state (open handles, lambdas, threading objects)
          on a snapshot-visible Module attribute
========  =====================================================================

RPR008–RPR010 (the race rules, see :mod:`.crosslane`) are *non-default*:
they run through ``python -m repro.analysis --race`` (baseline-gated) or an
explicit ``--select``, not in the plain lint pass.  RPR012 (see
:mod:`.snapshotable`) is likewise opt-in via ``--select RPR012``.
"""

from . import (  # noqa: F401
    addrmap,
    blocking,
    crosslane,
    mutable_defaults,
    payloads,
    print_output,
    simresult,
    snapshotable,
    wallclock,
)

__all__ = ["addrmap", "blocking", "crosslane", "mutable_defaults", "payloads",
           "print_output", "simresult", "snapshotable", "wallclock"]
