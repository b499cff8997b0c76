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
RPR012    non-serializable state (open handles, lambdas, threading objects)
          on a snapshot-visible Module attribute
========  =====================================================================

RPR012 (see :mod:`.snapshotable`) is *non-default*: it runs only through
an explicit ``--select RPR012``, not in the plain lint pass.
"""

from . import (  # noqa: F401
    addrmap,
    blocking,
    mutable_defaults,
    payloads,
    print_output,
    simresult,
    snapshotable,
    wallclock,
)

__all__ = ["addrmap", "blocking", "mutable_defaults", "payloads",
           "print_output", "simresult", "snapshotable", "wallclock"]
