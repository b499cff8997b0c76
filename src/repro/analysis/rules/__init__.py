"""Built-in VP-aware lint rules.

Importing this package registers every rule with the engine:

========  =====================================================================
RPR001    wall-clock / unseeded randomness in simulation paths
RPR002    blocking TLM transport outside SC_THREAD context
RPR003    mutable default arguments; set-iteration order dependence in kernel code
RPR004    incomplete ``SimulateAction`` handling on ``SimulateResult`` consumers
RPR006    ``print()`` in simulation paths (stdout belongs to entry points)
RPR007    raw ``GenericPayload`` construction outside ``repro.fabric``/``repro.tlm``
========  =====================================================================
"""

from . import (  # noqa: F401
    blocking,
    mutable_defaults,
    payloads,
    print_output,
    simresult,
    wallclock,
)

__all__ = ["blocking", "mutable_defaults", "payloads", "print_output",
           "simresult", "wallclock"]
