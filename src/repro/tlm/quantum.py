"""Temporal decoupling: global quantum and quantum keeper.

Port of ``tlm_utils::tlm_quantumkeeper``.  A loosely-timed initiator keeps a
*local time offset* ahead of the SystemC time; it only yields back to the
kernel (synchronizes) when the offset exceeds the global quantum.  The
quantum is the paper's central performance knob: it determines the KVM run
budget per ``simulate()`` call and the synchronization frequency between the
simulated cores (Figs. 5 and 6).

Both values are kept as ``int`` picoseconds (:attr:`GlobalQuantum.quantum_ps`,
:attr:`QuantumKeeper.offset_ps`), which is what the processor loop reads and
writes on every ``simulate()`` leg; the ``SimTime`` accessors are the API
edge for everything else.
"""

from __future__ import annotations

from typing import Optional

from ..systemc.kernel import Kernel
from ..systemc.time import SimTime, _as_ps


class GlobalQuantum:
    """Process-wide quantum value (``tlm::tlm_global_quantum``)."""

    def __init__(self, quantum: Optional[SimTime] = None):
        self.quantum = quantum if quantum is not None else SimTime.us(1)

    @property
    def quantum(self) -> SimTime:
        return self._quantum

    @quantum.setter
    def quantum(self, value: SimTime) -> None:
        if not isinstance(value, SimTime):
            raise TypeError("quantum must be a SimTime")
        if value.is_zero():
            raise ValueError("quantum must be non-zero")
        self._quantum = value
        #: the quantum in picoseconds, cached for the processor loop
        self.quantum_ps = value.picoseconds


class QuantumKeeper:
    """Tracks one initiator's local time offset against the global quantum."""

    def __init__(self, global_quantum: GlobalQuantum, kernel: Kernel):
        self.global_quantum = global_quantum
        self._kernel = kernel
        #: how far this initiator has run ahead of SystemC time, in ps
        self.offset_ps = 0

    # -- queries -----------------------------------------------------------
    @property
    def local_time_offset(self) -> SimTime:
        """How far this initiator has run ahead of SystemC time."""
        return SimTime(self.offset_ps)

    def current_time(self) -> SimTime:
        """Effective local time: kernel time plus the local offset."""
        return SimTime(self._kernel._now_ps + self.offset_ps)

    def remaining(self) -> SimTime:
        """Budget left before a sync is needed."""
        return SimTime(max(0, self.global_quantum.quantum_ps - self.offset_ps))

    def need_sync(self) -> bool:
        return self.offset_ps >= self.global_quantum.quantum_ps

    # -- mutation -------------------------------------------------------------
    def inc(self, delta: SimTime) -> None:
        self.offset_ps += _as_ps(delta)

    def set_offset(self, offset: SimTime) -> None:
        self.offset_ps = _as_ps(offset)

    def reset(self) -> None:
        self.offset_ps = 0

    def sync_wait(self) -> SimTime:
        """Return the wait duration that realizes the local offset.

        Usage inside an SC_THREAD::

            yield keeper.sync_wait()

        The keeper resets its offset; after the wait the process is
        synchronized with the global simulation time.
        """
        offset = SimTime(self.offset_ps)
        self.offset_ps = 0
        return offset
