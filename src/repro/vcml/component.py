"""Component base class: a module with clock and reset inputs.

Mirrors ``vcml::component``: every model in the VP derives from this, gaining
a clock binding (frequency source for cycle/time conversion) and reset
handling.
"""

from __future__ import annotations

from typing import Optional

from ..systemc.clock import Clock, Reset
from ..systemc.module import Module
from ..systemc.time import SimTime


class Component(Module):
    """A clocked, resettable hierarchical model."""

    def __init__(self, name: str, parent: Optional[Module] = None):
        super().__init__(name, parent)
        self.clk: Optional[Clock] = None
        self.rst: Optional[Reset] = None

    def bind_clock(self, clock: Clock) -> None:
        self.clk = clock

    def bind_reset(self, reset: Reset) -> None:
        self.rst = reset

    def _clock(self) -> Clock:
        if self.clk is None:
            raise RuntimeError(f"component {self.name!r} has no clock bound")
        return self.clk

    @property
    def clock_hz(self) -> float:
        return self._clock().frequency_hz

    def cycles_to_time(self, cycles: int) -> SimTime:
        return self._clock().cycles_to_time(cycles)

    def time_to_cycles(self, duration: SimTime) -> int:
        return self._clock().time_to_cycles(duration)

    @property
    def in_reset(self) -> bool:
        return self.rst is not None and self.rst.asserted

    def reset_model(self) -> None:
        """Reset hook; subclasses restore architectural state here."""
