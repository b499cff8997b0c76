"""Clock and reset helpers.

Virtual platforms rarely need a toggling clock signal; what the CPU and
peripheral models consume is the clock *frequency* (to convert cycle counts
to time).  :class:`Clock` therefore models a frequency source that can also
produce posedge events on demand for models that want them, without burning
scheduler events when nobody listens — the same optimization VCML applies.
"""

from __future__ import annotations

from .event import Event
from .kernel import Kernel
from .time import SimTime, _as_ps


class Clock:
    """A frequency source with an optional generated posedge event stream."""

    def __init__(self, name: str, frequency_hz: float, kernel: Kernel):
        if frequency_hz <= 0:
            raise ValueError(f"clock frequency must be positive, got {frequency_hz}")
        self.name = name
        self._kernel = kernel
        self._frequency = float(frequency_hz)
        self.posedge = Event(f"{name}.posedge", self._kernel)
        self._ticking = False

    @property
    def frequency_hz(self) -> float:
        return self._frequency

    @frequency_hz.setter
    def frequency_hz(self, value: float) -> None:
        if value <= 0:
            raise ValueError(f"clock frequency must be positive, got {value}")
        self._frequency = float(value)

    @property
    def period(self) -> SimTime:
        return SimTime.from_frequency(self._frequency)

    def cycles_to_ps(self, cycles: int) -> int:
        """Duration of ``cycles`` clock cycles, in picoseconds."""
        return round(cycles * 1_000_000_000_000 / self._frequency)

    def ps_to_cycles(self, picoseconds: int) -> int:
        """Whole cycles that fit in ``picoseconds`` (floor).

        Converts through seconds as a float, exactly as the ``SimTime``
        form always has, so cycle counts stay bit-identical.
        """
        return int(picoseconds / 1_000_000_000_000 * self._frequency)

    def cycles_to_time(self, cycles: int) -> SimTime:
        """Duration of ``cycles`` clock cycles."""
        return SimTime(self.cycles_to_ps(cycles))

    def time_to_cycles(self, duration: SimTime) -> int:
        """Whole cycles that fit in ``duration`` (floor)."""
        return self.ps_to_cycles(_as_ps(duration))

    def start_ticking(self) -> None:
        """Generate posedge events every period (only if a model needs them)."""
        if self._ticking:
            return
        self._ticking = True
        self._schedule_tick()

    def stop_ticking(self) -> None:
        self._ticking = False

    def _schedule_tick(self) -> None:
        if not self._ticking:
            return
        # Bound method, not a closure: pending ticks in the timed heap must
        # be introspectable (owner + method name) for repro.snapshot.
        self._kernel.schedule_callback(self.period, self._tick)

    def _tick(self) -> None:
        if self._ticking:
            self.posedge.notify(delay=None)
            self._schedule_tick()

    def __repr__(self) -> str:
        return f"Clock({self.name!r}, {self._frequency / 1e6:g} MHz)"


class Reset:
    """An active-high reset line."""

    def __init__(self, name: str, kernel: Kernel):
        self.name = name
        self._kernel = kernel
        self._asserted = False
        self.asserted_event = Event(f"{name}.asserted", self._kernel)
        self.deasserted_event = Event(f"{name}.deasserted", self._kernel)

    @property
    def asserted(self) -> bool:
        return self._asserted

    def assert_reset(self) -> None:
        if not self._asserted:
            self._asserted = True
            self.asserted_event.notify(delay=None)

    def deassert_reset(self) -> None:
        if self._asserted:
            self._asserted = False
            self.deasserted_event.notify(delay=None)
