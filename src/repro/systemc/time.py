"""Simulation-time representation for the SystemC-like kernel.

SystemC represents simulated time as an integer multiple of a resolution.
We fix the resolution at one picosecond, which is fine enough for GHz-range
clocks and coarse enough that a 64-bit integer covers centuries of simulated
time.  :class:`SimTime` is an immutable value type supporting arithmetic,
comparison and pretty printing, mirroring ``sc_core::sc_time``.  It is the
public type at the API edge; the kernel, quantum keeper and processor loop
keep time as plain ``int`` picoseconds internally (DESIGN §19).
"""

from __future__ import annotations

import math
from typing import Union

#: Picoseconds per unit, mirroring ``sc_core::sc_time_unit``.
PS = 1
NS = 1_000
US = 1_000_000
MS = 1_000_000_000
SEC = 1_000_000_000_000

_UNIT_SUFFIXES = (
    (SEC, "s"),
    (MS, "ms"),
    (US, "us"),
    (NS, "ns"),
    (PS, "ps"),
)


class SimTime:
    """An absolute or relative amount of simulated time, in picoseconds.

    Instances are immutable and totally ordered.  Construct via the unit
    classmethods (:meth:`ps`, :meth:`ns`, :meth:`us`, :meth:`ms`,
    :meth:`seconds`) or :meth:`from_seconds`.
    """

    __slots__ = ("_ps",)

    def __init__(self, picoseconds: int = 0):
        if not isinstance(picoseconds, int):
            raise TypeError(f"SimTime wants an integer ps count, got {type(picoseconds).__name__}")
        if picoseconds < 0:
            raise ValueError(f"SimTime cannot be negative: {picoseconds}")
        self._ps = picoseconds

    # -- constructors ---------------------------------------------------
    @classmethod
    def ps(cls, value: Union[int, float]) -> "SimTime":
        return cls(round(value * PS))

    @classmethod
    def ns(cls, value: Union[int, float]) -> "SimTime":
        return cls(round(value * NS))

    @classmethod
    def us(cls, value: Union[int, float]) -> "SimTime":
        return cls(round(value * US))

    @classmethod
    def ms(cls, value: Union[int, float]) -> "SimTime":
        return cls(round(value * MS))

    @classmethod
    def seconds(cls, value: Union[int, float]) -> "SimTime":
        return cls(round(value * SEC))

    @classmethod
    def from_seconds(cls, value: float) -> "SimTime":
        return cls.seconds(value)

    @classmethod
    def zero(cls) -> "SimTime":
        return _ZERO

    @classmethod
    def from_frequency(cls, hertz: float) -> "SimTime":
        """Return the period of a clock running at ``hertz``."""
        if hertz <= 0:
            raise ValueError(f"frequency must be positive, got {hertz}")
        return cls(max(1, round(SEC / hertz)))

    # -- accessors ------------------------------------------------------
    @property
    def picoseconds(self) -> int:
        return self._ps

    def to_seconds(self) -> float:
        return self._ps / SEC

    def to_ns(self) -> float:
        return self._ps / NS

    def to_us(self) -> float:
        return self._ps / US

    def to_ms(self) -> float:
        return self._ps / MS

    def is_zero(self) -> bool:
        return self._ps == 0

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other: "SimTime") -> "SimTime":
        return SimTime(self._ps + _as_ps(other))

    def __sub__(self, other: "SimTime") -> "SimTime":
        return SimTime(self._ps - _as_ps(other))

    def __mul__(self, factor: Union[int, float]) -> "SimTime":
        return SimTime(round(self._ps * factor))

    __rmul__ = __mul__

    def __floordiv__(self, other: "SimTime") -> int:
        return self._ps // _as_ps(other)

    def __mod__(self, other: "SimTime") -> "SimTime":
        return SimTime(self._ps % _as_ps(other))

    def __truediv__(self, other: Union["SimTime", int, float]):
        if isinstance(other, SimTime):
            return self._ps / other._ps
        return SimTime(round(self._ps / other))

    # -- comparisons ----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimTime) and self._ps == other._ps

    def __lt__(self, other: "SimTime") -> bool:
        return self._ps < _as_ps(other)

    def __le__(self, other: "SimTime") -> bool:
        return self._ps <= _as_ps(other)

    def __gt__(self, other: "SimTime") -> bool:
        return self._ps > _as_ps(other)

    def __ge__(self, other: "SimTime") -> bool:
        return self._ps >= _as_ps(other)

    def __hash__(self) -> int:
        return hash(self._ps)

    def __bool__(self) -> bool:
        return self._ps != 0

    # -- repr -----------------------------------------------------------
    def __repr__(self) -> str:
        return f"SimTime({self._ps} ps)"

    def __str__(self) -> str:
        if self._ps == 0:
            return "0 s"
        for factor, suffix in _UNIT_SUFFIXES[:-1]:
            if self._ps >= factor and self._ps % factor == 0:
                return f"{self._ps // factor} {suffix}"
        # No exact unit above ps: print fractionally in the largest unit
        # reached (raw ps counts get unreadable fast).
        for factor, suffix in _UNIT_SUFFIXES[:-1]:
            if self._ps >= factor:
                value = self._ps / factor
                if math.isclose(value, round(value, 3)):
                    return f"{round(value, 3):g} {suffix}"
                return f"{value:.3f} {suffix}"
        return f"{self._ps} ps"


def _as_ps(value: SimTime) -> int:
    if not isinstance(value, SimTime):
        raise TypeError(f"expected SimTime, got {type(value).__name__}")
    return value._ps


_ZERO = SimTime(0)
