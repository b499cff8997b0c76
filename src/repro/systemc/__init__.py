"""A SystemC-like discrete-event simulation kernel in pure Python.

Implements the IEEE 1666 scheduling semantics that the paper's CPU model is
written against: SC_THREAD processes (as generators), events with
immediate/delta/timed notification, primitive-channel updates, delta cycles,
and a module hierarchy.
"""

from .clock import Clock, Reset
from .event import Event, EventList, any_of
from .kernel import Kernel
from .module import Module, Simulation
from .process import MethodProcess, Process, ProcessState, WaitTimeout
from .signal import IrqLine, Signal
from .time import SimTime

__all__ = [
    "Clock",
    "Event",
    "EventList",
    "IrqLine",
    "Kernel",
    "MethodProcess",
    "Module",
    "Process",
    "ProcessState",
    "Reset",
    "Signal",
    "SimTime",
    "Simulation",
    "WaitTimeout",
    "any_of",
]
