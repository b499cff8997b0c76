"""Simulation-control peripheral.

A tiny VP-side device the guest uses to talk to the simulation harness:
signal boot completion, report benchmark checkpoints and request shutdown.
Real VPs have an equivalent (VCML's ``simdev``); it is how wall-clock
measurements like "Linux boot duration" get a precise end marker.

======  ==========  ==============================================
offset  name        function
======  ==========  ==============================================
0x00    SHUTDOWN    write: stop the simulation (value = exit code)
0x08    BOOT_DONE   write: record boot completion
0x10    CHECKPOINT  write: record a numbered checkpoint
0x18    SIMTIME_NS  read: current simulation time in ns
0x20    PANIC       write: stop the simulation, reason "panic"
======  ==========  ==============================================

Each write calls the matching ``on_*`` slot (harness wiring, one callable
each) and then emits the kernel's ``simctl`` probe point as ``(what,
value)``, which observers subscribe to instead of taking over a slot.

SHUTDOWN and PANIC both end the run, but with distinct
``stop_reason`` values: an orderly guest exit and a guest-reported
fatal error are different events for post-mortem tooling (the flight
recorder dumps a crash bundle only for the latter).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Union

from ..systemc.kernel import Kernel
from ..systemc.module import Module
from ..systemc.time import SimTime
from ..vcml.peripheral import Peripheral
from ..vcml.register import Access


class SimControl(Peripheral):
    """Guest-to-harness signalling device."""

    def __init__(self, name: str, parent: Union[Module, Kernel]):
        super().__init__(name, parent)
        self.shutdown_requested = False
        self.exit_code = 0
        self.panic_requested = False
        self.panic_code = 0
        #: why the run stopped through this device: None | "shutdown" | "panic"
        self.stop_reason: Optional[str] = None
        self.boot_done_at: Optional[SimTime] = None
        self.checkpoints: List[Tuple[int, SimTime]] = []
        self.on_shutdown: Optional[Callable[[int], None]] = None
        self.on_boot_done: Optional[Callable[[SimTime], None]] = None
        self.on_checkpoint: Optional[Callable[[int, SimTime], None]] = None
        self.on_panic: Optional[Callable[[int], None]] = None
        self.add_register("shutdown", 0x00, size=8, access=Access.WRITE,
                          on_write=self._write_shutdown)
        self.add_register("boot_done", 0x08, size=8, access=Access.WRITE,
                          on_write=self._write_boot_done)
        self.add_register("checkpoint", 0x10, size=8, access=Access.WRITE,
                          on_write=self._write_checkpoint)
        self.add_register("simtime_ns", 0x18, size=8, access=Access.READ,
                          on_read=lambda: int(self.now.to_ns()))
        self.add_register("panic", 0x20, size=8, access=Access.WRITE,
                          on_write=self._write_panic)

    # -- snapshot support ---------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable control state.  The ``on_*`` callbacks are harness
        wiring, not guest state — the restoring platform re-installs its
        own."""
        return {
            "shutdown_requested": self.shutdown_requested,
            "exit_code": self.exit_code,
            "panic_requested": self.panic_requested,
            "panic_code": self.panic_code,
            "stop_reason": self.stop_reason,
            "boot_done_at_ps": (None if self.boot_done_at is None
                                else self.boot_done_at.picoseconds),
            "checkpoints": [[number, when.picoseconds]
                            for number, when in self.checkpoints],
        }

    def restore_state(self, state: dict) -> None:
        self.shutdown_requested = bool(state["shutdown_requested"])
        self.exit_code = state["exit_code"]
        self.panic_requested = bool(state["panic_requested"])
        self.panic_code = state["panic_code"]
        self.stop_reason = state["stop_reason"]
        self.boot_done_at = (None if state["boot_done_at_ps"] is None
                             else SimTime(state["boot_done_at_ps"]))
        self.checkpoints = [(number, SimTime(ps))
                            for number, ps in state["checkpoints"]]

    def _emit(self, what: str, value: int) -> None:
        fire = self.kernel.probes.simctl
        if fire is not None:
            fire(what, value)

    def _write_shutdown(self, value: int) -> None:
        self.shutdown_requested = True
        self.exit_code = value
        if self.stop_reason is None:
            self.stop_reason = "shutdown"
        if self.on_shutdown is not None:
            self.on_shutdown(value)
        self._emit("shutdown", value)
        self.kernel.stop()

    def _write_panic(self, value: int) -> None:
        self.panic_requested = True
        self.panic_code = value
        if self.stop_reason is None:
            self.stop_reason = "panic"
        if self.on_panic is not None:
            self.on_panic(value)
        self._emit("panic", value)
        self.kernel.stop()

    def _write_boot_done(self, value: int) -> None:
        if self.boot_done_at is None:
            self.boot_done_at = self.now
        if self.on_boot_done is not None:
            self.on_boot_done(self.now)
        self._emit("boot_done", value)

    def _write_checkpoint(self, value: int) -> None:
        self.checkpoints.append((value, self.now))
        if self.on_checkpoint is not None:
            self.on_checkpoint(value, self.now)
        self._emit("checkpoint", value)
