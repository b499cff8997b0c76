"""Memory-mapped multi-channel timer.

The vCPU subsystem of the paper's VP contains "a memory-mapped timer"
next to the GIC-400 (Fig. 4).  This model provides one countdown channel
per core; each channel raises a level-triggered interrupt (wired to a GIC
PPI) when its countdown reaches zero and can automatically reload for
periodic operation — the guest's jiffy tick.

Per-channel register block (stride 0x20):

======  ==========  ==========================================
offset  name        function
======  ==========  ==========================================
0x00    CTRL        bit0 enable, bit1 periodic, bit2 irq enable
0x04    INTERVAL    reload value in timer ticks
0x08    VALUE       current countdown (read-only)
0x0C    INT_STATUS  bit0 expired (read-only)
0x10    INT_CLR     write anything to clear the interrupt
======  ==========  ==========================================

A global read-only ``COUNTER`` (64-bit free-running tick counter derived
from simulation time) lives at offset 0x1000.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..systemc.kernel import Kernel
from ..systemc.module import Module
from ..systemc.signal import IrqLine
from ..systemc.time import SimTime
from ..vcml.peripheral import Peripheral
from ..vcml.register import Access

CHANNEL_STRIDE = 0x20
COUNTER_OFFSET = 0x1000

CTRL_ENABLE = 1 << 0
CTRL_PERIODIC = 1 << 1
CTRL_IRQ_ENABLE = 1 << 2


class _Channel:
    def __init__(self, owner: "MmTimer", index: int):
        self.owner = owner
        self.index = index
        self.ctrl = 0
        self.interval = 0
        self.expired = False
        self.irq = IrqLine(f"{owner.name}.irq{index}", owner.kernel)
        self._armed_at: Optional[SimTime] = None
        self._entry = None

    # -- register behaviour ----------------------------------------------------
    def write_ctrl(self, value: int) -> None:
        was_enabled = bool(self.ctrl & CTRL_ENABLE)
        self.ctrl = value & 0x7
        enabled = bool(self.ctrl & CTRL_ENABLE)
        if enabled and not was_enabled:
            self._arm()
        elif not enabled:
            self._disarm()
        self._update_irq()

    def write_interval(self, value: int) -> None:
        self.interval = value & 0xFFFFFFFF
        if self.ctrl & CTRL_ENABLE:
            self._arm()

    def read_value(self) -> int:
        if self._armed_at is None or self.interval == 0:
            return 0
        elapsed_ticks = self.owner.time_to_cycles(self.owner.now - self._armed_at)
        remaining = self.interval - elapsed_ticks
        return max(0, remaining) & 0xFFFFFFFF

    def clear_interrupt(self) -> None:
        self.expired = False
        self._update_irq()

    # -- countdown machinery -------------------------------------------------------
    def _arm(self) -> None:
        self._disarm()
        if self.interval == 0:
            return
        self._armed_at = self.owner.now
        duration = self.owner.cycles_to_time(self.interval)
        self._entry = self.owner.kernel.schedule_callback(duration, self._expire)

    def _disarm(self) -> None:
        if self._entry is not None:
            self._entry.cancelled = True
            self._entry = None
        self._armed_at = None

    def _expire(self) -> None:
        self._entry = None
        if not self.ctrl & CTRL_ENABLE:
            return
        self.expired = True
        self.owner.num_expirations += 1
        self._update_irq()
        if self.ctrl & CTRL_PERIODIC:
            self._arm()
        else:
            self._armed_at = None

    def _update_irq(self) -> None:
        self.irq.write(self.expired and bool(self.ctrl & CTRL_IRQ_ENABLE))


class MmTimer(Peripheral):
    """Multi-channel memory-mapped timer (one channel per core)."""

    def __init__(self, name: str, num_channels: int, parent: Union[Module, Kernel]):
        super().__init__(name, parent)
        if num_channels < 1:
            raise ValueError("timer needs at least one channel")
        self.num_expirations = 0
        self.channels: List[_Channel] = []
        for index in range(num_channels):
            channel = _Channel(self, index)
            self.channels.append(channel)
            base = index * CHANNEL_STRIDE
            self.add_register(f"ctrl{index}", base + 0x00,
                              on_read=lambda ch=channel: ch.ctrl,
                              on_write=lambda v, ch=channel: ch.write_ctrl(v))
            self.add_register(f"interval{index}", base + 0x04,
                              on_read=lambda ch=channel: ch.interval,
                              on_write=lambda v, ch=channel: ch.write_interval(v))
            self.add_register(f"value{index}", base + 0x08, access=Access.READ,
                              on_read=lambda ch=channel: ch.read_value())
            self.add_register(f"int_status{index}", base + 0x0C, access=Access.READ,
                              on_read=lambda ch=channel: int(ch.expired))
            self.add_register(f"int_clr{index}", base + 0x10, access=Access.WRITE,
                              on_write=lambda v, ch=channel: ch.clear_interrupt())
        self.add_register("counter", COUNTER_OFFSET, size=8, access=Access.READ,
                          on_read=self._read_counter)

    def irq_line(self, channel: int) -> IrqLine:
        return self.channels[channel].irq

    # -- snapshot support ---------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable timer state (counters + per-channel countdowns).

        A channel's pending ``_expire`` heap entry is *not* captured here —
        it lives in the kernel's timed heap, which repro.snapshot serializes
        and rebuilds wholesale; ``_armed_at`` (absolute picoseconds) is
        enough to keep VALUE reads consistent after restore.
        """
        return {
            "num_expirations": self.num_expirations,
            "channels": [
                {
                    "ctrl": channel.ctrl,
                    "interval": channel.interval,
                    "expired": channel.expired,
                    "armed_at_ps": (None if channel._armed_at is None
                                    else channel._armed_at.picoseconds),
                    "irq_level": channel.irq.level,
                }
                for channel in self.channels
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Install a :meth:`snapshot_state` dict without re-arming channels.

        Pending expirations are reattached by repro.snapshot when it
        rebuilds the kernel heap (the rebuilt entry is handed back via
        ``channel._entry``); IRQ levels are poked, not written, so the GIC —
        restored separately — does not see duplicate edges.
        """
        self.num_expirations = state["num_expirations"]
        for channel, data in zip(self.channels, state["channels"]):
            channel.ctrl = data["ctrl"]
            channel.interval = data["interval"]
            channel.expired = bool(data["expired"])
            channel._armed_at = (None if data["armed_at_ps"] is None
                                 else SimTime(data["armed_at_ps"]))
            channel._entry = None
            channel.irq._level = bool(data["irq_level"])

    def _read_counter(self) -> int:
        return self.time_to_cycles(self.now)

    def start_periodic(self, channel: int, ticks: int) -> None:
        """Host-side convenience: program a periodic interrupting channel."""
        ch = self.channels[channel]
        ch.write_interval(ticks)
        ch.write_ctrl(CTRL_ENABLE | CTRL_PERIODIC | CTRL_IRQ_ENABLE)
