"""Phase programs: abstract workload execution at paper scale.

Interpreting billions of guest instructions in Python is impossible, but the
paper's mechanisms (quantum budgets, watchdog kicks, MMIO exits, WFI
annotations, cross-core handshakes) only react to *events*, not to
individual ALU results.  A *phase program* describes a workload as the
sequence of events one core produces:

* :class:`Compute`   — N instructions with a static-block/memory profile,
* :class:`Mmio`      — one device access (a real exit + TLM transaction),
* :class:`Wfi`       — enter the idle loop at the annotated ``WFI`` address,
  optionally until a guest-RAM flag is set (completions, hotplug waits),
* :class:`SpinUntil` — busy-wait on a guest-RAM flag (spinlocks, barriers),
* :class:`StoreFlag` / :class:`AtomicAdd` — shared-memory writes,
* :class:`Halt`      — terminate the core.

Programs are Python generators, so control flow (loops, handshakes,
data-dependent branches on MMIO read values) is ordinary code.  A yielded
``Mmio`` read evaluates to the bytes the device returned::

    def program(ctx):
        yield Compute(1_000_000, key="init")
        status = yield Mmio(UART_FR, 4, is_write=False)
        ...

A program never reads or writes guest memory itself: it waits on a flag
with ``Wfi(address, value)`` or :class:`SpinUntil` and writes one with
:class:`StoreFlag`/:class:`AtomicAdd`, and the executor performs the
access.  Its control flow therefore depends only on the values sent into
it (MMIO read data), so the number of generator advances plus those
values fully determine where a program stands; that position is what a
snapshot stores (:meth:`PhaseExecutor.snapshot_state`).

:class:`PhaseExecutor` runs these programs behind the exact same executor
interface as the functional interpreter, so both CPU models and the whole
platform stack are exercised unmodified.  Interrupt delivery follows the
GIC protocol: when the IRQ line rises (and the core is not already in a
handler) the executor interleaves an IAR read, handler work, device acks
and an EOIR write — all real MMIO exits handled by the VP.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Set, Union

from .executor import ExitInfo, ExitReason, GuestMemoryMap, MmioRequest, RunStats


# --------------------------------------------------------------------------
# Phase vocabulary
# --------------------------------------------------------------------------

@dataclass
class Compute:
    """Execute ``instructions`` guest instructions of straight-line work.

    ``key`` identifies the static code executed: the first time a key is
    seen, its ``static_blocks`` are counted as newly translated (DBT cost);
    re-executions hit the translation cache.  ``mem_fraction`` of the
    instructions are loads/stores and ``tlb_miss_rate`` of *those* miss the
    software TLB (ISS cost model inputs).
    """

    instructions: int
    key: str = ""
    static_blocks: int = 64
    avg_block_len: int = 12
    mem_fraction: float = 0.25
    tlb_miss_rate: float = 0.0


@dataclass
class Mmio:
    """One device access at guest-physical ``address``."""

    address: int
    size: int = 4
    is_write: bool = True
    value: int = 0


@dataclass
class Wfi:
    """Execute the idle loop's WFI instruction.

    A bare ``Wfi()`` executes one WFI.  With an ``address`` it is an idle
    wait, the way a kernel thread sleeps on a completion: the core
    executes WFI until the 8-byte RAM word at ``address`` equals ``value``
    (reaches it, with ``ge=True``).  The flag is read when the phase is
    issued and again after each completed WFI, so every unexpected wakeup
    (timer tick, stray SGI) re-checks it and re-enters WFI.
    """

    address: Optional[int] = None
    value: int = 1
    ge: bool = False


@dataclass
class SpinUntil:
    """Busy-wait until the 8-byte RAM word at ``address`` reaches ``value``.

    ``ge=False`` waits for equality; ``ge=True`` waits for >=, which is what
    generation-counter barriers need (later arrivals may overshoot the
    value a spinner is waiting for).
    """

    address: int
    value: int
    check_instructions: int = 64
    mem_fraction: float = 0.5
    ge: bool = False


@dataclass
class StoreFlag:
    """Store an 8-byte value to guest RAM (release-store to a flag)."""

    address: int
    value: int
    instructions: int = 2


@dataclass
class AtomicAdd:
    """LDXR/STXR read-modify-write on an 8-byte RAM counter."""

    address: int
    delta: int
    instructions: int = 8


@dataclass
class Halt:
    code: int = 0


Phase = Union[Compute, Mmio, Wfi, SpinUntil, StoreFlag, AtomicAdd, Halt]
PhaseProgram = Callable[["PhaseContext"], Generator]


@dataclass
class IrqProtocol:
    """How a core services an interrupt (GICv2 handshake).

    ``iar_address``/``eoir_address`` are the core's GIC CPU-interface
    registers.  ``device_acks`` maps an interrupt id to the extra MMIO
    writes the driver performs to silence the device (e.g. a timer's
    interrupt-clear register).
    """

    iar_address: int
    eoir_address: int
    handler_instructions: int = 1500
    device_acks: Dict[int, Sequence[Mmio]] = field(default_factory=dict)


@dataclass
class PhaseContext:
    """Everything a phase program can see."""

    core_id: int
    memory: GuestMemoryMap
    wfi_pc: int = 0x1000
    code_base: int = 0x4000
    irq_protocol: Optional[IrqProtocol] = None

    # -- RAM helpers for the executor's flag phases ----------------------------
    def read_u64(self, address: int) -> int:
        return int.from_bytes(self.memory.read(address, 8), "little")

    def write_u64(self, address: int, value: int) -> None:
        self.memory.write(address, (value & (2**64 - 1)).to_bytes(8, "little"))


def _flag_reached(ex: "PhaseExecutor", phase: Union[Wfi, SpinUntil]) -> bool:
    """Whether the RAM flag ``phase`` waits on has its value."""
    current = ex.ctx.read_u64(phase.address)
    return current >= phase.value if phase.ge else current == phase.value


def _phase_data(phase: Optional[Phase]) -> Optional[list]:
    """``phase`` as JSON data: its type name and its fields."""
    return None if phase is None else [type(phase).__name__, asdict(phase)]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# --------------------------------------------------------------------------
# Executor
# --------------------------------------------------------------------------

#: the stages of an interrupt service sequence, in order
_HANDLER_STAGES = ("iar", "work", "acks", "eoir")
#: who consumes an in-flight MMIO's completion (None: no MMIO in flight)
_MMIO_SINKS = (None, "program", "iar", "ack", "eoir")


class _HandlerState:
    """Progress of an in-flight interrupt service sequence."""

    def __init__(self, protocol: IrqProtocol):
        self.protocol = protocol
        self.stage = "iar"          # one of _HANDLER_STAGES
        self.ack_id = 0
        self.work_left = protocol.handler_instructions
        self.acks: List[Mmio] = []


class PhaseExecutor:
    """Runs a phase program behind the GuestExecutor interface."""

    def __init__(self, program: PhaseProgram, ctx: PhaseContext):
        self.ctx = ctx
        self._generator = program(ctx)
        #: the program's position (repro.snapshot): how many times the
        #: generator has been advanced, and the non-None values sent into
        #: it, keyed by advance index
        self._advances = 0
        self._inputs: Dict[int, int] = {}
        self._current: Optional[Phase] = None
        self._compute_left = 0
        self._send_value = None
        self._finished = False
        self._halt_code = 0
        self.irq_line = False
        self.breakpoints: Set[int] = set()
        self._skip_breakpoint_once = False
        self._handler: Optional[_HandlerState] = None
        self._wfi_completed = False
        self._pending_mmio: Optional[MmioRequest] = None
        self._pending_mmio_sink: Optional[str] = None   # one of _MMIO_SINKS
        self.pc = ctx.code_base
        # Stats
        self.instructions = 0
        self.memory_ops = 0
        self.blocks_entered = 0
        self.new_blocks = 0
        self.tlb_misses = 0
        self.exceptions = 0
        self.irqs_taken = 0
        self._translated_keys: Set[str] = set()
        self._anonymous_keys = 0

    # -- GuestExecutor interface ----------------------------------------------
    def set_irq(self, level: bool) -> None:
        self.irq_line = bool(level)

    def set_breakpoint(self, address: int) -> None:
        self.breakpoints.add(address)

    def clear_breakpoint(self, address: int) -> None:
        self.breakpoints.discard(address)

    def sample_stats(self) -> RunStats:
        return RunStats(
            instructions=self.instructions,
            memory_ops=self.memory_ops,
            blocks_entered=self.blocks_entered,
            blocks_translated=self.new_blocks,
            tlb_misses=self.tlb_misses,
            exceptions=self.exceptions,
        )

    @property
    def mmio_pending(self) -> bool:
        return self._pending_mmio is not None

    # -- snapshot support ----------------------------------------------------
    @staticmethod
    def _mmio_to_dict(request: Optional[MmioRequest]) -> Optional[dict]:
        if request is None:
            return None
        return {
            "address": request.address,
            "size": request.size,
            "is_write": request.is_write,
            "data": None if request.data is None else request.data.hex(),
            "register": request.register,
        }

    @staticmethod
    def _mmio_from_dict(data: Optional[dict]) -> Optional[MmioRequest]:
        if data is None:
            return None
        return MmioRequest(
            data["address"], data["size"], data["is_write"],
            None if data["data"] is None else bytes.fromhex(data["data"]),
            data["register"],
        )

    def snapshot_state(self) -> dict:
        """Serializable executor state (repro.snapshot).

        The generator itself cannot be pickled, but a program reads no
        guest memory, so its position is data: the advance count, the
        values sent into it and the phase it last yielded.
        :meth:`restore_state` re-advances a fresh generator to it.
        """
        handler = self._handler
        return {
            "type": "phase",
            "advances": self._advances,
            "inputs": [[index, value] for index, value in self._inputs.items()],
            "phase": _phase_data(self._current),
            "compute_left": self._compute_left,
            "send_value": self._send_value,
            "finished": self._finished,
            "halt_code": self._halt_code,
            "irq_line": self.irq_line,
            "breakpoints": sorted(self.breakpoints),
            "skip_breakpoint_once": self._skip_breakpoint_once,
            "handler": None if handler is None else {
                "stage": handler.stage,
                "ack_id": handler.ack_id,
                "work_left": handler.work_left,
                "acks": [{"address": ack.address, "size": ack.size,
                          "is_write": ack.is_write, "value": ack.value}
                         for ack in handler.acks],
            },
            "wfi_completed": self._wfi_completed,
            "pending_mmio": self._mmio_to_dict(self._pending_mmio),
            "pending_mmio_sink": self._pending_mmio_sink,
            "pc": self.pc,
            "instructions": self.instructions,
            "memory_ops": self.memory_ops,
            "blocks_entered": self.blocks_entered,
            "new_blocks": self.new_blocks,
            "tlb_misses": self.tlb_misses,
            "exceptions": self.exceptions,
            "irqs_taken": self.irqs_taken,
            "translated_keys": sorted(self._translated_keys),
            "anonymous_keys": self._anonymous_keys,
        }

    def restore_state(self, state: dict) -> None:
        """Re-advance this (freshly constructed) executor to ``state``.

        The fresh generator is sent the recorded inputs, ``advances``
        times.  A program that ends early or stops on a phase other than
        the recorded one is not the program that was captured; that, like
        an ill-typed or out-of-range field, raises ``ValueError``.  All
        scalar progress state is then installed as data.
        """
        if state["type"] != "phase":
            raise ValueError(f"malformed executor: type {state['type']!r} is not 'phase'")
        advances = state["advances"]
        if not _is_int(advances) or advances < 0:
            raise ValueError(f"malformed executor advances: {advances!r}")
        inputs: Dict[int, int] = {}
        for index, value in state["inputs"]:
            if not (_is_int(index) and 0 <= index < advances and _is_int(value)):
                raise ValueError(f"malformed executor inputs: [{index!r}, {value!r}] "
                                 f"with {advances} advances")
            inputs[index] = value
        phase = None
        for index in range(advances):
            try:
                phase = self._generator.send(inputs.get(index))
            except StopIteration:
                if index + 1 < advances:
                    raise ValueError(
                        f"malformed executor position: the program ends at advance "
                        f"{index + 1} of {advances}") from None
                phase = None
        if _phase_data(phase) != state["phase"]:
            raise ValueError(
                f"malformed executor position: the program stands at "
                f"{_phase_data(phase)!r} after {advances} advances, the snapshot "
                f"at {state['phase']!r}")
        handler = state["handler"]
        if handler is not None and (handler["stage"] not in _HANDLER_STAGES
                                    or self.ctx.irq_protocol is None):
            raise ValueError(f"malformed executor handler: {handler!r}")
        if state["pending_mmio_sink"] not in _MMIO_SINKS:
            raise ValueError(
                f"malformed executor pending_mmio_sink: {state['pending_mmio_sink']!r}")
        self._advances = advances
        self._inputs = inputs
        self._current = phase
        self._compute_left = state["compute_left"]
        self._send_value = state["send_value"]
        self._finished = bool(state["finished"])
        self._halt_code = state["halt_code"]
        self.irq_line = bool(state["irq_line"])
        self.breakpoints = set(state["breakpoints"])
        self._skip_breakpoint_once = bool(state["skip_breakpoint_once"])
        if handler is None:
            self._handler = None
        else:
            restored = _HandlerState(self.ctx.irq_protocol)
            restored.stage = handler["stage"]
            restored.ack_id = handler["ack_id"]
            restored.work_left = handler["work_left"]
            restored.acks = [Mmio(ack["address"], ack["size"], ack["is_write"],
                                  ack["value"]) for ack in handler["acks"]]
            self._handler = restored
        self._wfi_completed = bool(state["wfi_completed"])
        self._pending_mmio = self._mmio_from_dict(state["pending_mmio"])
        self._pending_mmio_sink = state["pending_mmio_sink"]
        self.pc = state["pc"]
        self.instructions = state["instructions"]
        self.memory_ops = state["memory_ops"]
        self.blocks_entered = state["blocks_entered"]
        self.new_blocks = state["new_blocks"]
        self.tlb_misses = state["tlb_misses"]
        self.exceptions = state["exceptions"]
        self.irqs_taken = state["irqs_taken"]
        self._translated_keys = set(state["translated_keys"])
        self._anonymous_keys = state["anonymous_keys"]

    def run(self, max_instructions: int) -> ExitInfo:
        if self._pending_mmio is not None:
            raise RuntimeError("MMIO in flight; call complete_mmio() first")
        if self._finished:
            return ExitInfo(ExitReason.HALT, 0, self.pc, halt_code=self._halt_code)
        executed = 0
        while executed < max_instructions:
            # Interrupt delivery takes priority over the program — except
            # over a not-yet-executed WFI, which architecturally falls
            # through *first* and only then takes the interrupt.
            if (self.irq_line and self._handler is None
                    and self.ctx.irq_protocol is not None
                    and not (type(self._current) is Wfi and not self._wfi_completed)):
                self._handler = _HandlerState(self.ctx.irq_protocol)
                self.irqs_taken += 1
                self.exceptions += 1
            if self._handler is not None:
                result = self._handler_step(executed, max_instructions)
            else:
                phase = self._current
                if phase is None:
                    self._advance_program()
                    phase = self._current
                    if phase is None:
                        self._finished = True
                        return ExitInfo(ExitReason.HALT, executed, self.pc,
                                        halt_code=self._halt_code)
                step = _PHASE_STEPS.get(type(phase))
                if step is None:
                    raise TypeError(f"phase program yielded a non-phase: {phase!r}")
                result = step(self, phase, executed, max_instructions)
            # A step returns the new ``executed`` count, or the ExitInfo
            # that ends this run.
            if type(result) is ExitInfo:
                return result
            executed = result
        return ExitInfo(ExitReason.BUDGET, executed, self.pc)

    def complete_mmio(self, read_data: Optional[bytes] = None) -> None:
        request = self._pending_mmio
        if request is None:
            raise RuntimeError("no MMIO in flight")
        sink = self._pending_mmio_sink
        self._pending_mmio = None
        self._pending_mmio_sink = None
        self.instructions += 1
        value = int.from_bytes(read_data, "little") if read_data is not None else None
        if sink == "program":
            self._send_value = value
            self._advance_program()
        elif sink == "iar":
            handler = self._handler
            if handler is None:
                raise RuntimeError("IAR completion without active handler")
            handler.ack_id = value if value is not None else 1023
            handler.stage = "work"
            handler.acks = list(handler.protocol.device_acks.get(handler.ack_id, ()))
        elif sink == "ack":
            handler = self._handler
            if handler is not None and not handler.acks:
                handler.stage = "eoir"
        elif sink == "eoir":
            self._handler = None
        else:  # pragma: no cover
            raise AssertionError(f"unknown MMIO sink {sink!r}")

    # -- internals ---------------------------------------------------------------
    def _advance_program(self) -> None:
        """Send the pending input and take the program's next phase.

        A ``Wfi`` whose flag is already set is passed at once: the core
        would not idle on a completed wait.
        """
        value, self._send_value = self._send_value, None
        while True:
            if value is not None:
                self._inputs[self._advances] = value
            self._advances += 1
            try:
                phase = self._generator.send(value)
            except StopIteration:
                self._current = None
                return
            self._current = phase
            kind = type(phase)
            if kind is Compute:
                self._compute_left = phase.instructions
                self._charge_translation(phase)
                return
            if (kind is not Wfi or phase.address is None
                    or not _flag_reached(self, phase)):
                return
            value = None

    def _charge_translation(self, phase: Compute) -> None:
        key = phase.key
        if not key:
            self._anonymous_keys += 1
            key = f"__anon{self._anonymous_keys}"
        if key not in self._translated_keys:
            self._translated_keys.add(key)
            self.new_blocks += phase.static_blocks

    def _handler_step(self, executed: int, budget: int):
        handler = self._handler
        protocol = handler.protocol
        if handler.stage == "iar":
            request = MmioRequest(protocol.iar_address, 4, False, None, 0)
            self._pending_mmio = request
            self._pending_mmio_sink = "iar"
            self.memory_ops += 1
            return ExitInfo(ExitReason.MMIO, executed, self.pc, mmio=request)
        if handler.stage == "work":
            take = min(handler.work_left, budget - executed)
            self._account_compute(take, 0.3, 0.0, 10, key="__irq_handler")
            handler.work_left -= take
            executed += take
            if handler.work_left <= 0:
                handler.stage = "acks" if handler.acks else "eoir"
            return executed
        if handler.stage == "acks":
            ack = handler.acks.pop(0)
            request = MmioRequest(ack.address, ack.size, ack.is_write,
                                  ack.value.to_bytes(ack.size, "little")
                                  if ack.is_write else None, 0)
            self._pending_mmio = request
            self._pending_mmio_sink = "ack"
            if not handler.acks:
                pass  # stage advances when the ack completes
            self.memory_ops += 1
            return ExitInfo(ExitReason.MMIO, executed, self.pc, mmio=request)
        if handler.stage == "eoir":
            request = MmioRequest(protocol.eoir_address, 4, True,
                                  handler.ack_id.to_bytes(4, "little"), 0)
            self._pending_mmio = request
            self._pending_mmio_sink = "eoir"
            self.memory_ops += 1
            return ExitInfo(ExitReason.MMIO, executed, self.pc, mmio=request)
        raise AssertionError(f"bad handler stage {handler.stage!r}")  # pragma: no cover

    def _account_compute(self, instructions: int, mem_fraction: float,
                         tlb_miss_rate: float, avg_block_len: int,
                         key: Optional[str] = None) -> None:
        if instructions <= 0:
            return
        if key is not None and key not in self._translated_keys:
            self._translated_keys.add(key)
            self.new_blocks += 16
        self.instructions += instructions
        mem_ops = int(instructions * mem_fraction)
        self.memory_ops += mem_ops
        self.blocks_entered += max(1, instructions // max(1, avg_block_len))
        self.tlb_misses += int(mem_ops * tlb_miss_rate)


# --------------------------------------------------------------------------
# Phase steps: one per phase type, dispatched through ``_PHASE_STEPS``
# --------------------------------------------------------------------------
# Each step processes (part of) the current phase of ``ex`` and returns
# the new ``executed`` count, or the :class:`ExitInfo` that ends the run.
# Phase types are matched exactly, so a subclass of a phase type is not a
# phase.

def _step_compute(ex: PhaseExecutor, phase: Compute, executed: int, budget: int):
    take = min(ex._compute_left, budget - executed)
    ex._account_compute(take, phase.mem_fraction, phase.tlb_miss_rate,
                        phase.avg_block_len)
    executed += take
    ex._compute_left -= take
    if ex._compute_left <= 0:
        ex._advance_program()
    return executed


def _step_mmio(ex: PhaseExecutor, phase: Mmio, executed: int, budget: int):
    request = MmioRequest(phase.address, phase.size, phase.is_write,
                          phase.value.to_bytes(phase.size, "little")
                          if phase.is_write else None, 0)
    ex._pending_mmio = request
    ex._pending_mmio_sink = "program"
    ex.memory_ops += 1
    return ExitInfo(ExitReason.MMIO, executed, ex.pc, mmio=request)


def _step_wfi(ex: PhaseExecutor, phase: Wfi, executed: int, budget: int):
    if ex._wfi_completed:
        # Waking up after a WFI: only now re-check the wait's flag, so it
        # observes memory written by the peer that raised the wake-up
        # interrupt.
        ex._wfi_completed = False
        if phase.address is None or _flag_reached(ex, phase):
            ex._advance_program()
        return executed
    ex.pc = ex.ctx.wfi_pc
    if ex.pc in ex.breakpoints and not ex._skip_breakpoint_once:
        ex._skip_breakpoint_once = True
        return ExitInfo(ExitReason.BREAKPOINT, executed, ex.pc)
    ex._skip_breakpoint_once = False
    ex.instructions += 1
    executed += 1
    ex._wfi_completed = True
    if ex.irq_line:
        # Pending interrupt: WFI falls through immediately; the handler
        # runs next, and only after it does the idle loop re-check its
        # wake condition (program advance).
        return executed
    return ExitInfo(ExitReason.WFI, executed, ex.pc)


def _step_spin_until(ex: PhaseExecutor, phase: SpinUntil, executed: int, budget: int):
    if _flag_reached(ex, phase):
        ex._advance_program()
        return executed
    if ex.irq_line and ex.ctx.irq_protocol is not None:
        # Spin at least one poll iteration, then let the handler in.
        take = min(phase.check_instructions, budget - executed)
        ex._account_compute(take, phase.mem_fraction, 0.0, 4)
        return executed + take
    # Guest RAM cannot change during one run() call (no other actor
    # executes), so an unset flag stays unset: burn the whole budget in
    # one accounting step instead of poll-sized chunks.
    take = budget - executed
    ex._account_compute(take, phase.mem_fraction, 0.0, 4)
    return executed + take


def _step_store_flag(ex: PhaseExecutor, phase: StoreFlag, executed: int, budget: int):
    ex.ctx.write_u64(phase.address, phase.value)
    ex._account_compute(phase.instructions, 0.5, 0.0, 4)
    ex._advance_program()
    return executed + phase.instructions


def _step_atomic_add(ex: PhaseExecutor, phase: AtomicAdd, executed: int, budget: int):
    current = ex.ctx.read_u64(phase.address)
    ex.ctx.write_u64(phase.address, current + phase.delta)
    ex._account_compute(phase.instructions, 0.6, 0.0, 4)
    ex._advance_program()
    return executed + phase.instructions


def _step_halt(ex: PhaseExecutor, phase: Halt, executed: int, budget: int):
    ex._finished = True
    ex._halt_code = phase.code
    ex.instructions += 1
    return ExitInfo(ExitReason.HALT, executed + 1, ex.pc, halt_code=phase.code)


_PHASE_STEPS = {
    Compute: _step_compute,
    Mmio: _step_mmio,
    Wfi: _step_wfi,
    SpinUntil: _step_spin_until,
    StoreFlag: _step_store_flag,
    AtomicAdd: _step_atomic_add,
    Halt: _step_halt,
}
