"""Functional A64-lite interpreter.

Executes guest instructions one at a time against a :class:`CpuState`, a
stage-1 :class:`Mmu` and a :class:`GuestMemoryMap`.  Control returns to the
caller through :class:`ExitInfo` — the same exit protocol the simulated KVM
uses — so the ISS-based and KVM-based CPU models can share all plumbing
above this layer.

MMIO follows the KVM two-phase protocol: an access to a non-RAM physical
address stops execution *before* retiring the instruction and surfaces an
:class:`MmioRequest`; the platform performs the access (a TLM transaction)
and calls :meth:`Interpreter.complete_mmio`, which retires the instruction
and lets the next ``run`` continue.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from ..arch.exceptions import (
    ExceptionClass,
    GuestFault,
    do_eret,
    take_irq,
    take_sync_exception,
)
from ..arch.isa import BLOCK_TERMINATORS, Cond, DecodeError, Instruction, Op, SysReg, decode
from ..arch.mmu import Mmu
from ..arch.registers import DAIF_IRQ_BIT, MASK64, CpuState
from .executor import ExitInfo, ExitReason, GuestMemoryMap, MmioRequest, RunStats

_SCTLR_EL1 = int(SysReg.SCTLR_EL1)

#: An instruction's semantics: ``(interp, inst, pc)`` -> next PC, or None
#: to fall through to ``pc + 4``.
_Handler = Callable[["Interpreter", Instruction, int], Optional[int]]

#: A decode-cache entry: the instruction, its handler, and whether it ends
#: a basic block.
_Decoded = Tuple[Instruction, _Handler, bool]

#: System registers EL0 is allowed to touch.
_EL0_SYSREGS = {
    int(SysReg.CNTFRQ_EL0), int(SysReg.CNTVCT_EL0), int(SysReg.TPIDR_EL0),
    int(SysReg.CURRENT_EL), int(SysReg.DAIF),
}


class GlobalMonitor:
    """The global exclusive monitor shared by all cores.

    Real hardware invalidates a core's exclusive reservation when another
    agent writes the monitored location; without this, LDXR/STXR spinlocks
    would miss updates.  VP construction creates one monitor and hands it to
    every executor.
    """

    def __init__(self):
        self._marks: Dict[int, int] = {}      # core -> physical address

    def mark(self, core: int, address: int) -> None:
        self._marks[core] = address

    def clear(self, core: int) -> None:
        self._marks.pop(core, None)

    def check(self, core: int, address: int) -> bool:
        return self._marks.get(core) == address

    def on_store(self, address: int, size: int, writer_core: int) -> None:
        """Break other cores' reservations overlapping [address, address+size)."""
        if not self._marks:
            return
        doomed = [core for core, marked in self._marks.items()
                  if core != writer_core and address <= marked < address + size]
        for core in doomed:
            del self._marks[core]

    # -- snapshot support ------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {"marks": {str(core): address for core, address
                          in sorted(self._marks.items())}}

    def restore_state(self, state: dict) -> None:
        self._marks = {int(core): address for core, address
                       in state["marks"].items()}


class _Exit(Exception):
    """Internal control-flow signal carrying a pending ExitReason."""

    def __init__(self, reason: ExitReason, mmio: Optional[MmioRequest] = None,
                 halt_code: int = 0, message: str = ""):
        self.reason = reason
        self.mmio = mmio
        self.halt_code = halt_code
        self.message = message
        super().__init__(message)


class Interpreter:
    """One core's instruction-accurate execution engine."""

    def __init__(self, state: CpuState, memory: GuestMemoryMap,
                 monitor: Optional[GlobalMonitor] = None, tlb_capacity: int = 512):
        self.state = state
        self.memory = memory
        self.monitor = monitor or GlobalMonitor()
        self.mmu = Mmu(state, memory.read, tlb_capacity)
        self.breakpoints: Set[int] = set()
        #: opcodes the (virtual) host CPU cannot execute natively; running
        #: one raises an EMULATION exit so the VP can emulate it (§VI).
        self.unsupported_ops: Set[Op] = set()
        self.irq_line = False
        self._pending_mmio: Optional[MmioRequest] = None
        self._decode_cache: Dict[int, _Decoded] = {}     # keyed by instruction word
        self._skip_breakpoint_pc: Optional[int] = None
        self._fault_streak = 0
        # Event counters (monotonic; cost models sample deltas).
        self.memory_ops = 0
        self.blocks_entered = 0
        self.new_blocks = 0
        self.exceptions = 0
        self._known_blocks: Set[int] = set()
        self._block_start = True

    @property
    def pc(self) -> int:
        return self.state.pc

    # -- debug interface (KVM_SET_GUEST_DEBUG analogue) -------------------------
    def set_breakpoint(self, address: int) -> None:
        self.breakpoints.add(address)

    def clear_breakpoint(self, address: int) -> None:
        self.breakpoints.discard(address)

    # -- interrupt line ----------------------------------------------------------
    def set_irq(self, level: bool) -> None:
        self.irq_line = bool(level)

    # -- stats --------------------------------------------------------------------
    def sample_stats(self) -> RunStats:
        return RunStats(
            instructions=self.state.instret,
            memory_ops=self.memory_ops,
            blocks_entered=self.blocks_entered,
            blocks_translated=self.new_blocks,
            tlb_misses=self.mmu.tlb.misses,
            exceptions=self.exceptions,
        )

    # -- snapshot support ---------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Full serializable executor state (repro.snapshot).

        Everything that influences future behaviour or reported statistics
        is captured, including the TLB contents (dropping them would change
        post-resume miss counts and thus DBT cost attribution).  The decode
        cache is *not* captured: it is keyed by the instruction word and
        holds nothing that depends on memory, so a cold cache rebuilds to
        identical decisions.  Sets are emitted sorted for deterministic
        bytes.
        """
        request = self._pending_mmio
        return {
            "type": "interpreter",
            "cpu": self.state.snapshot(),
            "exclusive_addr": self.state.exclusive_addr,
            "exclusive_valid": self.state.exclusive_valid,
            "halted": self.state.halted,
            "breakpoints": sorted(self.breakpoints),
            "unsupported_ops": sorted(op.value for op in self.unsupported_ops),
            "irq_line": self.irq_line,
            "pending_mmio": None if request is None else {
                "address": request.address,
                "size": request.size,
                "is_write": request.is_write,
                "data": None if request.data is None else request.data.hex(),
                "register": request.register,
            },
            "skip_breakpoint_pc": self._skip_breakpoint_pc,
            "fault_streak": self._fault_streak,
            "memory_ops": self.memory_ops,
            "blocks_entered": self.blocks_entered,
            "new_blocks": self.new_blocks,
            "exceptions": self.exceptions,
            "known_blocks": sorted(self._known_blocks),
            "block_start": self._block_start,
            "tlb": {
                "entries": [[vpage, el, ppage, flags] for (vpage, el), (ppage, flags)
                            in sorted(self.mmu.tlb._entries.items())],
                "hits": self.mmu.tlb.hits,
                "misses": self.mmu.tlb.misses,
            },
            "mmu_walks": self.mmu.walks,
        }

    def restore_state(self, state: dict) -> None:
        from ..arch.isa import Op as _Op
        self.state.restore(state["cpu"])
        self.state.exclusive_addr = state["exclusive_addr"]
        self.state.exclusive_valid = bool(state["exclusive_valid"])
        self.state.halted = bool(state["halted"])
        self.breakpoints = set(state["breakpoints"])
        self.unsupported_ops = {_Op(value) for value in state["unsupported_ops"]}
        self.irq_line = bool(state["irq_line"])
        pending = state["pending_mmio"]
        self._pending_mmio = None if pending is None else MmioRequest(
            pending["address"], pending["size"], pending["is_write"],
            None if pending["data"] is None else bytes.fromhex(pending["data"]),
            pending["register"],
        )
        self._skip_breakpoint_pc = state["skip_breakpoint_pc"]
        self._fault_streak = state["fault_streak"]
        self.memory_ops = state["memory_ops"]
        self.blocks_entered = state["blocks_entered"]
        self.new_blocks = state["new_blocks"]
        self.exceptions = state["exceptions"]
        self._known_blocks = set(state["known_blocks"])
        self._block_start = bool(state["block_start"])
        tlb = self.mmu.tlb
        tlb._entries = {(vpage, el): (ppage, flags)
                        for vpage, el, ppage, flags in state["tlb"]["entries"]}
        tlb.hits = state["tlb"]["hits"]
        tlb.misses = state["tlb"]["misses"]
        self.mmu.walks = state["mmu_walks"]

    # -- main run loop ---------------------------------------------------------------
    def run(self, max_instructions: int) -> ExitInfo:
        """Execute until budget exhaustion or an exit event (KVM_RUN analogue)."""
        if self._pending_mmio is not None:
            raise RuntimeError("MMIO in flight; call complete_mmio() before run()")
        state = self.state
        if state.halted:
            return ExitInfo(ExitReason.HALT, 0, state.pc)
        executed = 0
        while executed < max_instructions:
            # Interrupts are delivered between instructions — but not while
            # stepping over a just-hit breakpoint: the stepped instruction
            # (e.g. the annotated WFI) retires first, so the IRQ's return
            # address lands *after* it, as on real hardware.
            if (self.irq_line and not state.daif & DAIF_IRQ_BIT
                    and state.pc != self._skip_breakpoint_pc):
                take_irq(state, return_pc=state.pc)
                self.exceptions += 1
                self._block_start = True
            pc = state.pc
            if pc in self.breakpoints and pc != self._skip_breakpoint_pc:
                self._skip_breakpoint_pc = pc
                return ExitInfo(ExitReason.BREAKPOINT, executed, pc)
            try:
                inst, handler, terminator = self._fetch(pc)
                if inst.op in self.unsupported_ops:
                    # The host CPU traps this instruction (illegal-opcode
                    # exit); the hypervisor's user space must emulate it.
                    return ExitInfo(ExitReason.EMULATION, executed, pc)
                if self._block_start:
                    self.blocks_entered += 1
                    if pc not in self._known_blocks:
                        self._known_blocks.add(pc)
                        self.new_blocks += 1
                    self._block_start = False
                next_pc = handler(self, inst, pc)
                state.pc = (pc + 4) & MASK64 if next_pc is None else next_pc
            except GuestFault as fault:
                try:
                    self._deliver_fault(fault, pc)
                except _ExitErrorLoop as loop:
                    return ExitInfo(ExitReason.ERROR, executed, pc, message=str(loop))
                continue
            except _Exit as exit_signal:
                if exit_signal.reason is ExitReason.MMIO:
                    self._pending_mmio = exit_signal.mmio
                    return ExitInfo(ExitReason.MMIO, executed, pc, mmio=exit_signal.mmio)
                if exit_signal.reason is ExitReason.HALT:
                    state.halted = True
                    executed += 1
                    state.instret += 1
                    return ExitInfo(ExitReason.HALT, executed, state.pc,
                                    halt_code=exit_signal.halt_code)
                if exit_signal.reason is ExitReason.WFI:
                    executed += 1
                    state.instret += 1
                    return ExitInfo(ExitReason.WFI, executed, state.pc)
                return ExitInfo(exit_signal.reason, executed, state.pc,
                                message=exit_signal.message)
            if pc == self._skip_breakpoint_pc:
                self._skip_breakpoint_pc = None
            self._fault_streak = 0
            executed += 1
            state.instret += 1
            if terminator:
                self._block_start = True
        return ExitInfo(ExitReason.BUDGET, executed, state.pc)

    def emulate_one(self) -> ExitInfo:
        """Execute exactly one instruction, ignoring ``unsupported_ops``.

        This is the VP-side software emulation path for instructions the
        host cannot run natively: the hypervisor's user space performs the
        architectural effect and resumes the guest after it (§VI).
        """
        if self._pending_mmio is not None:
            raise RuntimeError("MMIO in flight; complete it before emulating")
        state = self.state
        pc = state.pc
        try:
            inst = self._fetch(pc)[0]
            self._exec(inst, pc)
        except GuestFault as fault:
            self._deliver_fault(fault, pc)
            return ExitInfo(ExitReason.BUDGET, 0, state.pc)
        except _Exit as exit_signal:
            if exit_signal.reason is ExitReason.MMIO:
                self._pending_mmio = exit_signal.mmio
                return ExitInfo(ExitReason.MMIO, 0, pc, mmio=exit_signal.mmio)
            if exit_signal.reason is ExitReason.HALT:
                state.halted = True
            state.instret += 1
            return ExitInfo(exit_signal.reason, 1, state.pc,
                            halt_code=exit_signal.halt_code)
        state.instret += 1
        return ExitInfo(ExitReason.BUDGET, 1, state.pc)

    def complete_mmio(self, read_data: Optional[bytes] = None) -> None:
        """Finish the in-flight MMIO access and retire its instruction."""
        request = self._pending_mmio
        if request is None:
            raise RuntimeError("no MMIO in flight")
        state = self.state
        if not request.is_write:
            if read_data is None or len(read_data) != request.size:
                raise ValueError(
                    f"MMIO read completion wants {request.size} bytes, "
                    f"got {None if read_data is None else len(read_data)}"
                )
            state.write_reg(request.register, int.from_bytes(read_data, "little"))
        state.pc = (state.pc + 4) & MASK64
        state.instret += 1
        self._pending_mmio = None
        if state.pc != self._skip_breakpoint_pc:
            self._skip_breakpoint_pc = None

    @property
    def mmio_pending(self) -> bool:
        return self._pending_mmio is not None

    # -- fault delivery -----------------------------------------------------------------
    def _deliver_fault(self, fault: GuestFault, pc: int) -> None:
        self.exceptions += 1
        self._fault_streak += 1
        self._block_start = True
        if self._fault_streak > 4:
            raise _ExitErrorLoop(pc, fault)
        return_pc = pc + 4 if fault.ec in (ExceptionClass.SVC, ExceptionClass.BRK) else pc
        take_sync_exception(self.state, fault.ec, fault.iss, fault.fault_address,
                            return_pc=return_pc)

    # -- fetch ------------------------------------------------------------------------
    def _fetch(self, pc: int) -> _Decoded:
        """Read the word at ``pc`` and return its (inst, handler, terminator).

        The word is read from guest RAM on every fetch; only its decoding
        is cached, keyed by the word itself, so code rewritten by any agent
        (a guest store, a DMA, a debugger poke, a snapshot restore) runs as
        the new instruction without any invalidation.
        """
        word = self.memory.load(self._translate(pc, fetch=True), 4)
        if word is None:
            raise GuestFault(ExceptionClass.INSTRUCTION_ABORT, iss=0x10, fault_address=pc,
                             message=f"instruction fetch from MMIO at 0x{pc:x}")
        decoded = self._decode_cache.get(word)
        if decoded is None:
            try:
                inst = decode(word)
            except DecodeError:
                raise GuestFault(ExceptionClass.UNKNOWN, fault_address=pc,
                                 message=f"undecodable word {word:#010x} at 0x{pc:x}") from None
            decoded = (inst, _HANDLERS[inst.op], inst.op in BLOCK_TERMINATORS)
            self._decode_cache[word] = decoded
        return decoded

    def _translate(self, va: int, write: bool = False, fetch: bool = False) -> int:
        """VA -> PA; with SCTLR_EL1.M clear the VA is the PA and the MMU
        (and its TLB counters) is not consulted, as in ``Mmu.translate``."""
        if self.state.sysregs.get(_SCTLR_EL1, 0) & 1:
            return self.mmu.translate(va, write, fetch)
        return va

    # -- data memory ----------------------------------------------------------------------

    def _load(self, va: int, size: int, register: int) -> int:
        self.memory_ops += 1
        pa = self._translate(va)
        value = self.memory.load(pa, size)
        if value is None:
            raise _Exit(ExitReason.MMIO,
                        mmio=MmioRequest(pa, size, False, None, register))
        return value

    def _store(self, va: int, size: int, value: int) -> None:
        self.memory_ops += 1
        pa = self._translate(va, write=True)
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        if self.memory.store(pa, data):
            self.monitor.on_store(pa, size, self.state.core_id)
            return
        raise _Exit(ExitReason.MMIO,
                    mmio=MmioRequest(pa, size, True, data, 0))

    # -- execute -----------------------------------------------------------------------------------
    def _exec(self, inst: Instruction, pc: int) -> None:
        next_pc = _HANDLERS[inst.op](self, inst, pc)
        self.state.pc = (pc + 4) & MASK64 if next_pc is None else next_pc

    def _check_sysreg_access(self, reg: int, pc: int) -> None:
        if self.state.el == 0 and reg not in _EL0_SYSREGS:
            raise GuestFault(ExceptionClass.UNKNOWN, fault_address=pc,
                             message=f"EL0 access to system register {reg:#x}")


class _ExitErrorLoop(Exception):
    """Raised when fault delivery itself keeps faulting (guest is wedged)."""

    def __init__(self, pc: int, fault: GuestFault):
        self.pc = pc
        self.fault = fault
        super().__init__(f"fault loop at pc=0x{pc:x}: {fault}")


# -- instruction handlers ------------------------------------------------------------
# One function per opcode, dispatched through _HANDLERS.  Each takes
# ``(interp, inst, pc)`` and returns the next PC, or None for ``pc + 4``.

def _nop(interp: Interpreter, inst: Instruction, pc: int) -> None:
    pass


def _movz(interp: Interpreter, inst: Instruction, pc: int) -> None:
    interp.state.regs[inst.rd] = (inst.imm << (16 * inst.rm)) & MASK64


def _movk(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    shift = 16 * inst.rm
    regs[inst.rd] = (regs[inst.rd] & ~(0xFFFF << shift) | (inst.imm << shift)) & MASK64


def _addi(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    regs[inst.rd] = (regs[inst.rn] + inst.imm) & MASK64


def _subi(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    regs[inst.rd] = (regs[inst.rn] - inst.imm) & MASK64


def _add(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    regs[inst.rd] = (regs[inst.rn] + regs[inst.rm]) & MASK64


def _sub(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    regs[inst.rd] = (regs[inst.rn] - regs[inst.rm]) & MASK64


def _mul(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    regs[inst.rd] = (regs[inst.rn] * regs[inst.rm]) & MASK64


def _udiv(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    divisor = regs[inst.rm]
    regs[inst.rd] = 0 if divisor == 0 else regs[inst.rn] // divisor


def _urem(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    divisor = regs[inst.rm]
    regs[inst.rd] = regs[inst.rn] if divisor == 0 else regs[inst.rn] % divisor


def _and(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    regs[inst.rd] = regs[inst.rn] & regs[inst.rm]


def _orr(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    regs[inst.rd] = regs[inst.rn] | regs[inst.rm]


def _eor(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    regs[inst.rd] = regs[inst.rn] ^ regs[inst.rm]


def _andi(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    regs[inst.rd] = regs[inst.rn] & inst.imm


def _orri(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    regs[inst.rd] = regs[inst.rn] | inst.imm


def _eori(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    regs[inst.rd] = regs[inst.rn] ^ inst.imm


def _lsli(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    regs[inst.rd] = (regs[inst.rn] << inst.imm) & MASK64


def _lsri(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    regs[inst.rd] = regs[inst.rn] >> inst.imm


def _asri(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    value = regs[inst.rn]
    if value >> 63:
        value -= 1 << 64
    regs[inst.rd] = (value >> inst.imm) & MASK64


def _set_flags_sub(state: CpuState, a: int, b: int) -> None:
    result = (a - b) & MASK64
    signed_a = a - (1 << 64) if a >> 63 else a
    signed_b = b - (1 << 64) if b >> 63 else b
    signed_r = signed_a - signed_b
    state.set_nzcv(bool(result >> 63), result == 0, a >= b,
                   not (-(1 << 63) <= signed_r < (1 << 63)))


def _cmp(interp: Interpreter, inst: Instruction, pc: int) -> None:
    state = interp.state
    _set_flags_sub(state, state.regs[inst.rn], state.regs[inst.rm])


def _cmpi(interp: Interpreter, inst: Instruction, pc: int) -> None:
    state = interp.state
    _set_flags_sub(state, state.regs[inst.rn], inst.imm)


def _mov(interp: Interpreter, inst: Instruction, pc: int) -> None:
    regs = interp.state.regs
    regs[inst.rd] = regs[inst.rn]


def _make_load(size: int) -> _Handler:
    def load(interp: Interpreter, inst: Instruction, pc: int) -> None:
        regs = interp.state.regs
        regs[inst.rd] = interp._load((regs[inst.rn] + inst.imm) & MASK64, size, inst.rd)
    return load


def _make_store(size: int) -> _Handler:
    def store(interp: Interpreter, inst: Instruction, pc: int) -> None:
        regs = interp.state.regs
        interp._store((regs[inst.rn] + inst.imm) & MASK64, size, regs[inst.rd])
    return store


def _ldxr(interp: Interpreter, inst: Instruction, pc: int) -> None:
    state = interp.state
    va = state.regs[inst.rn] & MASK64
    interp.memory_ops += 1
    pa = interp._translate(va)
    value = interp.memory.load(pa, 8)
    if value is None:
        raise GuestFault(ExceptionClass.DATA_ABORT, iss=0x35, fault_address=va,
                         message=f"exclusive load from MMIO at 0x{va:x}")
    state.regs[inst.rd] = value
    interp.monitor.mark(state.core_id, pa)
    state.set_exclusive(pa)


def _stxr(interp: Interpreter, inst: Instruction, pc: int) -> None:
    state = interp.state
    regs = state.regs
    monitor = interp.monitor
    va = regs[inst.rn] & MASK64
    interp.memory_ops += 1
    pa = interp._translate(va, write=True)
    exclusive = state.check_exclusive(pa) and monitor.check(state.core_id, pa)
    if exclusive:
        in_ram = interp.memory.store(pa, regs[inst.rm].to_bytes(8, "little"))
    else:
        in_ram = interp.memory.is_ram(pa, 8)
    if not in_ram:
        raise GuestFault(ExceptionClass.DATA_ABORT, iss=0x35, fault_address=va,
                         message=f"exclusive store to MMIO at 0x{va:x}")
    if exclusive:
        monitor.on_store(pa, 8, state.core_id)
    regs[inst.rd] = 0 if exclusive else 1
    state.clear_exclusive()
    monitor.clear(state.core_id)


def _b(interp: Interpreter, inst: Instruction, pc: int) -> int:
    return (pc + 4 * inst.imm) & MASK64


def _bl(interp: Interpreter, inst: Instruction, pc: int) -> int:
    interp.state.regs[30] = (pc + 4) & MASK64
    return (pc + 4 * inst.imm) & MASK64


#: Condition code -> predicate over the NZCV flags of a CpuState.
_CONDITIONS: Dict[Cond, Callable[[CpuState], bool]] = {
    Cond.EQ: lambda s: s.flag_z,
    Cond.NE: lambda s: not s.flag_z,
    Cond.HS: lambda s: s.flag_c,
    Cond.LO: lambda s: not s.flag_c,
    Cond.MI: lambda s: s.flag_n,
    Cond.PL: lambda s: not s.flag_n,
    Cond.VS: lambda s: s.flag_v,
    Cond.VC: lambda s: not s.flag_v,
    Cond.HI: lambda s: s.flag_c and not s.flag_z,
    Cond.LS: lambda s: not s.flag_c or s.flag_z,
    Cond.GE: lambda s: s.flag_n == s.flag_v,
    Cond.LT: lambda s: s.flag_n != s.flag_v,
    Cond.GT: lambda s: not s.flag_z and s.flag_n == s.flag_v,
    Cond.LE: lambda s: s.flag_z or s.flag_n != s.flag_v,
    Cond.AL: lambda s: True,
}


def _bcond(interp: Interpreter, inst: Instruction, pc: int) -> Optional[int]:
    if _CONDITIONS[inst.cond](interp.state):
        return (pc + 4 * inst.imm) & MASK64
    return None


def _cbz(interp: Interpreter, inst: Instruction, pc: int) -> Optional[int]:
    if interp.state.regs[inst.rd] == 0:
        return (pc + 4 * inst.imm) & MASK64
    return None


def _cbnz(interp: Interpreter, inst: Instruction, pc: int) -> Optional[int]:
    if interp.state.regs[inst.rd] != 0:
        return (pc + 4 * inst.imm) & MASK64
    return None


def _br(interp: Interpreter, inst: Instruction, pc: int) -> int:
    return interp.state.regs[inst.rn]


def _adr(interp: Interpreter, inst: Instruction, pc: int) -> None:
    interp.state.regs[inst.rd] = (pc + inst.imm) & MASK64


def _svc(interp: Interpreter, inst: Instruction, pc: int) -> None:
    raise GuestFault(ExceptionClass.SVC, iss=inst.imm, message=f"svc #{inst.imm}")


def _brk(interp: Interpreter, inst: Instruction, pc: int) -> None:
    raise GuestFault(ExceptionClass.BRK, iss=inst.imm, message=f"brk #{inst.imm}")


def _udf(interp: Interpreter, inst: Instruction, pc: int) -> None:
    raise GuestFault(ExceptionClass.UNKNOWN, fault_address=pc,
                     message=f"undefined instruction at 0x{pc:x}")


def _eret(interp: Interpreter, inst: Instruction, pc: int) -> int:
    do_eret(interp.state)
    return interp.state.pc


def _mrs(interp: Interpreter, inst: Instruction, pc: int) -> None:
    state = interp.state
    interp._check_sysreg_access(inst.imm, pc)
    if inst.imm == SysReg.CNTVCT_EL0:
        state.regs[inst.rd] = state.instret & MASK64
    else:
        state.regs[inst.rd] = state.read_sysreg(inst.imm)


def _msr(interp: Interpreter, inst: Instruction, pc: int) -> None:
    state = interp.state
    interp._check_sysreg_access(inst.imm, pc)
    state.write_sysreg(inst.imm, state.regs[inst.rn])
    if inst.imm in (SysReg.SCTLR_EL1, SysReg.TTBR0_EL1):
        interp.mmu.flush_tlb()


def _msri(interp: Interpreter, inst: Instruction, pc: int) -> None:
    state = interp.state
    if inst.rm:  # DAIFSet
        state.daif |= inst.imm
    else:        # DAIFClr
        state.daif &= ~inst.imm


def _wfi(interp: Interpreter, inst: Instruction, pc: int) -> None:
    # Linux traps EL0 WFI; treat as NOP for user space here.  A pending
    # interrupt makes WFI fall through immediately.
    if interp.state.el != 0 and not interp.irq_line:
        interp.state.pc = (pc + 4) & MASK64
        raise _Exit(ExitReason.WFI)


def _hlt(interp: Interpreter, inst: Instruction, pc: int) -> None:
    interp.state.pc = (pc + 4) & MASK64
    raise _Exit(ExitReason.HALT, halt_code=inst.imm)


_HANDLERS: Dict[Op, _Handler] = {
    Op.NOP: _nop, Op.DMB: _nop, Op.YIELD: _nop,
    Op.MOVZ: _movz, Op.MOVK: _movk,
    Op.ADDI: _addi, Op.SUBI: _subi, Op.ADD: _add, Op.SUB: _sub,
    Op.MUL: _mul, Op.UDIV: _udiv, Op.UREM: _urem,
    Op.AND: _and, Op.ORR: _orr, Op.EOR: _eor,
    Op.ANDI: _andi, Op.ORRI: _orri, Op.EORI: _eori,
    Op.LSLI: _lsli, Op.LSRI: _lsri, Op.ASRI: _asri,
    Op.CMP: _cmp, Op.CMPI: _cmpi, Op.MOV: _mov,
    Op.LDR: _make_load(8), Op.LDRW: _make_load(4), Op.LDRB: _make_load(1),
    Op.STR: _make_store(8), Op.STRW: _make_store(4), Op.STRB: _make_store(1),
    Op.LDXR: _ldxr, Op.STXR: _stxr,
    Op.B: _b, Op.BL: _bl, Op.BCOND: _bcond, Op.CBZ: _cbz, Op.CBNZ: _cbnz,
    Op.BR: _br, Op.RET: _br, Op.ADR: _adr,
    Op.SVC: _svc, Op.BRK: _brk, Op.UDF: _udf, Op.ERET: _eret,
    Op.MRS: _mrs, Op.MSR: _msr, Op.MSRI: _msri,
    Op.WFI: _wfi, Op.HLT: _hlt,
}
