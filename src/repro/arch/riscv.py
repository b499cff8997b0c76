"""RV64-lite: a second guest architecture (§VI future work).

The paper closes with: *"the approach can be extended to other
architectures that have a virtualization extension, such as
RISC-V-on-RISC-V simulation"*.  Every layer of this repository above the
executor is ISA-agnostic — the simulated KVM, the watchdog, the quantum
loop, the TLM platform — so supporting RISC-V needs exactly one new piece:
an RV64 execution backend speaking the same :class:`ExitInfo` protocol.

This module provides:

* **real RV64IM instruction encodings** (R/I/S/B/U/J formats) with an
  encoder (:class:`Rv64Builder` — a programmatic assembler) and decoder;
* machine-mode CSRs (``mtvec``, ``mepc``, ``mcause``, ``mstatus.MIE``,
  ``mhartid``), traps (``ecall``, illegal instruction), interrupts and
  ``mret``;
* ``wfi`` with the same exit semantics as the ARM backend — so WFI
  annotation and in-kernel blocking work unchanged;
* :class:`Rv64Interpreter`, a drop-in :class:`GuestExecutor`.

Like A64-lite next to AArch64, this is the working subset needed by the
VP's guests, not a complete RV64 implementation (no C extension, no S/U
privilege modes, no MMU — hypervisor-style two-stage translation is
modeled at the memory-slot layer as for ARM).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..iss.executor import ExitInfo, ExitReason, GuestMemoryMap, MmioRequest, RunStats

MASK64 = (1 << 64) - 1

# CSR addresses (machine mode).
CSR_MSTATUS = 0x300
CSR_MIE = 0x304
CSR_MTVEC = 0x305
CSR_MEPC = 0x341
CSR_MCAUSE = 0x342
CSR_MTVAL = 0x343
CSR_MHARTID = 0xF14

MSTATUS_MIE = 1 << 3
MSTATUS_MPIE = 1 << 7

CAUSE_ILLEGAL = 2
CAUSE_ECALL_M = 11
CAUSE_BREAKPOINT = 3
CAUSE_MEXT_IRQ = (1 << 63) | 11

# Fixed encodings.
WFI_WORD = 0x10500073
MRET_WORD = 0x30200073
ECALL_WORD = 0x00000073
EBREAK_WORD = 0x00100073


def _sext(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


class Rv64State:
    """Machine-mode hart state."""

    def __init__(self, hart_id: int = 0):
        self.regs = [0] * 32
        self.pc = 0
        self.csrs: Dict[int, int] = {CSR_MHARTID: hart_id, CSR_MSTATUS: 0}
        self.halted = False
        self.instret = 0
        self.hart_id = hart_id

    def read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = value & MASK64

    @property
    def interrupts_enabled(self) -> bool:
        return bool(self.csrs.get(CSR_MSTATUS, 0) & MSTATUS_MIE)

    def trap(self, cause: int, pc: int, tval: int = 0) -> None:
        """Take a machine-mode trap: save pc, disable interrupts, vector."""
        status = self.csrs.get(CSR_MSTATUS, 0)
        if status & MSTATUS_MIE:
            status |= MSTATUS_MPIE
        else:
            status &= ~MSTATUS_MPIE
        status &= ~MSTATUS_MIE
        self.csrs[CSR_MSTATUS] = status
        self.csrs[CSR_MEPC] = pc
        self.csrs[CSR_MCAUSE] = cause & MASK64
        self.csrs[CSR_MTVAL] = tval
        self.pc = self.csrs.get(CSR_MTVEC, 0) & ~0x3

    def mret(self) -> None:
        status = self.csrs.get(CSR_MSTATUS, 0)
        if status & MSTATUS_MPIE:
            status |= MSTATUS_MIE
        else:
            status &= ~MSTATUS_MIE
        status |= MSTATUS_MPIE
        self.csrs[CSR_MSTATUS] = status
        self.pc = self.csrs.get(CSR_MEPC, 0)


class Rv64Builder:
    """Programmatic RV64IM assembler producing real encodings.

    Registers are numeric (0..31, x0 hard-wired to zero).  Labels are
    supported through :meth:`label` and late fix-ups::

        rv = Rv64Builder(base=0x1000)
        rv.addi(5, 0, 42)
        loop = rv.label("loop")
        rv.addi(6, 6, 1)
        rv.bne(6, 5, "loop")
        rv.halt()
    """

    def __init__(self, base: int = 0):
        self.base = base
        self.words: List[int] = []
        self.labels: Dict[str, int] = {}
        self._fixups: List[tuple] = []

    # -- layout ----------------------------------------------------------
    @property
    def pc(self) -> int:
        return self.base + 4 * len(self.words)

    def label(self, name: str) -> int:
        self.labels[name] = self.pc
        return self.pc

    def _emit(self, word: int) -> None:
        self.words.append(word & 0xFFFFFFFF)

    def _target(self, target, kind: str) -> int:
        """Resolve now or record a fixup; returns a byte offset."""
        if isinstance(target, str):
            if target in self.labels:
                return self.labels[target] - self.pc
            self._fixups.append((len(self.words), self.pc, target, kind))
            return 0
        return target - self.pc

    # -- instruction formats ------------------------------------------------
    def _r(self, opcode, rd, funct3, rs1, rs2, funct7):
        self._emit((funct7 << 25) | (rs2 << 20) | (rs1 << 15)
                   | (funct3 << 12) | (rd << 7) | opcode)

    def _i(self, opcode, rd, funct3, rs1, imm):
        self._emit(((imm & 0xFFF) << 20) | (rs1 << 15) | (funct3 << 12)
                   | (rd << 7) | opcode)

    def _s(self, opcode, funct3, rs1, rs2, imm):
        self._emit((((imm >> 5) & 0x7F) << 25) | (rs2 << 20) | (rs1 << 15)
                   | (funct3 << 12) | ((imm & 0x1F) << 7) | opcode)

    @staticmethod
    def _encode_b(funct3, rs1, rs2, offset):
        imm = offset & 0x1FFF
        return ((((imm >> 12) & 1) << 31) | (((imm >> 5) & 0x3F) << 25)
                | (rs2 << 20) | (rs1 << 15) | (funct3 << 12)
                | (((imm >> 1) & 0xF) << 8) | (((imm >> 11) & 1) << 7) | 0x63)

    @staticmethod
    def _encode_j(rd, offset):
        imm = offset & 0x1FFFFF
        return ((((imm >> 20) & 1) << 31) | (((imm >> 1) & 0x3FF) << 21)
                | (((imm >> 11) & 1) << 20) | (((imm >> 12) & 0xFF) << 12)
                | (rd << 7) | 0x6F)

    # -- RV64I ------------------------------------------------------------------
    def lui(self, rd, imm20):
        self._emit(((imm20 & 0xFFFFF) << 12) | (rd << 7) | 0x37)

    def auipc(self, rd, imm20):
        self._emit(((imm20 & 0xFFFFF) << 12) | (rd << 7) | 0x17)

    def addi(self, rd, rs1, imm):
        self._i(0x13, rd, 0x0, rs1, imm)

    def slti(self, rd, rs1, imm):
        self._i(0x13, rd, 0x2, rs1, imm)

    def sltiu(self, rd, rs1, imm):
        self._i(0x13, rd, 0x3, rs1, imm)

    def xori(self, rd, rs1, imm):
        self._i(0x13, rd, 0x4, rs1, imm)

    def ori(self, rd, rs1, imm):
        self._i(0x13, rd, 0x6, rs1, imm)

    def andi(self, rd, rs1, imm):
        self._i(0x13, rd, 0x7, rs1, imm)

    def slli(self, rd, rs1, shamt):
        self._i(0x13, rd, 0x1, rs1, shamt & 0x3F)

    def srli(self, rd, rs1, shamt):
        self._i(0x13, rd, 0x5, rs1, shamt & 0x3F)

    def srai(self, rd, rs1, shamt):
        self._i(0x13, rd, 0x5, rs1, (shamt & 0x3F) | 0x400)

    def add(self, rd, rs1, rs2):
        self._r(0x33, rd, 0x0, rs1, rs2, 0x00)

    def sub(self, rd, rs1, rs2):
        self._r(0x33, rd, 0x0, rs1, rs2, 0x20)

    def sll(self, rd, rs1, rs2):
        self._r(0x33, rd, 0x1, rs1, rs2, 0x00)

    def slt(self, rd, rs1, rs2):
        self._r(0x33, rd, 0x2, rs1, rs2, 0x00)

    def sltu(self, rd, rs1, rs2):
        self._r(0x33, rd, 0x3, rs1, rs2, 0x00)

    def xor(self, rd, rs1, rs2):
        self._r(0x33, rd, 0x4, rs1, rs2, 0x00)

    def srl(self, rd, rs1, rs2):
        self._r(0x33, rd, 0x5, rs1, rs2, 0x00)

    def sra(self, rd, rs1, rs2):
        self._r(0x33, rd, 0x5, rs1, rs2, 0x20)

    def or_(self, rd, rs1, rs2):
        self._r(0x33, rd, 0x6, rs1, rs2, 0x00)

    def and_(self, rd, rs1, rs2):
        self._r(0x33, rd, 0x7, rs1, rs2, 0x00)

    # M extension
    def mul(self, rd, rs1, rs2):
        self._r(0x33, rd, 0x0, rs1, rs2, 0x01)

    def divu(self, rd, rs1, rs2):
        self._r(0x33, rd, 0x5, rs1, rs2, 0x01)

    def remu(self, rd, rs1, rs2):
        self._r(0x33, rd, 0x7, rs1, rs2, 0x01)

    # loads / stores
    def lb(self, rd, rs1, imm):
        self._i(0x03, rd, 0x0, rs1, imm)

    def lbu(self, rd, rs1, imm):
        self._i(0x03, rd, 0x4, rs1, imm)

    def lw(self, rd, rs1, imm):
        self._i(0x03, rd, 0x2, rs1, imm)

    def lwu(self, rd, rs1, imm):
        self._i(0x03, rd, 0x6, rs1, imm)

    def ld(self, rd, rs1, imm):
        self._i(0x03, rd, 0x3, rs1, imm)

    def sb(self, rs2, rs1, imm):
        self._s(0x23, 0x0, rs1, rs2, imm)

    def sw(self, rs2, rs1, imm):
        self._s(0x23, 0x2, rs1, rs2, imm)

    def sd(self, rs2, rs1, imm):
        self._s(0x23, 0x3, rs1, rs2, imm)

    # control flow
    def jal(self, rd, target):
        self._emit(self._encode_j(rd, self._target(target, "j")))

    def jalr(self, rd, rs1, imm=0):
        self._i(0x67, rd, 0x0, rs1, imm)

    def _branch(self, funct3, rs1, rs2, target):
        self._emit(self._encode_b(funct3, rs1, rs2, self._target(target, "b")))

    def beq(self, rs1, rs2, target):
        self._branch(0x0, rs1, rs2, target)

    def bne(self, rs1, rs2, target):
        self._branch(0x1, rs1, rs2, target)

    def blt(self, rs1, rs2, target):
        self._branch(0x4, rs1, rs2, target)

    def bge(self, rs1, rs2, target):
        self._branch(0x5, rs1, rs2, target)

    def bltu(self, rs1, rs2, target):
        self._branch(0x6, rs1, rs2, target)

    def bgeu(self, rs1, rs2, target):
        self._branch(0x7, rs1, rs2, target)

    # system
    def csrrw(self, rd, csr, rs1):
        self._i(0x73, rd, 0x1, rs1, csr)

    def csrrs(self, rd, csr, rs1):
        self._i(0x73, rd, 0x2, rs1, csr)

    def csrrc(self, rd, csr, rs1):
        self._i(0x73, rd, 0x3, rs1, csr)

    def ecall(self):
        self._emit(ECALL_WORD)

    def ebreak(self):
        self._emit(EBREAK_WORD)

    def wfi(self):
        self._emit(WFI_WORD)

    def mret(self):
        self._emit(MRET_WORD)

    def fence(self):
        self._emit(0x0000000F)

    def nop(self):
        self.addi(0, 0, 0)

    def halt(self, code: int = 0):
        """Pseudo-instruction: this VP's simulation-exit hint.

        Encoded in the custom-0 opcode space (0x0B), which real RV64 leaves
        to implementations — analogous to A64-lite's HLT.
        """
        self._emit(((code & 0xFFFF) << 16) | 0x0B)

    # convenience pseudo-ops
    def li(self, rd, value):
        """Load a 32-bit-ish immediate (lui+addi)."""
        value &= MASK64
        if value < 0x800:
            self.addi(rd, 0, value)
            return
        upper = (value + 0x800) >> 12
        lower = value - (upper << 12)
        self.lui(rd, upper & 0xFFFFF)
        if lower:
            self.addi(rd, rd, lower)

    def j(self, target):
        self.jal(0, target)

    def ret(self):
        self.jalr(0, 1, 0)

    # -- output ----------------------------------------------------------------
    def build(self) -> bytes:
        for index, pc, name, kind in self._fixups:
            if name not in self.labels:
                raise ValueError(f"undefined label {name!r}")
            offset = self.labels[name] - pc
            word = self.words[index]
            if kind == "b":
                funct3 = (word >> 12) & 0x7
                rs1 = (word >> 15) & 0x1F
                rs2 = (word >> 20) & 0x1F
                self.words[index] = self._encode_b(funct3, rs1, rs2, offset)
            else:
                rd = (word >> 7) & 0x1F
                self.words[index] = self._encode_j(rd, offset)
        self._fixups.clear()
        return b"".join(word.to_bytes(4, "little") for word in self.words)


class Rv64Interpreter:
    """RV64IM machine-mode interpreter speaking the GuestExecutor protocol."""

    def __init__(self, state: Rv64State, memory: GuestMemoryMap):
        self.state = state
        self.memory = memory
        self.breakpoints: Set[int] = set()
        self.unsupported_ops: Set[int] = set()   # major opcodes (7 bit)
        self.irq_line = False
        self._pending_mmio: Optional[MmioRequest] = None
        self._skip_breakpoint_pc: Optional[int] = None
        self.memory_ops = 0
        self.exceptions = 0
        self.blocks_entered = 0
        self.new_blocks = 0
        self._known_blocks: Set[int] = set()
        self._block_start = True

    # -- GuestExecutor interface ----------------------------------------------
    @property
    def pc(self) -> int:
        return self.state.pc

    def set_irq(self, level: bool) -> None:
        self.irq_line = bool(level)

    def set_breakpoint(self, address: int) -> None:
        self.breakpoints.add(address)

    def clear_breakpoint(self, address: int) -> None:
        self.breakpoints.discard(address)

    def sample_stats(self) -> RunStats:
        return RunStats(
            instructions=self.state.instret,
            memory_ops=self.memory_ops,
            blocks_entered=self.blocks_entered,
            blocks_translated=self.new_blocks,
            tlb_misses=0,
            exceptions=self.exceptions,
        )

    @property
    def mmio_pending(self) -> bool:
        return self._pending_mmio is not None

    def run(self, max_instructions: int) -> ExitInfo:
        if self._pending_mmio is not None:
            raise RuntimeError("MMIO in flight; call complete_mmio() first")
        state = self.state
        if state.halted:
            return ExitInfo(ExitReason.HALT, 0, state.pc)
        executed = 0
        while executed < max_instructions:
            if (self.irq_line and state.interrupts_enabled
                    and state.pc != self._skip_breakpoint_pc):
                state.trap(CAUSE_MEXT_IRQ, state.pc)
                self.exceptions += 1
                self._block_start = True
            pc = state.pc
            if pc in self.breakpoints and pc != self._skip_breakpoint_pc:
                self._skip_breakpoint_pc = pc
                return ExitInfo(ExitReason.BREAKPOINT, executed, pc)
            word = self.memory.load(pc, 4)
            if word is None:
                return ExitInfo(ExitReason.ERROR, executed, pc,
                                message=f"fetch outside RAM at 0x{pc:x}")
            if self._block_start:
                self.blocks_entered += 1
                if pc not in self._known_blocks:
                    self._known_blocks.add(pc)
                    self.new_blocks += 1
                self._block_start = False
            outcome = self._exec(word, pc)
            if pc == self._skip_breakpoint_pc:
                self._skip_breakpoint_pc = None
            if outcome is None:
                executed += 1
                state.instret += 1
                continue
            if outcome[0] is ExitReason.MMIO:
                self._pending_mmio = outcome[1]
                return ExitInfo(ExitReason.MMIO, executed, pc, mmio=outcome[1])
            executed += 1
            state.instret += 1
            if outcome[0] is ExitReason.HALT:
                state.halted = True
                return ExitInfo(ExitReason.HALT, executed, state.pc,
                                halt_code=outcome[1])
            if outcome[0] is ExitReason.WFI:
                return ExitInfo(ExitReason.WFI, executed, state.pc)
            if outcome[0] is ExitReason.EMULATION:
                state.instret -= 1
                executed -= 1
                return ExitInfo(ExitReason.EMULATION, executed, pc)
        return ExitInfo(ExitReason.BUDGET, executed, state.pc)

    def complete_mmio(self, read_data: Optional[bytes] = None) -> None:
        request = self._pending_mmio
        if request is None:
            raise RuntimeError("no MMIO in flight")
        state = self.state
        if not request.is_write:
            if read_data is None or len(read_data) != request.size:
                raise ValueError("bad MMIO completion size")
            value = int.from_bytes(read_data, "little")
            if request.sign:
                value = _sext(value, 8 * request.size) & MASK64
            state.write_reg(request.register, value)
        state.pc = (state.pc + 4) & MASK64
        state.instret += 1
        self._pending_mmio = None

    def emulate_one(self) -> ExitInfo:
        """One-instruction user-space emulation (same contract as ARM)."""
        saved = set(self.unsupported_ops)
        self.unsupported_ops = set()
        try:
            info = self.run(1)
        finally:
            self.unsupported_ops = saved
        return info

    # -- execution ----------------------------------------------------------------
    def _exec(self, word: int, pc: int):
        state = self.state
        opcode = word & 0x7F
        if opcode in self.unsupported_ops:
            return (ExitReason.EMULATION, 0)
        rd = (word >> 7) & 0x1F
        funct3 = (word >> 12) & 0x7
        rs1 = (word >> 15) & 0x1F
        rs2 = (word >> 20) & 0x1F
        funct7 = (word >> 25) & 0x7F
        next_pc = (pc + 4) & MASK64

        if word == WFI_WORD:
            state.pc = next_pc
            if self.irq_line:
                return None
            return (ExitReason.WFI, 0)
        if word == MRET_WORD:
            state.mret()
            self._block_start = True
            return None
        if word == ECALL_WORD:
            state.trap(CAUSE_ECALL_M, next_pc)
            self.exceptions += 1
            self._block_start = True
            return None
        if word == EBREAK_WORD:
            state.trap(CAUSE_BREAKPOINT, next_pc)
            self.exceptions += 1
            self._block_start = True
            return None

        if opcode == 0x0B:          # custom-0: simulation halt
            state.pc = next_pc
            return (ExitReason.HALT, (word >> 16) & 0xFFFF)
        if opcode == 0x37:          # LUI
            state.write_reg(rd, _sext(word & 0xFFFFF000, 32) & MASK64)
        elif opcode == 0x17:        # AUIPC
            state.write_reg(rd, (pc + _sext(word & 0xFFFFF000, 32)) & MASK64)
        elif opcode == 0x13:        # OP-IMM
            imm = _sext(word >> 20, 12)
            a = state.read_reg(rs1)
            if funct3 == 0x0:
                state.write_reg(rd, a + imm)
            elif funct3 == 0x2:
                state.write_reg(rd, int(_as_signed(a) < imm))
            elif funct3 == 0x3:
                state.write_reg(rd, int(a < (imm & MASK64)))
            elif funct3 == 0x4:
                state.write_reg(rd, a ^ (imm & MASK64))
            elif funct3 == 0x6:
                state.write_reg(rd, a | (imm & MASK64))
            elif funct3 == 0x7:
                state.write_reg(rd, a & (imm & MASK64))
            elif funct3 == 0x1:
                state.write_reg(rd, a << ((word >> 20) & 0x3F))
            elif funct3 == 0x5:
                shamt = (word >> 20) & 0x3F
                if word & (1 << 30):
                    state.write_reg(rd, (_as_signed(a) >> shamt) & MASK64)
                else:
                    state.write_reg(rd, a >> shamt)
        elif opcode == 0x33:        # OP
            a, b = state.read_reg(rs1), state.read_reg(rs2)
            if funct7 == 0x01:      # M extension
                if funct3 == 0x0:
                    state.write_reg(rd, a * b)
                elif funct3 == 0x5:
                    state.write_reg(rd, MASK64 if b == 0 else a // b)
                elif funct3 == 0x7:
                    state.write_reg(rd, a if b == 0 else a % b)
                else:
                    return self._illegal(word, pc)
            elif funct3 == 0x0:
                state.write_reg(rd, a - b if funct7 == 0x20 else a + b)
            elif funct3 == 0x1:
                state.write_reg(rd, a << (b & 0x3F))
            elif funct3 == 0x2:
                state.write_reg(rd, int(_as_signed(a) < _as_signed(b)))
            elif funct3 == 0x3:
                state.write_reg(rd, int(a < b))
            elif funct3 == 0x4:
                state.write_reg(rd, a ^ b)
            elif funct3 == 0x5:
                shamt = b & 0x3F
                if funct7 == 0x20:
                    state.write_reg(rd, (_as_signed(a) >> shamt) & MASK64)
                else:
                    state.write_reg(rd, a >> shamt)
            elif funct3 == 0x6:
                state.write_reg(rd, a | b)
            elif funct3 == 0x7:
                state.write_reg(rd, a & b)
        elif opcode == 0x03:        # LOAD
            imm = _sext(word >> 20, 12)
            address = (state.read_reg(rs1) + imm) & MASK64
            size = {0x0: 1, 0x4: 1, 0x1: 2, 0x5: 2, 0x2: 4, 0x6: 4, 0x3: 8}.get(funct3)
            if size is None:
                return self._illegal(word, pc)
            signed = funct3 in (0x0, 0x1, 0x2)
            self.memory_ops += 1
            raw = self.memory.load(address, size)
            if raw is None:
                return (ExitReason.MMIO,
                        MmioRequest(address, size, False, None, rd, sign=signed))
            if signed:
                raw = _sext(raw, 8 * size) & MASK64
            state.write_reg(rd, raw)
        elif opcode == 0x23:        # STORE
            imm = _sext(((word >> 25) << 5) | ((word >> 7) & 0x1F), 12)
            address = (state.read_reg(rs1) + imm) & MASK64
            size = {0x0: 1, 0x1: 2, 0x2: 4, 0x3: 8}.get(funct3)
            if size is None:
                return self._illegal(word, pc)
            data = (state.read_reg(rs2) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            self.memory_ops += 1
            if not self.memory.store(address, data):
                return (ExitReason.MMIO, MmioRequest(address, size, True, data, 0))
        elif opcode == 0x63:        # BRANCH
            imm = _sext((((word >> 31) & 1) << 12) | (((word >> 7) & 1) << 11)
                        | (((word >> 25) & 0x3F) << 5) | (((word >> 8) & 0xF) << 1), 13)
            a, b = state.read_reg(rs1), state.read_reg(rs2)
            taken = {
                0x0: a == b, 0x1: a != b,
                0x4: _as_signed(a) < _as_signed(b), 0x5: _as_signed(a) >= _as_signed(b),
                0x6: a < b, 0x7: a >= b,
            }.get(funct3)
            if taken is None:
                return self._illegal(word, pc)
            if taken:
                next_pc = (pc + imm) & MASK64
            self._block_start = True
        elif opcode == 0x6F:        # JAL
            imm = _sext((((word >> 31) & 1) << 20) | (((word >> 12) & 0xFF) << 12)
                        | (((word >> 20) & 1) << 11) | (((word >> 21) & 0x3FF) << 1), 21)
            state.write_reg(rd, next_pc)
            next_pc = (pc + imm) & MASK64
            self._block_start = True
        elif opcode == 0x67:        # JALR
            imm = _sext(word >> 20, 12)
            target = (state.read_reg(rs1) + imm) & ~1 & MASK64
            state.write_reg(rd, next_pc)
            next_pc = target
            self._block_start = True
        elif opcode == 0x73:        # SYSTEM: CSR ops
            csr = (word >> 20) & 0xFFF
            old = state.csrs.get(csr, 0)
            source = state.read_reg(rs1)
            if funct3 == 0x1:       # CSRRW
                state.csrs[csr] = source
            elif funct3 == 0x2:     # CSRRS
                if rs1 != 0:
                    state.csrs[csr] = old | source
            elif funct3 == 0x3:     # CSRRC
                if rs1 != 0:
                    state.csrs[csr] = old & ~source
            else:
                return self._illegal(word, pc)
            state.write_reg(rd, old)
        elif opcode == 0x0F:        # FENCE
            pass
        else:
            return self._illegal(word, pc)
        state.pc = next_pc
        return None

    def _illegal(self, word: int, pc: int):
        self.state.trap(CAUSE_ILLEGAL, pc, tval=word)
        self.exceptions += 1
        self._block_start = True
        return None


def _as_signed(value: int) -> int:
    return value - (1 << 64) if value >> 63 else value
