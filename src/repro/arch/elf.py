"""ELF-lite: the executable image format of the guest software.

A minimal ELF-shaped container: loadable sections (address + bytes), a
symbol table, and an entry point.  It supports binary serialization with a
magic header so images can be written to and loaded from disk.

The symbol table is load-bearing for the paper's WFI-annotation technique:
the VP searches the target software's image for the ``cpu_do_idle`` symbol
and plants a breakpoint on the ``WFI`` instruction inside it
(Section IV-C).  :meth:`ElfLite.find_symbol` and
:meth:`ElfLite.find_instruction` implement that search.
"""

from __future__ import annotations

import io
import struct
from typing import Callable, List, NamedTuple, Optional

from .isa import WORD_SIZE, Instruction, Op, decode

MAGIC = b"\x7fELFL"
VERSION = 1


class Symbol(NamedTuple):
    name: str
    address: int


class Section(NamedTuple):
    name: str
    address: int
    data: bytes

    @property
    def end(self) -> int:
        return self.address + len(self.data)

    def contains(self, address: int) -> bool:
        return self.address <= address < self.end


class ElfLite:
    """An executable guest image."""

    def __init__(self, entry: int, sections: List[Section], symbols: List[Symbol]):
        self.entry = entry
        self.sections = list(sections)
        self.symbols = list(symbols)
        self._symbol_map = {symbol.name: symbol.address for symbol in self.symbols}

    # -- symbols -----------------------------------------------------------
    def find_symbol(self, name: str) -> Optional[int]:
        """Address of ``name``, or None (step 1 of the WFI annotation)."""
        return self._symbol_map.get(name)

    def require_symbol(self, name: str) -> int:
        address = self.find_symbol(name)
        if address is None:
            raise KeyError(f"symbol {name!r} not found in image")
        return address

    def symbol_at(self, address: int) -> Optional[str]:
        """Name of the last symbol at or before ``address`` (for tracing)."""
        best_name, best_address = None, -1
        for symbol in self.symbols:
            if best_address < symbol.address <= address:
                best_name, best_address = symbol.name, symbol.address
        return best_name

    def add_symbol(self, name: str, address: int) -> None:
        self.symbols.append(Symbol(name, address))
        self._symbol_map[name] = address

    # -- section data -----------------------------------------------------------
    def read(self, address: int, length: int) -> Optional[bytes]:
        for section in self.sections:
            if section.contains(address) and address + length <= section.end:
                offset = address - section.address
                return section.data[offset:offset + length]
        return None

    def read_word(self, address: int) -> Optional[int]:
        raw = self.read(address, WORD_SIZE)
        return None if raw is None else int.from_bytes(raw, "little")

    def find_instruction(
        self,
        op: Op,
        start: int,
        limit_words: int = 256,
        stop_predicate: Optional[Callable[[Instruction], bool]] = None,
    ) -> Optional[int]:
        """Scan forward from ``start`` for the first instruction with opcode
        ``op`` (step 2 of the WFI annotation: locate WFI inside
        ``cpu_do_idle``).  Stops at undecodable words, after ``limit_words``,
        or when ``stop_predicate`` matches (e.g. a RET ending the function).
        """
        address = start
        for _ in range(limit_words):
            word = self.read_word(address)
            if word is None:
                return None
            try:
                inst = decode(word)
            except Exception:
                return None
            if inst.op is op:
                return address
            if stop_predicate is not None and stop_predicate(inst):
                return None
            address += WORD_SIZE
        return None

    # -- loading ----------------------------------------------------------------
    def load_into(self, write: Callable[[int, bytes], None]) -> None:
        """Copy all sections into memory via ``write(address, data)``."""
        for section in self.sections:
            write(section.address, section.data)

    @property
    def load_size(self) -> int:
        return sum(len(section.data) for section in self.sections)

    # -- serialization --------------------------------------------------------------
    def to_bytes(self) -> bytes:
        out = io.BytesIO()
        out.write(MAGIC)
        out.write(struct.pack("<HHQ", VERSION, 0, self.entry))
        out.write(struct.pack("<II", len(self.sections), len(self.symbols)))
        for section in self.sections:
            name = section.name.encode()
            out.write(struct.pack("<HQI", len(name), section.address, len(section.data)))
            out.write(name)
            out.write(section.data)
        for symbol in self.symbols:
            name = symbol.name.encode()
            out.write(struct.pack("<HQ", len(name), symbol.address))
            out.write(name)
        return out.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ElfLite":
        stream = io.BytesIO(blob)

        def take(count: int) -> bytes:
            chunk = stream.read(count)
            if len(chunk) != count:
                raise ValueError(
                    f"truncated ELF-lite image: wanted {count} bytes at offset "
                    f"{stream.tell() - len(chunk)}, {len(blob)} bytes total")
            return chunk

        if take(5) != MAGIC:
            raise ValueError("not an ELF-lite image (bad magic)")
        version, _flags, entry = struct.unpack("<HHQ", take(12))
        if version != VERSION:
            raise ValueError(f"unsupported ELF-lite version {version}")
        section_count, symbol_count = struct.unpack("<II", take(8))
        sections, symbols = [], []
        for _ in range(section_count):
            name_len, address, data_len = struct.unpack("<HQI", take(14))
            name = take(name_len).decode()
            sections.append(Section(name, address, take(data_len)))
        for _ in range(symbol_count):
            name_len, address = struct.unpack("<HQ", take(10))
            symbols.append(Symbol(take(name_len).decode(), address))
        return cls(entry, sections, symbols)

    def __repr__(self) -> str:
        return (
            f"ElfLite(entry=0x{self.entry:x}, sections={len(self.sections)}, "
            f"symbols={len(self.symbols)}, bytes={self.load_size})"
        )
