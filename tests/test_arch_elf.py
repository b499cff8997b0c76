"""ELF-lite container: serialization, symbols, instruction search."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch.assembler import assemble
from repro.arch.elf import ElfLite, Section, Symbol
from repro.arch.isa import Op


class TestSections:
    def test_read_within_section(self):
        image = ElfLite(0, [Section(".text", 0x100, b"abcdef")], [])
        assert image.read(0x102, 3) == b"cde"

    def test_read_outside_returns_none(self):
        image = ElfLite(0, [Section(".text", 0x100, b"abcd")], [])
        assert image.read(0x104, 1) is None
        assert image.read(0x0FF, 1) is None
        assert image.read(0x102, 4) is None

    def test_read_word(self):
        image = ElfLite(0, [Section(".text", 0, (0x12345678).to_bytes(4, "little"))], [])
        assert image.read_word(0) == 0x12345678

    def test_load_into(self):
        image = ElfLite(0, [Section("a", 0x10, b"xy"), Section("b", 0x20, b"z")], [])
        written = {}
        image.load_into(lambda addr, data: written.update({addr: bytes(data)}))
        assert written == {0x10: b"xy", 0x20: b"z"}

    def test_load_size(self):
        image = ElfLite(0, [Section("a", 0, b"1234"), Section("b", 8, b"56")], [])
        assert image.load_size == 6


class TestSymbols:
    def test_find_and_require(self):
        image = ElfLite(0, [], [Symbol("main", 0x40), Symbol("idle", 0x80)])
        assert image.find_symbol("main") == 0x40
        assert image.require_symbol("idle") == 0x80
        assert image.find_symbol("nope") is None
        with pytest.raises(KeyError):
            image.require_symbol("nope")

    def test_symbol_at(self):
        image = ElfLite(0, [], [Symbol("a", 0x10), Symbol("b", 0x20)])
        assert image.symbol_at(0x18) == "a"
        assert image.symbol_at(0x20) == "b"
        assert image.symbol_at(0x08) is None

    def test_symbol_at_exactly_at_symbol(self):
        """An address that IS a symbol's address resolves to that symbol."""
        image = ElfLite(0, [], [Symbol("a", 0x10), Symbol("b", 0x20)])
        assert image.symbol_at(0x10) == "a"

    def test_symbol_at_between_symbols(self):
        """Anywhere in [a, b) belongs to a — including the last byte."""
        image = ElfLite(0, [], [Symbol("a", 0x10), Symbol("b", 0x20)])
        assert image.symbol_at(0x11) == "a"
        assert image.symbol_at(0x1F) == "a"

    def test_symbol_at_past_last_symbol(self):
        """Past the last symbol the open-ended interval still resolves."""
        image = ElfLite(0, [], [Symbol("a", 0x10), Symbol("b", 0x20)])
        assert image.symbol_at(0x21) == "b"
        assert image.symbol_at(0xFFFF_FFFF) == "b"

    def test_symbol_at_before_first_symbol(self):
        image = ElfLite(0, [], [Symbol("a", 0x10)])
        assert image.symbol_at(0x0F) is None
        assert image.symbol_at(0) is None

    def test_symbol_at_no_symbols(self):
        assert ElfLite(0, [], []).symbol_at(0x1234) is None

    def test_symbol_at_unsorted_table(self):
        """Resolution must not depend on symbol-table ordering."""
        image = ElfLite(0, [], [Symbol("late", 0x30), Symbol("early", 0x10)])
        assert image.symbol_at(0x10) == "early"
        assert image.symbol_at(0x2F) == "early"
        assert image.symbol_at(0x30) == "late"

    def test_add_symbol(self):
        image = ElfLite(0, [], [])
        image.add_symbol("extra", 0x99)
        assert image.find_symbol("extra") == 0x99


class TestFindInstruction:
    def test_finds_wfi_inside_idle_function(self):
        image = assemble("""
cpu_do_idle:
    dmb
    nop
    wfi
    ret
""")
        start = image.require_symbol("cpu_do_idle")
        assert image.find_instruction(Op.WFI, start) == start + 8

    def test_stop_predicate_halts_search(self):
        image = assemble("""
fn:
    nop
    ret
    wfi        // beyond the function end
""")
        found = image.find_instruction(
            Op.WFI, image.require_symbol("fn"),
            stop_predicate=lambda inst: inst.op is Op.RET)
        assert found is None

    def test_limit_words(self):
        image = assemble("fn:\n" + "    nop\n" * 10 + "    wfi\n")
        assert image.find_instruction(Op.WFI, 0, limit_words=5) is None
        assert image.find_instruction(Op.WFI, 0, limit_words=11) == 40

    def test_search_off_image_returns_none(self):
        image = assemble("nop\n")
        assert image.find_instruction(Op.WFI, 0x1000) is None


class TestSerialization:
    def test_roundtrip_simple(self):
        image = assemble("_start:\n    movz x0, #1\n    hlt #0\nidle:\n    wfi\n")
        blob = image.to_bytes()
        loaded = ElfLite.from_bytes(blob)
        assert loaded.entry == image.entry
        assert loaded.find_symbol("idle") == image.find_symbol("idle")
        assert loaded.sections[0].data == image.sections[0].data

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            ElfLite.from_bytes(b"\x7fELF\x02not-lite")

    def test_every_truncation_is_rejected(self):
        image = assemble("_start:\n    movz x0, #1\n    hlt #0\nidle:\n    wfi\n")
        blob = ElfLite.from_bytes(image.to_bytes()).to_bytes()
        for length in range(len(blob)):
            with pytest.raises(ValueError, match="truncated ELF-lite image"):
                ElfLite.from_bytes(blob[:length])

    def test_bad_version(self):
        blob = bytearray(ElfLite(0, [], []).to_bytes())
        blob[5] = 99
        with pytest.raises(ValueError):
            ElfLite.from_bytes(bytes(blob))

    @given(
        st.integers(0, 2**63),
        st.lists(
            st.tuples(st.text(alphabet="abcdef_", min_size=1, max_size=12),
                      st.integers(0, 2**48), st.binary(max_size=64)),
            max_size=5,
        ),
        st.lists(
            st.tuples(st.text(alphabet="ghijkl_", min_size=1, max_size=12),
                      st.integers(0, 2**48)),
            max_size=8,
        ),
    )
    def test_roundtrip_property(self, entry, section_specs, symbol_specs):
        image = ElfLite(
            entry,
            [Section(name, addr, data) for name, addr, data in section_specs],
            [Symbol(name, addr) for name, addr in symbol_specs],
        )
        loaded = ElfLite.from_bytes(image.to_bytes())
        assert loaded.entry == image.entry
        assert loaded.sections == image.sections
        assert loaded.symbols == image.symbols
