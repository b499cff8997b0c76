"""Timer, UART, RTC, SDHCI/SD-card and sim-control models."""

import pytest

from repro.models.rtc import Pl031Rtc
from repro.models.sdcard import BLOCK_SIZE, SdCard, SdCardError
from repro.models.sdhci import (
    INT_BUFFER_READ_READY,
    INT_CMD_COMPLETE,
    INT_ERROR,
    INT_XFER_COMPLETE,
    Sdhci,
)
from repro.models.simctl import SimControl
from repro.models.timer import CHANNEL_STRIDE, MmTimer
from repro.models.uart import FR_RXFE, FR_TXFE, INT_RX, Pl011Uart
from repro.systemc.clock import Clock
from repro.systemc.kernel import Kernel
from repro.systemc.time import SimTime
from repro.tlm.sockets import InitiatorSocket


def bound(peripheral):
    socket = InitiatorSocket("tester")
    socket.bind(peripheral.in_socket)
    return socket


class TestTimer:
    def make(self, channels=2):
        kernel = Kernel()
        timer = MmTimer("timer", channels, parent=kernel)
        timer.bind_clock(Clock("tclk", 1e6, kernel))   # 1 us per tick
        return kernel, timer, bound(timer)

    def test_one_shot_expiry(self):
        kernel, timer, socket = self.make()
        socket.write_u32(0x04, 100)          # interval: 100 ticks = 100 us
        socket.write_u32(0x00, 0x5)          # enable | irq
        kernel.run(SimTime.us(150))
        assert timer.irq_line(0).level
        assert socket.read_u32(0x0C) == 1    # INT_STATUS
        socket.write_u32(0x10, 1)            # INT_CLR
        assert not timer.irq_line(0).level

    def test_periodic_reloads(self):
        kernel, timer, socket = self.make()
        timer.start_periodic(0, 10)          # every 10 us
        kernel.run(SimTime.us(35))
        assert timer.num_expirations == 3

    def test_value_counts_down(self):
        kernel, timer, socket = self.make()
        socket.write_u32(0x04, 100)
        socket.write_u32(0x00, 0x1)
        kernel.run(SimTime.us(40))
        value = socket.read_u32(0x08)
        assert 55 <= value <= 65

    def test_disable_cancels(self):
        kernel, timer, socket = self.make()
        socket.write_u32(0x04, 100)
        socket.write_u32(0x00, 0x5)
        socket.write_u32(0x00, 0x0)          # disable before expiry
        kernel.run(SimTime.us(200))
        assert timer.num_expirations == 0

    def test_channels_independent(self):
        kernel, timer, socket = self.make()
        socket.write_u32(CHANNEL_STRIDE + 0x04, 10)
        socket.write_u32(CHANNEL_STRIDE + 0x00, 0x5)
        kernel.run(SimTime.us(20))
        assert timer.irq_line(1).level
        assert not timer.irq_line(0).level

    def test_free_running_counter(self):
        kernel, timer, socket = self.make()
        kernel.run(SimTime.us(50))
        assert socket.read_u64(0x1000) == 50

    def test_irq_requires_enable_bit(self):
        kernel, timer, socket = self.make()
        socket.write_u32(0x04, 10)
        socket.write_u32(0x00, 0x3)          # enabled+periodic, irq masked
        kernel.run(SimTime.us(15))
        assert timer.num_expirations == 1
        assert not timer.irq_line(0).level


class TestUart:
    def make(self):
        uart = Pl011Uart("uart", parent=Kernel())
        return uart, bound(uart)

    def test_tx_collects_output(self):
        uart, socket = self.make()
        for byte in b"hi!":
            socket.write(0x000, bytes([byte]))
        assert uart.tx_text() == "hi!"

    def test_tx_callback(self):
        uart, socket = self.make()
        seen = []
        uart.on_tx = seen.append
        socket.write(0x000, b"A")
        assert seen == [0x41]

    def test_rx_fifo_and_flags(self):
        uart, socket = self.make()
        assert socket.read_u32(0x018) & FR_RXFE
        uart.inject_rx(b"ok")
        assert not socket.read_u32(0x018) & FR_RXFE
        assert socket.read(0x000, 1) == b"o"
        assert socket.read(0x000, 1) == b"k"
        assert socket.read_u32(0x018) & FR_RXFE

    def test_rx_interrupt_level(self):
        uart, socket = self.make()
        socket.write_u32(0x030, 0x301)       # CR: enable
        socket.write_u32(0x038, INT_RX)      # unmask RX
        uart.inject_rx(b"x")
        assert uart.irq.level
        assert socket.read_u32(0x040) & INT_RX   # MIS
        socket.read(0x000, 1)                # drain FIFO
        assert not uart.irq.level

    def test_irq_masked_without_imsc(self):
        uart, socket = self.make()
        socket.write_u32(0x030, 0x301)
        uart.inject_rx(b"x")
        assert not uart.irq.level
        assert socket.read_u32(0x03C) & INT_RX   # raw status still set

    def test_disabled_uart_holds_irq_low(self):
        uart, socket = self.make()
        socket.write_u32(0x038, INT_RX)
        uart.inject_rx(b"x")
        assert not uart.irq.level            # UARTEN clear

    def test_fifo_overflow_drops(self):
        uart, socket = self.make()
        uart.inject_rx(bytes(range(32)))
        drained = [socket.read(0, 1)[0] for _ in range(16)]
        assert drained == list(range(16))
        assert socket.read_u32(0x018) & FR_RXFE

    def test_tx_always_empty_flag(self):
        _, socket = self.make()
        assert socket.read_u32(0x018) & FR_TXFE

    def test_peripheral_id_registers(self):
        _, socket = self.make()
        assert socket.read_u32(0xFE0) == 0x11
        assert socket.read_u32(0xFF8) == 0x05

    def test_baud_divisors_stored(self):
        _, socket = self.make()
        socket.write_u32(0x024, 0x10)
        socket.write_u32(0x028, 0x3B)
        assert socket.read_u32(0x024) == 0x10
        assert socket.read_u32(0x028) == 0x3B


class TestRtc:
    def make(self, epoch=1_000_000):
        kernel = Kernel()
        rtc = Pl031Rtc("rtc", parent=kernel, epoch_seconds=epoch)
        return kernel, rtc, bound(rtc)

    def test_dr_tracks_simulation_time(self):
        kernel, rtc, socket = self.make()
        start = socket.read_u32(0x00)
        kernel.run(SimTime.seconds(3))
        assert socket.read_u32(0x00) == start + 3

    def test_load_register_sets_time(self):
        kernel, rtc, socket = self.make()
        socket.write_u32(0x08, 42)
        assert socket.read_u32(0x00) == 42
        kernel.run(SimTime.seconds(2))
        assert socket.read_u32(0x00) == 44

    def test_match_interrupt(self):
        kernel, rtc, socket = self.make(epoch=100)
        socket.write_u32(0x10, 1)            # unmask
        socket.write_u32(0x04, 103)          # match in 3 s
        kernel.run(SimTime.seconds(5))
        assert rtc.irq.level
        socket.write_u32(0x1C, 1)            # clear
        assert not rtc.irq.level

    def test_match_in_past_never_fires(self):
        kernel, rtc, socket = self.make(epoch=100)
        socket.write_u32(0x10, 1)
        socket.write_u32(0x04, 50)
        kernel.run(SimTime.seconds(2))
        assert not rtc.irq.level


class TestSdCard:
    def test_image_roundtrip(self):
        card = SdCard(capacity_blocks=8)
        card.load_image(b"rootfs!!", offset=0)
        assert card.read_block(0)[:8] == b"rootfs!!"

    def test_block_write(self):
        card = SdCard(capacity_blocks=8)
        card.write_block(2, bytes([7] * BLOCK_SIZE))
        assert card.read_block(2) == bytes([7] * BLOCK_SIZE)

    def test_lba_bounds(self):
        card = SdCard(capacity_blocks=4)
        with pytest.raises(SdCardError):
            card.read_block(4)

    def test_wrong_block_size_rejected(self):
        card = SdCard()
        with pytest.raises(SdCardError):
            card.write_block(0, b"short")

    def test_init_command_sequence(self):
        card = SdCard()
        card.execute(0, 0)
        assert card.execute(8, 0x1AA) == 0x1AA
        card.execute(55, 0)
        ocr = card.execute(41, 0x40000000)
        assert ocr & 0x8000_0000
        card.execute(2, 0)
        response = card.execute(3, 0)
        assert (response >> 16) == card.rca
        card.execute(7, card.rca << 16)
        assert card.state == "transfer"

    def test_data_command_requires_transfer_state(self):
        card = SdCard()
        with pytest.raises(SdCardError):
            card.execute(17, 0)

    def test_select_with_wrong_rca(self):
        card = SdCard()
        with pytest.raises(SdCardError):
            card.execute(7, 0x9999 << 16)

    def test_unsupported_command(self):
        card = SdCard()
        with pytest.raises(SdCardError):
            card.execute(63, 0)


class TestSdhci:
    def make(self):
        card = SdCard(capacity_blocks=16)
        host = Sdhci("sdhci", card, parent=Kernel())
        return card, host, bound(host)

    def _init_card(self, socket):
        for command, argument in ((0, 0), (8, 0x1AA), (55, 0), (41, 0x40000000),
                                  (2, 0), (3, 0), (7, 0x1234 << 16)):
            socket.write_u32(0x08, argument)
            socket.write(0x0E, (command << 8).to_bytes(2, "little"))
            socket.write_u32(0x30, INT_CMD_COMPLETE)    # ack

    def test_block_read_via_pio(self):
        card, host, socket = self.make()
        card.load_image(b"\x11" * BLOCK_SIZE, offset=3 * BLOCK_SIZE)
        self._init_card(socket)
        socket.write_u32(0x08, 3)                       # LBA 3
        socket.write(0x0E, (17 << 8).to_bytes(2, "little"))
        status = socket.read_u32(0x30)
        assert status & INT_CMD_COMPLETE
        assert status & INT_BUFFER_READ_READY
        data = bytearray()
        for _ in range(BLOCK_SIZE // 4):
            data += socket.read_u32(0x20).to_bytes(4, "little")
        assert bytes(data) == b"\x11" * BLOCK_SIZE
        assert socket.read_u32(0x30) & INT_XFER_COMPLETE

    def test_block_write_via_pio(self):
        card, host, socket = self.make()
        self._init_card(socket)
        socket.write_u32(0x08, 5)
        socket.write(0x0E, (24 << 8).to_bytes(2, "little"))
        for index in range(BLOCK_SIZE // 4):
            socket.write_u32(0x20, index)
        assert socket.read_u32(0x30) & INT_XFER_COMPLETE
        block = card.read_block(5)
        assert block[:4] == (0).to_bytes(4, "little")
        assert block[-4:] == (BLOCK_SIZE // 4 - 1).to_bytes(4, "little")

    def test_error_command_sets_error_bit(self):
        _, host, socket = self.make()
        socket.write(0x0E, (63 << 8).to_bytes(2, "little"))    # unsupported
        assert socket.read_u32(0x30) & INT_ERROR

    def test_interrupt_line_follows_enable(self):
        card, host, socket = self.make()
        self._init_card(socket)
        assert not host.irq.level
        socket.write_u32(0x34, INT_CMD_COMPLETE)
        socket.write_u32(0x08, 0)
        socket.write(0x0E, (17 << 8).to_bytes(2, "little"))
        assert host.irq.level
        socket.write_u32(0x30, 0xFFFF)
        assert not host.irq.level

    def test_int_status_write_one_to_clear(self):
        _, host, socket = self.make()
        self._init_card(socket)
        socket.write_u32(0x08, 0)
        socket.write(0x0E, (17 << 8).to_bytes(2, "little"))
        assert socket.read_u32(0x30) != 0
        socket.write_u32(0x30, 0xFFFF)
        assert socket.read_u32(0x30) == 0


class TestSimControl:
    def make(self):
        kernel = Kernel()
        simctl = SimControl("simctl", parent=kernel)
        return kernel, simctl, bound(simctl)

    def test_shutdown_stops_kernel_and_records_code(self):
        kernel, simctl, socket = self.make()

        def body():
            yield SimTime.us(1)
            socket.write_u64(0x00, 3)
            yield SimTime.seconds(10)   # never reached

        kernel.spawn(body)
        kernel.run(SimTime.seconds(60))
        assert simctl.shutdown_requested
        assert simctl.exit_code == 3
        assert kernel.now < SimTime.seconds(1)

    def test_boot_done_records_first_time(self):
        kernel, simctl, socket = self.make()

        def body():
            yield SimTime.ms(5)
            socket.write_u64(0x08, 1)
            yield SimTime.ms(5)
            socket.write_u64(0x08, 1)   # second write ignored

        kernel.spawn(body)
        kernel.run(SimTime.ms(20))
        assert simctl.boot_done_at == SimTime.ms(5)

    def test_checkpoints(self):
        kernel, simctl, socket = self.make()

        def body():
            yield SimTime.us(1)
            socket.write_u64(0x10, 11)
            yield SimTime.us(1)
            socket.write_u64(0x10, 22)

        kernel.spawn(body)
        kernel.run(SimTime.ms(1))
        assert [value for value, _ in simctl.checkpoints] == [11, 22]

    def test_simtime_register(self):
        kernel, simctl, socket = self.make()

        def body():
            yield SimTime.us(7)
            assert socket.read_u64(0x18) == 7000   # ns

        kernel.spawn(body)
        kernel.run(SimTime.ms(1))

    def test_panic_stops_with_distinct_reason(self):
        kernel, simctl, socket = self.make()
        codes = []
        simctl.on_panic = codes.append

        def body():
            yield SimTime.us(1)
            socket.write_u64(0x20, 0xDEAD)
            yield SimTime.seconds(10)   # never reached

        kernel.spawn(body)
        kernel.run(SimTime.seconds(60))
        assert simctl.panic_requested
        assert simctl.panic_code == 0xDEAD
        assert simctl.stop_reason == "panic"
        assert not simctl.shutdown_requested
        assert codes == [0xDEAD]
        assert kernel.now < SimTime.seconds(1)

    def test_shutdown_sets_stop_reason(self):
        kernel, simctl, socket = self.make()

        def body():
            yield SimTime.us(1)
            socket.write_u64(0x00, 0)

        kernel.spawn(body)
        kernel.run(SimTime.ms(1))
        assert simctl.stop_reason == "shutdown"
        assert not simctl.panic_requested

    def test_first_stop_reason_wins(self):
        kernel, simctl, socket = self.make()

        def body():
            yield SimTime.us(1)
            socket.write_u64(0x20, 1)   # panic first...
            socket.write_u64(0x00, 0)   # ...then a shutdown write lands too

        kernel.spawn(body)
        kernel.run(SimTime.ms(1))
        assert simctl.stop_reason == "panic"

    def test_checkpoint_callback(self):
        kernel, simctl, socket = self.make()
        seen = []
        simctl.on_checkpoint = lambda value, when: seen.append((value, when))

        def body():
            yield SimTime.us(3)
            socket.write_u64(0x10, 42)

        kernel.spawn(body)
        kernel.run(SimTime.ms(1))
        assert seen == [(42, SimTime.us(3))]
