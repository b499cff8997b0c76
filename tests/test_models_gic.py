"""GIC-400 model: routing, SGIs, acknowledge/EOI, register access."""

import pytest

from repro.models.gic import (
    GICC_CTLR,
    GICC_EOIR,
    GICC_IAR,
    GICC_PMR,
    GICD_CTLR,
    GICD_ICENABLER,
    GICD_ISENABLER,
    GICD_SGIR,
    GICD_TYPER,
    SPURIOUS_IRQ,
    Gic400,
)
from repro.systemc.kernel import Kernel
from repro.tlm.sockets import InitiatorSocket


def make_gic(num_cpus=2):
    gic = Gic400("gic", num_cpus, parent=Kernel())
    dist = InitiatorSocket("dist")
    dist.bind(gic.dist_socket)
    cpu_ifs = []
    for index in range(num_cpus):
        socket = InitiatorSocket(f"cpu{index}")
        socket.bind(gic.cpu_sockets[index])
        cpu_ifs.append(socket)
    return gic, dist, cpu_ifs


def enable_all(gic, dist, cpu_ifs):
    dist.write_u32(GICD_CTLR, 1)
    for cpu in cpu_ifs:
        cpu.write_u32(GICC_PMR, 0xFF)
        cpu.write_u32(GICC_CTLR, 1)


class TestEnables:
    def test_disabled_distributor_blocks_everything(self):
        gic, dist, cpu_ifs = make_gic()
        cpu_ifs[0].write_u32(GICC_CTLR, 1)
        gic.send_sgi(1, 0x1)
        assert not gic.irq_out[0].level

    def test_disabled_cpu_interface_blocks(self):
        gic, dist, cpu_ifs = make_gic()
        dist.write_u32(GICD_CTLR, 1)
        gic.send_sgi(1, 0x1)
        assert not gic.irq_out[0].level

    def test_typer_reports_cpus(self):
        gic, dist, _ = make_gic(num_cpus=4)
        typer = dist.read_u32(GICD_TYPER)
        assert (typer >> 5) & 0x7 == 3


class TestSgis:
    def test_sgi_targets_selected_cores(self):
        gic, dist, cpu_ifs = make_gic(2)
        enable_all(gic, dist, cpu_ifs)
        dist.write_u32(GICD_SGIR, (0x2 << 16) | 1)   # target core 1, sgi 1
        assert not gic.irq_out[0].level
        assert gic.irq_out[1].level

    def test_sgi_filter_all_but_self(self):
        gic, dist, cpu_ifs = make_gic(2)
        enable_all(gic, dist, cpu_ifs)
        dist.write_u32(GICD_SGIR, (1 << 24) | 2)
        assert gic.irq_out[0].level and gic.irq_out[1].level

    def test_sgi_ack_and_eoi(self):
        gic, dist, cpu_ifs = make_gic(2)
        enable_all(gic, dist, cpu_ifs)
        gic.send_sgi(3, 0x1)
        assert cpu_ifs[0].read_u32(GICC_IAR) == 3
        assert not gic.irq_out[0].level          # active, not pending
        cpu_ifs[0].write_u32(GICC_EOIR, 3)
        assert not gic.irq_out[0].level
        assert cpu_ifs[0].read_u32(GICC_IAR) == SPURIOUS_IRQ

    def test_sgis_banked_per_cpu(self):
        gic, dist, cpu_ifs = make_gic(2)
        enable_all(gic, dist, cpu_ifs)
        gic.send_sgi(5, 0x3)
        assert cpu_ifs[0].read_u32(GICC_IAR) == 5
        assert cpu_ifs[1].read_u32(GICC_IAR) == 5

    def test_bad_sgi_id_rejected(self):
        gic, *_ = make_gic()
        with pytest.raises(ValueError):
            gic.send_sgi(16, 0x1)


class TestSpis:
    def test_spi_requires_enable_bit(self):
        gic, dist, cpu_ifs = make_gic(2)
        enable_all(gic, dist, cpu_ifs)
        line = gic.spi_in(33)
        line.raise_irq()
        assert not gic.irq_out[0].level          # not enabled yet
        dist.write_u32(GICD_ISENABLER + 4, 1 << 1)   # irq 33 = bank1 bit1
        assert gic.irq_out[0].level

    def test_spi_disable_via_icenabler(self):
        gic, dist, cpu_ifs = make_gic(2)
        enable_all(gic, dist, cpu_ifs)
        dist.write_u32(GICD_ISENABLER + 4, 1 << 1)
        line = gic.spi_in(33)
        line.raise_irq()
        dist.write_u32(GICD_ICENABLER + 4, 1 << 1)
        assert not gic.irq_out[0].level

    def test_level_triggered_spi_repends_after_eoi(self):
        gic, dist, cpu_ifs = make_gic(1)
        enable_all(gic, dist, cpu_ifs)
        dist.write_u32(GICD_ISENABLER + 4, 1 << 1)
        line = gic.spi_in(33)
        line.raise_irq()
        assert cpu_ifs[0].read_u32(GICC_IAR) == 33
        cpu_ifs[0].write_u32(GICC_EOIR, 33)
        # Device still asserting: the interrupt fires again.
        assert gic.irq_out[0].level
        assert cpu_ifs[0].read_u32(GICC_IAR) == 33

    def test_spi_clears_when_device_deasserts(self):
        gic, dist, cpu_ifs = make_gic(1)
        enable_all(gic, dist, cpu_ifs)
        dist.write_u32(GICD_ISENABLER + 4, 1 << 1)
        line = gic.spi_in(33)
        line.raise_irq()
        assert cpu_ifs[0].read_u32(GICC_IAR) == 33
        line.lower_irq()
        cpu_ifs[0].write_u32(GICC_EOIR, 33)
        assert not gic.irq_out[0].level

    def test_spi_target_routing(self):
        gic, dist, cpu_ifs = make_gic(2)
        enable_all(gic, dist, cpu_ifs)
        dist.write_u32(GICD_ISENABLER + 4, 1 << 1)
        line = gic.spi_in(33)
        gic.spi_targets[33] = 0x2     # route to core 1 only
        line.raise_irq()
        assert not gic.irq_out[0].level
        assert gic.irq_out[1].level

    def test_spi_id_bounds(self):
        gic, *_ = make_gic()
        with pytest.raises(ValueError):
            gic.spi_in(31)
        with pytest.raises(ValueError):
            gic.spi_in(999)


class TestPpis:
    def test_ppi_banked_per_core(self):
        gic, dist, cpu_ifs = make_gic(2)
        enable_all(gic, dist, cpu_ifs)
        dist.write_u32(GICD_ISENABLER, 1 << 29)      # enable PPI 29
        line0 = gic.ppi_in(0, 29)
        line0.raise_irq()
        assert gic.irq_out[0].level
        assert not gic.irq_out[1].level
        assert cpu_ifs[0].read_u32(GICC_IAR) == 29

    def test_ppi_id_bounds(self):
        gic, *_ = make_gic()
        with pytest.raises(ValueError):
            gic.ppi_in(0, 15)
        with pytest.raises(ValueError):
            gic.ppi_in(0, 32)


class TestAckPriority:
    def test_lowest_id_wins(self):
        gic, dist, cpu_ifs = make_gic(1)
        enable_all(gic, dist, cpu_ifs)
        dist.write_u32(GICD_ISENABLER + 4, 0b1110)   # enable 33..35
        gic.spi_in(35).raise_irq()
        gic.spi_in(33).raise_irq()
        assert cpu_ifs[0].read_u32(GICC_IAR) == 33

    def test_spurious_when_nothing_pending(self):
        gic, dist, cpu_ifs = make_gic(1)
        enable_all(gic, dist, cpu_ifs)
        assert cpu_ifs[0].read_u32(GICC_IAR) == SPURIOUS_IRQ


class TestConstruction:
    def test_cpu_count_bounds(self):
        kernel = Kernel()
        with pytest.raises(ValueError):
            Gic400("gic", 0, parent=kernel)
        with pytest.raises(ValueError):
            Gic400("gic", 9, parent=kernel)
