"""repro.fabric — the unified memory hot path.

Covers the three fabric mechanisms in isolation (router decode cache,
payload pool, DMI fast path), the router's DMI rebase/clip edge cases,
the invalidation-wiring regression (callbacks registered before a mapping
exists must still see that mapping's invalidations), the MemoryPort
and promotion state machine.
"""

import pytest

from repro.bench.measure import make_config
from repro.fabric import MemoryPort
from repro.systemc.kernel import Kernel
from repro.systemc.time import SimTime
from repro.tlm.dmi import DmiAccess, DmiManager, DmiRegion
from repro.tlm.payload import Command, ResponseStatus
from repro.tlm.pool import PayloadPool
from repro.tlm.sockets import InitiatorSocket, TargetSocket
from repro.vcml.memory import Memory
from repro.vcml.router import Router
from repro.workloads.dhrystone import DhrystoneParams, dhrystone_software


class TransportOnlyDevice:
    """A register-file-ish target: transport works, DMI is refused.

    ``lie_about_dmi`` makes ``b_transport`` advertise DMI capability
    anyway, which is exactly the case the port's negative cache guards
    against (probe once, remember the refusal).
    """

    def __init__(self, size=0x100, latency_ns=10, lie_about_dmi=False):
        self.data = bytearray(size)
        self.latency = SimTime.ns(latency_ns)
        self.lie_about_dmi = lie_about_dmi
        self.num_dmi_probes = 0
        self.socket = TargetSocket("dev.in", transport_fn=self._transport,
                                   dmi_fn=self._dmi)

    def _transport(self, payload, delay):
        address = payload.address
        if payload.is_read:
            payload.data[:] = self.data[address:address + payload.length]
        else:
            self.data[address:address + payload.length] = payload.data
        payload.dmi_allowed = self.lie_about_dmi
        payload.set_ok()
        return delay + self.latency

    def _dmi(self, payload):
        self.num_dmi_probes += 1
        payload.dmi_allowed = False
        return None


def build_bus(ram_size=0x1000, ram_base=0x1000, **memory_kwargs):
    """Router + RAM at ``ram_base`` + one bound initiator MemoryPort."""
    kernel = Kernel()
    router = Router("bus", parent=kernel)
    ram = Memory("ram", ram_size, parent=kernel, **memory_kwargs)
    router.map(ram_base, ram_base + ram_size - 1, ram.in_socket, name="ram")
    socket = InitiatorSocket("cpu", initiator_id=0)
    socket.bind(router.in_socket)
    return router, ram, MemoryPort(socket)


# -- payload pool -------------------------------------------------------------------

class TestPayloadPool:
    def test_reuse_after_release(self):
        pool = PayloadPool()
        first = pool.acquire_read(0x100, 4)
        pool.release(first)
        second = pool.acquire_write(0x200, b"\x01\x02")
        assert second is first
        assert pool.num_reuses == 1
        assert pool.num_acquires == 2

    def test_acquire_fully_resets_recycled_payload(self):
        pool = PayloadPool()
        payload = pool.acquire_write(0x100, b"\xAA" * 8)
        # A target touched everything it could touch.
        payload.dmi_allowed = True
        payload.set_ok()
        payload.byte_enable = [True] * 8
        payload.is_debug = True
        pool.release(payload)
        recycled = pool.acquire_read(0x40, 4)
        assert recycled is payload
        assert recycled.command is Command.READ
        assert recycled.address == 0x40
        assert bytes(recycled.data) == bytes(4)
        assert recycled.byte_enable is None
        assert recycled.streaming_width == 4
        assert recycled.dmi_allowed is False
        assert recycled.response_status is ResponseStatus.INCOMPLETE
        assert recycled.is_debug is False

    def test_free_list_is_bounded(self):
        pool = PayloadPool(max_free=1)
        first, second = pool.acquire_read(0, 1), pool.acquire_read(0, 1)
        pool.release(first)
        pool.release(second)
        assert pool.free_count == 1
        assert pool.num_discards == 1

    def test_release_none_is_safe(self):
        pool = PayloadPool()
        pool.release(None)
        assert pool.num_releases == 0

    def test_write_payload_carries_a_copy(self):
        pool = PayloadPool()
        source = bytearray(b"\x11\x22")
        payload = pool.acquire_write(0, source)
        source[0] = 0xFF
        assert bytes(payload.data) == b"\x11\x22"


# -- DMI manager --------------------------------------------------------------------

def region(start, size, access=DmiAccess.READ_WRITE, backing=None, **latency):
    backing = backing if backing is not None else bytearray(size)
    return DmiRegion(start, start + size - 1, memoryview(backing),
                     access=access, **latency)


class TestDmiManager:
    def test_sorted_lookup_finds_each_region(self):
        manager = DmiManager()
        for start in (0x3000, 0x1000, 0x2000):   # inserted out of order
            manager.add(region(start, 0x100))
        assert manager.lookup(0x1080).start == 0x1000
        assert manager.lookup(0x20FF).start == 0x2000
        assert manager.lookup(0x3000).start == 0x3000
        assert manager.lookup(0x1100) is None     # gap between regions
        assert manager.num_misses == 1

    def test_front_cache_serves_repeated_hits(self):
        manager = DmiManager()
        manager.add(region(0x1000, 0x100))
        manager.lookup(0x1000)                    # cold: bisect, seeds front
        before = manager.num_front_hits
        for _ in range(5):
            assert manager.lookup(0x1040) is not None
        assert manager.num_front_hits == before + 5

    def test_overlapping_access_rights_fall_back_left(self):
        manager = DmiManager()
        backing = bytearray(0x200)
        manager.add(region(0x1000, 0x200, backing=backing))
        manager.add(region(0x1100, 0x100, access=DmiAccess.READ))
        # Bisect lands on the read-only region; the write lookup must walk
        # left to the read-write one that also covers the address.
        hit = manager.lookup(0x1180, write=True)
        assert hit is not None and hit.start == 0x1000

    def test_invalidate_drops_overlaps_and_notifies(self):
        manager = DmiManager()
        manager.add(region(0x1000, 0x100))
        manager.add(region(0x3000, 0x100))
        calls = []
        manager.on_invalidate(lambda lo, hi: calls.append((lo, hi)))
        generation = manager.generation
        assert manager.invalidate(0x1080, 0x1090) == 1
        assert len(manager) == 1
        assert calls == [(0x1080, 0x1090)]
        assert manager.generation == generation + 1
        # No overlap: nothing dropped, no callback.
        assert manager.invalidate(0x9000, 0x9FFF) == 0
        assert calls == [(0x1080, 0x1090)]

    def test_invalidate_purges_front_cache(self):
        manager = DmiManager()
        manager.add(region(0x1000, 0x100))
        manager.lookup(0x1000)                    # now in the front cache
        manager.invalidate()
        assert manager.lookup(0x1000) is None

    def test_generation_bumps_on_add(self):
        manager = DmiManager()
        generation = manager.generation
        manager.add(region(0x1000, 0x100))
        assert manager.generation == generation + 1


# -- router decode cache ------------------------------------------------------------

class TestRouterDecodeCache:
    def _device_bus(self):
        """RAM plus a DMI-refusing device at 0x2000: device traffic stays
        on transport, so every access decodes."""
        router, ram, port = build_bus()
        device = TransportOnlyDevice()
        router.map(0x2000, 0x20FF, device.socket, name="dev")
        return router, ram, port

    def test_repeat_decodes_hit_the_cache(self):
        router, _, port = self._device_bus()
        for _ in range(4):
            assert port.read(0x2000, 4).ok
        assert router.num_decode_misses == 1
        assert router.num_decode_hits == 3

    def test_remap_invalidates_cached_decode(self):
        router, _, port = build_bus()
        port.read(0x1000, 4)
        misses = router.num_decode_misses
        extra = Memory("extra", 0x100, parent=router.kernel)
        router.map(0x9000, 0x90FF, extra.in_socket, name="extra")
        port.read(0x1000, 4)                      # same address, cache dropped
        assert router.num_decode_misses == misses + 1

    def test_dmi_invalidation_invalidates_cached_decode(self):
        router, ram, port = self._device_bus()
        port.read(0x2000, 4)
        misses = router.num_decode_misses
        ram.invalidate_dmi()                      # drops every cached decode
        port.read(0x2000, 4)
        assert router.num_decode_misses == misses + 1

    def test_per_initiator_caches_do_not_thrash(self):
        kernel = Kernel()
        router = Router("bus", parent=kernel)
        dev_a = TransportOnlyDevice()
        dev_b = TransportOnlyDevice()
        router.map(0x1000, 0x10FF, dev_a.socket, name="a")
        router.map(0x2000, 0x20FF, dev_b.socket, name="b")
        port0 = MemoryPort(InitiatorSocket("cpu0", initiator_id=0))
        port1 = MemoryPort(InitiatorSocket("cpu1", initiator_id=1))
        port0.socket.bind(router.in_socket)
        port1.socket.bind(router.in_socket)
        port0.read(0x1000, 1)
        port1.read(0x2000, 1)
        misses = router.num_decode_misses
        for _ in range(3):                        # interleaved, disjoint targets
            port0.read(0x1000, 1)
            port1.read(0x2000, 1)
        assert router.num_decode_misses == misses
        assert router.num_decode_hits >= 6

    def test_find_mapping_matches_linear_scan(self):
        kernel = Kernel()
        router = Router("bus", parent=kernel)
        devices = []
        for index in range(20):
            device = TransportOnlyDevice()
            base = 0x1000 + index * 0x1000
            router.map(base, base + 0xFF, device.socket, name=f"dev{index}")
            devices.append(device)

        def linear(address, length=1):
            for mapping in router.mappings():
                if mapping.range.contains(address, length):
                    return mapping
            return None

        for probe in (0x0, 0x1000, 0x1080, 0x10FF, 0x1100, 0x5050,
                      0x14000, 0x140FF, 0x14100, 0xFFFFF):
            assert router.find_mapping(probe) is linear(probe)


# -- router invalidation wiring (regression) ----------------------------------------

class TestRouterInvalidationWiring:
    def test_callback_registered_before_mapping_sees_invalidations(self):
        """Regression: mappings added after a callback registered used to
        never forward that target's DMI invalidations."""
        kernel = Kernel()
        router = Router("bus", parent=kernel)
        socket = InitiatorSocket("cpu")
        socket.bind(router.in_socket)
        calls = []
        socket.register_invalidation(lambda lo, hi: calls.append((lo, hi)))
        ram = Memory("ram", 0x1000, parent=kernel)
        router.map(0x4000, 0x4FFF, ram.in_socket, name="ram")   # mapped later
        ram.invalidate_dmi()
        assert calls == [(0x4000, 0x4FFF)]        # rebased into global space

    def test_callback_registered_after_mapping_sees_invalidations(self):
        router, ram, port = build_bus(ram_size=0x1000, ram_base=0x1000)
        calls = []
        port.socket.register_invalidation(lambda lo, hi: calls.append((lo, hi)))
        ram.invalidate_dmi()
        assert calls == [(0x1000, 0x1FFF)]

    def test_local_base_rebase_of_invalidation_range(self):
        kernel = Kernel()
        router = Router("bus", parent=kernel)
        ram = Memory("ram", 0x2000, parent=kernel)
        router.map(0x1000, 0x1FFF, ram.in_socket, local_base=0x800, name="ram")
        socket = InitiatorSocket("cpu")
        socket.bind(router.in_socket)
        calls = []
        socket.register_invalidation(lambda lo, hi: calls.append((lo, hi)))
        ram.invalidate_dmi()                      # local [0, 0x1FFF]
        assert calls == [(0x1000 - 0x800, 0x1FFF - 0x800 + 0x1000)]


# -- router DMI rebase / clipping ---------------------------------------------------

class TestRouterDmiRebase:
    def test_grant_straddling_the_mapped_window_is_clipped(self):
        kernel = Kernel()
        router = Router("bus", parent=kernel)
        ram = Memory("ram", 0x2000, parent=kernel)
        # Window covers only the middle of the memory: the full-size grant
        # straddles the window on both sides and must be clipped to it.
        router.map(0x1000, 0x1FFF, ram.in_socket, local_base=0x800, name="ram")
        port = MemoryPort(InitiatorSocket("cpu"))
        port.socket.bind(router.in_socket)
        granted = port.request_dmi(0x1800)
        assert granted.start == 0x1000 and granted.end == 0x1FFF
        granted.view(0x1234, 1)[:] = b"\x7E"
        assert ram.peek(0x1234 - 0x1000 + 0x800, 1) == b"\x7E"

    def test_zero_size_clip_returns_none(self):
        kernel = Kernel()
        router = Router("bus", parent=kernel)

        def grant_elsewhere(payload):
            # A (buggy or exotic) target granting a window that does not
            # intersect the router mapping at all.
            return DmiRegion(0x5000, 0x5FFF, memoryview(bytearray(0x1000)))

        target = TargetSocket("weird.in",
                              transport_fn=lambda p, d: d,
                              dmi_fn=grant_elsewhere)
        router.map(0x1000, 0x1FFF, target, name="weird")
        socket = InitiatorSocket("cpu")
        socket.bind(router.in_socket)
        from repro.tlm.payload import GenericPayload
        assert socket.get_direct_mem_ptr(GenericPayload.read(0x1000, 4)) is None

    def test_latencies_survive_the_rebase(self):
        router, ram, port = build_bus(read_latency=SimTime.ns(7),
                                      write_latency=SimTime.ns(3))
        granted = port.request_dmi(0x1000)
        assert granted.read_latency_ps == SimTime.ns(7).picoseconds
        assert granted.write_latency_ps == SimTime.ns(3).picoseconds


# -- MemoryPort ---------------------------------------------------------------------

class TestMemoryPortPromotion:
    def test_repeated_transports_promote_to_dmi(self):
        router, ram, port = build_bus()
        ram.load(0x10, b"\xCA\xFE")
        for _ in range(2):                        # threshold accesses
            result = port.read(0x1010, 2)
            assert result.ok and not result.via_dmi
            assert result.data == b"\xCA\xFE"
        promoted = port.read(0x1010, 2)
        assert promoted.via_dmi and promoted.data == b"\xCA\xFE"
        assert port.num_promotions == 1
        assert port.num_transports == 2
        assert port.num_dmi_hits == 1

    def test_dmi_and_transport_annotate_identical_delays(self):
        router, ram, port = build_bus()
        transported = port.read(0x1000, 4)
        port.read(0x1000, 4)                      # second hit promotes
        via_dmi = port.read(0x1000, 4)
        assert via_dmi.via_dmi and not transported.via_dmi
        assert via_dmi.delay == transported.delay
        written = port.write(0x1000, b"\x01")
        assert written.via_dmi
        assert written.delay == ram.write_latency

    def test_dmi_write_lands_in_backing_storage(self):
        router, ram, port = build_bus()
        port.write(0x1020, b"\x11")
        port.write(0x1020, b"\x22")               # promotes
        result = port.write(0x1020, b"\x33")
        assert result.via_dmi
        assert ram.peek(0x20, 1) == b"\x33"

    def test_refused_probe_is_negatively_cached(self):
        kernel = Kernel()
        router = Router("bus", parent=kernel)
        device = TransportOnlyDevice(lie_about_dmi=True)
        router.map(0x2000, 0x20FF, device.socket, name="dev")
        port = MemoryPort(InitiatorSocket("cpu"))
        port.socket.bind(router.in_socket)
        for _ in range(6):
            assert port.read(0x2000, 1).ok
        assert device.num_dmi_probes == 1
        assert port.num_probes_denied == 1
        assert port.num_dmi_hits == 0

    def test_invalidation_demotes_then_repromotes(self):
        router, ram, port = build_bus()
        port.read(0x1000, 4)
        port.read(0x1000, 4)                      # promoted
        assert port.read(0x1000, 4).via_dmi
        ram.invalidate_dmi()
        assert len(port.dmi) == 0
        demoted = port.read(0x1000, 4)
        assert not demoted.via_dmi                # back on transport
        port.read(0x1000, 4)                      # second hit re-promotes
        assert port.read(0x1000, 4).via_dmi
        assert port.num_promotions == 2

    def test_honest_no_dmi_targets_are_never_probed(self):
        kernel = Kernel()
        router = Router("bus", parent=kernel)
        device = TransportOnlyDevice()            # never advertises DMI
        router.map(0x2000, 0x20FF, device.socket, name="dev")
        port = MemoryPort(InitiatorSocket("cpu"))
        port.socket.bind(router.in_socket)
        for _ in range(6):
            port.read(0x2000, 1)
        assert device.num_dmi_probes == 0


class TestMemoryPortAccess:
    def test_unmapped_access_reports_address_error(self):
        router, ram, port = build_bus()
        result = port.read(0x8000, 4)
        assert result.is_error and result.data is None
        assert result.status is ResponseStatus.ADDRESS_ERROR

    def test_read_only_memory_rejects_writes(self):
        router, ram, port = build_bus(read_only=True)
        port.read(0x1000, 4)
        port.read(0x1000, 4)                      # promote (read-only grant)
        assert port.read(0x1000, 4).via_dmi
        result = port.write(0x1000, b"\x01")
        assert not result.via_dmi                 # write lookup must miss
        assert result.is_error
        assert result.status is ResponseStatus.COMMAND_ERROR

    def test_debug_roundtrip_and_no_promotion(self):
        router, ram, port = build_bus()
        assert port.dbg_write(0x1040, b"\xDE\xAD") == 2
        assert port.dbg_read(0x1040, 2) == b"\xDE\xAD"
        assert port.dbg_read(0x8000, 4) is None   # unmapped
        for _ in range(6):
            port.dbg_read(0x1040, 2)
        assert port.num_promotions == 0           # debug never promotes

    def test_debug_uses_an_installed_region(self):
        router, ram, port = build_bus()
        port.request_dmi(0x1000)
        ram.load(0x50, b"\x42")
        transports_before = ram.num_reads
        assert port.dbg_read(0x1050, 1) == b"\x42"
        assert ram.num_reads == transports_before   # served from the region

    def test_request_dmi_installs_the_region(self):
        router, ram, port = build_bus()
        granted = port.request_dmi(0x1000)
        assert granted is not None and len(port.dmi) == 1
        assert port.read(0x1000, 4).via_dmi

    def test_payloads_are_pooled_across_accesses(self):
        kernel = Kernel()
        router = Router("bus", parent=kernel)
        device = TransportOnlyDevice()
        router.map(0x2000, 0x20FF, device.socket, name="dev")
        port = MemoryPort(InitiatorSocket("cpu"))
        port.socket.bind(router.in_socket)
        for _ in range(8):
            port.read(0x2000, 4)
            port.write(0x2000, b"\x00")
        assert port.pool.num_reuses >= 15         # everything after the first
        assert port.pool.free_count <= port.pool.max_free


# -- all four initiators ride the fabric --------------------------------------------

class TestInitiatorsUseFabric:
    def _platform(self, cores=1):
        from repro.vp import build_platform
        software = dhrystone_software(cores, DhrystoneParams(iterations=2_000))
        config = make_config(cores, 1000.0, False)
        return build_platform("aoa", config, software)

    def test_loader_routes_image_through_its_port(self):
        vp = self._platform()
        assert isinstance(vp.loader, MemoryPort)
        assert len(vp.loader.dmi) == 1            # the RAM grant / KVM slot
        assert vp.loader.num_debug_accesses > 0   # the image blobs

    def test_cpu_mmio_routes_through_the_port(self):
        from repro.vp import build_platform
        from repro.workloads.guest_programs import functional_dhrystone
        software, _expected = functional_dhrystone(10)
        vp = build_platform("aoa", make_config(1, 1000.0, False), software)
        cpu = vp.cpus[0]
        assert isinstance(cpu.mem, MemoryPort)
        vp.run(SimTime.ms(200))
        assert cpu.num_mmio > 0
        assert cpu.mem.num_reads + cpu.mem.num_writes == cpu.num_mmio
