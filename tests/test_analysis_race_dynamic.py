"""SAN005 lane/window sanitizer tests: seeded cross-lane conflicts are
flagged, sanctioned-channel and barrier accesses stay silent, the trace
tagger composes with DET001 in either attach order, and telemetry
counters flush."""

from __future__ import annotations

import pytest

from repro.analysis.determinism import KernelTrace, trace_run
from repro.analysis.race import RaceScope, active_race_scope, race_detecting
from repro.systemc.kernel import Kernel
from repro.systemc.probes import ProbeBus
from repro.systemc.module import Module
from repro.systemc.time import SimTime
from repro.telemetry.metrics import MetricsRegistry
from repro.tlm.quantum import GlobalQuantum
from repro.vcml.memory import Memory
from repro.vcml.processor import Processor, SimulateAction, SimulateResult


class SharedDevice(Module):
    """Bare shared state: a register dict and a scalar flag."""

    def __init__(self):
        super().__init__("shared")
        self.regs = {}
        self.flag = 0


class RacingCpu(Processor):
    """Leg behavior is injected per test via ``leg``."""

    def __init__(self, core_id, leg):
        super().__init__(f"cpu{core_id}", GlobalQuantum(SimTime.us(1)),
                         core_id=core_id)
        self.leg = leg

    def simulate(self, cycles):
        self.leg(self)
        return SimulateResult(cycles, SimulateAction.CONTINUE)


def rules_of(scope: RaceScope):
    return [finding.rule for finding in scope.findings]


# -- conflicts ----------------------------------------------------------------------

def test_write_write_conflict_across_lanes_flagged(kernel):
    def leg(cpu):
        cpu.shared_dev.regs.update({cpu.core_id: 1})

    with race_detecting() as scope:
        shared = SharedDevice()
        cpus = [RacingCpu(i, leg) for i in (0, 1)]
        for cpu in cpus:
            cpu.shared_dev = shared
            cpu._invoke_simulate(100)
    assert rules_of(scope) == ["SAN005"]
    finding = scope.findings[0]
    assert finding.fingerprint == "SAN005:SharedDevice.regs"
    assert "lane 0" in finding.message and "lane 1" in finding.message
    assert "window 0" in finding.message
    assert "accounting.py" not in finding.message      # sites are the test file
    assert scope.flagged == 1
    assert scope.checked > 0


def test_read_write_conflict_across_lanes_flagged(kernel):
    writes = {}

    def writer(cpu):
        cpu.shared_dev.flag = 1

    def reader(cpu):
        writes["seen"] = cpu.shared_dev.flag

    with race_detecting() as scope:
        shared = SharedDevice()
        w = RacingCpu(0, writer)
        r = RacingCpu(1, reader)
        w.shared_dev = shared
        r.shared_dev = shared
        w._invoke_simulate(100)
        r._invoke_simulate(100)
    assert rules_of(scope) == ["SAN005"]
    assert "SharedDevice.flag" in scope.findings[0].path


def test_same_lane_accesses_are_clean(kernel):
    with race_detecting() as scope:
        shared = SharedDevice()
        cpu = RacingCpu(0, lambda c: shared.regs.update({0: 1}))
        cpu._invoke_simulate(100)
        cpu._invoke_simulate(100)
    assert rules_of(scope) == []
    assert scope.checked > 0


def test_accesses_in_different_windows_are_clean(kernel):
    with race_detecting() as scope:
        shared = SharedDevice()
        first = RacingCpu(0, lambda c: shared.regs.update({0: 1}))
        second = RacingCpu(1, lambda c: shared.regs.update({1: 1}))
        first._invoke_simulate(100)
        # Lane 1 runs five quanta later: same attribute, different window.
        second.keeper.inc(SimTime.us(5))
        second._invoke_simulate(100)
    assert rules_of(scope) == []


def test_read_read_pairs_are_clean(kernel):
    def reader(cpu):
        _ = cpu.shared_dev.flag

    with race_detecting() as scope:
        shared = SharedDevice()
        cpus = [RacingCpu(i, reader) for i in (0, 1)]
        for cpu in cpus:
            cpu.shared_dev = shared
            cpu._invoke_simulate(100)
    assert rules_of(scope) == []


# -- sanctioned channels / barrier context --------------------------------------------

def test_memoryport_mediated_memory_traffic_is_sanctioned(kernel):
    """Two cores hammer the same RAM through their MemoryPorts: the fabric
    is the sanctioned channel, so no race is reported."""
    def leg(cpu):
        cpu.mem.write(cpu.core_id * 8, bytes(8))
        cpu.mem.read(0, 8)

    with race_detecting() as scope:
        ram = Memory("ram", 64)
        cpus = [RacingCpu(i, leg) for i in (0, 1)]
        for cpu in cpus:
            cpu.data_socket.bind(ram.in_socket)
            cpu._invoke_simulate(100)
    assert rules_of(scope) == []


def test_direct_device_pokes_from_legs_are_not_sanctioned(kernel):
    """Contrast: the same shared-dict mutation NOT routed through the
    fabric is flagged — MemoryPort is the exemption, not lane code."""
    with race_detecting() as scope:
        shared = SharedDevice()
        cpus = [RacingCpu(i, lambda c: shared.regs.update({c.core_id: 1}))
                for i in (0, 1)]
        for cpu in cpus:
            cpu._invoke_simulate(100)
    assert rules_of(scope) == ["SAN005"]


def test_barrier_context_mutations_are_not_recorded(kernel):
    with race_detecting() as scope:
        shared = SharedDevice()
        # No simulate leg on the stack: elaboration/barrier code.
        shared.regs[0] = 1
        shared.flag = 2
        _ = shared.regs
    assert scope.checked == 0
    assert rules_of(scope) == []


# -- scope mechanics --------------------------------------------------------------------

def test_patches_are_restored_on_exit(kernel):
    assert "__setattr__" not in Module.__dict__
    before = Processor.__dict__["_invoke_simulate"]
    with race_detecting():
        assert "__setattr__" in Module.__dict__
        assert "__getattribute__" in Module.__dict__
        assert Processor.__dict__["_invoke_simulate"] is not before
    assert "__setattr__" not in Module.__dict__
    assert "__getattribute__" not in Module.__dict__
    assert Processor.__dict__["_invoke_simulate"] is before


def test_scopes_do_not_nest():
    with race_detecting() as scope:
        assert active_race_scope() is scope
        with pytest.raises(RuntimeError, match="already active"):
            RaceScope().__enter__()
    assert active_race_scope() is None


def test_telemetry_counters_flush_on_exit(kernel):
    registry = MetricsRegistry()
    with race_detecting(registry=registry) as scope:
        shared = SharedDevice()
        cpus = [RacingCpu(i, lambda c: shared.regs.update({c.core_id: 1}))
                for i in (0, 1)]
        for cpu in cpus:
            cpu._invoke_simulate(100)
    assert registry.get("race.checked").value == scope.checked > 0
    assert registry.get("race.flagged").value == scope.flagged == 1


# -- trace-hook composition with DET001 -------------------------------------------------

def _ping_pong():
    kernel = Kernel()
    ping = kernel.event("ping")
    pong = kernel.event("pong")

    def pinger():
        for _ in range(5):
            ping.notify(SimTime.ns(1))
            yield pong

    def ponger():
        for _ in range(5):
            yield ping
            pong.notify(SimTime.ns(1))

    kernel.spawn(pinger, "pinger")
    kernel.spawn(ponger, "ponger")
    kernel.run()


def test_tagger_runs_before_digest_hooks_in_either_attach_order():
    calls = []
    digest = Kernel.add_trace_hook(lambda *a: calls.append("digest"),
                                   Kernel.TRACE_PRIORITY_DIGEST)
    tagger = Kernel.add_trace_hook(lambda *a: calls.append("tagger"),
                                   Kernel.TRACE_PRIORITY_TAGGER)
    try:
        ProbeBus().dispatch("test", 0, "probe")
        assert calls == ["tagger", "digest"]
    finally:
        Kernel.remove_trace_hook(digest)
        Kernel.remove_trace_hook(tagger)
    assert ProbeBus().dispatch is None


def test_digests_identical_with_and_without_race_scope():
    """DET001 regression: attaching SAN005's tagger (in either order
    relative to the digest hook) must not perturb determinism digests."""
    plain = trace_run(_ping_pong).digest()

    # Order A: race scope first, digest hook second (via trace_run).
    with race_detecting():
        scope_first = trace_run(_ping_pong).digest()

    # Order B: digest hook first, race scope second.
    trace = KernelTrace()
    handle = Kernel.add_trace_hook(trace.record, Kernel.TRACE_PRIORITY_DIGEST)
    try:
        with race_detecting():
            _ping_pong()
    finally:
        Kernel.remove_trace_hook(handle)
    digest_first = trace.digest()

    assert plain == scope_first == digest_first
