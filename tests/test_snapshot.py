"""repro.snapshot: container format, canonical bytes, per-device round
trips, cold-vs-resumed DET001 digest equality, copy-on-write forking with
divergent inputs and the bench CLI paths."""

from __future__ import annotations

import copy
import json
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.determinism import trace_run
from repro.iss.phase import StoreFlag
from repro.snapshot import (
    FORMAT,
    PAGE_SIZE,
    Snapshot,
    SnapshotError,
    TraceRecorder,
    capture_platform,
    restore_platform,
)
from repro.snapshot.format import (
    blob_digest,
    canonical_manifest_bytes,
    read_container,
    split_pages,
    write_container,
)
from repro.systemc.time import SimTime
from repro.vp.config import VpConfig
from repro.vp.guestlib import idle_forever
from repro.vp.linux import LinuxBootParams, linux_boot_software
from repro.vp.platform import build_platform
from repro.vp.software import IDLE_IMAGE_BASE, GuestSoftware
from repro.workloads.guest_programs import functional_dhrystone
from tests.test_golden_counters import core_counters, enable_identity_mmu


CORES = 2
SCALE = 0.01
HALF = SimTime.ms(2)
FULL = SimTime.ms(4)


def software():
    return linux_boot_software(CORES, LinuxBootParams().scaled(SCALE))


def make_config(**kwargs) -> VpConfig:
    kwargs.setdefault("num_cores", CORES)
    kwargs.setdefault("quantum", SimTime.us(100))
    kwargs.setdefault("parallel", False)
    return VpConfig(**kwargs)


def boot_capture(kind: str = "aoa", until: SimTime = HALF, **config_kwargs):
    """Boot the Linux workload to ``until`` and capture with a trace prefix."""
    with TraceRecorder() as recorder:
        vp = build_platform(kind, make_config(**config_kwargs), software())
        vp.run(until)
    return vp, capture_platform(vp, trace=recorder.entries)


@pytest.fixture(scope="module")
def aoa_warm():
    return boot_capture("aoa")


@pytest.fixture(scope="module")
def avp64_warm():
    return boot_capture("avp64")


# -- container format ---------------------------------------------------------------

class TestFormat:
    def test_canonical_bytes_ignore_key_insertion_order(self):
        left = {"b": 1, "a": {"y": [1, 2], "x": None}}
        right = {"a": {"x": None, "y": [1, 2]}, "b": 1}
        assert canonical_manifest_bytes(left) == canonical_manifest_bytes(right)

    def test_split_pages_skips_zero_pages_and_keeps_short_tail(self):
        data = bytearray(2 * PAGE_SIZE + 100)
        data[3] = 0x41                       # page 0
        data[2 * PAGE_SIZE + 99] = 0x42      # short tail page
        pages = dict(split_pages(data, PAGE_SIZE))
        assert sorted(pages) == [0, 2]
        assert len(pages[0]) == PAGE_SIZE
        assert len(pages[2]) == 100

    def test_container_round_trip(self, tmp_path):
        manifest = {"format": FORMAT, "x": [1, 2, 3]}
        blob = b"page-content" * 100
        path = tmp_path / "t.rsnap"
        write_container(str(path), manifest, {blob_digest(blob): blob})
        loaded_manifest, blobs = read_container(str(path))
        assert loaded_manifest == manifest
        assert blobs == {blob_digest(blob): blob}

    def test_corrupt_container_is_rejected(self, tmp_path):
        def container(packed_manifest: bytes, blobs=()) -> bytearray:
            # Hand-assembled, bypassing write_container's integrity checks.
            out = bytearray(b"RSNAP1\n")
            out += struct.pack(">I", len(packed_manifest)) + packed_manifest
            out += struct.pack(">I", len(blobs))
            for sha, raw_len, packed in blobs:
                out += sha.encode("ascii")
                out += struct.pack(">II", raw_len, len(packed)) + packed
            return out

        good = zlib.compress(json.dumps({"format": FORMAT}).encode())
        flipped_magic = container(good)
        flipped_magic[0] ^= 0xFF
        flipped_manifest = container(good)
        flipped_manifest[len(b"RSNAP1\n") + 4 + 2] ^= 0xFF
        big = bytes(1 << 20)
        cases = [
            flipped_magic,
            flipped_manifest,                              # zlib.error
            container(zlib.compress(b'["x"]')),            # not a dict
            container(zlib.compress(b'{"a": "\xff"}')),    # not utf-8
            container(good, [(blob_digest(big), 16,        # inflates past
                              zlib.compress(big))]),       # its raw_len
        ]
        path = tmp_path / "t.rsnap"
        for raw in cases:
            path.write_bytes(bytes(raw))
            with pytest.raises(SnapshotError):
                read_container(str(path))

    def test_format_one_file_is_rejected(self, aoa_warm, tmp_path):
        """A repro.snapshot/1 file stores a replay journal, not positions."""
        _, snapshot = aoa_warm
        path = tmp_path / "old.rsnap"
        write_container(str(path), dict(snapshot.manifest, format="repro.snapshot/1"), {})
        with pytest.raises(SnapshotError, match="repro.snapshot/1"):
            Snapshot.load(str(path))

    def test_save_load_preserves_snapshot_id(self, aoa_warm, tmp_path):
        _, snapshot = aoa_warm
        path = tmp_path / "boot.rsnap"
        written = snapshot.save(str(path))
        assert written == path.stat().st_size
        assert Snapshot.load(str(path)).snapshot_id == snapshot.snapshot_id


# -- canonical ordering --------------------------------------------------------------

class TestCanonicalBytes:
    def test_recapture_is_byte_identical(self, aoa_warm):
        vp, snapshot = aoa_warm
        again = capture_platform(vp)
        # The trace section differs by construction (no recorder on the
        # second capture); everything else must be byte-identical.
        left = dict(snapshot.manifest, trace=None)
        assert canonical_manifest_bytes(left) == canonical_manifest_bytes(
            again.manifest)

    def test_bytes_independent_of_seq_allocation(self, aoa_warm):
        """Cancelled heap entries consume kernel sequence numbers but must
        leave snapshot bytes untouched: serialization drops seqs."""
        vp, _ = aoa_warm
        before = capture_platform(vp)
        for _ in range(5):
            entry = vp.kernel.schedule_callback(SimTime.ms(999),
                                                vp.rtc._match_fired)
            entry.cancelled = True
        after = capture_platform(vp)
        assert before.snapshot_id == after.snapshot_id

    def test_pending_event_notification_round_trips(self):
        vp, _ = boot_capture(until=SimTime.ms(1))
        vp.cpus[1].irq_event.notify(SimTime.ms(500))
        snapshot = capture_platform(vp)
        timed = snapshot.manifest["kernel"]["timed"]
        events = [item for item in timed if item["action"]["type"] == "event"]
        assert any(item["action"]["event"].endswith(".irq")
                   for item in events)
        restored = restore_platform(snapshot, software())
        assert capture_platform(restored).snapshot_id == snapshot.snapshot_id


# -- per-device round trips -----------------------------------------------------------

SECTIONS = ["config", "software", "sim", "kernel", "processes", "regs",
            "cpus", "ports", "memory", "watchdog", "ledger", "ram"]
DEVICES = ["gic", "timer", "uart", "rtc", "sdhci", "simctl", "monitor"]


class TestRoundTrip:
    @pytest.fixture(scope="class")
    def pairs(self, aoa_warm, avp64_warm):
        out = {}
        for kind, (vp, snapshot) in (("aoa", aoa_warm), ("avp64", avp64_warm)):
            restored = restore_platform(snapshot, software())
            out[kind] = (snapshot, capture_platform(restored))
        return out

    @pytest.mark.parametrize("kind", ["aoa", "avp64"])
    @pytest.mark.parametrize("section", SECTIONS)
    def test_section_round_trips(self, pairs, kind, section):
        original, recaptured = pairs[kind]
        assert original.manifest[section] == recaptured.manifest[section]

    @pytest.mark.parametrize("kind", ["aoa", "avp64"])
    @pytest.mark.parametrize("device", DEVICES)
    def test_device_round_trips(self, pairs, kind, device):
        original, recaptured = pairs[kind]
        assert (original.manifest["devices"][device]
                == recaptured.manifest["devices"][device])

    @pytest.mark.parametrize("kind", ["aoa", "avp64"])
    def test_snapshot_id_round_trips(self, pairs, kind):
        original, recaptured = pairs[kind]
        left = dict(original.manifest, trace=None)
        assert canonical_manifest_bytes(left) == canonical_manifest_bytes(
            recaptured.manifest)

    def test_image_page_the_guest_zeroed_is_zero_after_restore(self):
        """The snapshot omits an all-zero page, so restore must clear what
        the fresh build loaded there."""
        def programs(core):
            def program(ctx):
                if core == 0:
                    for section in cleared.image.sections:
                        end = section.address + len(section.data)
                        for address in range(section.address, end, 8):
                            yield StoreFlag(address, 0)
                yield from idle_forever()
            return program

        cleared = GuestSoftware.from_phase_programs(programs, name="clear_image")
        vp = build_platform("aoa", make_config(), cleared)
        vp.run(SimTime.ms(1))
        snapshot = capture_platform(vp)
        assert str(IDLE_IMAGE_BASE // PAGE_SIZE) not in snapshot.manifest["ram"]["pages"]
        restored = restore_platform(snapshot, cleared)
        assert bytes(restored.ram.data) == bytes(vp.ram.data)


# -- the correctness gate: cold digest == snapshot-resumed digest ---------------------

class TestColdVsResumed:
    @pytest.mark.parametrize("kind", ["aoa", "avp64"])
    def test_resumed_digest_matches_cold(self, kind):
        def cold():
            vp = build_platform(kind, make_config(), software())
            vp.run(FULL)

        cold_trace = trace_run(cold)

        captured = {}

        def warm_boot():
            with TraceRecorder() as recorder:
                vp = build_platform(kind, make_config(), software())
                vp.run(HALF)
            captured["snap"] = capture_platform(vp, trace=recorder.entries)

        trace_run(warm_boot)
        snapshot = captured["snap"]

        def resume():
            vp = restore_platform(snapshot, software())
            vp.run(FULL - SimTime(snapshot.sim_time_ps))

        warm_trace = trace_run(resume)
        assert warm_trace.digest() == cold_trace.digest()
        assert len(warm_trace) == len(cold_trace)

    def test_mmu_on_guest_resumes_with_exact_tlb_counters(self):
        """An MMU-on Dhrystone captured between quanta resumes to the
        golden counters (instret, blocks, new blocks, memory ops, TLB hits,
        misses, walks) and to the cold run's modeled wall time.  With
        100 us quanta the program ends inside its first quantum, so it runs
        with 10 us quanta here and is captured after two of them."""
        software_, _ = functional_dhrystone(100)
        config = VpConfig(num_cores=1, quantum=SimTime.us(10), parallel=False)
        vp = build_platform("avp64", config, software_)
        enable_identity_mmu(vp)
        vp.run(SimTime.us(15))
        assert not vp.simctl.shutdown_requested
        assert 0 < core_counters(vp)[0][0] < 32617
        restored = restore_platform(capture_platform(vp), software_)
        restored.run(SimTime.ms(2000))
        assert restored.simctl.shutdown_requested
        assert core_counters(restored) == [(32617, 10302, 16, 7106, 39719, 4, 4)]
        assert restored.ledger.wall_time_ns() == 438442.25


# -- capture preconditions ------------------------------------------------------------

class TestCaptureErrors:
    def test_unelaborated_platform_is_rejected(self):
        vp = build_platform("aoa", make_config(), software())
        with pytest.raises(SnapshotError, match="no SC_THREAD"):
            capture_platform(vp)

    def test_lambda_in_timed_heap_rejected(self):
        vp, _ = boot_capture(until=SimTime.ms(1))
        vp.kernel.schedule_callback(SimTime.ms(1), lambda: None)
        with pytest.raises(SnapshotError, match="closure/lambda"):
            capture_platform(vp)

    def test_retired_exec_backend_key_is_ignored(self, aoa_warm):
        """Files written while the config had an ``exec_backend`` field
        restore to the same state."""
        _, snapshot = aoa_warm
        manifest = copy.deepcopy(snapshot.manifest)
        manifest["config"]["exec_backend"] = "threads"
        restored = restore_platform(Snapshot(manifest, {}, parent=snapshot),
                                    software())
        # The recapture has no trace prefix; every other section must match.
        assert canonical_manifest_bytes(dict(snapshot.manifest, trace=None)) \
            == canonical_manifest_bytes(capture_platform(restored).manifest)

    @pytest.mark.parametrize("key, value", [
        ("num_cores", None), ("num_cores", "2"), ("parallel", "yes"),
        ("kvm_costs", [])])
    def test_malformed_config_is_rejected(self, aoa_warm, key, value):
        _, snapshot = aoa_warm
        manifest = copy.deepcopy(snapshot.manifest)
        if value is None:
            del manifest["config"][key]
        else:
            manifest["config"][key] = value
        with pytest.raises(SnapshotError, match="malformed config"):
            restore_platform(Snapshot(manifest, {}, parent=snapshot),
                             software())

    def test_wrong_software_is_rejected(self, aoa_warm):
        _, snapshot = aoa_warm
        other = linux_boot_software(CORES, LinuxBootParams().scaled(SCALE * 2))
        with pytest.raises(SnapshotError, match="software mismatch"):
            restore_platform(snapshot, other)


class TestHostileTimeFields:
    """The kernel keeps time as plain ints, so restore checks every ps
    field it takes verbatim and raises SnapshotError before building."""

    @staticmethod
    def tampered(snapshot, edit) -> Snapshot:
        manifest = copy.deepcopy(snapshot.manifest)
        edit(manifest)
        return Snapshot(manifest, {}, parent=snapshot)

    @staticmethod
    def set_field(manifest, field, value):
        if field == "now_ps":
            manifest["sim"]["now_ps"] = value
        elif field == "due_ps":
            manifest["kernel"]["timed"][-1]["due_ps"] = value
        else:
            manifest["cpus"][-1]["local_offset_ps"] = value

    @pytest.mark.parametrize("value", ["5000", 5000.0, -1, True])
    @pytest.mark.parametrize("field", ["now_ps", "due_ps", "local_offset_ps"])
    def test_ill_typed_or_negative_field_is_rejected(self, aoa_warm, field, value):
        _, snapshot = aoa_warm
        assert snapshot.manifest["kernel"]["timed"], "warm boot has timed entries"
        hostile = self.tampered(snapshot,
                                lambda manifest: self.set_field(manifest, field, value))
        with pytest.raises(SnapshotError, match=field):
            restore_platform(hostile, software())

    def test_due_before_now_is_rejected(self, aoa_warm):
        """Accepting it would step simulated time backwards on resume."""
        _, snapshot = aoa_warm
        hostile = self.tampered(
            snapshot,
            lambda manifest: self.set_field(manifest, "due_ps", 1000))
        assert hostile.manifest["sim"]["now_ps"] > 1000
        with pytest.raises(SnapshotError, match="below sim.now_ps"):
            restore_platform(hostile, software())

    def test_due_at_now_is_accepted(self, aoa_warm):
        _, snapshot = aoa_warm
        now_ps = snapshot.manifest["sim"]["now_ps"]
        hostile = self.tampered(
            snapshot,
            lambda manifest: self.set_field(manifest, "due_ps", now_ps))
        assert restore_platform(hostile, software()).kernel.now.picoseconds == now_ps

    def test_missing_time_section_is_rejected(self, aoa_warm):
        _, snapshot = aoa_warm
        hostile = self.tampered(snapshot,
                                lambda manifest: manifest["kernel"].pop("timed"))
        with pytest.raises(SnapshotError, match="malformed time section"):
            restore_platform(hostile, software())


def _tamper_method(manifest, name):
    method = next(item["action"] for item in manifest["kernel"]["timed"]
                  if item["action"]["type"] == "method")
    method["method"] = name


def _add_page(manifest, index):
    pages = manifest["ram"]["pages"]
    pages[index] = next(iter(pages.values()))


def _gic(manifest, **fields):
    manifest["devices"]["gic"].update(fields)


def _executor(manifest, **fields):
    manifest["cpus"][0]["kvm"]["vcpu"]["executor"].update(fields)


def _input_past_end(manifest):
    state = manifest["cpus"][0]["kvm"]["vcpu"]["executor"]
    state["inputs"].append([state["advances"], 1])


#: manifest edits restore must refuse; each escaped as a raw error or was
#: silently accepted before the device, kernel and RAM sections were checked
HOSTILE_SECTIONS = {
    "devices_missing_gic": lambda m: m["devices"].pop("gic"),
    "devices_is_list": lambda m: m.update(devices=list(m["devices"].values())),
    "gic_is_string": lambda m: m["devices"].update(gic="gic"),
    "regs_unknown_label": lambda m: m["regs"].update(kernel={}),
    "heap_method_dunder": lambda m: _tamper_method(m, "__class__"),
    "ram_page_key_not_int": lambda m: _add_page(m, "zz"),
    "ram_page_past_end": lambda m: _add_page(
        m, str(m["ram"]["size"] // m["ram"]["page_size"])),
    "ram_page_size_negative": lambda m: m["ram"].update(page_size=-4096),
    "cpus_one_short": lambda m: m["cpus"].pop(),
    "ports_cpus_one_short": lambda m: m["ports"]["cpus"].pop(),
    "process_unknown_park": lambda m: m["processes"][-1].update(park="nowhere"),
    "delta_count_is_string": lambda m: m["sim"].update(delta_count="22"),
    "halted_cores_is_string": lambda m: m["sim"].update(halted_cores="0"),
    "gic_priority_mask_is_string": lambda m: _gic(m, priority_mask="ff"),
    "gic_priority_mask_one_short": lambda m: _gic(m, priority_mask=[0xFF]),
    "gic_priority_above_255": lambda m: _gic(m, priority_mask=[0x100] * CORES),
    "gic_enabled_is_string": lambda m: _gic(m, enabled="abc"),
    "gic_spi_target_is_string": lambda m: _gic(m, spi_targets={"33": "x"}),
    "gic_spi_target_key_not_int": lambda m: _gic(m, spi_targets={"x": 1}),
    "gic_num_acks_is_string": lambda m: _gic(m, num_acks="x"),
    "gic_irq_out_levels_empty": lambda m: _gic(m, irq_out_levels=[]),
    "gic_pending_spi_below_32": lambda m: _gic(m, pending_spi=[5]),
    "gic_dist_enabled_is_int": lambda m: _gic(m, dist_enabled=1),
    "gic_spi_line_unknown": lambda m: _gic(m, spi_line_levels={"200": True}),
    "executor_advances_is_string": lambda m: _executor(m, advances="3"),
    "executor_advances_negative": lambda m: _executor(m, advances=-1),
    "executor_input_past_advances": _input_past_end,
    "executor_handler_stage_unknown": lambda m: _executor(m, handler={
        "stage": "nowhere", "ack_id": 0, "work_left": 0, "acks": []}),
    "executor_mmio_sink_unknown": lambda m: _executor(m, pending_mmio_sink="x"),
    "executor_replay_ends_on_other_phase": lambda m: _executor(
        m, phase=["Halt", {"code": 7}]),
}


class TestHostileSections:
    @pytest.mark.parametrize("case", sorted(HOSTILE_SECTIONS))
    def test_hostile_section_is_rejected(self, aoa_warm, case):
        _, snapshot = aoa_warm
        hostile = TestHostileTimeFields.tampered(snapshot, HOSTILE_SECTIONS[case])
        with pytest.raises(SnapshotError, match="malformed"):
            restore_platform(hostile, software())

    def test_finished_process_may_park_anywhere(self, aoa_warm):
        _, snapshot = aoa_warm

        def finish(manifest):
            manifest["processes"][-1].update(park="start", finished=True)

        vp = restore_platform(TestHostileTimeFields.tampered(snapshot, finish),
                              software())
        assert vp.cpus[-1]._thread.finished


# -- forking --------------------------------------------------------------------------

class TestFork:
    def test_fork_lineage_and_identity(self, aoa_warm):
        _, snapshot = aoa_warm
        children = snapshot.fork(3)
        ids = {child.snapshot_id for child in children}
        assert len(ids) == 3 and snapshot.snapshot_id not in ids
        for index, child in enumerate(children):
            assert child.manifest["lineage"] == {
                "parent": snapshot.snapshot_id, "fork_index": index}

    def test_poke_is_copy_on_write(self, aoa_warm):
        _, snapshot = aoa_warm
        left, right = snapshot.fork(2)
        address = snapshot.manifest["ram"]["size"] - PAGE_SIZE
        parent_ram = snapshot.ram_bytes()
        left.poke_ram(address, b"DIVERGENT")
        assert left.ram_bytes()[address:address + 9] == b"DIVERGENT"
        assert right.ram_bytes() == parent_ram
        assert snapshot.ram_bytes() == parent_ram

    def test_poking_zeros_stores_no_page(self, aoa_warm):
        _, snapshot = aoa_warm
        child = snapshot.fork(1)[0]
        address = snapshot.manifest["ram"]["size"] - PAGE_SIZE
        pages_before = dict(child.manifest["ram"]["pages"])
        child.poke_ram(address, bytes(64))
        assert child.manifest["ram"]["pages"] == pages_before

    def test_forked_child_saves_standalone(self, aoa_warm, tmp_path):
        _, snapshot = aoa_warm
        child = snapshot.fork(1)[0]
        address = snapshot.manifest["ram"]["size"] - PAGE_SIZE
        child.poke_ram(address, b"standalone")
        path = tmp_path / "child.rsnap"
        child.save(str(path))
        loaded = Snapshot.load(str(path))
        assert loaded.snapshot_id == child.snapshot_id
        assert loaded.ram_bytes() == child.ram_bytes()

    def test_same_input_children_resume_identically(self, aoa_warm):
        _, snapshot = aoa_warm
        digests = []
        for child in snapshot.fork(2):
            def resume(child=child):
                vp = restore_platform(child, software())
                vp.run(FULL - SimTime(child.sim_time_ps))
            digests.append(trace_run(resume).digest())
        assert digests[0] == digests[1]

    def test_divergent_uart_input_diverges_state_after_fork(self, aoa_warm):
        _, snapshot = aoa_warm
        prefix_len = snapshot.manifest["trace"]["entries"]
        finals, traces = [], []
        for data in (b"A", b"B"):
            def resume(data=data, bucket=finals):
                vp = restore_platform(snapshot, software())
                vp.uart.inject_rx(data)
                vp.run(FULL - SimTime(snapshot.sim_time_ps))
                bucket.append(capture_platform(vp).snapshot_id)
            traces.append(trace_run(resume))
        # Children share the replayed pre-fork prefix bit-for-bit ...
        assert traces[0].entries[:prefix_len] == traces[1].entries[:prefix_len]
        # ... and the differing input shows up in the final state.
        assert finals[0] != finals[1]


class TestForkHypothesis:
    @settings(max_examples=6, deadline=None)
    @given(st.binary(max_size=8), st.binary(max_size=8))
    def test_children_diverge_iff_poked_bytes_differ(self, left_data, right_data):
        """Forked children are bit-identical up to the fork point and differ
        afterwards exactly when their injected RAM contents differ."""
        snapshot = type(self)._snapshot()
        address = snapshot.manifest["ram"]["size"] - PAGE_SIZE
        prefix_len = snapshot.manifest["trace"]["entries"]
        finals, traces = [], []
        for data, child in zip((left_data, right_data), snapshot.fork(2)):
            child.poke_ram(address, data)

            def resume(child=child, bucket=finals):
                vp = restore_platform(child, software())
                vp.run(FULL - SimTime(child.sim_time_ps))
                bucket.append(capture_platform(vp).snapshot_id)
            traces.append(trace_run(resume))
        assert traces[0].entries[:prefix_len] == traces[1].entries[:prefix_len]
        # The guest never touches the poked page, so the final states differ
        # exactly when the page contents differ (trailing zeros are the
        # page's default and do not count as input).
        same_input = (left_data.rstrip(b"\x00") == right_data.rstrip(b"\x00"))
        assert (finals[0] == finals[1]) == same_input

    _cached = None

    @classmethod
    def _snapshot(cls):
        if cls._cached is None:
            cls._cached = boot_capture()[1]
        return cls._cached


# -- bench CLI ------------------------------------------------------------------------

class TestBenchCli:
    def test_snapshot_at_then_matrix_verify_cold(self, tmp_path, capsys):
        from repro.bench.runner import main
        out = tmp_path / "boot.rsnap"
        assert main(["--snapshot-at", "2", "--snapshot-out", str(out),
                     "--scale", str(SCALE), "--snapshot-cores", str(CORES)]) == 0
        assert out.is_file()
        capsys.readouterr()   # drain the capture-phase status line
        assert main(["--from-snapshot", str(out), "--matrix", "3,4,5",
                     "--verify-cold", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == 0
        assert [row["duration_ms"] for row in report["results"]] == [3.0, 4.0, 5.0]
        assert all(row["match"] for row in report["results"])

    def test_matrix_must_lie_beyond_snapshot_point(self, tmp_path):
        from repro.bench.runner import main
        out = tmp_path / "boot.rsnap"
        assert main(["--snapshot-at", "2", "--snapshot-out", str(out),
                     "--scale", str(SCALE), "--snapshot-cores",
                     str(CORES)]) == 0
        with pytest.raises(SnapshotError, match="not beyond"):
            main(["--from-snapshot", str(out), "--matrix", "1"])


# -- telemetry ------------------------------------------------------------------------

class TestTelemetry:
    def test_snapshot_metrics_are_recorded(self, tmp_path):
        from repro.telemetry import collecting
        with collecting() as telemetry:
            _, snapshot = boot_capture(until=SimTime.ms(1))
            snapshot.save(str(tmp_path / "t.rsnap"))
            snapshot.fork(2)
            restored = restore_platform(snapshot, software())
            registry = telemetry.registry
            assert registry.histogram("snapshot.save_ns").count >= 1
            assert registry.histogram("snapshot.restore_ns").count == 1
            assert registry.counter("snapshot.bytes").value > 0
            assert registry.counter("fork.count").value == 2

    def test_telemetry_is_digest_neutral(self):
        from repro.telemetry import collecting

        def run():
            vp = build_platform("aoa", make_config(), software())
            vp.run(SimTime.ms(1))

        bare = trace_run(run)
        with collecting():
            instrumented = trace_run(run)
        assert bare.digest() == instrumented.digest()
