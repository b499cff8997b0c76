"""Scheduler semantics: processes, events, delta cycles, signals."""

import threading

import pytest

from repro.systemc.event import Event, any_of
from repro.arch.assembler import assemble
from repro.systemc.kernel import Kernel
from repro.systemc.module import Module
from repro.systemc.process import ProcessState, WaitTimeout
from repro.systemc.signal import IrqLine, Signal
from repro.systemc.time import SimTime
from repro.tlm.quantum import GlobalQuantum, QuantumKeeper
from repro.vcml.memory import Memory
from repro.vp import GuestSoftware, VpConfig, build_platform


class TestTimedWaits:
    def test_wait_advances_time(self, kernel):
        log = []

        def body():
            yield SimTime.ns(10)
            log.append(kernel.now.to_ns())
            yield SimTime.ns(5)
            log.append(kernel.now.to_ns())

        kernel.spawn(body)
        kernel.run()
        assert log == [10.0, 15.0]

    def test_two_processes_interleave_by_time(self, kernel):
        log = []

        def slow():
            yield SimTime.ns(20)
            log.append("slow")

        def fast():
            yield SimTime.ns(10)
            log.append("fast")

        kernel.spawn(slow)
        kernel.spawn(fast)
        kernel.run()
        assert log == ["fast", "slow"]

    def test_run_with_duration_stops_at_deadline(self, kernel):
        log = []

        def body():
            while True:
                yield SimTime.ns(10)
                log.append(kernel.now.to_ns())

        kernel.spawn(body)
        end = kernel.run(SimTime.ns(35))
        assert log == [10.0, 20.0, 30.0]
        assert end <= SimTime.ns(35)

    def test_run_without_activity_returns(self, kernel):
        assert kernel.run() == SimTime.zero()

    def test_run_duration_reaches_deadline_when_idle(self, kernel):
        end = kernel.run(SimTime.us(3))
        assert end == SimTime.us(3)

    def test_simultaneous_wakeups_fire_in_schedule_order(self, kernel):
        log = []

        def make(name):
            def body():
                yield SimTime.ns(10)
                log.append(name)
            return body

        kernel.spawn(make("a"))
        kernel.spawn(make("b"))
        kernel.spawn(make("c"))
        kernel.run()
        assert log == ["a", "b", "c"]


class TestTimedHeapOrder:
    def test_same_ps_entries_fire_in_scheduling_order_across_kinds(self, kernel):
        """Notifications, wakeups and callbacks due at one ps fire in the
        order they were scheduled in, whatever their kind.

        Each entry makes one logging process runnable when it fires (a
        callback through an immediate notification), so the processes run,
        and log, in the order the heap popped the entries.
        """
        log = []

        def logger(event, name):
            def body():
                yield event
                log.append(name)
            return body

        def sleeper(name):
            def body():
                yield SimTime.ns(10)
                log.append(name)
            return body

        def once(action):
            def body():
                action()
                yield SimTime.zero()
            return body

        callbacks = [kernel.event(f"c{index}") for index in range(2)]
        events = [kernel.event(f"e{index}") for index in range(2)]
        for index in range(2):
            kernel.spawn(logger(callbacks[index], f"callback{index}"))
            kernel.spawn(logger(events[index], f"event{index}"))
        # Spawned processes first run in spawn order, so this is the order
        # the six entries are scheduled in.
        for index in range(2):
            kernel.spawn(once(lambda c=callbacks[index]: kernel.schedule_callback(
                SimTime.ns(10), lambda: c.notify())))
            kernel.spawn(sleeper(f"wake{index}"))
            kernel.spawn(once(lambda e=events[index]: e.notify(SimTime.ns(10))))
        kernel.run()
        assert log == ["callback0", "wake0", "event0",
                       "callback1", "wake1", "event1"]

    def test_same_ps_callbacks_fire_in_scheduling_order(self, kernel):
        log = []
        for index in range(20):
            kernel.schedule_callback(SimTime.ns(7), lambda i=index: log.append(i))
        kernel.run()
        assert log == list(range(20))

    def test_cancelled_entries_never_fire(self, kernel):
        log = []
        event = Event("e", kernel)
        kernel.create_method(lambda: log.append("event"), "m", sensitive_to=[event])
        for index in range(4):
            entry = kernel.schedule_callback(SimTime.ns(5),
                                             lambda i=index: log.append(i))
            if index % 2:
                entry.cancelled = True
        event.notify(SimTime.ns(5))
        event.cancel()

        def waiter():
            yield WaitTimeout(SimTime.ns(5), event)
            log.append("timed_out")
            timed_out = kernel.event("never")
            # An event wake cancels the wait's timeout entry.
            timed_out.notify(SimTime.ns(1))
            yield WaitTimeout(SimTime.ns(3), timed_out)
            log.append(("woke", kernel.now.to_ns()))
            yield SimTime.ns(10)

        kernel.spawn(waiter)
        kernel.run()
        assert log == [0, 2, "timed_out", ("woke", 6.0)]
        assert not kernel.pending_activity()


class TestApiEdge:
    """SimTime is the public time type; a bare int is refused at the edge."""

    @pytest.mark.parametrize("call", [
        "schedule_callback", "run", "notify", "wait_timeout",
        "quantum", "inc", "set_offset"])
    def test_non_simtime_argument_raises_type_error(self, kernel, call):
        keeper = QuantumKeeper(GlobalQuantum(SimTime.us(1)), kernel)
        actions = {
            "schedule_callback": lambda: kernel.schedule_callback(5, lambda: None),
            "run": lambda: kernel.run(5),
            "notify": lambda: Event("e", kernel).notify(5),
            "wait_timeout": lambda: WaitTimeout(5),
            "quantum": lambda: setattr(keeper.global_quantum, "quantum", 5),
            "inc": lambda: keeper.inc(5),
            "set_offset": lambda: keeper.set_offset(5),
        }
        with pytest.raises(TypeError):
            actions[call]()
        assert keeper.local_time_offset == SimTime.zero()
        assert kernel.now == SimTime.zero()

    def test_yielding_an_int_raises_type_error(self, kernel):
        def body():
            yield 5

        kernel.spawn(body)
        with pytest.raises(TypeError):
            kernel.run()


class TestEvents:
    def test_immediate_notification_wakes_waiter(self, kernel):
        event = Event("e", kernel)
        log = []

        def waiter():
            yield event
            log.append(("woke", kernel.now.to_ns()))

        def notifier():
            yield SimTime.ns(7)
            event.notify()

        kernel.spawn(waiter)
        kernel.spawn(notifier)
        kernel.run()
        assert log == [("woke", 7.0)]

    def test_timed_notification(self, kernel):
        event = Event("e", kernel)
        log = []

        def waiter():
            yield event
            log.append(kernel.now.to_ns())

        kernel.spawn(waiter)
        event.notify(SimTime.ns(42))
        kernel.run()
        assert log == [42.0]

    def test_delta_notification_same_time(self, kernel):
        event = Event("e", kernel)
        log = []

        def waiter():
            yield event
            log.append(kernel.now.to_ns())

        def notifier():
            event.notify(SimTime.zero())
            yield SimTime.ns(1)

        kernel.spawn(waiter)
        kernel.spawn(notifier)
        kernel.run()
        assert log == [0.0]

    def test_earlier_notification_overrides_later(self, kernel):
        event = Event("e", kernel)
        log = []

        def waiter():
            yield event
            log.append(kernel.now.to_ns())

        kernel.spawn(waiter)
        event.notify(SimTime.ns(100))
        event.notify(SimTime.ns(10))     # earlier wins
        event.notify(SimTime.ns(50))     # ignored (later than pending)
        kernel.run()
        assert log == [10.0]

    def test_cancel_drops_pending_notification(self, kernel):
        event = Event("e", kernel)
        log = []

        def waiter():
            yield event
            log.append("woke")

        kernel.spawn(waiter)
        event.notify(SimTime.ns(10))
        event.cancel()
        kernel.run()
        assert log == []

    def test_wait_any_of(self, kernel):
        e1, e2 = Event("e1", kernel), Event("e2", kernel)
        log = []

        def waiter():
            yield any_of(e1, e2)
            log.append(kernel.now.to_ns())

        kernel.spawn(waiter)
        e2.notify(SimTime.ns(5))
        e1.notify(SimTime.ns(9))
        kernel.run()
        assert log == [5.0]

    def test_event_or_composition(self):
        k = Kernel()
        e1, e2, e3 = (Event(n, k) for n in "abc")
        combo = any_of(e1, e2) | e3
        assert len(combo) == 3

    def test_notification_to_no_waiters_is_lost(self, kernel):
        event = Event("e", kernel)
        event.notify()   # nobody waiting: no error, nothing queued
        log = []

        def waiter():
            yield event
            log.append("woke")

        kernel.spawn(waiter)
        kernel.run(SimTime.ns(10))
        assert log == []


class TestWaitTimeout:
    def test_timeout_fires_without_event(self, kernel):
        event = Event("e", kernel)
        log = []

        def waiter():
            yield WaitTimeout(SimTime.ns(30), event)
            log.append((kernel.now.to_ns(), kernel.current_process))

        process = kernel.spawn(waiter)
        kernel.run()
        assert log[0][0] == 30.0
        assert process.timed_out

    def test_event_beats_timeout(self, kernel):
        event = Event("e", kernel)

        def waiter():
            yield WaitTimeout(SimTime.ns(30), event)

        process = kernel.spawn(waiter)
        event.notify(SimTime.ns(5))
        kernel.run()
        assert not process.timed_out
        assert kernel.now == SimTime.ns(5)


class TestSuspendResume:
    def test_suspended_process_defers_wakeup(self, kernel):
        event = Event("e", kernel)
        log = []

        def waiter():
            yield event
            log.append(kernel.now.to_ns())

        process = kernel.spawn(waiter)

        def controller():
            yield SimTime.ns(1)
            process.suspend()
            event.notify()           # arrives while suspended
            yield SimTime.ns(9)
            process.resume(kernel)   # delivers the deferred wake

        kernel.spawn(controller)
        kernel.run()
        assert log == [10.0]

    def test_resume_without_pending_wake_keeps_waiting(self, kernel):
        event = Event("e", kernel)
        log = []

        def waiter():
            yield event
            log.append("woke")

        process = kernel.spawn(waiter)

        def controller():
            yield SimTime.ns(1)
            process.suspend()
            yield SimTime.ns(1)
            process.resume(kernel)
            yield SimTime.ns(1)
            event.notify()

        kernel.spawn(controller)
        kernel.run()
        assert log == ["woke"]


class TestMethodsAndCallbacks:
    def test_method_triggered_by_sensitivity(self, kernel):
        event = Event("e", kernel)
        calls = []
        kernel.create_method(lambda: calls.append(kernel.now.to_ns()),
                             "m", sensitive_to=[event])
        event.notify(SimTime.ns(3))
        kernel.run()
        assert calls == [3.0]

    def test_schedule_callback(self, kernel):
        calls = []
        kernel.schedule_callback(SimTime.ns(5), lambda: calls.append(kernel.now.to_ns()))
        kernel.run()
        assert calls == [5.0]

    def test_cancelled_callback_does_not_fire(self, kernel):
        calls = []
        entry = kernel.schedule_callback(SimTime.ns(5), lambda: calls.append(1))
        entry.cancelled = True
        kernel.run()
        assert calls == []


class TestStop:
    def test_stop_ends_run(self, kernel):
        log = []

        def body():
            while True:
                yield SimTime.ns(10)
                log.append(kernel.now.to_ns())
                if len(log) == 3:
                    kernel.stop()

        kernel.spawn(body)
        kernel.run()
        assert len(log) == 3

    def test_run_can_continue_after_stop(self, kernel):
        log = []

        def body():
            while True:
                yield SimTime.ns(10)
                log.append(kernel.now.to_ns())
                kernel.stop()

        kernel.spawn(body)
        kernel.run()
        kernel.run()
        assert log == [10.0, 20.0]


class TestSignal:
    def test_write_applies_in_update_phase(self, kernel):
        signal = Signal("s", initial=0, kernel=kernel)
        observed = []

        def writer():
            signal.write(42)
            observed.append(signal.read())   # old value within the delta
            yield SimTime.ns(1)
            observed.append(signal.read())

        kernel.spawn(writer)
        kernel.run()
        assert observed == [0, 42]

    def test_value_changed_event(self, kernel):
        signal = Signal("s", initial=0, kernel=kernel)
        log = []

        def watcher():
            yield signal.value_changed
            log.append(signal.read())

        def writer():
            yield SimTime.ns(1)
            signal.write(7)

        kernel.spawn(watcher)
        kernel.spawn(writer)
        kernel.run()
        assert log == [7]

    def test_writing_same_value_does_not_notify(self, kernel):
        signal = Signal("s", initial=3, kernel=kernel)
        log = []

        def watcher():
            yield signal.value_changed
            log.append("changed")

        def writer():
            yield SimTime.ns(1)
            signal.write(3)

        kernel.spawn(watcher)
        kernel.spawn(writer)
        kernel.run(SimTime.ns(10))
        assert log == []


class TestIrqLine:
    def test_level_and_edges(self, kernel):
        line = IrqLine("irq", kernel)
        seen = []
        line.connect(seen.append)
        line.raise_irq()
        line.raise_irq()       # no duplicate edge
        line.lower_irq()
        assert seen == [True, False]
        assert not line.level

    def test_raised_event_wakes_process(self, kernel):
        line = IrqLine("irq", kernel)
        log = []

        def waiter():
            yield line.raised
            log.append(kernel.now.to_ns())

        def driver():
            yield SimTime.ns(4)
            line.raise_irq()

        kernel.spawn(waiter)
        kernel.spawn(driver)
        kernel.run()
        assert log == [4.0]

    def test_pulse(self, kernel):
        line = IrqLine("irq", kernel)
        seen = []
        line.connect(seen.append)
        line.pulse()
        assert seen == [True, False]


class TestUpdateRequests:
    def test_duplicate_requests_coalesce_in_first_request_order(self, kernel):
        log = []

        class Channel:
            def __init__(self, tag):
                self.tag = tag

            def _update(self):
                log.append(self.tag)

        a, b, c = Channel("a"), Channel("b"), Channel("c")

        def proc():
            kernel.request_update(a)
            kernel.request_update(b)
            kernel.request_update(a)   # duplicate: one update, first position
            kernel.request_update(c)
            kernel.request_update(b)
            yield SimTime.ns(1)

        kernel.spawn(proc)
        kernel.run()
        assert log == ["a", "b", "c"]

    def test_channel_can_request_again_in_a_later_delta(self, kernel):
        updates = []

        class Channel:
            def _update(self):
                updates.append(kernel.now.picoseconds)

        channel = Channel()

        def proc():
            kernel.request_update(channel)
            yield SimTime.ns(1)
            kernel.request_update(channel)
            yield SimTime.ns(1)

        kernel.spawn(proc)
        kernel.run()
        assert len(updates) == 2


class TestProcessState:
    def test_finished_process_state(self, kernel):
        def body():
            yield SimTime.ns(1)

        process = kernel.spawn(body)
        kernel.run()
        assert process.finished
        assert process.state is ProcessState.FINISHED

    def test_bad_yield_raises(self, kernel):
        def body():
            yield "nonsense"

        kernel.spawn(body)
        with pytest.raises(TypeError):
            kernel.run()


#: counts x0 down from 2000, then halts
COUNTDOWN = """
_start:
    movz x0, #2000
loop:
    sub x0, x0, #1
    cbnz x0, loop
    hlt #0
"""


def run_countdown_platform():
    software = GuestSoftware(image=assemble(COUNTDOWN, base_address=0x1000),
                             mode="interpreter", name="countdown")
    vp = build_platform("aoa", VpConfig(num_cores=1, quantum=SimTime.us(10)),
                        software)
    vp.run(SimTime.ms(5))
    return (vp.total_instructions(), vp.kernel.now.picoseconds,
            vp.ledger.wall_time_ns(), vp.cpus[0].vcpu.executor.state.regs[0])


class TestExplicitKernel:
    @pytest.mark.parametrize("parent", [None, "vp"])
    def test_a_module_needs_a_module_or_kernel_parent(self, parent):
        with pytest.raises(TypeError, match="parent must be a Module or a Kernel"):
            Module("orphan", parent)
        with pytest.raises(TypeError, match="parent must be a Module or a Kernel"):
            Memory("ram", 0x100, parent=parent)

    def test_a_top_level_module_takes_its_kernel_from_its_parent(self, kernel):
        top = Module("top", kernel)
        child = Module("child", top)
        assert top.parent is None and top.kernel is kernel
        assert child.parent is top and child.kernel is kernel
        assert child.name == "top.child"

    def test_waiting_on_another_kernels_event_raises(self, kernel):
        foreign = Event("foreign", Kernel())

        def body():
            yield foreign

        kernel.spawn(body)
        with pytest.raises(RuntimeError, match="belongs to another kernel"):
            kernel.run()

    def test_concurrent_platforms_on_separate_threads_do_not_alias(self):
        serial = run_countdown_platform()
        results = {}
        barrier = threading.Barrier(2, timeout=60)

        def worker(tag):
            barrier.wait()                 # both threads build at once
            results[tag] = run_countdown_platform()

        threads = [threading.Thread(target=worker, args=(tag,))
                   for tag in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert serial[0] > 4000 and serial[3] == 0
        assert results == {"a": serial, "b": serial}
