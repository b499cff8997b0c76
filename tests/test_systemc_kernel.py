"""Scheduler semantics: processes, events, delta cycles, signals."""

import threading

import pytest

from repro.systemc.event import Event, any_of
from repro.systemc.kernel import Kernel, current_kernel
from repro.systemc.process import ProcessState, WaitTimeout
from repro.systemc.signal import IrqLine, Signal
from repro.systemc.time import SimTime


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


class TestKernelContext:
    def test_constructing_a_kernel_sets_the_ambient_kernel(self):
        kernel = Kernel()
        assert current_kernel() is kernel

    def test_running_kernel_wins_over_a_newer_ambient(self):
        """A Kernel constructed *during* a run (e.g. a nested tool building
        its own simulation) must not hijack name resolution for the code
        the running kernel is dispatching."""
        first = Kernel()
        seen = []

        def probe():
            Kernel()                       # clobbers the ambient slot...
            seen.append(current_kernel())  # ...but the stack top wins
            yield first.event("never")

        first.spawn(probe, name="probe")
        first.run(SimTime.us(1))
        assert seen == [first]

    def test_concurrent_kernels_on_separate_threads_do_not_interfere(self):
        results = {}
        barrier = threading.Barrier(2)

        def worker(tag):
            kernel = Kernel()              # ambient for *this* thread only
            barrier.wait()                 # both kernels exist before probing
            results[tag] = (kernel, current_kernel())

        threads = [threading.Thread(target=worker, args=(tag,))
                   for tag in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for tag in ("a", "b"):
            kernel, resolved = results[tag]
            assert resolved is kernel

    def test_fresh_thread_without_a_kernel_raises(self):
        caught = []

        def worker():
            try:
                current_kernel()
            except RuntimeError as exc:
                caught.append(exc)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert len(caught) == 1
