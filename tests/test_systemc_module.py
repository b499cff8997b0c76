"""Module hierarchy, elaboration hooks, Clock and Reset."""

import pytest

from repro.systemc.clock import Clock, Reset
from repro.systemc.module import Module, Simulation
from repro.systemc.time import SimTime


class TestHierarchy:
    def test_names_are_hierarchical(self, kernel):
        top = Module("top", parent=kernel)
        child = Module("child", parent=top)
        grandchild = Module("leaf", parent=child)
        assert top.name == "top"
        assert child.name == "top.child"
        assert grandchild.name == "top.child.leaf"
        assert top.children == [child]

    def test_iter_hierarchy_depth_first(self, kernel):
        top = Module("top", parent=kernel)
        a = Module("a", parent=top)
        b = Module("b", parent=top)
        a1 = Module("a1", parent=a)
        names = [module.basename for module in top.iter_hierarchy()]
        assert names == ["top", "a", "a1", "b"]

    def test_find_child_by_path(self, kernel):
        top = Module("top", parent=kernel)
        a = Module("a", parent=top)
        a1 = Module("a1", parent=a)
        assert top.find_child("a") is a
        assert top.find_child("a.a1") is a1
        assert top.find_child("nope") is None
        assert top.find_child("a.nope") is None

    def test_sc_thread_and_event_naming(self, kernel):
        top = Module("top", parent=kernel)
        event = top.sc_event("done")
        assert event.name == "top.done"

        def body():
            yield SimTime.ns(1)

        process = top.sc_thread(body, name="worker")
        assert process.name == "top.worker"


class TestSimulation:
    def test_elaboration_hooks_called_once(self):
        sim = Simulation()
        calls = []

        class Hooked(Module):
            def end_of_elaboration(self):
                calls.append(("eoe", self.basename))

            def start_of_simulation(self):
                calls.append(("sos", self.basename))

        top = Hooked("top", parent=sim.kernel)
        Hooked("child", parent=top)
        sim.register_top(top)
        sim.run(SimTime.ns(1))
        sim.run(SimTime.ns(1))   # second run must not re-elaborate
        assert calls == [("eoe", "top"), ("eoe", "child"),
                         ("sos", "top"), ("sos", "child")]

    def test_simulation_time_advances_across_runs(self):
        sim = Simulation()
        top = Module("top", parent=sim.kernel)
        sim.register_top(top)
        log = []

        def body():
            while True:
                yield SimTime.ns(10)
                log.append(sim.kernel.now.to_ns())

        top.sc_thread(body)
        sim.run(SimTime.ns(25))
        sim.run(SimTime.ns(20))
        assert log == [10.0, 20.0, 30.0, 40.0]


class TestClock:
    def test_period_and_conversions(self, kernel):
        clock = Clock("clk", 1e9, kernel)
        assert clock.period == SimTime.ns(1)
        assert clock.cycles_to_time(1000) == SimTime.us(1)
        assert clock.time_to_cycles(SimTime.us(1)) == 1000

    def test_fractional_frequency_rounds_period(self, kernel):
        clock = Clock("clk", 3e9, kernel)
        assert clock.cycles_to_time(3) == SimTime.ns(1)

    def test_invalid_frequency(self, kernel):
        with pytest.raises(ValueError):
            Clock("clk", 0, kernel)
        clock = Clock("clk", 1e6, kernel)
        with pytest.raises(ValueError):
            clock.frequency_hz = -1

    def test_ticking_generates_posedges(self, kernel):
        clock = Clock("clk", 1e8, kernel)    # 10 ns period
        edges = []

        def watcher():
            for _ in range(3):
                yield clock.posedge
                edges.append(kernel.now.to_ns())

        kernel.spawn(watcher)
        clock.start_ticking()
        kernel.run(SimTime.ns(35))
        clock.stop_ticking()
        assert edges == [10.0, 20.0, 30.0]


class TestReset:
    def test_assert_deassert_events(self, kernel):
        reset = Reset("rst", kernel)
        log = []

        def watcher():
            yield reset.asserted_event
            log.append("asserted")
            yield reset.deasserted_event
            log.append("deasserted")

        def driver():
            yield SimTime.ns(1)
            reset.assert_reset()
            reset.assert_reset()    # idempotent
            yield SimTime.ns(1)
            reset.deassert_reset()

        kernel.spawn(watcher)
        kernel.spawn(driver)
        kernel.run()
        assert log == ["asserted", "deasserted"]
        assert not reset.asserted
