"""Software watchdog and the Listing-1 kick-id filter."""

from repro.core.watchdog import KickGuard, UnguardedKick, Watchdog, WatchdogFire


class TestWatchdog:
    def test_schedule_and_advance(self):
        watchdog = Watchdog()
        fired = []
        watchdog.schedule(0, now_ns=0, timeout_ns=100, callback=lambda: fired.append("a"))
        watchdog.schedule(0, now_ns=0, timeout_ns=50, callback=lambda: fired.append("b"))
        assert watchdog.advance(0, 60) == 1
        assert fired == ["b"]
        assert watchdog.advance(0, 200) == 1
        assert fired == ["b", "a"]

    def test_cancelled_entries_do_not_fire(self):
        watchdog = Watchdog()
        fired = []
        entry = watchdog.schedule(0, 0, 10, lambda: fired.append(1))
        watchdog.cancel(entry)
        assert watchdog.advance(0, 100) == 0
        assert fired == []
        assert watchdog.num_cancelled == 1

    def test_equal_deadlines_fire_in_arm_order(self):
        watchdog = Watchdog()
        fired = []
        for index in range(10):
            # now + timeout lands on the same deadline from different arms
            watchdog.schedule(0, now_ns=index * 5, timeout_ns=100 - index * 5,
                              callback=lambda i=index: fired.append(i))
        assert watchdog.advance(0, 100) == 10
        assert fired == list(range(10))

    def test_timelines_are_per_core(self):
        watchdog = Watchdog()
        fired = []
        watchdog.schedule(0, 0, 10, lambda: fired.append("core0"))
        watchdog.schedule(1, 0, 10, lambda: fired.append("core1"))
        watchdog.advance(0, 100)
        assert fired == ["core0"]
        assert watchdog.pending(1) == 1

    def test_negative_timeout_rejected(self):
        import pytest
        watchdog = Watchdog()
        with pytest.raises(ValueError):
            watchdog.schedule(0, 0, -1, lambda: None)

    def test_same_deadline_fires_in_schedule_order(self):
        watchdog = Watchdog()
        fired = []
        watchdog.schedule(0, 0, 10, lambda: fired.append("first"))
        watchdog.schedule(0, 0, 10, lambda: fired.append("second"))
        watchdog.advance(0, 10)
        assert fired == ["first", "second"]


class TestFireNotifications:
    def test_listener_gets_kick_id_and_budget(self):
        watchdog = Watchdog()
        fires = []
        watchdog.probes.subscribe("watchdog_fire", fires.append)
        watchdog.schedule(2, now_ns=10, timeout_ns=90, callback=lambda: None,
                          kick_id=7, budget_ns=90)
        watchdog.advance(2, 125)
        assert len(fires) == 1
        fire = fires[0]
        assert isinstance(fire, WatchdogFire)
        assert fire.core_id == 2
        assert fire.kick_id == 7
        assert fire.budget_ns == 90
        assert fire.deadline_ns == 100
        assert fire.fired_at_ns == 125
        assert fire.margin_ns == 25

    def test_raw_timers_report_none_metadata(self):
        watchdog = Watchdog()
        fires = []
        watchdog.probes.subscribe("watchdog_fire", fires.append)
        watchdog.schedule(0, 0, 10, lambda: None)
        watchdog.advance(0, 10)
        assert fires[0].kick_id is None
        assert fires[0].budget_ns is None

    def test_kickguard_arm_fills_metadata(self):
        guard = KickGuard(lambda: None)
        guard.m_kickid += 1
        guard.m_kickid += 1
        watchdog = Watchdog()
        fires = []
        watchdog.probes.subscribe("watchdog_fire", fires.append)
        guard.arm(watchdog, 1, now_ns=0, timeout_ns=50)
        watchdog.advance(1, 50)
        assert fires[0].kick_id == 2
        assert fires[0].budget_ns == 50

    def test_listener_removal(self):
        watchdog = Watchdog()
        fires = []
        watchdog.probes.subscribe("watchdog_fire", fires.append).cancel()
        watchdog.schedule(0, 0, 10, lambda: None)
        watchdog.advance(0, 10)
        assert fires == []

    def test_cancelled_timer_does_not_notify(self):
        watchdog = Watchdog()
        fires = []
        watchdog.probes.subscribe("watchdog_fire", fires.append)
        entry = watchdog.schedule(0, 0, 10, lambda: None)
        watchdog.cancel(entry)
        watchdog.advance(0, 100)
        assert fires == []


class TestKickGuard:
    def test_matching_id_delivers_signal(self):
        signals = []
        guard = KickGuard(lambda: signals.append("SIGUSR1"))
        watchdog = Watchdog()
        guard.arm(watchdog, 0, now_ns=0, timeout_ns=100)
        watchdog.advance(0, 100)
        assert signals == ["SIGUSR1"]
        assert guard.num_kicks_delivered == 1

    def test_stale_id_is_filtered(self):
        """Listing 1: a timer armed for run N must not kick run N+1."""
        signals = []
        guard = KickGuard(lambda: signals.append("SIGUSR1"))
        watchdog = Watchdog()
        guard.arm(watchdog, 0, now_ns=0, timeout_ns=100)
        # The KVM run exits early (MMIO at t=30) and the id moves on.
        guard.m_kickid += 1
        # A fresh watchdog is armed for the next run ...
        guard.arm(watchdog, 0, now_ns=30, timeout_ns=100)
        # ... and the *stale* timer expires while the new run is active.
        watchdog.advance(0, 100)
        assert signals == []
        assert guard.num_kicks_filtered == 1
        # The fresh timer still works.
        watchdog.advance(0, 130)
        assert signals == ["SIGUSR1"]

    def test_many_early_exits_filter_all_stale_kicks(self):
        signals = []
        guard = KickGuard(lambda: signals.append(1))
        watchdog = Watchdog()
        now = 0.0
        for _ in range(10):
            guard.arm(watchdog, 0, now, 100)
            now += 5                 # early exit after 5 ns each time
            guard.m_kickid += 1
        watchdog.advance(0, now + 1000)
        assert signals == []
        assert guard.num_kicks_filtered == 10

    def test_repeat_kick_flags_wedged_core(self):
        """Two delivered kicks for one run id: SIGUSR1 failed to end KVM_RUN."""
        wedges = []
        guard = KickGuard(lambda: None)
        guard.probes.subscribe("wedge", lambda _guard, kick_id: wedges.append(kick_id))
        watchdog = Watchdog()
        guard.arm(watchdog, 0, now_ns=0, timeout_ns=10)
        guard.arm(watchdog, 0, now_ns=0, timeout_ns=20)
        watchdog.advance(0, 10)
        assert guard.num_repeat_kicks == 0       # first delivery is normal
        watchdog.advance(0, 20)
        assert guard.num_repeat_kicks == 1
        assert wedges == [0]

    def test_kick_probe_reports_delivery(self):
        guard = KickGuard(lambda: None)
        kicks = []
        guard.probes.subscribe("kick", lambda _guard, kick_id, delivered:
                               kicks.append((kick_id, delivered)))
        watchdog = Watchdog()
        guard.arm(watchdog, 0, 0, 10)
        guard.m_kickid += 1
        guard.arm(watchdog, 0, 0, 20)
        watchdog.advance(0, 20)
        assert kicks == [(0, False), (1, True)]

    def test_normal_requeue_is_not_a_repeat(self):
        """Delivered kicks for *different* run ids never count as a wedge."""
        guard = KickGuard(lambda: None)
        wedges = []
        guard.probes.subscribe("wedge", lambda _guard, kick_id: wedges.append(kick_id))
        watchdog = Watchdog()
        for _ in range(5):
            guard.arm(watchdog, 0, 0, 10)
            watchdog.advance(0, 10)
            guard.m_kickid += 1
        assert guard.num_kicks_delivered == 5
        assert guard.num_repeat_kicks == 0
        assert wedges == []


class TestUnguardedKick:
    def test_stale_kick_lands(self):
        """The ablation variant shows the failure the id filter prevents."""
        signals = []
        unguarded = UnguardedKick(lambda: signals.append(1))
        watchdog = Watchdog()
        unguarded.arm(watchdog, 0, now_ns=0, timeout_ns=100)
        unguarded.m_kickid += 1
        watchdog.advance(0, 100)
        assert signals == [1]       # the stale kick was delivered anyway
