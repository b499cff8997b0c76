"""Determinism-checker tests: identical runs hash identically, injected
nondeterminism is localized, and the quickstart example is deterministic
end to end."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.determinism import (
    check_determinism,
    check_script_determinism,
    trace_run,
)
from repro.systemc.kernel import Kernel
from repro.systemc.probes import ProbeBus
from repro.systemc.time import SimTime

QUICKSTART = Path(__file__).parent.parent / "examples" / "quickstart.py"


def _ping_pong_sim():
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


def test_identical_runs_are_deterministic():
    report = check_determinism(_ping_pong_sim, runs=3)
    assert report.deterministic
    assert len(set(report.digests)) == 1
    assert report.divergence is None
    assert report.lengths[0] > 0
    assert report.to_finding() is None


def test_injected_nondeterminism_is_caught_and_localized():
    run_counter = itertools.count()

    def leaky_sim():
        # State leaking across runs — exactly the bug class the checker
        # exists for: the process name differs between run 1 and run 2.
        def body():
            yield SimTime.ns(1)

        kernel = Kernel()
        kernel.spawn(body, f"leak{next(run_counter)}")
        kernel.run()

    report = check_determinism(leaky_sim, runs=2)
    assert not report.deterministic
    assert report.divergence is not None
    assert report.divergence.index == 0
    finding = report.to_finding("leaky")
    assert finding is not None and finding.rule == "DET001"
    assert "leak0" in report.divergence.describe()
    assert "leak1" in report.divergence.describe()


def test_trace_hook_is_always_restored():
    with pytest.raises(ZeroDivisionError):
        trace_run(lambda: 1 // 0)
    assert ProbeBus().dispatch is None


def test_trace_recording_does_not_nest():
    def inner():
        trace_run(lambda: None)

    with pytest.raises(RuntimeError, match="already being recorded"):
        trace_run(inner)
    assert ProbeBus().dispatch is None


def test_trace_run_coexists_with_other_digest_tier_hooks():
    # A WindowLedger (or any other DIGEST-tier observer) must not block
    # trace_run: only *nested* trace recordings are refused.
    from repro.divergence import DEFAULT_WINDOW, WindowLedger

    ledger = WindowLedger(DEFAULT_WINDOW).attach()
    try:
        trace = trace_run(_ping_pong_sim)
    finally:
        run = ledger.detach()
    assert len(trace) > 0
    # both observed the identical stream
    assert run.root_digest == trace.digest()
    assert ProbeBus().dispatch is None


@pytest.mark.parametrize("package", ["repro.analysis", "repro.divergence",
                                     "repro.snapshot"])
def test_trace_recorder_users_import_first_without_a_cycle(package):
    # All three share systemc.kernel.TraceRecorder; each must import first
    # in a fresh interpreter.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-c", f"import {package}"], env=env,
                   check=True)


def test_digest_tier_hooks_dispatch_fifo_within_the_band():
    calls = []
    first = Kernel.add_trace_hook(lambda *args: calls.append("first"),
                                  Kernel.TRACE_PRIORITY_DIGEST)
    second = Kernel.add_trace_hook(lambda *args: calls.append("second"),
                                   Kernel.TRACE_PRIORITY_DIGEST)
    try:
        ProbeBus().dispatch("test", 0, "probe")
    finally:
        Kernel.remove_trace_hook(first)
        Kernel.remove_trace_hook(second)
    assert calls == ["first", "second"]


def test_digest_band_runs_before_observer_band_in_either_attach_order():
    calls = []
    bus = ProbeBus()
    subs = [
        bus.subscribe("dispatch", lambda *args: calls.append("bus-observer")),
        Kernel.add_trace_hook(lambda *args: calls.append("hook-observer"),
                              Kernel.TRACE_PRIORITY_OBSERVER),
        Kernel.add_trace_hook(lambda *args: calls.append("hook-digest"),
                              Kernel.TRACE_PRIORITY_DIGEST),
        bus.subscribe("dispatch", lambda *args: calls.append("bus-digest"),
                      Kernel.TRACE_PRIORITY_DIGEST),
    ]
    try:
        bus.dispatch("test", 0, "probe")
    finally:
        for sub in subs:
            sub.cancel()
    assert calls == ["hook-digest", "bus-digest",
                     "bus-observer", "hook-observer"]
    assert bus.dispatch is None


def test_minimum_two_runs_enforced():
    with pytest.raises(ValueError):
        check_determinism(_ping_pong_sim, runs=1)


def test_quickstart_example_is_deterministic():
    report = check_script_determinism(str(QUICKSTART), runs=2)
    assert report.deterministic, (
        report.divergence.describe() if report.divergence else report.digests)
    # A real simulation ran and both runs dispatched the same schedule.
    assert report.lengths[0] == report.lengths[1] >= 1
