"""Runtime sanitizer tests: each seeded violation must be caught, and the
equivalent clean sequence must stay silent."""

from __future__ import annotations

import pytest

from repro.analysis.sanitize import SanitizerScope, sanitized
from repro.systemc.time import SimTime
from repro.tlm.quantum import GlobalQuantum
from repro.vcml.processor import Processor, SimulateAction, SimulateResult


def rules_of(scope: SanitizerScope):
    return [finding.rule for finding in scope.findings]


# -- SAN004: quantum-budget violations ---------------------------------------------

class _GreedyCpu(Processor):
    """Backend that consumes more cycles than the quantum granted it."""

    def __init__(self, overrun: int, **kwargs):
        super().__init__("greedy", GlobalQuantum(SimTime.us(1)), **kwargs)
        self.overrun = overrun

    def simulate(self, cycles: int) -> SimulateResult:
        return SimulateResult(cycles + self.overrun, SimulateAction.CONTINUE)


def test_quantum_overrun_detected(kernel):
    with sanitized() as scope:
        cpu = _GreedyCpu(overrun=250, parent=kernel)
        result = cpu._invoke_simulate(1000)
    assert result.cycles == 1250
    assert rules_of(scope) == ["SAN004"]
    assert "granted 1000" in scope.findings[0].message
    assert scope.findings[0].context == "overrun=250"


def test_exact_budget_consumption_is_clean(kernel):
    with sanitized() as scope:
        cpu = _GreedyCpu(overrun=0, parent=kernel)
        cpu._invoke_simulate(1000)
    assert rules_of(scope) == []


def test_scope_opened_after_construction_reports_on_the_cpu_bus(kernel):
    cpu = _GreedyCpu(overrun=1, parent=kernel)
    emitted = []
    cpu.probes.subscribe("sanitizer_finding", emitted.append)
    with sanitized() as scope:
        cpu._invoke_simulate(10)
    assert rules_of(scope) == ["SAN004"]
    assert emitted == scope.findings


# -- scope mechanics ----------------------------------------------------------------

def test_subscriptions_are_cancelled_on_exit(kernel):
    cpu = _GreedyCpu(overrun=5, parent=kernel)
    with sanitized() as scope:
        assert cpu.probes.subscribers("simulate")
    assert cpu.probes.subscribers("simulate") == ()
    cpu._invoke_simulate(10)
    assert rules_of(scope) == []


def test_scopes_do_not_nest():
    with sanitized():
        with pytest.raises(RuntimeError, match="already active"):
            SanitizerScope().__enter__()
