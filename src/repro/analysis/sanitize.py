"""Opt-in runtime sanitizers for the VP layers.

Entering :func:`sanitized` subscribes to the probe bus of every kernel,
present and future (:func:`~repro.systemc.probes.subscribe_everywhere`),
so the scope may open before or after the platform is built:

* **SAN004 — quantum-budget violation**: a processor backend's
  ``simulate(cycles)`` reports more consumed cycles than the quantum it was
  granted — local time would silently run ahead of the budget the kernel
  accounted for.  The ``simulate`` point carries the grant and the result
  together.

Findings accumulate in a :class:`FindingCollector` — sanitizers report,
they do not raise, so one run surfaces every violation — and each is
emitted as the ``sanitizer_finding`` probe point on the offending
processor's bus.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional

from ..systemc.probes import Subscription, subscribe_everywhere
from .findings import Finding, FindingCollector, Severity

_active_scope: Optional["SanitizerScope"] = None


class SanitizerScope:
    """Context manager subscribing every sanitizer to every probe bus."""

    def __init__(self, collector: Optional[FindingCollector] = None):
        self.collector = collector if collector is not None else FindingCollector()
        self._subscriptions: List[Subscription] = []

    @property
    def findings(self) -> List[Finding]:
        return self.collector.findings

    def __enter__(self) -> "SanitizerScope":
        global _active_scope
        if _active_scope is not None:
            raise RuntimeError("sanitizer scope already active; scopes do not nest")
        _active_scope = self
        self._subscriptions = [subscribe_everywhere("simulate", self._simulate)]
        return self

    def __exit__(self, *exc_info) -> None:
        global _active_scope
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions.clear()
        _active_scope = None

    # -- SAN004: quantum-budget violations ------------------------------------------
    def _simulate(self, cpu, granted: int, result) -> None:
        if result.cycles <= granted:
            return
        finding = self.collector.add(Finding(
            rule="SAN004", severity=Severity.ERROR, path=cpu.name, line=0,
            message=(f"quantum-budget violation: simulate was granted "
                     f"{granted} cycles but consumed {result.cycles}; local "
                     "time runs ahead of the accounted quantum"),
            context=f"overrun={result.cycles - granted}",
        ))
        fire = cpu.probes.sanitizer_finding
        if fire is not None:
            fire(finding)


@contextlib.contextmanager
def sanitized(collector: Optional[FindingCollector] = None) -> Iterator[SanitizerScope]:
    """``with sanitized() as scope: vp.run(...)``"""
    scope = SanitizerScope(collector)
    with scope:
        yield scope
