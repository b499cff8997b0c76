"""RPR008–RPR010 — cross-lane race candidates between per-core simulate legs.

These rules consume the :class:`repro.analysis.lanes.LaneModel` built during
prescan and flag state mutations that would become data races if per-core
``simulate(cycles)`` legs ran on real threads (today every leg runs inline
on the kernel's thread; see DESIGN §15):

* **RPR008** — a plain attribute write (``self.x = …`` / ``self.x += …``)
  on a *cross-lane-shared* class, in code reachable from a simulate leg.
  Under the parallel kernel two lanes can execute that write concurrently;
  the mutation must move behind a sanctioned channel (a
  ``fabric.MemoryPort`` transaction, a queued IRQ, or a quantum-barrier
  merge).
* **RPR009** — an unsynchronized *container* mutation (``dict``/``set``/
  ``list`` method calls, subscript stores, ``del``) on an object reachable
  from two or more cores.  Python container ops are not atomic with respect
  to each other under free threading; the known hot spots in this tree are
  the GIC distributor state, the :class:`HostLedger` window table, and the
  :class:`DmiManager` MRU front cache.
* **RPR010** — a kernel API that is only barrier-safe
  (``request_update``, ``_trigger_event``, immediate ``notify()``,
  delta/runnable scheduling) called from code reachable from a simulate
  leg.  The scheduler's bookkeeping is single-threaded by design; parallel
  legs must queue such effects to the quantum barrier instead.

All three participate in the committed race baseline
(``benchmarks/race_baseline.json``): known findings are suppressed by
fingerprint so ``python -m repro.analysis --race`` runs clean while the
migration to sanctioned channels proceeds, and the baseline can only
shrink (``--strict-baseline`` fails on stale entries).

They are ``default = False``: only ``--race`` or an explicit ``--select``
runs them, because without the baseline the current tree legitimately
reports the known hot spots.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional, Tuple

from ..engine import LintContext, Rule, SourceModule, register
from ..findings import Finding, Severity
from ..lanes import (
    BARRIER_ROOT_NAMES,
    CROSS_LANE_SHARED,
    FunctionInfo,
    LaneModel,
    _attr_chain_root,
)

#: container methods that mutate the receiver
_MUTATORS = {
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popleft", "popitem", "remove", "setdefault", "update",
}
#: kernel APIs that may only run in barrier context (elaboration, the
#: update/delta phases, quantum sync) — never from inside a simulate leg
_BARRIER_ONLY_KERNEL_API = {
    "request_update", "_trigger_event", "_schedule_delta_notification",
    "_schedule_delta_wakeup", "_make_runnable",
}

#: directories exempt from the race rules: the fabric *is* the sanctioned
#: channel, analysis instruments everything on purpose, and the scheduler
#: (systemc/) is the barrier infrastructure itself (RPR008/9 only)
_SANCTIONED_DIRS = ("fabric", "analysis")


class _LaneRuleBase(Rule):
    """Shared prescan + helpers for the three race rules."""

    default = False

    def prescan(self, ctx: LintContext, module: SourceModule) -> None:
        LaneModel.of(ctx).collect(module)

    @staticmethod
    def _chain_text(model: LaneModel, fn: FunctionInfo) -> str:
        chain = model.lane_chain(fn)
        return " -> ".join(chain) if chain else fn.qualname

    def _fingerprint(self, module: SourceModule, fn: FunctionInfo, subject: str) -> str:
        # Anchor the path to the invocation directory (the repo root for CI
        # and the committed baseline), not the scan root — otherwise the
        # same finding fingerprints differently depending on which PATHS
        # the engine was launched with.
        try:
            path = module.path.resolve().relative_to(Path.cwd()).as_posix()
        except ValueError:
            path = module.relpath
        return f"{self.rule_id}:{path}:{fn.qualname}:{subject}"

    @staticmethod
    def _lane_methods(model: LaneModel, module: SourceModule):
        """Lane-reachable methods defined in this module, with their class."""
        for class_info in model.classes.values():
            if class_info.module is not module:
                continue
            for fn in class_info.methods.values():
                if fn.name in BARRIER_ROOT_NAMES:
                    continue
                if model.lane_reachable(fn):
                    yield class_info, fn


def _self_attr_target(node: ast.AST) -> Optional[str]:
    """``self.x`` as an assignment target -> ``"x"`` (plain write)."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _container_mutation(node: ast.AST) -> Optional[Tuple[str, str]]:
    """Return ``(attr, how)`` when ``node`` mutates a ``self.attr`` container."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript):
                root = _attr_chain_root(target)
                if root is not None:
                    return root.attr, "subscript store"
    if isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                root = _attr_chain_root(target)
                if root is not None:
                    return root.attr, "del item"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATORS:
            root = _attr_chain_root(node.func.value)
            if root is not None:
                return root.attr, f".{node.func.attr}()"
    return None


@register
class SharedAttributeWriteRule(_LaneRuleBase):
    rule_id = "RPR008"
    title = "cross-lane shared attribute written outside MemoryPort/barrier paths"
    severity = Severity.WARNING

    def check(self, ctx: LintContext, module: SourceModule) -> Iterator[Finding]:
        if module.in_package_dir(*_SANCTIONED_DIRS, "systemc"):
            return
        model = LaneModel.of(ctx)
        for class_info, fn in self._lane_methods(model, module):
            if model.classify(class_info.name) != CROSS_LANE_SHARED:
                continue
            for node in ast.walk(fn.node):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        attr = _self_attr_target(target)
                        if attr is None or attr.startswith("_san"):
                            continue
                        yield self.finding(
                            module, node,
                            f"cross-lane shared attribute "
                            f"{class_info.name}.{attr} written inside a "
                            f"simulate-leg path; under the parallel kernel "
                            f"two lanes race here — route the mutation "
                            f"through fabric.MemoryPort or merge it at the "
                            f"quantum barrier",
                            context=(f"{class_info.sharing_reason()}; "
                                     f"lane path: {self._chain_text(model, fn)}"),
                            fingerprint=self._fingerprint(module, fn, attr),
                        )


@register
class SharedContainerMutationRule(_LaneRuleBase):
    rule_id = "RPR009"
    title = "unsynchronized container mutation on an object reachable from ≥2 cores"
    severity = Severity.WARNING

    def check(self, ctx: LintContext, module: SourceModule) -> Iterator[Finding]:
        if module.in_package_dir(*_SANCTIONED_DIRS, "systemc"):
            return
        model = LaneModel.of(ctx)
        for class_info, fn in self._lane_methods(model, module):
            if model.classify(class_info.name) != CROSS_LANE_SHARED:
                continue
            for node in ast.walk(fn.node):
                hit = _container_mutation(node)
                if hit is None:
                    continue
                attr, how = hit
                if attr.startswith("_san"):
                    continue
                yield self.finding(
                    module, node,
                    f"container {class_info.name}.{attr} mutated "
                    f"({how}) inside a simulate-leg path on an object "
                    f"reachable from two or more cores; container ops are "
                    f"not atomic under parallel lanes — queue the mutation "
                    f"through the fabric or merge it at the quantum barrier",
                    context=(f"{class_info.sharing_reason()}; "
                             f"lane path: {self._chain_text(model, fn)}"),
                    fingerprint=self._fingerprint(module, fn, attr),
                )


def _immediate_notify(call: ast.Call) -> bool:
    """True for ``x.notify()`` / ``x.notify(delay=None)`` — immediate
    notification, which wakes waiters in the *current* evaluation phase."""
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "notify"):
        return False
    if call.args:
        return False
    if not call.keywords:
        return True
    return all(
        kw.arg == "delay" and isinstance(kw.value, ast.Constant)
        and kw.value.value is None
        for kw in call.keywords
    )


@register
class BarrierOnlyKernelApiRule(_LaneRuleBase):
    rule_id = "RPR010"
    title = "barrier-only kernel API called from a simulate-leg path"
    severity = Severity.ERROR

    def check(self, ctx: LintContext, module: SourceModule) -> Iterator[Finding]:
        if module.in_package_dir("systemc", "analysis"):
            return
        model = LaneModel.of(ctx)
        for class_info, fn in self._lane_methods(model, module):
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                api = None
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr in _BARRIER_ONLY_KERNEL_API):
                    api = f"{node.func.attr}()"
                elif _immediate_notify(node):
                    api = "notify(<immediate>)"
                if api is None:
                    continue
                yield self.finding(
                    module, node,
                    f"{api} called from a simulate-leg path "
                    f"({fn.qualname}); this kernel API mutates scheduler "
                    f"state and is only safe in barrier context "
                    f"(elaboration, update phase, quantum sync) — queue "
                    f"the effect (e.g. notify(SimTime(0)) for a delta "
                    f"notification) instead",
                    context=f"lane path: {self._chain_text(model, fn)}",
                    fingerprint=self._fingerprint(module, fn, api),
                )
