"""One observer lifecycle: open scopes, attach, seal and release platforms.

:class:`~repro.telemetry.Telemetry`, :class:`~repro.flight.Flight` and
:class:`~repro.obs.Obs` are each an :class:`ObserverScope`, which owns
everything but their probe handlers and seal hooks:

* the stack of open scopes (``collecting()``, ``recording()``,
  ``observing()``), which ``build_platform`` attaches in open order;
* one :class:`PlatformEntry` per platform, keyed ``f"{vp.name}#{n}"``,
  holding the platform and its probe subscriptions weakly, so no scope
  keeps a finished platform alive;
* the ``vp.telemetry`` / ``vp.flight`` / ``vp.obs`` idempotence guard;
* the seal rule: every ``run_return`` refreshes the entry's cached run
  state, and the entry seals once all cores have halted or the guest
  requested shutdown: the fold finalizes, the seal hook runs, every
  subscription is cancelled and the platform is released.  ``detach()``
  seals the rest (a ``stop_on_boot`` run ends through ``sim.stop()``).

A platform has one :class:`~repro.obs.attribution.AttributionFold`
whichever of telemetry and obs attaches, with the only ``host_bill`` and
``time_advance`` subscribers; the last scope using it to seal cancels
them.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Callable, Dict, List, Optional

from .attribution import AttributionFold

#: the open scopes, outermost first
_ACTIVE: List["ObserverScope"] = []


def attach_open_scopes(vp) -> None:
    """Attach ``vp`` to every open scope, in the order they opened."""
    for scope in list(_ACTIVE):
        scope.attach(vp)


def innermost(kind: type) -> Optional["ObserverScope"]:
    """The innermost open scope of type ``kind``, if any."""
    return next((s for s in reversed(_ACTIVE) if isinstance(s, kind)), None)


@contextlib.contextmanager
def opened(scope: "ObserverScope"):
    """Keep ``scope`` open for the block, then detach it."""
    _ACTIVE.append(scope)
    try:
        yield scope
    finally:
        _ACTIVE.remove(scope)
        scope.detach()


def _subscribe(bus, handlers: Dict[str, Callable]) -> List[weakref.ref]:
    """Subscribe ``handlers`` to ``bus``, which alone holds them."""
    return [weakref.ref(bus.subscribe(point, handler))
            for point, handler in handlers.items()]


def _cancel(subscriptions: List[weakref.ref]) -> None:
    for ref in subscriptions:
        if ref() is not None:
            ref().cancel()


class _SharedFold:
    """One platform's fold, its two subscriptions and how many scopes use it."""

    def __init__(self, vp):
        self.fold = AttributionFold(vp.ledger)
        self.subscriptions = _subscribe(vp.kernel.probes, {
            "host_bill": self.fold.bill, "time_advance": self.fold.advance_to})
        self.users = 0


#: platform -> its fold, while a telemetry or obs scope uses it
_FOLDS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def fold_of(vp) -> Optional[AttributionFold]:
    """The attribution fold of ``vp``, if an attached scope keeps one."""
    shared = _FOLDS.get(vp)
    return shared.fold if shared is not None else None


class PlatformEntry:
    """One attached platform, held weakly; its run state outlives it."""

    def __init__(self, key: str, vp, shared: Optional[_SharedFold]):
        self.key = key
        self.num_cores = len(vp.cpus)
        self.shared = shared
        #: the platform's fold (None for flight or without a host ledger)
        self.fold = shared.fold if shared is not None else None
        self.sealed = False
        #: obs: the whole-run attribution summary, folded once at seal
        self.summary = None
        self.subscriptions: List[weakref.ref] = []
        self._vp = weakref.ref(vp)
        #: run state, refreshed while the platform lives; kept once it is gone
        self.instructions = 0
        self.sim_time_ps = 0

    @property
    def vp(self):
        """The platform while it is alive and the entry unsealed."""
        return self._vp() if self._vp is not None else None

    def refresh(self) -> None:
        vp = self.vp
        if vp is not None:
            self.instructions = vp.total_instructions()
            self.sim_time_ps = vp.kernel.now.picoseconds


class ObserverScope:
    """Attach, seal and release platforms; subclasses supply the probes."""

    #: the platform attribute that points at the attached scope
    attr = ""
    #: whether the scope reads the platform's attribution fold
    uses_fold = False

    def __init__(self):
        self.platforms: List[PlatformEntry] = []

    def attach(self, vp):
        """Observe a whole virtual platform (idempotence-guarded)."""
        if getattr(vp, self.attr, None) is not None:
            raise ValueError(
                f"platform {vp.name!r} already has {self.attr} attached")
        shared = None
        if self.uses_fold and getattr(vp, "ledger", None) is not None:
            shared = _FOLDS.get(vp) or _FOLDS.setdefault(vp, _SharedFold(vp))
            shared.users += 1
        entry = PlatformEntry(f"{vp.name}#{len(self.platforms)}", vp, shared)
        self.platforms.append(entry)
        self._bind(vp, self)
        handlers = self._probes(entry, vp)
        handlers["run_return"] = lambda now: self._run_return(entry)
        entry.subscriptions = _subscribe(vp.kernel.probes, handlers)
        return self

    def finalize(self) -> None:
        """Seal every platform that has not sealed itself yet."""
        for entry in self.platforms:
            self._seal(entry)

    def detach(self) -> None:
        """Seal every platform; the scope's outputs stay readable."""
        self.finalize()

    def _bind(self, vp, scope: Optional["ObserverScope"]) -> None:
        """Point ``vp``'s ``attr`` at ``scope`` (None releases it)."""
        raise NotImplementedError

    def _probes(self, entry: PlatformEntry, vp) -> Dict[str, Callable]:
        """The probe handlers to subscribe for ``vp``."""
        raise NotImplementedError

    def _on_seal(self, entry: PlatformEntry, vp) -> None:
        """Seal hook, after the fold finalized; ``vp`` is None once gone."""

    def _run_return(self, entry: PlatformEntry) -> None:
        vp = entry.vp
        if vp is not None and (vp.all_halted or getattr(
                getattr(vp, "simctl", None), "shutdown_requested", False)):
            self._seal(entry)
        entry.refresh()

    def _seal(self, entry: PlatformEntry) -> None:
        if entry.sealed:
            return
        entry.sealed = True
        vp = entry.vp
        entry.refresh()
        if entry.fold is not None:
            entry.fold.finalize()
        self._on_seal(entry, vp)
        _cancel(entry.subscriptions)
        shared, entry.shared, entry._vp = entry.shared, None, None
        if shared is not None:
            shared.users -= 1
            if not shared.users:
                _cancel(shared.subscriptions)
                if vp is not None and _FOLDS.get(vp) is shared:
                    del _FOLDS[vp]
        if vp is not None and getattr(vp, self.attr, None) is self:
            self._bind(vp, None)
