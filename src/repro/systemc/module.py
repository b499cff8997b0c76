"""Hierarchical modules (``sc_module``).

Modules form a named hierarchy.  Each module can declare SC_THREAD-like
processes, create events, and own submodules.  Unlike SystemC there is no
separate elaboration phase enforced by the language; the convention in this
library is that the constructor builds the hierarchy and ``Kernel.run`` starts
it.  Modules may override :meth:`end_of_elaboration` and
:meth:`start_of_simulation`; :class:`Simulation` invokes them before running.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Union

from .event import Event
from .kernel import Kernel
from .process import Process
from .time import SimTime


class Module:
    """Base class for all hierarchical simulation models.

    ``parent`` is the owning module, or — for a top-level module — the
    :class:`Kernel` that simulates it (``sc_simcontext``): there is no
    implicit kernel, so ``Memory("ram", size, parent=kernel)`` builds a
    top-level model.  A top-level module's :attr:`parent` is ``None``.
    """

    def __init__(self, name: str, parent: Union["Module", Kernel]):
        self.basename = name
        self.children: List["Module"] = []
        if isinstance(parent, Module):
            parent.children.append(self)
            self.parent: Optional[Module] = parent
            self.name = f"{parent.name}.{name}"
            self._kernel = parent._kernel
        elif isinstance(parent, Kernel):
            self.parent = None
            self.name = name
            self._kernel = parent
        else:
            raise TypeError(f"module {name!r}: parent must be a Module or a "
                            f"Kernel, got {type(parent).__name__}")

    # -- kernel access ------------------------------------------------------
    @property
    def kernel(self) -> Kernel:
        return self._kernel

    @property
    def now(self) -> SimTime:
        return self._kernel.now

    # -- process / event helpers ---------------------------------------------
    def sc_thread(self, body: Callable[[], Generator], name: Optional[str] = None) -> Process:
        pname = f"{self.name}.{name or getattr(body, '__name__', 'thread')}"
        return self._kernel.spawn(body, pname)

    def sc_method(self, callback: Callable[[], None], sensitive_to=(), name: Optional[str] = None):
        mname = f"{self.name}.{name or getattr(callback, '__name__', 'method')}"
        return self._kernel.create_method(callback, mname, sensitive_to)

    def sc_event(self, name: str = "event") -> Event:
        return Event(f"{self.name}.{name}", self._kernel)

    # -- elaboration hooks -----------------------------------------------------
    def end_of_elaboration(self) -> None:
        """Called once on every module before simulation starts."""

    def start_of_simulation(self) -> None:
        """Called once on every module right before the first delta cycle."""

    def iter_hierarchy(self):
        """Yield this module and all descendants depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_hierarchy()

    def find_child(self, path: str) -> Optional["Module"]:
        """Find a descendant by dotted basename path (e.g. ``"vp.uart"``)."""
        head, _, rest = path.partition(".")
        for child in self.children:
            if child.basename == head:
                return child if not rest else child.find_child(rest)
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Simulation:
    """Owns a kernel plus a module hierarchy and drives elaboration + run."""

    def __init__(self):
        self.kernel = Kernel()
        self.top_modules: List[Module] = []
        self._elaborated = False

    def register_top(self, module: Module) -> Module:
        self.top_modules.append(module)
        return module

    def elaborate(self) -> None:
        if self._elaborated:
            return
        for top in self.top_modules:
            for module in top.iter_hierarchy():
                module.end_of_elaboration()
        for top in self.top_modules:
            for module in top.iter_hierarchy():
                module.start_of_simulation()
        self._elaborated = True

    def run(self, duration: Optional[SimTime] = None) -> SimTime:
        self.elaborate()
        return self.kernel.run(duration)

    def stop(self) -> None:
        self.kernel.stop()
