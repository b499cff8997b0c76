"""Host-speed gauge: reports measured times at one fixed host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third or more over minutes, with no steal time reported and process CPU
time drifting with wall time, so neither CPU time nor one calibration at
start-up can take the drift out.  A fixed piece of pure-Python work that
the simulator never runs, timed *while* a unit runs, does: it slows and
speeds up with the host much as the simulator does (``README.md`` gives
the spreads measured with and without it).

During an untraced unit a one-shot ``SIGALRM`` timer interrupts the
simulator every :data:`INTERVAL_S` seconds of its own run time (and more
often while the imports are timed); the handler times one
:meth:`HostGauge.measure` pass and re-arms the timer.  Time spent in the
handler is left out of every duration :meth:`HostGauge.clock` measures.
A unit's times are then multiplied by :meth:`HostGauge.factor`,
``REFERENCE_S / mean(pass times)``, each op's and each set-up span's by
the factor of the passes taken during it (:meth:`HostGauge.factor_during`),
each factor raised to a sensitivity, how closely those times follow the
gauge's: seconds as the reference machine takes them when quiet.  A change to the
simulator moves the unit's times and not the gauge's, so it moves the
reported numbers by the same share.

The work mixes what the simulator's host time is made of — method calls
and attribute access (``ast.unparse`` of a stdlib class), small-object
arithmetic (``ipaddress``), a ``heapq`` event queue of slotted objects and
dict/list loops (``difflib``) — and runs with the garbage collector off, so
the size of the simulator's heap does not change its time.
"""

from __future__ import annotations

import ast
import contextlib
import difflib
import gc
import heapq
import inspect
import ipaddress
import random
import signal
import statistics
import time
from typing import List, Tuple

#: one pass: (clock time it started at, its seconds)
Sample = Tuple[float, float]

#: mean seconds of one measure() pass on the reference machine (2 vCPUs
#: of an Intel Xeon VM, CPython 3.11.7) when the host was quiet
REFERENCE_S = 0.0038
#: simulator run time between two passes during a unit
INTERVAL_S = 0.1
#: fewest passes a factor is taken from
MIN_SAMPLES = 5


class _Event:
    __slots__ = ("time", "seq")

    def __init__(self, time_ps: int, seq: int):
        self.time = time_ps
        self.seq = seq

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class HostGauge:
    """Times a fixed pure-Python pass, alone or interleaved with a unit."""

    def __init__(self):
        self._tree = ast.parse(inspect.getsource(difflib.Differ))
        rng = random.Random(1)
        self._left = [rng.choice("abcdefgh") for _ in range(1000)]
        self._right = [("z" if index % 7 == 0 else item) for index, item in enumerate(self._left)]
        self._network = ipaddress.ip_network("10.0.0.0/24")
        #: passes taken since the last take_samples()
        self.samples: List[Sample] = []
        #: total real time spent in the SIGALRM handler
        self.paused_s = 0.0
        self._interval = INTERVAL_S
        # The first pass in a process pays one-off costs; it is not a sample.
        self.measure()

    def _work(self) -> int:
        text = ast.unparse(self._tree)
        opcodes = difflib.SequenceMatcher(None, self._left, self._right).get_opcodes()
        private = sum(host.is_private for subnet in self._network.subnets(new_prefix=28)
                      for host in subnet.hosts())
        queue = [_Event(index * 7 % 13, index) for index in range(32)]
        heapq.heapify(queue)
        for _ in range(1000):
            event = heapq.heappop(queue)
            event.time += event.seq % 5 + 1
            heapq.heappush(queue, event)
        return len(text) + len(opcodes) + private + queue[0].time

    def measure(self) -> float:
        """Seconds of one pass, with the garbage collector held off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._work()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def clock(self) -> float:
        """``time.perf_counter()`` without the time spent sampling."""
        return time.perf_counter() - self.paused_s

    def _pass(self) -> Sample:
        return self.clock(), self.measure()

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(self._pass())
        signal.setitimer(signal.ITIMER_REAL, self._interval)
        self.paused_s += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self, interval: float = INTERVAL_S):
        """Take a pass every ``interval`` seconds of the enclosed code's run time."""
        self._interval = interval
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def take_samples(self) -> List[Sample]:
        """The passes since the last call, topped up to MIN_SAMPLES.

        Code shorter than a few sampling intervals (a smoke-size unit) takes
        its missing passes right after it ends.
        """
        samples, self.samples = self.samples, []
        samples += [self._pass() for _ in range(MIN_SAMPLES - len(samples))]
        return samples

    @staticmethod
    def factor(samples: List[Sample]) -> float:
        """Reference seconds per measured second, from some passes.

        The mean, not the median: a run time sums the host's slow and fast
        stretches alike, and so does the passes' mean.
        """
        return REFERENCE_S / statistics.fmean(seconds for _start, seconds in samples)

    @classmethod
    def factor_during(cls, samples: List[Sample], start: float, end: float) -> float:
        """The factor for code that ran from ``start`` to ``end`` (clock).

        From the passes taken meanwhile, or, for code too short to hold
        MIN_SAMPLES of them, from the MIN_SAMPLES passes nearest to it.
        """
        def distance(sample: Sample) -> float:
            return max(start - sample[0], sample[0] - end, 0.0)

        during = [sample for sample in samples if distance(sample) == 0.0]
        if len(during) < MIN_SAMPLES:
            during = sorted(samples, key=distance)[:MIN_SAMPLES]
        return cls.factor(during)
