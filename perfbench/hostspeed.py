"""Host-speed probe: a fixed pure-Python loop timed again and again during a run.

The benchmark runs on a host whose cores it shares with other tenants. Their
speed changes in phases of seconds to minutes: the same `realcase` `run()`
took 5.8 s in one phase and 9.5 s in the next, with CPU time equal to wall
time, so the process was not waiting but running slower. No aggregation
within a run removes a phase that outlasts the run.

So a SIGALRM handler runs a fixed probe every PERIOD_S seconds of the run
and records how long it took. The probe has two halves, because the phases
do not slow all code alike: a compute half that stays in cache, and a half
that chases pointers through a ring of objects and a dict that the run
evicts from cache between samples. Over 37 passes of the same 14 `sae500`
instances, the pass total varied with a coefficient of 0.099 in wall time,
0.064 scaled by the compute half alone, 0.055 by the memory half alone and
0.043 by both. A timed interval is then reported in seconds at
reference speed: its wall time, less the probe time inside it, times
REF_PROBE_S over the median probe time in a window of samples around it.
The probe is benchmark code and the same for every version of the program,
so a faster program still reads faster; only the host's pace is divided out.
"""
from __future__ import annotations

import signal
from bisect import bisect_left
from random import Random
from statistics import median
from time import perf_counter

PERIOD_S = 0.25
# Median probe time of the host the reference figures come from; a figure
# in seconds at reference speed reads as wall seconds there.
REF_PROBE_S = 0.0055
# An interval is scaled by the median of at least this many samples: the
# ones taken inside it, widened evenly on both sides (about 6 s).
WINDOW = 25
# Objects in the ring and keys in the dict of the memory half: a few MiB,
# more than a core's private caches hold; they count in peak_rss_mb.
RING_SIZE = 20_000


class _Item:
    __slots__ = ("key", "kind")

    def __init__(self, key: int, kind: int) -> None:
        self.key = key
        self.kind = kind


class _Node:
    __slots__ = ("next", "value")


def make_ring(size: int = RING_SIZE) -> tuple[_Node, dict[int, int]]:
    """Objects linked in a fixed shuffled order, and a dict of as many keys."""
    nodes = [_Node() for _ in range(size)]
    order = list(range(size))
    Random(0).shuffle(order)
    for i, k in enumerate(order):
        nodes[k].next = nodes[order[(i + 1) % size]]
        nodes[k].value = i
    return nodes[0], {i * 7919: i for i in range(size)}


def probe(head: _Node, table: dict[int, int]) -> int:
    """Compute half: a fixed mix of what flexseg's hot paths do, dict
    updates, small objects, attribute reads, integer arithmetic and a keyed
    sort. Memory half: a walk along the ring with a dict lookup per step."""
    counts: dict[int, int] = {}
    items = []
    acc = 0
    for i in range(4000):
        key = i & 31
        counts[key] = counts.get(key, 0) + i
        item = _Item(i, key)
        items.append(item)
        acc += item.key * item.kind % 7
    items.sort(key=lambda item: item.kind)
    size = len(table)
    node = head
    for _ in range(3000):
        node = node.next
        acc += node.value + (table.get(acc % size * 7919, 0) & 3)
    return acc + len(counts)


class SpeedProbe:
    """Samples `probe()` times while running; converts intervals after."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._saved = None
        self._ring = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        probe(*self._ring)
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def start(self) -> None:
        self._ring = make_ring()
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._saved is not None:
            signal.signal(signal.SIGALRM, self._saved)
            self._saved = None

    def seconds(self, t0: float, t1: float) -> float:
        """Seconds at reference speed of the interval [t0, t1]; its plain
        wall time when no samples were taken."""
        if not self.durations:
            return t1 - t0
        lo = bisect_left(self.starts, t0)
        hi = bisect_left(self.starts, t1)
        busy = (t1 - t0) - sum(self.durations[lo:hi])
        n = len(self.durations)
        need = max(WINDOW - (hi - lo), 0)
        a = max(lo - need // 2, 0)
        b = min(a + (hi - lo) + need, n)
        a = max(b - max(WINDOW, hi - lo), 0)
        return busy * REF_PROBE_S / median(self.durations[a:b])
