"""Spans around the calls into each flexseg layer, recorded from outside.

The tracer rebinds the module attributes that the driver and scheduler
look up at call time, so no program file changes.  Spans (name, start,
end, parent) stay in memory; `layer_metrics` turns them into per-layer
totals once a pass has ended.
"""
from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import flexseg.assignment as assignment
import flexseg.driver as driver
import flexseg.scheduler as scheduler

# (module, attribute, span name): the calls driver.run makes, by layer.
TRACED_CALLS = (
    (driver, "build_hypergraph", "hypergraph.build"),
    (driver, "schedule_channels", "scheduler.schedule"),
    (assignment, "solve_exact", "assignment.exact"),
    (assignment, "solve_cah", "assignment.cah"),
    (scheduler, "place_to_schedule", "scheduler.place"),
    (scheduler, "reorder_slots", "scheduler.renumber"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0, 0, parent))
        self._open.append(idx)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        # The span is inlined rather than taken from span(): a generator
        # context manager costs a few microseconds, which adds up over the
        # tens of thousands of placements in a pass.
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0, 0, -1))
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter_ns(), parent)
                open_spans.pop()
        return traced

    def _wrap_build(self, fn):
        traced = self._wrap("hypergraph.build", fn)

        @functools.wraps(fn)
        def build(inst):
            hg = traced(inst)
            self.counts["hypergraph.edges"] += len(hg.edges)
            return hg
        return build

    def _wrap_place(self, fn):
        traced = self._wrap("scheduler.place", fn)
        counts = self.counts
        # Highest slot id per channel of the schedule being built, kept
        # here so that telling a fresh slot costs no scan of the columns.
        top: dict[str, int] = {}
        building = None

        @functools.wraps(fn)
        def place(sched, sig, target, owner, **kwargs):
            nonlocal building
            if sched is not building:
                building = sched
                top.update({ch: sched.max_slot(ch) for ch in scheduler.CHANNELS})
            channels = scheduler.CHANNELS if target == scheduler.BOTH else (target,)
            highest = max(top[ch] for ch in channels)
            placed = traced(sched, sig, target, owner, **kwargs)
            slot = placed[0].slot
            for ch in channels:
                top[ch] = max(top[ch], slot)
            counts["scheduler.placements"] += 1
            counts["scheduler.scan_depth"] += slot
            counts["scheduler.fresh_slots"] += slot > highest
            return placed
        return place

    @contextmanager
    def installed(self):
        """Rebind the traced module attributes for the duration."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TRACED_CALLS]
        try:
            special = {"hypergraph.build": self._wrap_build,
                       "scheduler.place": self._wrap_place}
            for mod, attr, name in TRACED_CALLS:
                fn = getattr(mod, attr)
                wrap = special.get(name)
                setattr(mod, attr, wrap(fn) if wrap else self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded so far."""
        total_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total_ns[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_ns[parent] += end - start
        run_self_ns = sum(end - start - child_ns[i]
                          for i, (name, start, end, _) in enumerate(self.spans)
                          if name == "driver.run")

        def ms(name: str) -> float:
            return total_ns[name] / 1e6

        return {
            "model.load_ms": ms("model.load"),
            "hypergraph.build_ms": ms("hypergraph.build"),
            "hypergraph.edges": self.counts["hypergraph.edges"],
            "assignment.solve_ms": ms("assignment.exact") + ms("assignment.cah"),
            "assignment.exact_calls": calls["assignment.exact"],
            "assignment.cah_calls": calls["assignment.cah"],
            "scheduler.schedule_ms": ms("scheduler.schedule"),
            "scheduler.place_ms": ms("scheduler.place"),
            "scheduler.placements": self.counts["scheduler.placements"],
            "scheduler.fresh_slots": self.counts["scheduler.fresh_slots"],
            "scheduler.scan_depth": self.counts["scheduler.scan_depth"],
            "scheduler.renumber_ms": ms("scheduler.renumber"),
            "driver.iterations": calls["scheduler.schedule"],
            "driver.self_ms": run_self_ns / 1e6,
            "fibex.export_ms": ms("fibex.export"),
            "fibex.read_ms": ms("fibex.read"),
            "fibex.bytes": self.counts["fibex.bytes"],
            "validator.validate_ms": ms("validator.validate"),
        }
