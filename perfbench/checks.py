"""Result checks made outside the program.

Everything here is recomputed from the instance's signals and the result's
channel map, never through flexseg's hypergraph or assignment code: the
channel payloads, the criterion minima (by enumerating every channel map
with a subset-sum transform) and a per-channel slot lower bound.  The
FIBEX and validator calls are the program's own, used as the public API
a user would call.
"""
from __future__ import annotations

import dataclasses
import math
from array import array
from contextlib import nullcontext
from operator import add
from pathlib import Path

from flexseg.fibex import export_fibex, read_fibex
from flexseg.validator import validate

HYPERPERIOD = 64
# ECU classes as their JSON names; flexseg's EcuKind is a str enum, so its
# members compare equal to these.
ONE_PORT = "ONE_PORT"
GATEWAY = "GATEWAY"

# Relative slack when comparing a logged criterion with a recomputed one;
# both are the same float expression over the same integers, so they
# normally agree exactly.
_REL_TOL = 1e-12


class AssignmentReference:
    """The assignment objective rebuilt from the signals of one instance.

    A non-fault-tolerant signal loads channel A when one of its one-port
    endpoints is on A, channel B likewise, and the gateway when it loads
    both.  Fault-tolerant payload rides on both channels.  Criterion:
    max(beta * P_A, P_B) + alpha * P_G with alpha = 1 / total payload.
    """

    def __init__(self, inst):
        kinds = {e.id: e.kind for e in inst.ecus}
        self.free = sorted(u for u, k in kinds.items() if k == ONE_PORT)
        total = sum(s.payload_bytes for s in inst.signals)
        self.alpha = 1.0 / total if total > 0 else 0.0
        self.ft = sum(s.payload_bytes for s in inst.signals if s.fault_tolerant)

        incident = dict.fromkeys(self.free, 0)
        self.edges: list[tuple[frozenset[int], int]] = []
        for s in inst.signals:
            if s.fault_tolerant:
                continue
            ends = frozenset(u for u in (s.transmitter, *s.receivers)
                             if kinds[u] == ONE_PORT)
            if ends:
                self.edges.append((ends, s.payload_bytes))
                for u in ends:
                    incident[u] += s.payload_bytes
        self.weight = sum(w for _, w in self.edges)
        # The ECU solve_exact fixes to channel A: largest incident payload,
        # ties to the lowest id.
        self.pin = min(self.free, key=lambda u: (-incident[u], u)) if self.free else None
        self._table: tuple[array, array] | None = None
        self._minima: dict[float, tuple[float, float]] = {}

    def payloads(self, channel_of: dict[int, str]) -> tuple[int, int, int]:
        p_a = p_b = p_g = 0
        for ends, w in self.edges:
            on_a = any(channel_of[u] == "A" for u in ends)
            on_b = any(channel_of[u] == "B" for u in ends)
            p_a += w if on_a else 0
            p_b += w if on_b else 0
            p_g += w if on_a and on_b else 0
        return p_a + self.ft, p_b + self.ft, p_g

    def _subset_sums(self) -> tuple[array, array]:
        """Z[S] = weight of the edges whose endpoints all lie in S, for every
        bit set S of one-port ECUs; the pinned ECU is the top bit."""
        if self._table is None:
            order = [u for u in self.free if u != self.pin] + (
                [self.pin] if self.pin is not None else [])
            bit = {u: 1 << i for i, u in enumerate(order)}
            n = len(order)
            size = 1 << n
            z = array("q", bytes(8 * size))
            for ends, w in self.edges:
                z[sum(bit[u] for u in ends)] += w
            for i in range(n):
                step = 1 << i
                if step < size // (2 * step):
                    for r in range(step):
                        z[step + r::2 * step] = array(
                            "q", map(add, z[step + r::2 * step], z[r::2 * step]))
                else:
                    for lo in range(0, size, 2 * step):
                        hi = lo + step
                        z[hi:hi + step] = array("q", map(add, z[hi:hi + step], z[lo:hi]))
            rev = array("q", reversed(z))
            self._table = (z, rev)
        return self._table

    def minima(self, beta: float) -> tuple[float, float]:
        """(minimum with the pinned ECU on A, unrestricted minimum) at beta.

        With S the set of ECUs on A, P_A = ft + W - Z[~S], P_B = ft + W - Z[S]
        and P_G = W - Z[S] - Z[~S].
        """
        cached = self._minima.get(beta)
        if cached is not None:
            return cached
        z, rev = self._subset_sums()
        c, w, alpha = self.ft + self.weight, self.weight, self.alpha

        def crit(zs: int, zc: int) -> float:
            return max(beta * (c - zc), c - zs) + alpha * (w - zs - zc)

        half = len(z) // 2
        if half == 0:
            pinned = unrestricted = crit(0, 0)
        else:
            pinned = min(map(crit, z[half:], rev[half:]))
            unrestricted = min(pinned, min(map(crit, z[:half], rev[:half])))
        self._minima[beta] = (pinned, unrestricted)
        return pinned, unrestricted


def slot_lower_bounds(inst, channel_of: dict[int, str]) -> dict[str, int]:
    """Per channel, the slots each owner needs at least.

    Every slot has one owner, so an owner with V byte-cycles on a channel
    needs ceil(V / (64 * slot payload)) slots there.  Signals whose channel
    the scheduler picks by load (common transmitter, no one-port endpoint)
    are left out, which keeps the bound valid.
    """
    kinds = {e.id: e.kind for e in inst.ecus}
    gw = next(u for u, k in kinds.items() if k == GATEWAY)
    cap = HYPERPERIOD * inst.config.slot_payload_bytes
    load: dict[str, dict[int, int]] = {"A": {}, "B": {}}

    def put(ch: str, owner: int, volume: int) -> None:
        load[ch][owner] = load[ch].get(owner, 0) + volume

    for s in inst.signals:
        volume = s.payload_bytes * (HYPERPERIOD // s.period_cycles)
        if s.fault_tolerant:
            put("A", s.transmitter, volume)
            put("B", s.transmitter, volume)
            continue
        needed = {channel_of[u] for u in (s.transmitter, *s.receivers)
                  if kinds[u] == ONE_PORT}
        if kinds[s.transmitter] == ONE_PORT:
            home = channel_of[s.transmitter]
            put(home, s.transmitter, volume)
            if len(needed) == 2:
                put("B" if home == "A" else "A", gw, volume)
        else:
            for ch in needed:
                put(ch, s.transmitter, volume)
    return {ch: sum(-(-v // cap) for v in owners.values()) for ch, owners in load.items()}


def _differs(a: float, b: float) -> bool:
    return not math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=1e-9)


def check_result(inst, result, ref: AssignmentReference, exact: bool,
                 readback, fibex_path: Path, violations_readback: list) -> list[str]:
    """Return the failed checks of one driver result; empty when it passes.

    `readback` is (schedule, channel map) from read_fibex on `fibex_path`,
    the file exported from `result`; `violations_readback` is what validate
    returned on it.
    """
    problems: list[str] = []
    asg, sched = result.assignment, result.schedule

    for label, violations in (("validate", validate(inst, asg, sched)),
                              ("validate read-back", violations_readback)):
        if violations:
            codes = ",".join(sorted({v.code for v in violations}))
            problems.append(f"{label}: {len(violations)} violation(s), codes {codes}; "
                            f"first: {violations[0].message}")

    sched2, channel_of2 = readback
    if channel_of2 != asg.channel_of:
        problems.append("FIBEX read-back channel map differs from the result's")
    again = fibex_path.with_suffix(".again.xml")
    export_fibex(inst, dataclasses.replace(asg, channel_of=channel_of2), sched2, again)
    if again.read_bytes() != fibex_path.read_bytes():
        problems.append("FIBEX export -> read -> export is not byte-identical")

    payloads = ref.payloads(asg.channel_of)
    if payloads != (asg.payload_a, asg.payload_b, asg.payload_gw):
        problems.append(f"P_A/P_B/P_G {asg.payload_a}/{asg.payload_b}/{asg.payload_gw}"
                        f" != recomputed {payloads[0]}/{payloads[1]}/{payloads[2]}")

    for ch, bound in slot_lower_bounds(inst, asg.channel_of).items():
        if sched.max_slot(ch) < bound:
            problems.append(f"channel {ch}: max slot {sched.max_slot(ch)} below "
                            f"lower bound {bound}")

    for rec in result.log:
        pinned, unrestricted = ref.minima(rec.beta)
        if rec.criterion < unrestricted and _differs(rec.criterion, unrestricted):
            problems.append(f"iteration {rec.iteration}: criterion {rec.criterion!r} "
                            f"below the optimum {unrestricted!r}")
        if not exact:
            continue
        if _differs(rec.criterion, pinned):
            problems.append(f"iteration {rec.iteration}: criterion {rec.criterion!r} != "
                            f"minimum {pinned!r} with ECU {ref.pin} on A")
        elif rec.criterion > unrestricted and _differs(rec.criterion, unrestricted):
            problems.append(f"iteration {rec.iteration} (beta {rec.beta:.4f}): exact "
                            f"criterion {rec.criterion:.2f} exceeds the unrestricted "
                            f"minimum {unrestricted:.2f} (ECU {ref.pin} pinned to A)")
    return problems


def no_span(name: str):
    return nullcontext()


def round_trip(inst, result, path: Path, span=no_span):
    """export_fibex, read_fibex, validate: the path a `solve --fibex` plus
    `validate` user waits on.  Returns (read-back, violations)."""
    with span("fibex.export"):
        export_fibex(inst, result.assignment, result.schedule, path)
    with span("fibex.read"):
        readback = read_fibex(path)
    asg = dataclasses.replace(result.assignment, channel_of=readback[1])
    with span("validator.validate"):
        violations = validate(inst, asg, readback[0])
    return readback, violations
