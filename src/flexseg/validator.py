"""Independent schedule feasibility checker.

Derives every stored signal instance's cycles (base cycle plus
repetition) itself and lays its bytes on a grid of 64 x h bits per slot,
so it shares no placement logic with the scheduler.  A grid that finds a
clash is expanded cycle by cycle to word the violation.  Violations are
returned as data (machine-readable codes V1..V9), never raised.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .assignment import CH_A, CH_B, ChannelAssignment
from .model import HYPERPERIOD_CYCLES, EcuKind, Instance, Signal
from .scheduler import CHANNELS, Occupancy, Schedule

_EPS_MS = 1e-9
# every cycle of the hyperperiod, bit (cycle - 1)
_ALL_CYCLES = (1 << HYPERPERIOD_CYCLES) - 1


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def to_json_dict(self) -> dict:
        return {"code": self.code, "message": self.message}


def _other(ch: str) -> str:
    return CH_B if ch == CH_A else CH_A


@lru_cache(maxsize=None)
def _every(step: int, width: int = 1) -> int:
    """Bit k * width for each cycle k + 1 of 1, 1 + step, 1 + 2 * step, ...
    in the hyperperiod: a set of cycles (width 1), or the first bit of
    their rows in a slot grid of `width`-bit rows."""
    return sum(1 << k * width for k in range(0, HYPERPERIOD_CYCLES, step))


def _last_offsets(parts: list[tuple[int, int]]) -> set[int]:
    """The offsets of the (offset, cycles) instances of one group that are
    the last to reach some cycle: the offsets its frames hold."""
    offsets = set()
    covered = 0
    for offset, cycles in reversed(parts):
        if cycles & ~covered:
            offsets.add(offset)
            covered |= cycles
    return offsets


def _cycle_list(cycles: int) -> list[int]:
    return [k + 1 for k in range(HYPERPERIOD_CYCLES) if cycles >> k & 1]


def _frame_clashes(ch: str, slot: int, frames: dict[int, list[Occupancy]],
                   signals: dict[int, Signal], h: int) -> list[Violation]:
    """The payload and overlap violations of one slot's frames, found by
    expanding every instance to its cycles and summing and sorting the
    byte spans of each cycle, in the order the cycles are first reached."""
    out: list[Violation] = []
    cells: dict[int, list[tuple[int, int, int]]] = {}
    for base, entries in frames.items():
        for occ in entries:
            sig = signals.get(occ.signal)
            if sig is None or not 1 <= base <= HYPERPERIOD_CYCLES or occ.repetition < 1:
                continue
            span = (occ.offset, occ.offset + sig.payload_bytes, sig.id)
            for cycle in range(base, HYPERPERIOD_CYCLES + 1, occ.repetition):
                cells.setdefault(cycle, []).append(span)
    for cycle, spans in cells.items():
        total = sum(hi - lo for lo, hi, _ in spans)
        if total > h:
            out.append(Violation(
                "V2", f"frame ({ch},{slot},{cycle}) payload {total} exceeds {h}"))
        spans.sort()
        for (a_lo, a_hi, a_id), (b_lo, b_hi, b_id) in zip(spans, spans[1:]):
            if b_lo < a_hi:
                out.append(Violation(
                    "V2", f"signals {a_id} and {b_id} overlap in frame "
                          f"({ch},{slot},{cycle})"))
    return out


def validate(inst: Instance, asg: ChannelAssignment, sched: Schedule) -> list[Violation]:
    """Check a schedule against every feasibility rule; empty list = feasible.

    V1 placement multiplicity, V2 frame packing, V3 slot ownership and
    slot ids below 1 (FlexRay static slots count from 1), V4 periodicity,
    V5 time windows, V6 fault-tolerant alignment, V7 receiver
    reachability, V8 image precedence, V9 channel discipline.
    """
    out: list[Violation] = []
    signals = {s.id: s for s in inst.signals}
    h = inst.config.slot_payload_bytes
    m = inst.config.cycle_duration_ms

    # Each stored signal instance's cycles as a set, bit (cycle - 1), in
    # its occurrence group: (signal, channel, slot, is_image) ->
    # [union of the cycles so far, [(offset, cycles) of each instance]]
    groups: dict[tuple[int, str, int, bool], list] = {}
    ecu_ids = {e.id for e in inst.ecus}
    grid_mask = (1 << HYPERPERIOD_CYCLES * h) - 1
    for ch in CHANNELS:
        for slot, col in sched.columns[ch].items():
            if slot < 1:
                out.append(Violation("V3", f"({ch},{slot}): slot id below 1"))
            owner_kind = None
            if col.owner not in ecu_ids:
                out.append(Violation("V3", f"({ch},{slot}): owner {col.owner} is not an ECU"))
            else:
                owner_kind = inst.kind_of(col.owner)
                if col.is_gateway != (owner_kind == EcuKind.GATEWAY):
                    out.append(Violation(
                        "V3", f"({ch},{slot}): gateway flag does not match owner class"))
            # the slot's bytes in every cycle, bit (cycle - 1) * h + byte
            grid = 0
            clash = False
            for base, entries in col.frames.items():
                for occ in entries:
                    sig = signals.get(occ.signal)
                    if sig is None:
                        out.append(Violation(
                            "V1", f"({ch},{slot},{base}): unknown signal {occ.signal}"))
                        continue
                    if occ.payload != sig.payload_bytes:
                        out.append(Violation(
                            "V2", f"signal {sig.id} at ({ch},{slot},{base}): stored "
                                  f"payload {occ.payload} != {sig.payload_bytes}"))
                    rep = occ.repetition
                    if rep != sig.period_cycles:
                        out.append(Violation(
                            "V4", f"signal {sig.id} at ({ch},{slot},{base}): repetition "
                                  f"{rep} != period {sig.period_cycles}"))
                    if occ.is_image:
                        if not col.is_gateway:
                            out.append(Violation(
                                "V3", f"image of signal {sig.id} in non-gateway slot "
                                      f"({ch},{slot})"))
                    else:
                        if col.is_gateway:
                            out.append(Violation(
                                "V3", f"original signal {sig.id} in gateway slot ({ch},{slot})"))
                        elif owner_kind is not None and sig.transmitter != col.owner:
                            out.append(Violation(
                                "V3", f"signal {sig.id} in slot ({ch},{slot}) owned by "
                                      f"ECU {col.owner}, transmitter is {sig.transmitter}"))
                    lo, hi = occ.offset, occ.offset + sig.payload_bytes
                    if lo < 0 or hi > h:
                        out.append(Violation(
                            "V2", f"signal {sig.id} outside frame bounds in "
                                  f"({ch},{slot},{base})"))
                    if not 1 <= base <= HYPERPERIOD_CYCLES or rep < 1:
                        out.append(Violation(
                            "V4", f"signal {sig.id} at ({ch},{slot},{base}): base cycle "
                                  f"{base} or repetition {rep} is out of range"))
                        continue
                    if 0 <= lo < hi <= h:
                        bits = (_every(rep, h) * ((1 << hi) - (1 << lo))
                                << (base - 1) * h) & grid_mask
                        clash = clash or grid & bits != 0
                        grid |= bits
                    else:
                        clash = True
                    cycles = _every(rep) << base - 1 & _ALL_CYCLES
                    key = (occ.signal, ch, slot, occ.is_image)
                    group = groups.get(key)
                    if group is None:
                        groups[key] = [cycles, [(lo, cycles)]]
                        continue
                    twice = group[0] & cycles
                    while twice:
                        low = twice & -twice
                        out.append(Violation(
                            "V2", f"signal {sig.id} twice in frame "
                                  f"({ch},{slot},{low.bit_length()})"))
                        twice ^= low
                    group[0] |= cycles
                    group[1].append((lo, cycles))
            if clash:
                out.extend(_frame_clashes(ch, slot, col.frames, signals, h))

    # Periodicity, offsets and windows per occurrence group.
    base_of: dict[tuple[int, str, int, bool], tuple[int, int]] = {}
    for (sig_id, ch, slot, is_image), (union, parts) in groups.items():
        sig = signals[sig_id]
        offsets = {parts[0][0]} if len(parts) == 1 else _last_offsets(parts)
        if len(offsets) > 1:
            out.append(Violation(
                "V4", f"signal {sig_id} on ({ch},{slot}): occurrences at differing offsets"))
        base = (union & -union).bit_length()
        expected = _every(sig.period_cycles) << base - 1 & _ALL_CYCLES
        if base > sig.period_cycles or union != expected:
            out.append(Violation(
                "V4", f"signal {sig_id} on ({ch},{slot}): cycles {_cycle_list(union)} are "
                      f"not every {sig.period_cycles} cycles from a base in "
                      f"1..{sig.period_cycles}"))
        if not ((base - 1) * m >= sig.release_ms - _EPS_MS
                and base * m <= sig.deadline_ms + _EPS_MS):
            out.append(Violation(
                "V5", f"signal {sig_id} base cycle {base} violates window "
                      f"[{sig.release_ms}, {sig.deadline_ms}] ms"))
        base_of[(sig_id, ch, slot, is_image)] = (base, min(offsets))

    # Placement multiplicity per signal.
    originals: dict[int, dict[str, tuple[int, int, int]]] = {}
    images: dict[int, dict[str, tuple[int, int, int]]] = {}
    for (sig_id, ch, slot, is_image), (base, offset) in base_of.items():
        store = images if is_image else originals
        per_ch = store.setdefault(sig_id, {})
        if ch in per_ch:
            out.append(Violation(
                "V1", f"signal {sig_id}{' image' if is_image else ''} placed twice on "
                      f"channel {ch}"))
        else:
            per_ch[ch] = (slot, base, offset)

    gw_id = inst.gateway.id
    one_port = inst.one_port_ids
    for sig in inst.signals:
        placed = originals.get(sig.id, {})
        if not placed:
            out.append(Violation("V1", f"signal {sig.id} is not placed"))
            continue
        sig_images = images.get(sig.id, {})
        if sig.fault_tolerant:
            if sig_images:
                out.append(Violation("V1", f"fault-tolerant signal {sig.id} has an image"))
            if set(placed) != {CH_A, CH_B}:
                out.append(Violation(
                    "V6", f"fault-tolerant signal {sig.id} missing from a channel"))
            elif placed[CH_A] != placed[CH_B]:
                out.append(Violation(
                    "V6", f"fault-tolerant signal {sig.id} at {placed[CH_A]} on A but "
                          f"{placed[CH_B]} on B"))
            continue

        if sig_images and (sig.transmitter not in one_port or len(placed) != 1):
            out.append(Violation(
                "V1", f"signal {sig.id} has an image but needs none"))
        for ch, (slot, base, offset) in sig_images.items():
            if ch in placed:
                out.append(Violation(
                    "V1", f"signal {sig.id}: image and original both on channel {ch}"))
                continue
            orig = placed.get(_other(ch))
            if orig is None:
                out.append(Violation(
                    "V1", f"signal {sig.id}: image on {ch} without an original"))
                continue
            if base != orig[1]:
                out.append(Violation(
                    "V8", f"signal {sig.id}: image base cycle {base} != original {orig[1]}"))
            if not orig[0] < slot:
                out.append(Violation(
                    "V8", f"signal {sig.id}: image slot {slot} not after original slot "
                          f"{orig[0]}"))

        # Receiver reachability.
        audible = set(placed) | set(sig_images)
        for r in sorted(sig.receivers):
            if r in one_port:
                r_ch = asg.channel_of.get(r)
                if r_ch is None:
                    out.append(Violation("V9", f"one-port ECU {r} has no channel assigned"))
                elif r_ch not in audible:
                    out.append(Violation(
                        "V7", f"signal {sig.id}: receiver {r} on channel {r_ch} cannot "
                              f"hear it"))
            # common and gateway receivers hear both channels

    # Channel discipline of one-port transmitters and slot owners.
    for (sig_id, ch, _slot, is_image) in base_of:
        sig = signals.get(sig_id)
        if sig is None or is_image:
            continue
        if sig.transmitter in one_port:
            assigned = asg.channel_of.get(sig.transmitter)
            if assigned is None:
                out.append(Violation(
                    "V9", f"one-port ECU {sig.transmitter} has no channel assigned"))
            elif ch != assigned:
                out.append(Violation(
                    "V9", f"signal {sig_id} transmitted by ECU {sig.transmitter} on "
                          f"channel {ch}, assigned to {assigned}"))
    for ch in CHANNELS:
        for slot, col in sched.columns[ch].items():
            if col.owner == gw_id:
                continue
            if col.owner in one_port:
                assigned = asg.channel_of.get(col.owner)
                if assigned is not None and assigned != ch:
                    out.append(Violation(
                        "V9", f"one-port ECU {col.owner} owns slot {slot} on channel "
                              f"{ch}, assigned to {assigned}"))
    return out
