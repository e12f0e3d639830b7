"""Independent schedule feasibility checker.

Expands every stored signal instance (base cycle plus repetition) to its
cycles itself and checks the resulting slot/cycle grids, so it shares no
placement logic with the scheduler.  Violations are returned as data
(machine-readable codes V1..V9), never raised.
"""
from __future__ import annotations

from dataclasses import dataclass

from .assignment import CH_A, CH_B, ChannelAssignment
from .model import EcuKind, Instance
from .scheduler import CHANNELS, Schedule

_EPS_MS = 1e-9


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def to_json_dict(self) -> dict:
        return {"code": self.code, "message": self.message}


def _other(ch: str) -> str:
    return CH_B if ch == CH_A else CH_A


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

    # Expand every stored signal instance to its cycles:
    # (signal, channel, slot, is_image) -> {cycle: offset}
    groups: dict[tuple[int, str, int, bool], dict[int, int]] = {}
    ecu_ids = {e.id for e in inst.ecus}
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
            # cycle -> (first byte, end byte, signal) of each occurrence
            cells: dict[int, list[tuple[int, int, int]]] = {}
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
                    if occ.repetition != sig.period_cycles:
                        out.append(Violation(
                            "V4", f"signal {sig.id} at ({ch},{slot},{base}): repetition "
                                  f"{occ.repetition} != period {sig.period_cycles}"))
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
                    span = (occ.offset, occ.offset + sig.payload_bytes, sig.id)
                    if span[0] < 0 or span[1] > h:
                        out.append(Violation(
                            "V2", f"signal {sig.id} outside frame bounds in "
                                  f"({ch},{slot},{base})"))
                    cyc_map = groups.setdefault((occ.signal, ch, slot, occ.is_image), {})
                    for cycle in range(base, 64 + 1, occ.repetition):
                        cells.setdefault(cycle, []).append(span)
                        if cycle in cyc_map:
                            out.append(Violation(
                                "V2", f"signal {sig.id} twice in frame "
                                      f"({ch},{slot},{cycle})"))
                        cyc_map[cycle] = occ.offset
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

    # Periodicity, offsets and windows per occurrence group.
    base_of: dict[tuple[int, str, int, bool], tuple[int, int]] = {}
    for (sig_id, ch, slot, is_image), cyc_map in groups.items():
        sig = signals.get(sig_id)
        if sig is None:
            continue
        offsets = set(cyc_map.values())
        if len(offsets) > 1:
            out.append(Violation(
                "V4", f"signal {sig_id} on ({ch},{slot}): occurrences at differing offsets"))
        base = min(cyc_map)
        expected = list(range(base, 64 + 1, sig.period_cycles))
        if base > sig.period_cycles or sorted(cyc_map) != expected:
            out.append(Violation(
                "V4", f"signal {sig_id} on ({ch},{slot}): cycles {sorted(cyc_map)} are not "
                      f"every {sig.period_cycles} cycles from a base in 1..{sig.period_cycles}"))
        if not ((base - 1) * m >= sig.release_ms - _EPS_MS
                and base * m <= sig.deadline_ms + _EPS_MS):
            out.append(Violation(
                "V5", f"signal {sig_id} base cycle {base} violates window "
                      f"[{sig.release_ms}, {sig.deadline_ms}] ms"))
        base_of[(sig_id, ch, slot, is_image)] = (base, min(offsets) if offsets else 0)

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

        tx_kind = inst.kind_of(sig.transmitter)
        if sig_images and (tx_kind != EcuKind.ONE_PORT or len(placed) != 1):
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
            r_kind = inst.kind_of(r)
            if r_kind == EcuKind.ONE_PORT:
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
        if inst.kind_of(sig.transmitter) == EcuKind.ONE_PORT:
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
            if col.owner in inst.one_port_ids:
                assigned = asg.channel_of.get(col.owner)
                if assigned is not None and assigned != ch:
                    out.append(Violation(
                        "V9", f"one-port ECU {col.owner} owns slot {slot} on channel "
                              f"{ch}, assigned to {assigned}"))
    return out
