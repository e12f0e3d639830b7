"""Simplified FIBEX-style XML export of schedules.

A documented simplified subset, not a conformant FIBEX database: channels,
ECUs with their channel connections, static slots with owners, one frame
element per occupied (channel, slot, base-cycle) triple, and signal
instances with bit offsets and cycle repetitions.  Element order is
deterministic so identical inputs yield byte-identical files.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

from .assignment import ChannelAssignment
from .model import (
    ALLOWED_PERIOD_CYCLES,
    HYPERPERIOD_CYCLES,
    EcuKind,
    Instance,
    NetworkConfig,
)
from .scheduler import CHANNELS, Occupancy, Schedule, SlotColumn


def _ecu_channels(inst: Instance, asg: ChannelAssignment, ecu_id: int) -> str:
    if inst.kind_of(ecu_id) == EcuKind.ONE_PORT:
        return asg.channel_of.get(ecu_id, "")
    return "AB"


def export_fibex(inst: Instance, asg: ChannelAssignment, sched: Schedule,
                 path: str | Path) -> None:
    root = ET.Element("flexray-schedule", {"format": "simplified-1"})
    ET.SubElement(root, "cluster", {
        "cycle-duration-ms": repr(inst.config.cycle_duration_ms),
        "slot-payload-bytes": str(inst.config.slot_payload_bytes),
        "hyperperiod-cycles": str(inst.config.hyperperiod_cycles),
    })
    ecus = ET.SubElement(root, "ecus")
    for e in inst.ecus:
        ET.SubElement(ecus, "ecu", {
            "id": str(e.id),
            "class": e.kind.value,
            "channels": _ecu_channels(inst, asg, e.id),
        })

    channels = ET.SubElement(root, "channels")
    for ch in CHANNELS:
        ch_el = ET.SubElement(channels, "channel", {
            "name": ch, "max-slot": str(sched.max_slot(ch)),
        })
        for slot in sorted(sched.columns[ch]):
            col = sched.columns[ch][slot]
            slot_el = ET.SubElement(ch_el, "slot", {
                "id": str(slot),
                "owner": str(col.owner),
                "gateway": "true" if col.is_gateway else "false",
            })
            for base in sorted(col.frames):
                frame_el = ET.SubElement(slot_el, "frame", {"base-cycle": str(base)})
                for occ in sorted(col.frames[base], key=lambda o: (o.offset, o.signal)):
                    ET.SubElement(frame_el, "signal-instance", {
                        "signal": str(occ.signal),
                        "bit-offset": str(occ.offset * 8),
                        "payload-bytes": str(occ.payload),
                        "repetition": str(occ.repetition),
                        "image": "true" if occ.is_image else "false",
                    })

    ET.indent(root)
    text = ET.tostring(root, encoding="unicode", xml_declaration=True)
    Path(path).write_text(text + "\n")


def read_fibex(path: str | Path) -> tuple[Schedule, dict[int, str]]:
    """Parse an exported file back into a Schedule plus the one-port
    ECU-to-channel map embedded in the ecu elements."""
    try:
        root = ET.parse(path).getroot()
        return _read_parsed(root)
    except (ET.ParseError, AttributeError, TypeError, KeyError) as exc:
        raise ValueError(f"{path} is not a schedule file: {exc}") from exc


def _read_parsed(root: ET.Element) -> tuple[Schedule, dict[int, str]]:
    cluster = root.find("cluster")
    config = NetworkConfig(
        cycle_duration_ms=float(cluster.get("cycle-duration-ms")),
        slot_payload_bytes=int(cluster.get("slot-payload-bytes")),
        hyperperiod_cycles=int(cluster.get("hyperperiod-cycles")),
    )
    channel_of: dict[int, str] = {}
    for ecu_el in root.find("ecus"):
        # An empty value is an ECU without a channel, which validate reports.
        ch = ecu_el.get("channels")
        if ecu_el.get("class") == EcuKind.ONE_PORT.value and ch:
            if ch not in CHANNELS:
                raise ValueError(f"ecu {ecu_el.get('id')}: channels {ch!r} is not A or B")
            channel_of[int(ecu_el.get("id"))] = ch

    sched = Schedule(config=config)
    for ch_el in root.find("channels"):
        ch = ch_el.get("name")
        if ch not in CHANNELS:
            raise ValueError(f"channel element: name {ch!r} is not A or B")
        for slot_el in ch_el:
            slot = int(slot_el.get("id"))
            if slot in sched.columns[ch]:
                raise ValueError(f"channel {ch}: slot id {slot} appears twice")
            col = SlotColumn(owner=int(slot_el.get("owner")),
                             is_gateway=slot_el.get("gateway") == "true",
                             slot_payload_bytes=config.slot_payload_bytes)
            sched.add_column(ch, slot, col)
            for frame_el in slot_el:
                base = int(frame_el.get("base-cycle"))
                if not 1 <= base <= HYPERPERIOD_CYCLES:
                    raise ValueError(f"frame in slot {slot} on channel {ch}: base-cycle "
                                     f"{base} is outside 1..{HYPERPERIOD_CYCLES}")
                for inst_el in frame_el:
                    bit_offset = int(inst_el.get("bit-offset"))
                    if bit_offset % 8:
                        raise ValueError(
                            f"signal {inst_el.get('signal')} in slot {slot} on channel "
                            f"{ch}: bit-offset {bit_offset} is not a whole byte")
                    rep = int(inst_el.get("repetition"))
                    if rep not in ALLOWED_PERIOD_CYCLES:
                        raise ValueError(
                            f"signal {inst_el.get('signal')} in slot {slot} on channel "
                            f"{ch}: repetition {rep} is not a power of two in "
                            f"1..{HYPERPERIOD_CYCLES}")
                    col.add(base, Occupancy(
                        signal=int(inst_el.get("signal")),
                        offset=bit_offset // 8,
                        payload=int(inst_el.get("payload-bytes")),
                        is_image=inst_el.get("image") == "true",
                        repetition=rep,
                    ))
    return sched, channel_of
