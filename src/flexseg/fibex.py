"""Simplified FIBEX-style XML export of schedules.

A documented simplified subset, not a conformant FIBEX database: channels,
ECUs with their channel connections, static slots with owners, one frame
element per occupied (channel, slot, base-cycle) triple, and signal
instances with bit offsets and cycle repetitions.  Element order is
deterministic so identical inputs yield byte-identical files.  The writer
emits the text directly, one line per element, in the layout of an
indented ElementTree document; the reader parses it with ElementTree.
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
    parse_int,
    validate_config,
)
from .scheduler import CHANNELS, Occupancy, Schedule, SlotColumn, by_offset


def _ecu_channels(inst: Instance, asg: ChannelAssignment, ecu_id: int) -> str:
    if inst.kind_of(ecu_id) == EcuKind.ONE_PORT:
        return asg.channel_of.get(ecu_id, "")
    return "AB"


def _element(out: list[str], depth: int, tag: str, attrs: str, body: list[str]) -> None:
    """Append the lines of a `tag` element with `attrs` (each preceded by a
    space) at `depth` two-space indents; self-closing when `body`, the lines
    of its children, is empty."""
    pad = "  " * depth
    if body:
        out.append(f"{pad}<{tag}{attrs}>")
        out.extend(body)
        out.append(f"{pad}</{tag}>")
    else:
        out.append(f"{pad}<{tag}{attrs} />")


def export_fibex(inst: Instance, asg: ChannelAssignment, sched: Schedule,
                 path: str | Path) -> None:
    # Every attribute value is an int, a fixed word or the repr of a finite
    # float, so none needs escaping.
    config = inst.config
    ecus = [f'    <ecu id="{e.id}" class="{e.kind.value}" '
            f'channels="{_ecu_channels(inst, asg, e.id)}" />' for e in inst.ecus]
    channels: list[str] = []
    for ch in CHANNELS:
        columns = sched.columns[ch]
        slots: list[str] = []
        for slot in sorted(columns):
            col = columns[slot]
            frames: list[str] = []
            for base in sorted(col.frames):
                _element(frames, 4, "frame", f' base-cycle="{base}"', [
                    f'          <signal-instance signal="{occ.signal}" '
                    f'bit-offset="{occ.offset * 8}" payload-bytes="{occ.payload}" '
                    f'repetition="{occ.repetition}" '
                    f'image="{"true" if occ.is_image else "false"}" />'
                    for occ in sorted(col.frames[base], key=by_offset)])
            _element(slots, 3, "slot", f' id="{slot}" owner="{col.owner}" '
                     f'gateway="{"true" if col.is_gateway else "false"}"', frames)
        _element(channels, 2, "channel", f' name="{ch}" max-slot="{sched.max_slot(ch)}"',
                 slots)
    body = [f'  <cluster cycle-duration-ms="{config.cycle_duration_ms!r}" '
            f'slot-payload-bytes="{config.slot_payload_bytes}" '
            f'hyperperiod-cycles="{HYPERPERIOD_CYCLES}" />']
    _element(body, 1, "ecus", "", ecus)
    _element(body, 1, "channels", "", channels)
    lines = ["<?xml version='1.0' encoding='utf-8'?>"]
    _element(lines, 0, "flexray-schedule", ' format="simplified-1"', body)
    lines.append("")
    Path(path).write_text("\n".join(lines))


def read_fibex(path: str | Path) -> tuple[Schedule, dict[int, str]]:
    """Parse an exported file back into a Schedule plus the one-port
    ECU-to-channel map embedded in the ecu elements.  An element out of
    the writer's layout (another tag, a missing or repeated part, a
    repeated channel, frame or ECU, a frame without signal instances) is
    a ValueError naming it."""
    return read_fibex_ecus(path)[:2]


def read_fibex_ecus(path: str | Path) -> tuple[Schedule, dict[int, str], dict[int, str]]:
    """What read_fibex returns, and the class of each ECU of the file by id."""
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise ValueError(f"{path} is not a schedule file: {exc}") from exc
    return _read_parsed(root)


_PARSED_AS = {parse_int: "an integer", float: "a number"}
_ECU_CLASSES = frozenset(kind.value for kind in EcuKind)


def _field(attrib: dict[str, str], name: str, where: str, parse=parse_int):
    """`attrib[name]` read by `parse`, or ValueError naming the element,
    `where` (with its trailing ': '), and the attribute."""
    value = attrib.get(name)
    if value is None:
        raise ValueError(f"{where}{name} is missing")
    try:
        return parse(value)
    except ValueError:
        raise ValueError(f"{where}{name} {value!r} is not {_PARSED_AS[parse]}") from None


_INSTANCE_INTS = ("bit-offset", "payload-bytes", "repetition", "signal")


def _occurrence(a: dict[str, str]) -> Occupancy:
    """The signal instance with attributes `a`, or ValueError naming a
    value its frame cannot hold."""
    try:
        bit_offset, payload = parse_int(a["bit-offset"]), parse_int(a["payload-bytes"])
        rep, signal = parse_int(a["repetition"]), parse_int(a["signal"])
    except (KeyError, ValueError):
        for name in _INSTANCE_INTS:
            _field(a, name, "")
        raise
    if bit_offset < 0:
        raise ValueError(f"bit-offset {bit_offset} is negative")
    if bit_offset % 8:
        raise ValueError(f"bit-offset {bit_offset} is not a whole byte")
    if payload < 1:
        raise ValueError(f"payload-bytes {payload} is not positive")
    if rep not in ALLOWED_PERIOD_CYCLES:
        raise ValueError(f"repetition {rep} is not a power of two in 1..{HYPERPERIOD_CYCLES}")
    image = a.get("image")
    if image not in ("true", "false"):
        raise ValueError(f"image {image!r} is not true or false")
    return Occupancy(signal, bit_offset // 8, payload, image == "true", rep)


def _children(el: ET.Element, tag: str, where: str) -> ET.Element:
    """`el`, whose child elements must all be `tag` elements; ValueError
    names the first that is not, and `where` it stands."""
    for child in el:
        if child.tag != tag:
            raise ValueError(f"{where}: element <{child.tag}> is not <{tag}>")
    return el


def _read_parsed(root: ET.Element) -> tuple[Schedule, dict[int, str], dict[int, str]]:
    if root.tag != "flexray-schedule":
        raise ValueError(f"root element <{root.tag}> is not flexray-schedule")
    if root.get("format") != "simplified-1":
        raise ValueError(f"flexray-schedule: format {root.get('format')!r} is not simplified-1")
    parts = [el.tag for el in root]
    if parts != ["cluster", "ecus", "channels"]:
        raise ValueError(f"flexray-schedule: child elements {parts} are not "
                         f"['cluster', 'ecus', 'channels']")
    cluster_el, ecus_el, channels_el = root
    cluster = cluster_el.attrib
    hyperperiod = _field(cluster, "hyperperiod-cycles", "cluster: ")
    if hyperperiod != HYPERPERIOD_CYCLES:
        raise ValueError(f"cluster: hyperperiod-cycles {hyperperiod} is not "
                         f"{HYPERPERIOD_CYCLES}")
    duration = _field(cluster, "cycle-duration-ms", "cluster: ", float)
    # the writer spells a float only as its repr
    if repr(duration) != cluster["cycle-duration-ms"]:
        raise ValueError(f"cluster: cycle-duration-ms {cluster['cycle-duration-ms']!r} "
                         f"is not spelled as {duration!r}")
    config = NetworkConfig(
        cycle_duration_ms=duration,
        slot_payload_bytes=_field(cluster, "slot-payload-bytes", "cluster: "),
    )
    validate_config(config)
    channel_of: dict[int, str] = {}
    classes: dict[int, str] = {}
    for ecu_el in _children(ecus_el, "ecu", "ecus"):
        a = ecu_el.attrib
        ecu = _field(a, "id", "ecu element: ")
        if ecu in classes:
            raise ValueError(f"ecus: ecu id {ecu} appears twice")
        classes[ecu] = kind = _field(a, "class", f"ecu {ecu}: ", str)
        if kind not in _ECU_CLASSES:
            raise ValueError(f"ecu {ecu}: class {kind!r} is not GATEWAY, COMMON or ONE_PORT")
        ch = _field(a, "channels", f"ecu {ecu}: ", str)
        if kind != EcuKind.ONE_PORT.value and ch != "AB":
            raise ValueError(f"ecu {ecu}: channels {ch!r} of a {kind} ECU is not AB")
        # An empty value is an ECU without a channel, which validate reports.
        if kind == EcuKind.ONE_PORT.value and ch:
            if ch not in CHANNELS:
                raise ValueError(f"ecu {ecu}: channels {ch!r} is not A or B")
            channel_of[ecu] = ch

    sched = Schedule(config=config)
    names: list[str] = []
    for ch_el in _children(channels_el, "channel", "channels"):
        ch = ch_el.get("name")
        if ch not in CHANNELS:
            raise ValueError(f"channel element: name {ch!r} is not A or B")
        if ch in names:
            raise ValueError(f"channels: channel {ch} appears twice")
        names.append(ch)
        max_slot = _field(ch_el.attrib, "max-slot", f"channel {ch}: ")
        for slot_el in _children(ch_el, "slot", f"channel {ch}"):
            a = slot_el.attrib
            slot = _field(a, "id", f"slot element on channel {ch}: ")
            if slot in sched.columns[ch]:
                raise ValueError(f"channel {ch}: slot id {slot} appears twice")
            where = f"slot {slot} on channel {ch}"
            gateway = a.get("gateway")
            if gateway not in ("true", "false"):
                raise ValueError(f"{where}: gateway {gateway!r} is not true or false")
            col = SlotColumn(owner=_field(a, "owner", f"{where}: "),
                             is_gateway=gateway == "true")
            sched.columns[ch][slot] = col
            for frame_el in _children(slot_el, "frame", where):
                base = _field(frame_el.attrib, "base-cycle", f"frame in {where}: ")
                if not 1 <= base <= HYPERPERIOD_CYCLES:
                    raise ValueError(f"frame in {where}: base-cycle "
                                     f"{base} is outside 1..{HYPERPERIOD_CYCLES}")
                if base in col.frames:
                    raise ValueError(f"{where}: frame base-cycle {base} appears twice")
                instances = _children(frame_el, "signal-instance", f"frame {base} in {where}")
                if not len(instances):
                    raise ValueError(f"frame {base} in {where} holds no signal-instance")
                for inst_el in instances:
                    a = inst_el.attrib
                    try:
                        occ = _occurrence(a)
                    except ValueError as exc:
                        who = f"signal {a['signal']}" if "signal" in a else "signal-instance"
                        raise ValueError(f"{who} in {where}: {exc}") from None
                    col.add(base, occ)
        if max_slot != sched.max_slot(ch):
            raise ValueError(f"channel {ch}: max-slot {max_slot} is not the highest "
                             f"slot id {sched.max_slot(ch)}")
    return sched, channel_of, classes
