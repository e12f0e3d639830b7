"""Simplified FIBEX-style XML export of schedules.

A documented simplified subset, not a conformant FIBEX database: channels,
ECUs with their channel connections, static slots with owners, one frame
element per occupied (channel, slot, base-cycle) triple, and signal
instances with bit offsets and cycle repetitions.  Element order is
deterministic so identical inputs yield byte-identical files.  The writer
emits the text directly, one line per element, in the layout of an
indented ElementTree document.  The reader keeps no element tree: one
`_Reader` takes the file's start and end events as they come and alone
holds the rules a schedule file must keep, so the read's memory peak is
about the schedule it returns and the cyclic garbage collector has no
tree to trace.  A file in the writer's line layout is tokenized line by
line; any other file, from its first line outside that layout, is read
again from the start by the expat parser, which words syntax errors.
Either path stops at the first fault in the file.
"""
from __future__ import annotations

import re
from functools import partial
from pathlib import Path
from xml.parsers import expat

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
    repeated channel, frame or ECU, a frame without signal instances, a
    child element of a cluster, ecu or signal-instance) is a ValueError
    naming it, and so is a document type declaration.

    One pass over the file's start and end events builds the schedule as
    the elements arrive, with no element tree: the reader's memory peak is
    about the schedule it returns, and the cyclic garbage collector has
    only the schedule's own records to trace.  The events of a file in
    the writer's line layout (its declaration line, then one element tag
    per line, with names in [a-z-] and values in printable ASCII) come
    from a line tokenizer; those of any other file come from expat, and
    either feeds the same reader.  Of several faults, the one refused is
    the first in the file, a syntax error or a content fault."""
    return read_fibex_ecus(path)[:2]


def read_fibex_ecus(path: str | Path) -> tuple[Schedule, dict[int, str], dict[int, str]]:
    """What read_fibex returns, and the class of each ECU of the file by id."""
    # Besides the reader's refusals, a LookupError or ValueError out of the
    # parse is a declared encoding the parser does not know or cannot
    # decode, or a document type declaration.
    try:
        with open(path, "rb") as file:
            reader = None
            # a pipe cannot be read a second time
            if file.seekable():
                reader = _read_lines(file)
                file.seek(0)
            if reader is None:
                reader = _read_expat(file)
    except _Refusal:
        raise
    except (expat.ExpatError, LookupError, ValueError) as exc:
        raise ValueError(f"{path} is not a schedule file: {exc}") from exc
    return reader.sched, reader.channel_of, reader.classes


# The writer's declaration line, and the lines of its layout that expat
# reads as one start, end or empty element tag with the names and values
# written: names of [a-z-] not starting with '-', values in printable
# ASCII without '"', '&' or '<', so that expat neither normalises nor
# decodes them.  The root's end line may lack its newline.
_DECLARATION = b"<?xml version='1.0' encoding='utf-8'?>\n"
_LINE = re.compile(r' *<(/?)([a-z][a-z-]*)((?: [a-z][a-z-]*="[ !#-%\'-;=-~]*")*)( /)?>\n?')
_ATTRIBUTE = re.compile(r' ([a-z-]+)="([^"]*)"')
# The writer's signal-instance and frame lines, with each integer in the
# one spelling parse_int reads and few enough digits for int()
_INSTANCE = re.compile(rb' *<signal-instance signal="(-?[0-9]{1,18})" '
                       rb'bit-offset="([0-9]{1,18})" payload-bytes="([0-9]{1,18})" '
                       rb'repetition="([0-9]{1,2})" image="(true|false)" />\n')
_FRAME = re.compile(rb' *<frame base-cycle="([0-9]{1,2})">\n')
# Longer than any line the writer emits.  A longer line is read in pieces
# of this size; a piece that is not whole tags leaves the layout, so the
# file falls back to expat with no more than one piece held.
_LINE_LIMIT = 1 << 10


def _read_lines(file) -> _Reader | None:
    """A reader fed, line by line, the start and end events expat gives
    for `file`, or None at the first line outside the writer's layout.

    A signal instance of an open frame whose values _occurrence takes, a
    frame of a new base cycle in 1..64 opening in a slot and the end of a
    frame holding instances skip the handlers and do what they would.
    Lines are read at most _LINE_LIMIT bytes at a time, so a file on few
    long lines falls back before a whole line is held."""
    if file.readline(len(_DECLARATION)) != _DECLARATION:
        return None
    reader = _Reader()
    stack = reader.stack
    done = False
    for line in iter(partial(file.readline, _LINE_LIMIT), b""):
        if done:
            return None
        top = stack[-1]
        if top == "frame":
            match = _INSTANCE.match(line)
            if match is not None:
                signal, bit_offset, payload, rep, image = match.groups()
                bit_offset, payload, rep = int(bit_offset), int(payload), int(rep)
                if not bit_offset % 8 and payload and rep in ALLOWED_PERIOD_CYCLES:
                    reader.occs.append(Occupancy(int(signal), bit_offset // 8, payload,
                                                 image == b"true", rep))
                    continue
            elif reader.occs and line.lstrip(b" ") == b"</frame>\n":
                stack.pop()
                continue
        elif top == "slot":
            match = _FRAME.match(line)
            if match is not None:
                base = int(match[1])
                frames = reader.col.frames
                if 1 <= base <= HYPERPERIOD_CYCLES and base not in frames:
                    stack.append("frame")
                    reader.base = base
                    reader.occs = frames[base] = []
                    continue
        match = _LINE.fullmatch(line.decode("latin-1"))
        if match is None:
            return None
        close, tag, attrs, empty = match.groups()
        if close:
            if attrs or empty or tag != top:
                return None
        else:
            pairs = _ATTRIBUTE.findall(attrs)
            a = dict(pairs)
            # expat refuses a repeated attribute and reads xmlns as a namespace
            if len(a) < len(pairs) or "xmlns" in a:
                return None
            reader.start(tag, a)
            if not empty:
                continue
        reader.end(tag)
        done = len(stack) == 1
    return reader if done else None


def _read_expat(file) -> _Reader:
    """A reader fed the start and end events of `file` by expat."""
    reader = _Reader()
    # with namespace processing, a prefixed or namespaced tag is never read
    # as one of the layout's tags
    parser = expat.ParserCreate(None, "}")
    parser.StartElementHandler = reader.start
    parser.EndElementHandler = reader.end
    # Without a DTD, expat refuses every entity reference but the five
    # predefined ones and character references; under one, it may drop an
    # undefined entity, and its text, unseen.
    parser.StartDoctypeDeclHandler = _refuse_doctype
    parser.ParseFile(file)
    return reader


def _refuse_doctype(name: str, *ids) -> None:
    raise ValueError(f"document type declaration <!DOCTYPE {name}> is not allowed")


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


_PARTS = ["cluster", "ecus", "channels"]
# The one child tag each element below the root admits; cluster, ecu and
# signal-instance admit none.
_CHILD = {"ecus": "ecu", "channels": "channel", "channel": "slot", "slot": "frame",
          "frame": "signal-instance"}


def _shown(tag: str) -> str:
    """`tag` as messages spell it: a namespace the parser reports as
    `uri}name` in braces, `{uri}name`."""
    return "{" + tag if "}" in tag else tag


class _Refusal(ValueError):
    """A content fault of a schedule file, which read_fibex raises as is."""


class _Reader:
    """One pass over the start and end events of a schedule file, which
    raises _Refusal at the first event that shows a fault."""

    def __init__(self) -> None:
        self.stack = [""]  # the open tags, above one for the root's parent
        self.parts: list[str] = []  # the root's child tags
        self.sched: Schedule | None = None
        self.channel_of: dict[int, str] = {}
        self.classes: dict[int, str] = {}
        self.names: list[str] = []  # the channels read
        # the open ecu, channel, slot and frame
        self.ecu = 0
        self.ch = ""
        self.max_slot = 0
        self.slot_where = ""
        self.col: SlotColumn | None = None
        self.base = 0
        self.occs: list[Occupancy] = []

    def start(self, tag: str, a: dict[str, str]) -> None:
        stack = self.stack
        parent = stack[-1]
        stack.append(tag)
        depth = len(stack) - 2
        try:
            if parent == "frame" and tag == "signal-instance":
                self.occs.append(_occurrence(a))
            elif depth == 0:
                self.root(tag, a)
            elif depth == 1:
                self.part(tag, a)
            elif _CHILD.get(parent) != tag:
                raise ValueError(self.misplaced(parent, tag))
            elif tag == "frame":
                self.frame(a)
            elif tag == "slot":
                self.slot(a)
            elif tag == "ecu":
                self.ecu_element(a)
            else:
                self.channel(a)
        except ValueError as exc:
            message = str(exc)
            if tag == "signal-instance" and parent == "frame":
                who = f"signal {a['signal']}" if "signal" in a else "signal-instance"
                message = f"{who} in {self.slot_where}: {message}"
            raise _Refusal(message) from None

    def end(self, tag: str) -> None:
        stack = self.stack
        stack.pop()
        if tag == "frame":
            if not self.occs:
                raise _Refusal(f"frame {self.base} in {self.slot_where} "
                               f"holds no signal-instance")
        elif tag == "channel":
            highest = self.sched.max_slot(self.ch)
            if self.max_slot != highest:
                raise _Refusal(f"channel {self.ch}: max-slot {self.max_slot} is not "
                               f"the highest slot id {highest}")
        elif len(stack) == 1 and self.parts != _PARTS:
            raise _Refusal(f"flexray-schedule: child elements {self.parts} are not {_PARTS}")

    def misplaced(self, parent: str, tag: str) -> str:
        """The refusal of a `tag` element inside the open `parent`."""
        if parent == "ecu":
            where = f"ecu {self.ecu}"
        elif parent == "channel":
            where = f"channel {self.ch}"
        elif parent == "slot":
            where = self.slot_where
        elif parent == "frame":
            where = f"frame {self.base} in {self.slot_where}"
        elif parent == "signal-instance":
            where = f"signal {self.occs[-1].signal} in {self.slot_where}"
        else:
            where = parent
        child = _CHILD.get(parent)
        if child is None:
            return f"{where}: element <{_shown(tag)}> is not allowed, as <{parent}> " \
                   f"holds no elements"
        return f"{where}: element <{_shown(tag)}> is not <{child}>"

    def root(self, tag: str, a: dict[str, str]) -> None:
        if tag != "flexray-schedule":
            raise ValueError(f"root element <{_shown(tag)}> is not flexray-schedule")
        if a.get("format") != "simplified-1":
            raise ValueError(f"flexray-schedule: format {a.get('format')!r} is not "
                             f"simplified-1")

    def part(self, tag: str, a: dict[str, str]) -> None:
        """A child of the root, refused at the first that breaks the order
        of the writer's three."""
        parts = self.parts
        parts.append(_shown(tag))
        if parts != _PARTS[:len(parts)]:
            raise ValueError(f"flexray-schedule: child elements {parts} are not {_PARTS}")
        if tag == "cluster":
            self.cluster(a)

    def cluster(self, a: dict[str, str]) -> None:
        hyperperiod = _field(a, "hyperperiod-cycles", "cluster: ")
        if hyperperiod != HYPERPERIOD_CYCLES:
            raise ValueError(f"cluster: hyperperiod-cycles {hyperperiod} is not "
                             f"{HYPERPERIOD_CYCLES}")
        duration = _field(a, "cycle-duration-ms", "cluster: ", float)
        # the writer spells a float only as its repr
        if repr(duration) != a["cycle-duration-ms"]:
            raise ValueError(f"cluster: cycle-duration-ms {a['cycle-duration-ms']!r} "
                             f"is not spelled as {duration!r}")
        config = NetworkConfig(
            cycle_duration_ms=duration,
            slot_payload_bytes=_field(a, "slot-payload-bytes", "cluster: "),
        )
        validate_config(config)
        self.sched = Schedule(config=config)

    def ecu_element(self, a: dict[str, str]) -> None:
        ecu = _field(a, "id", "ecu element: ")
        classes = self.classes
        if ecu in classes:
            raise ValueError(f"ecus: ecu id {ecu} appears twice")
        self.ecu = ecu
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
            self.channel_of[ecu] = ch

    def channel(self, a: dict[str, str]) -> None:
        ch = a.get("name")
        if ch not in CHANNELS:
            raise ValueError(f"channel element: name {ch!r} is not A or B")
        if ch in self.names:
            raise ValueError(f"channels: channel {ch} appears twice")
        self.names.append(ch)
        self.ch = ch
        self.max_slot = _field(a, "max-slot", f"channel {ch}: ")

    def slot(self, a: dict[str, str]) -> None:
        ch = self.ch
        slot = _field(a, "id", f"slot element on channel {ch}: ")
        columns = self.sched.columns[ch]
        if slot in columns:
            raise ValueError(f"channel {ch}: slot id {slot} appears twice")
        self.slot_where = where = f"slot {slot} on channel {ch}"
        gateway = a.get("gateway")
        if gateway not in ("true", "false"):
            raise ValueError(f"{where}: gateway {gateway!r} is not true or false")
        self.col = columns[slot] = SlotColumn(owner=_field(a, "owner", f"{where}: "),
                                              is_gateway=gateway == "true")

    def frame(self, a: dict[str, str]) -> None:
        where = self.slot_where
        base = _field(a, "base-cycle", f"frame in {where}: ")
        if not 1 <= base <= HYPERPERIOD_CYCLES:
            raise ValueError(f"frame in {where}: base-cycle "
                             f"{base} is outside 1..{HYPERPERIOD_CYCLES}")
        frames = self.col.frames
        if base in frames:
            raise ValueError(f"{where}: frame base-cycle {base} appears twice")
        self.base = base
        self.occs = frames[base] = []
