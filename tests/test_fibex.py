from __future__ import annotations

import copy
import dataclasses
import gc
import os
import re
import tempfile
import threading
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flexseg.assignment import (
    ChannelAssignment,
    CriterionParams,
    default_alpha,
    solve_cah,
    solve_exact,
)
from flexseg.cli import main
from flexseg.driver import DriverConfig, run
from flexseg import fibex
from flexseg.fibex import export_fibex, read_fibex, read_fibex_ecus
from flexseg.generator import generate, realcase_profile, sae_profile
from flexseg.hypergraph import build_hypergraph
from conftest import example1_instance
from flexseg.model import Ecu, EcuKind, Instance, NetworkConfig, save_instance
from flexseg.scheduler import (
    CHANNELS,
    Occupancy,
    Schedule,
    SlotColumn,
    reorder_slots,
    schedule_channels,
)
from flexseg.validator import validate


def solved_example1(example1):
    hg = build_hypergraph(example1)
    asg = solve_exact(hg, CriterionParams(alpha=1 / 52, beta=1.0))
    return asg, schedule_channels(example1, asg)


def independent_placements(path):
    """Minimal reader used only by the tests: recover every
    (channel, base cycle, slot, offset, image) tuple per signal."""
    root = ET.parse(path).getroot()
    out = set()
    for channel in root.find("channels"):
        for slot in channel:
            for frame in slot:
                for si in frame:
                    out.add((
                        int(si.get("signal")),
                        channel.get("name"),
                        int(frame.get("base-cycle")),
                        int(slot.get("id")),
                        int(si.get("bit-offset")) // 8,
                        si.get("image") == "true",
                    ))
    return out


def test_frame_elements_match_occupied_triples(tmp_path, example1):
    asg, sched = solved_example1(example1)
    path = tmp_path / "example1.xml"
    export_fibex(example1, asg, sched, path)

    root = ET.parse(path).getroot()
    frames = [
        (channel.get("name"), int(slot.get("id")), int(frame.get("base-cycle")))
        for channel in root.find("channels") for slot in channel for frame in slot
    ]
    assert len(frames) == len(set(frames))

    assert set(frames) == {(p.channel, p.slot, p.base_cycle) for p in sched.placements}


def test_empty_schedule_skeleton(tmp_path, example1):
    inst = Instance(example1.config, example1.ecus, ())
    asg = ChannelAssignment(channel_of={3: "A", 4: "A", 5: "B"}, payload_a=0,
                            payload_b=0, payload_gw=0, criterion=0.0)
    path = tmp_path / "empty.xml"
    export_fibex(inst, asg, Schedule(config=inst.config), path)
    root = ET.parse(path).getroot()
    assert len(root.find("ecus")) == len(inst.ecus)
    assert sum(len(ch) for ch in root.find("channels")) == 0


def elementtree_document(inst, asg, sched) -> bytes:
    """Reference serialization of a schedule: the document built as an
    ElementTree, indented, with its XML declaration and a final newline."""
    root = ET.Element("flexray-schedule", {"format": "simplified-1"})
    ET.SubElement(root, "cluster", {
        "cycle-duration-ms": repr(inst.config.cycle_duration_ms),
        "slot-payload-bytes": str(inst.config.slot_payload_bytes),
        "hyperperiod-cycles": "64",
    })
    ecus = ET.SubElement(root, "ecus")
    for e in inst.ecus:
        channels = asg.channel_of.get(e.id, "") if e.kind == EcuKind.ONE_PORT else "AB"
        ET.SubElement(ecus, "ecu", {"id": str(e.id), "class": e.kind.value,
                                    "channels": channels})
    channels = ET.SubElement(root, "channels")
    for ch in ("A", "B"):
        ch_el = ET.SubElement(channels, "channel", {"name": ch,
                                                     "max-slot": str(sched.max_slot(ch))})
        for slot, col in sorted(sched.columns[ch].items()):
            slot_el = ET.SubElement(ch_el, "slot", {
                "id": str(slot), "owner": str(col.owner),
                "gateway": "true" if col.is_gateway else "false"})
            for base, entries in sorted(col.frames.items()):
                frame_el = ET.SubElement(slot_el, "frame", {"base-cycle": str(base)})
                for occ in sorted(entries, key=lambda o: (o.offset, o.signal)):
                    ET.SubElement(frame_el, "signal-instance", {
                        "signal": str(occ.signal), "bit-offset": str(occ.offset * 8),
                        "payload-bytes": str(occ.payload),
                        "repetition": str(occ.repetition),
                        "image": "true" if occ.is_image else "false"})
    ET.indent(root)
    return (ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n").encode()


def test_export_matches_elementtree_serialization(tmp_path):
    # cases ElementTree writes specially: channel B with no slot and an empty
    # slot on A (self-closing), one-port ECU 4 with no channel (channels=""),
    # 16-byte slots with offsets past bit 64, and a fractional cycle length
    ecus = (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.COMMON),
            Ecu(3, EcuKind.ONE_PORT), Ecu(4, EcuKind.ONE_PORT))
    inst = Instance(NetworkConfig(0.625, 16), ecus, ())
    asg = ChannelAssignment(channel_of={3: "A"}, payload_a=0, payload_b=0, payload_gw=0,
                            criterion=0.0)
    sched = Schedule(config=inst.config)
    col = SlotColumn(owner=3, is_gateway=False)
    for base, occ in ((2, Occupancy(7, 12, 4, False, 2)), (1, Occupancy(5, 0, 16, False, 4)),
                      (2, Occupancy(6, 3, 9, False, 2)), (2, Occupancy(8, 0, 3, True, 4))):
        col.add(base, occ)
    sched.columns["A"][3] = col
    sched.columns["A"][1] = SlotColumn(owner=0, is_gateway=True)
    path = tmp_path / "edge.xml"
    export_fibex(inst, asg, sched, path)
    assert path.read_bytes() == elementtree_document(inst, asg, sched)
    assert b'<channel name="B" max-slot="0" />' in path.read_bytes()
    assert b'<ecu id="4" class="ONE_PORT" channels="" />' in path.read_bytes()

    # and the empty file of an instance without ECUs: <ecus />
    bare = Instance(inst.config, (), ())
    export_fibex(bare, asg, Schedule(config=inst.config), path)
    assert path.read_bytes() == elementtree_document(bare, asg, Schedule(config=inst.config))


def test_roundtrip_recovers_every_placement(tmp_path, example1):
    asg, sched = solved_example1(example1)
    path = tmp_path / "example1.xml"
    export_fibex(example1, asg, sched, path)

    assert independent_placements(path) == set(map(dataclasses.astuple, sched.placements))


def test_package_reader_reconstructs_grid(tmp_path, example1):
    asg, sched = solved_example1(example1)
    path = tmp_path / "example1.xml"
    export_fibex(example1, asg, sched, path)
    again, channel_of = read_fibex(path)
    assert channel_of == asg.channel_of
    assert again.config == sched.config
    for ch in ("A", "B"):
        assert again.columns[ch].keys() == sched.columns[ch].keys()
        for slot, col in sched.columns[ch].items():
            got = again.columns[ch][slot]
            assert got.owner == col.owner
            assert got.is_gateway == col.is_gateway
            assert {c: sorted((o.signal, o.offset, o.is_image, o.repetition) for o in v)
                    for c, v in got.frames.items()} == \
                   {c: sorted((o.signal, o.offset, o.is_image, o.repetition) for o in v)
                    for c, v in col.frames.items()}


@pytest.mark.parametrize("make_instance", [
    example1_instance,
    lambda: generate(sae_profile(3, ecu_count=10, signal_count=120,
                                 fault_tolerant_fraction=0.2), seed=4),
], ids=["example1", "sae3-ft0.2"])
def test_read_back_schedule_lists_the_placements_of_the_run(tmp_path, make_instance):
    # placements are a view of the columns, so a schedule read from its file
    # lists them as the one the run built, fault-tolerant, common-transmitter
    # and imaged signals included
    inst = make_instance()
    result = run(inst, DriverConfig(cah_tries=10, rng_seed=0))
    path = tmp_path / "run.xml"
    export_fibex(inst, result.assignment, result.schedule, path)
    placements = result.schedule.placements
    assert any(p.is_image for p in placements)
    fault_tolerant = {s.id for s in inst.signals if s.fault_tolerant}
    assert fault_tolerant and {(p.signal, p.channel) for p in placements
                               if p.signal in fault_tolerant} == \
        {(sid, ch) for sid in fault_tolerant for ch in ("A", "B")}
    read_back = read_fibex(path)[0]
    assert read_back.placements == placements
    assert read_back.frame_count() == result.schedule.frame_count()
    # the file keeps no fault-tolerant prefix, and renumbering needs none
    assert reorder_slots(read_back).columns == read_back.columns


def test_ecu_channel_attributes(tmp_path, example1):
    asg, sched = solved_example1(example1)
    path = tmp_path / "example1.xml"
    export_fibex(example1, asg, sched, path)
    root = ET.parse(path).getroot()
    channels = {int(e.get("id")): e.get("channels") for e in root.find("ecus")}
    assert channels[0] == "AB"  # gateway
    assert channels[1] == channels[2] == "AB"  # common
    for u in (3, 4, 5):
        assert channels[u] == asg.channel_of[u]


def test_export_deterministic(tmp_path, example1):
    asg, sched = solved_example1(example1)
    p1, p2 = tmp_path / "a.xml", tmp_path / "b.xml"
    export_fibex(example1, asg, sched, p1)
    export_fibex(example1, asg, sched, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_on_generated_instance(tmp_path):
    inst = generate(sae_profile(4, ecu_count=10, signal_count=150,
                                fault_tolerant_fraction=0.1), seed=8)
    hg = build_hypergraph(inst)
    asg = solve_exact(hg, CriterionParams(alpha=0.001, beta=1.0))
    sched = schedule_channels(inst, asg)
    path = tmp_path / "gen.xml"
    export_fibex(inst, asg, sched, path)
    assert independent_placements(path) == set(map(dataclasses.astuple, sched.placements))


@pytest.mark.parametrize("element, attr, value, message", [
    ("ecus/ecu[@id='3']", "channels", "X", "ecu 3: channels 'X' is not A or B"),
    # the writer spells the channels of a common or gateway ECU only as AB
    ("ecus/ecu[@id='1']", "channels", "A", "ecu 1: channels 'A' of a COMMON ECU is not AB"),
    ("ecus/ecu[@id='2']", "channels", "BA", "ecu 2: channels 'BA' of a COMMON ECU is not AB"),
    ("ecus/ecu[@id='0']", "channels", "", "ecu 0: channels '' of a GATEWAY ECU is not AB"),
    ("channels/channel[@name='B']", "name", "C", "channel element: name 'C' is not A or B"),
])
def test_reader_rejects_unknown_channel_names(tmp_path, example1, capsys,
                                              element, attr, value, message):
    assert_reader_rejects(tmp_path, example1, capsys, element, attr, value, message)


def assert_reader_rejects(tmp_path, example1, capsys, element, attr, value, message):
    """Setting `attr` of the first `element` of an exported file to `value`,
    or removing it when `value` is None, makes read_fibex raise `message`
    and `flexseg validate` exit 2."""
    def mutate(root):
        if value is None:
            del root.find(element).attrib[attr]
        else:
            root.find(element).set(attr, value)
    assert_reader_refuses(tmp_path, example1, capsys, mutate, message)


def assert_reader_refuses(tmp_path, example1, capsys, mutate, message):
    """An exported file whose root element `mutate` has changed makes
    read_fibex raise `message` and `flexseg validate` exit 2."""
    asg, sched = solved_example1(example1)
    path = tmp_path / "example1.xml"
    export_fibex(example1, asg, sched, path)
    tree = ET.parse(path)
    mutate(tree.getroot())
    broken = tmp_path / "broken.xml"
    tree.write(broken)
    with pytest.raises(ValueError, match=re.escape(message)):
        read_fibex(broken)
    inst_file = tmp_path / "example1.json"
    save_instance(example1, inst_file)
    assert main(["validate", str(inst_file), str(broken)]) == 2
    assert message in capsys.readouterr().err

FRAME = "channels/channel/slot/frame"


def test_reader_rejects_repeated_slot_id(tmp_path, example1, capsys):
    # a second slot element with the id of the first on channel A must not
    # replace it and drop its frames
    assert_reader_rejects(tmp_path, example1, capsys, "channels/channel[@name='A']/slot[2]",
                          "id", "1", "channel A: slot id 1 appears twice")


def _rename(path, tag):
    def mutate(root):
        root.find(path).tag = tag
    return mutate


def _remove(path):
    def mutate(root):
        root.remove(root.find(path))
    return mutate


def _repeat(path):
    def mutate(root):
        root.append(copy.deepcopy(root.find(path)))
    return mutate


def _split_channel_a(root):
    # slots 2..5 move to a second channel A element; each element's
    # max-slot is its own highest slot id
    channels = root.find("channels")
    first = channels.find("channel[@name='A']")
    second = ET.Element("channel", first.attrib)
    for slot in list(first)[1:]:
        first.remove(slot)
        second.append(slot)
    first.set("max-slot", "1")
    channels.insert(1, second)


def _split_frame(root):
    # the second signal instance of slot 3's frame moves to a frame of
    # its own with the same base cycle
    slot = root.find("channels/channel[@name='A']/slot[@id='3']")
    frame = slot.find("frame")
    second = ET.SubElement(slot, "frame", frame.attrib)
    moved = frame[1]
    frame.remove(moved)
    second.append(moved)


def _repeat_ecu(root):
    ecus = root.find("ecus")
    ET.SubElement(ecus, "ecu", {"id": "3", "class": "ONE_PORT", "channels": "B"})


def _empty_frame(root):
    # an empty frame of the base cycle of slot 1's frame stands before it
    slot = root.find("channels/channel[@name='A']/slot[@id='1']")
    slot.insert(0, ET.Element("frame", slot.find("frame").attrib))


def _lift_instance(root):
    # slot 1's only signal instance moves out of its frame to follow it
    slot = root.find("channels/channel[@name='A']/slot[@id='1']")
    frame = slot.find("frame")
    moved = frame.find("signal-instance")
    frame.remove(moved)
    slot.append(moved)


def _ecus_first(root):
    cluster, ecus, channels = root
    root[:] = [ecus, cluster, channels]


def _child(path, tag):
    def mutate(root):
        ET.SubElement(root.find(path), tag)
    return mutate


PARTS = "['cluster', 'ecus', 'channels']"


@pytest.mark.parametrize("mutate, message", [
    (lambda root: root.set("format", "other-9"),
     "flexray-schedule: format 'other-9' is not simplified-1"),
    (lambda root: setattr(root, "tag", "schedule"),
     "root element <schedule> is not flexray-schedule"),
    # the root's children are refused at the first out of order
    (_remove("cluster"), f"flexray-schedule: child elements ['ecus'] are not {PARTS}"),
    (_remove("ecus"),
     f"flexray-schedule: child elements ['cluster', 'channels'] are not {PARTS}"),
    (_repeat("channels"), "flexray-schedule: child elements "
     f"['cluster', 'ecus', 'channels', 'channels'] are not {PARTS}"),
    (_rename("ecus/ecu", "node"), "ecus: element <node> is not <ecu>"),
    (_rename("channels/channel", "bus"), "channels: element <bus> is not <channel>"),
    (_rename("channels/channel/slot", "slt"), "channel A: element <slt> is not <slot>"),
    (_rename(FRAME, "frm"), "slot 1 on channel A: element <frm> is not <frame>"),
    (_rename(FRAME + "/signal-instance", "signal"),
     "frame 1 in slot 1 on channel A: element <signal> is not <signal-instance>"),
    (_split_channel_a, "channels: channel A appears twice"),
    (_split_frame, "slot 3 on channel A: frame base-cycle 1 appears twice"),
    (_repeat_ecu, "ecus: ecu id 3 appears twice"),
    (_empty_frame, "frame 1 in slot 1 on channel A holds no signal-instance"),
    # slot 1's frame, left empty, closes before the lifted instance opens
    (_lift_instance, "frame 1 in slot 1 on channel A holds no signal-instance"),
    (_ecus_first, f"flexray-schedule: child elements ['ecus'] are not {PARTS}"),
    (_child("cluster", "slot"),
     "cluster: element <slot> is not allowed, as <cluster> holds no elements"),
    (_child("ecus/ecu", "frame"),
     "ecu 0: element <frame> is not allowed, as <ecu> holds no elements"),
    (_child(FRAME + "/signal-instance", "bogus"),
     "signal 1 in slot 1 on channel A: element <bogus> is not allowed, as "
     "<signal-instance> holds no elements"),
], ids=["format", "root", "no-cluster", "no-ecus", "two-channels", "ecu-tag", "channel-tag",
        "slot-tag", "frame-tag", "instance-tag", "split-channel", "split-frame", "repeated-ecu",
        "empty-frame", "instance-in-slot", "ecus-first", "cluster-child", "ecu-child",
        "instance-child"])
def test_reader_refuses_misplaced_or_repeated_elements(tmp_path, example1, capsys,
                                                        mutate, message):
    # an element out of the writer's layout is an error naming it, not
    # one that is skipped, read under another tag or merged with its twin
    assert_reader_refuses(tmp_path, example1, capsys, mutate, message)


@pytest.mark.parametrize("element, attr, value, message", [
    (FRAME, "base-cycle", "0", "base-cycle 0 is outside 1..64"),
    (FRAME, "base-cycle", "65", "base-cycle 65 is outside 1..64"),
    (FRAME + "/signal-instance", "repetition", "0",
     "repetition 0 is not a power of two in 1..64"),
    (FRAME + "/signal-instance", "repetition", "-2",
     "repetition -2 is not a power of two in 1..64"),
    (FRAME + "/signal-instance", "repetition", "3",
     "repetition 3 is not a power of two in 1..64"),
    ("cluster", "hyperperiod-cycles", "32", "cluster: hyperperiod-cycles 32 is not 64"),
    ("cluster", "slot-payload-bytes", "0", "slot_payload_bytes must be >= 1"),
    ("cluster", "slot-payload-bytes", "-3", "slot_payload_bytes must be >= 1"),
    ("cluster", "cycle-duration-ms", "nan",
     "cycle_duration_ms must be positive and finite"),
    (FRAME + "/signal-instance", "bit-offset", "-8", "bit-offset -8 is negative"),
    (FRAME + "/signal-instance", "payload-bytes", "-1", "payload-bytes -1 is not positive"),
    (FRAME + "/signal-instance", "payload-bytes", "0", "payload-bytes 0 is not positive"),
    (FRAME + "/signal-instance", "image", "yes", "image 'yes' is not true or false"),
    ("channels/channel/slot", "gateway", "1",
     "slot 1 on channel A: gateway '1' is not true or false"),
    ("cluster", "slot-payload-bytes", "255", "slot_payload_bytes must be <= 254"),
    ("cluster", "cycle-duration-ms", "inf",
     "cycle_duration_ms must be positive and finite"),
    ("channels/channel[@name='A']", "max-slot", "1",
     "channel A: max-slot 1 is not the highest slot id 5"),
    ("channels/channel[@name='B']", "max-slot", "7",
     "channel B: max-slot 7 is not the highest slot id 5"),
    ("channels/channel[@name='A']", "max-slot", "0",
     "channel A: max-slot 0 is not the highest slot id 5"),
])
def test_reader_rejects_out_of_range_cycles(tmp_path, example1, capsys,
                                            element, attr, value, message):
    # a cluster, base cycle, repetition, offset, payload or flag the stored
    # frames cannot hold is an error naming its element, not dropped
    # occurrences, a failed shift, a silent false or a finding
    assert_reader_rejects(tmp_path, example1, capsys, element, attr, value, message)


@pytest.mark.parametrize("element, attr, value, message", [
    ("cluster", "hyperperiod-cycles", None, "cluster: hyperperiod-cycles is missing"),
    ("cluster", "slot-payload-bytes", "eight",
     "cluster: slot-payload-bytes 'eight' is not an integer"),
    ("cluster", "cycle-duration-ms", None, "cluster: cycle-duration-ms is missing"),
    ("cluster", "cycle-duration-ms", "fast", "cluster: cycle-duration-ms 'fast' is not a number"),
    # the writer spells the cycle duration only as the repr of a float
    ("cluster", "cycle-duration-ms", " 5_0e-1 ",
     "cluster: cycle-duration-ms ' 5_0e-1 ' is not spelled as 5.0"),
    ("cluster", "cycle-duration-ms", "+5.0", "cluster: cycle-duration-ms '+5.0' is not spelled as 5.0"),
    ("cluster", "cycle-duration-ms", "5", "cluster: cycle-duration-ms '5' is not spelled as 5.0"),
    ("cluster", "cycle-duration-ms", "NaN", "cluster: cycle-duration-ms 'NaN' is not spelled as nan"),
    ("channels/channel[@name='A']", "max-slot", None, "channel A: max-slot is missing"),
    ("channels/channel[@name='B']", "max-slot", "six",
     "channel B: max-slot 'six' is not an integer"),
    ("ecus/ecu[@id='1']", "id", "four", "ecu element: id 'four' is not an integer"),
    ("ecus/ecu[@id='3']", "class", None, "ecu 3: class is missing"),
    ("ecus/ecu[@id='3']", "class", "BOGUS",
     "ecu 3: class 'BOGUS' is not GATEWAY, COMMON or ONE_PORT"),
    ("ecus/ecu[@id='3']", "channels", None, "ecu 3: channels is missing"),
    ("channels/channel/slot", "id", "x", "slot element on channel A: id 'x' is not an integer"),
    ("channels/channel/slot", "owner", None, "slot 1 on channel A: owner is missing"),
    ("channels/channel/slot", "owner", "1.5", "slot 1 on channel A: owner '1.5' is not an integer"),
    (FRAME, "base-cycle", "one",
     "frame in slot 1 on channel A: base-cycle 'one' is not an integer"),
    (FRAME, "base-cycle", None, "frame in slot 1 on channel A: base-cycle is missing"),
    (FRAME + "/signal-instance", "bit-offset", None, "bit-offset is missing"),
    (FRAME + "/signal-instance", "payload-bytes", "x", "payload-bytes 'x' is not an integer"),
    (FRAME + "/signal-instance", "repetition", "", "repetition '' is not an integer"),
    (FRAME + "/signal-instance", "signal", None,
     "signal-instance in slot 1 on channel A: signal is missing"),
])
def test_reader_rejects_missing_or_non_integer_attributes(tmp_path, example1, capsys,
                                                          element, attr, value, message):
    # an error naming the element and the attribute, not Python's bare
    # int() message or an ECU id that is never read
    assert_reader_rejects(tmp_path, example1, capsys, element, attr, value, message)


@pytest.mark.parametrize("attr, value", [
    ("slot-payload-bytes", "4"),
    ("cycle-duration-ms", "2.0"),
])
def test_validate_rejects_cluster_other_than_instance(tmp_path, example1, capsys,
                                                      attr, value):
    # the file reads, but its frames were laid out for another cluster
    asg, sched = solved_example1(example1)
    path = tmp_path / "example1.xml"
    export_fibex(example1, asg, sched, path)
    tree = ET.parse(path)
    tree.getroot().find("cluster").set(attr, value)
    tree.write(path)
    assert read_fibex(path)[0].config != example1.config
    inst_file = tmp_path / "example1.json"
    save_instance(example1, inst_file)
    assert main(["validate", str(inst_file), str(path)]) == 2
    assert "schedule file cluster" in capsys.readouterr().err


@pytest.mark.parametrize("attr, value", [
    ("payload-bytes", "9" * 30),
    ("bit-offset", "8" * 30),
])
def test_bytes_past_the_frame_are_v2(tmp_path, example1, capsys, attr, value):
    # a payload or offset far beyond the slot is stored as read and found by
    # validate, without a column mask of that many bytes
    asg, sched = solved_example1(example1)
    path = tmp_path / "example1.xml"
    export_fibex(example1, asg, sched, path)
    tree = ET.parse(path)
    tree.getroot().find(FRAME + "/signal-instance").set(attr, value)
    tree.write(path)
    assert read_fibex(path)[0].columns["A"][1].frames
    inst_file = tmp_path / "example1.json"
    save_instance(example1, inst_file)
    assert main(["validate", str(inst_file), str(path)]) == 1
    assert '"V2"' in capsys.readouterr().out


@pytest.mark.parametrize("encoding, message", [
    ("bogus", "unknown encoding: bogus"),
    ("shift_jis", "multi-byte encodings are not supported"),
])
def test_file_in_an_encoding_the_parser_cannot_read_exits_2(tmp_path, example1, capsys,
                                                             encoding, message):
    # a refusal naming the file, not an uncaught lookup or a bare message
    asg, sched = solved_example1(example1)
    path = tmp_path / "example1.xml"
    export_fibex(example1, asg, sched, path)
    path.write_text(path.read_text().replace("encoding='utf-8'", f"encoding='{encoding}'", 1))
    with pytest.raises(ValueError, match=f"is not a schedule file: {message}"):
        read_fibex(path)
    inst_file = tmp_path / "example1.json"
    save_instance(example1, inst_file)
    assert main(["validate", str(inst_file), str(path)]) == 2
    assert f"{path} is not a schedule file" in capsys.readouterr().err


def test_base_cycle_above_repetition_is_v4(tmp_path, example1, capsys):
    asg, sched = solved_example1(example1)
    path = tmp_path / "example1.xml"
    export_fibex(example1, asg, sched, path)
    tree = ET.parse(path)
    frame = tree.getroot().find(FRAME)
    rep = int(frame.find("signal-instance").get("repetition"))
    frame.set("base-cycle", str(rep + 1))
    moved = tmp_path / "moved.xml"
    tree.write(moved)
    read_fibex(moved)
    inst_file = tmp_path / "example1.json"
    save_instance(example1, inst_file)
    assert main(["validate", str(inst_file), str(moved)]) == 1
    assert '"V4"' in capsys.readouterr().out


@st.composite
def windowed_instances(draw):
    """A small generated sae instance with about half of its signals given
    a release/deadline window of base cycles lo..hi inside their period,
    its ends off the cycle boundaries by less than a cycle."""
    inst = generate(sae_profile(draw(st.integers(1, 7)), ecu_count=8, signal_count=50,
                                fault_tolerant_fraction=draw(st.sampled_from((0.0, 0.2)))),
                    seed=draw(st.integers(0, 1000)))
    m = inst.config.cycle_duration_ms
    slack = st.sampled_from((0.0, 0.25, 0.5))
    signals = []
    for sig in inst.signals:
        if draw(st.booleans()):
            lo = draw(st.integers(1, sig.period_cycles))
            hi = draw(st.integers(lo, sig.period_cycles))
            release = (lo - 1 - (draw(slack) if lo > 1 else 0.0)) * m
            sig = dataclasses.replace(sig, release_ms=release,
                                      deadline_ms=(hi + draw(slack)) * m)
        signals.append(sig)
    return dataclasses.replace(inst, signals=tuple(signals))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(windowed_instances())
def test_restricted_windows_validate_and_round_trip(inst):
    hg = build_hypergraph(inst)
    asg = solve_cah(hg, CriterionParams(alpha=default_alpha(hg)), tries_count=5,
                    rng_seed=0)
    sched = schedule_channels(inst, asg)
    assert validate(inst, asg, sched) == []
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.xml"), Path(tmp, "second.xml")
        export_fibex(inst, asg, sched, first)
        again, channel_of = read_fibex(first)
        assert channel_of == asg.channel_of
        assert validate(inst, asg, again) == []
        export_fibex(inst, asg, again, second)
        assert first.read_bytes() == second.read_bytes()


# The integer attributes read_fibex reads, by element.
INTEGER_ATTRIBUTES = {
    "cluster": ("hyperperiod-cycles", "slot-payload-bytes"),
    "channel": ("max-slot",),
    "ecu": ("id",),
    "slot": ("id", "owner"),
    "frame": ("base-cycle",),
    "signal-instance": ("signal", "bit-offset", "payload-bytes", "repetition"),
}
DIGITS = "0123456789"
# Respellings of an attribute's integer text t: whitespace, a sign, an
# underscore, a float, empty, non-ASCII digits and huge values, plus
# spellings the grammar -?[0-9]+ accepts.
RESPELLINGS = (
    lambda t: f" {t} ", lambda t: f"{t}\n", lambda t: f"\t{t}",
    lambda t: f"+{t}", lambda t: f"{t[:1]}_{t[1:]}", lambda t: f"0_{t}",
    lambda t: f"{t}.0", lambda t: f"{t}e0", lambda t: "",
    lambda t: t.translate(str.maketrans(DIGITS, "٠١٢٣٤٥٦٧٨٩")),
    lambda t: t.translate(str.maketrans(DIGITS, "０１２３４５６７８９")),
    lambda t: "9" * 30, lambda t: "-" + "9" * 30, lambda t: "1" * 5000,
    lambda t: f"00{t}", lambda t: f"-{t}",
)


def exported_example1() -> bytes:
    inst = example1_instance()
    asg, sched = solved_example1(inst)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "example1.xml")
        export_fibex(inst, asg, sched, path)
        return path.read_bytes()


EXPORTED = exported_example1()
INTEGER_FIELDS = [(i, attr) for i, el in enumerate(ET.fromstring(EXPORTED).iter())
                  for attr in INTEGER_ATTRIBUTES.get(el.tag, ())]


def reading(tree: ET.ElementTree, path: Path):
    """What read_fibex makes of `tree` written to `path`: its error message,
    or the cluster, the channel map and every column's stored frames.  The
    file starts with the writer's declaration and keeps the export's lines,
    so read_fibex reads it line by line unless an edit left the layout."""
    tree.write(path, xml_declaration=True, encoding="utf-8")
    try:
        sched, channel_of = read_fibex(path)
    except ValueError as exc:
        return str(exc)
    return sched.config, channel_of, {
        (ch, slot): (col.owner, col.is_gateway, {
            base: sorted((o.signal, o.offset, o.payload, o.is_image, o.repetition)
                         for o in occs)
            for base, occs in col.frames.items()})
        for ch in ("A", "B") for slot, col in sched.columns[ch].items()}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, len(INTEGER_FIELDS) - 1),
       st.one_of(st.sampled_from(RESPELLINGS),
                 st.text("0123456789-+_ .e٤", max_size=5).map(lambda s: lambda t: s)))
def test_reader_takes_only_the_integer_grammar(index, respelling):
    # an integer attribute spelled any other way than -?[0-9]+ in ASCII is
    # an error naming it; one spelled that way reads as the same integer
    # written plainly
    element_index, attr = INTEGER_FIELDS[index]
    tree = ET.ElementTree(ET.fromstring(EXPORTED))
    element = list(tree.iter())[element_index]
    text = respelling(element.get(attr))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "mutated.xml")
        element.set(attr, text)
        got = reading(tree, path)
        try:
            value = int(text) if re.fullmatch("-?[0-9]+", text) else None
        except ValueError:  # more digits than int() converts
            value = None
        if value is None:
            assert f"{attr} {text!r} is not an integer" in got
        else:
            element.set(attr, str(value))
            assert got == reading(tree, path)


def reference_reading(root: ET.Element):
    """What an ElementTree walk reads from an export whose elements were
    moved, duplicated or dropped, in the shape `reading` returns, or None
    where an element breaks the writer's layout.  Every attribute value is
    the writer's, so int() and float() read it."""
    def holds(el: ET.Element, tag: str) -> bool:
        return all(child.tag == tag for child in el)

    if [el.tag for el in root] != ["cluster", "ecus", "channels"]:
        return None
    cluster, ecus, channels = root
    if len(cluster) or not holds(ecus, "ecu") or not holds(channels, "channel"):
        return None
    ecu_ids = [ecu.get("id") for ecu in ecus]
    names = [channel.get("name") for channel in channels]
    if len(set(ecu_ids)) < len(ecu_ids) or len(set(names)) < len(names) \
            or any(len(ecu) for ecu in ecus):
        return None
    channel_of = {int(ecu.get("id")): ecu.get("channels") for ecu in ecus
                  if ecu.get("class") == "ONE_PORT" and ecu.get("channels")}
    columns = {}
    for channel in channels:
        if not holds(channel, "slot"):
            return None
        slot_ids = [int(slot.get("id")) for slot in channel]
        if len(set(slot_ids)) < len(slot_ids) \
                or int(channel.get("max-slot")) != max(slot_ids, default=0):
            return None
        for slot in channel:
            if not holds(slot, "frame"):
                return None
            frames = {}
            for frame in slot:
                base = int(frame.get("base-cycle"))
                if base in frames or not len(frame) or not holds(frame, "signal-instance") \
                        or any(len(si) for si in frame):
                    return None
                frames[base] = sorted(
                    (int(si.get("signal")), int(si.get("bit-offset")) // 8,
                     int(si.get("payload-bytes")), si.get("image") == "true",
                     int(si.get("repetition"))) for si in frame)
            columns[(channel.get("name"), int(slot.get("id")))] = (
                int(slot.get("owner")), slot.get("gateway") == "true", frames)
    config = NetworkConfig(float(cluster.get("cycle-duration-ms")),
                           int(cluster.get("slot-payload-bytes")))
    return config, channel_of, columns


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_moved_duplicated_or_dropped_elements_read_as_an_elementtree_walk(data):
    # one element of an export lifted into its grandparent (a signal
    # instance into its slot, a frame into its channel, ...), duplicated
    # or dropped, or the root's children reordered: the one-pass reader
    # reads what the tree walk reads, or both refuse
    root = ET.fromstring(EXPORTED)
    kind = data.draw(st.sampled_from(["lift", "duplicate", "drop", "reorder"]))
    parent_of = {child: parent for parent in root.iter() for child in parent}
    if kind == "reorder":
        root[:] = data.draw(st.permutations(list(root)))
    else:
        child = data.draw(st.sampled_from([el for el in parent_of
                                           if kind != "lift" or parent_of[el] is not root]))
        parent = parent_of[child]
        if kind == "drop":
            parent.remove(child)
        elif kind == "duplicate":
            parent.insert(data.draw(st.integers(0, len(parent))), copy.deepcopy(child))
        else:
            grandparent = parent_of[parent]
            parent.remove(child)
            grandparent.insert(data.draw(st.integers(0, len(grandparent))), child)
    expected = reference_reading(root)
    with tempfile.TemporaryDirectory() as tmp:
        got = reading(ET.ElementTree(root), Path(tmp, "mutated.xml"))
    if expected is None:
        assert isinstance(got, str)
    else:
        assert got == expected


def solved_export(inst: Instance) -> bytes:
    hg = build_hypergraph(inst)
    asg = solve_cah(hg, CriterionParams(alpha=default_alpha(hg)), tries_count=5, rng_seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "export.xml")
        export_fibex(inst, asg, schedule_channels(inst, asg), path)
        return path.read_bytes()


def read_outcome(path: Path):
    """What read_fibex_ecus makes of `path`: its error message, or the
    cluster, each channel's columns with their frames in the order read,
    the channel map and the ECU classes."""
    try:
        sched, channel_of, classes = read_fibex_ecus(path)
    except ValueError as exc:
        return str(exc)
    return sched.config, [
        [(slot, col.owner, col.is_gateway, list(col.frames.items()))
         for slot, col in sched.columns[ch].items()] for ch in CHANNELS
    ], list(channel_of.items()), list(classes.items())


# What an edit inserts into an attribute value or before a name: what the
# integer grammar refuses, what expat normalises (a tab), decodes (a
# non-ASCII letter, a character or entity reference) or reads as is.
INSERTS = ("\t", "0", "-", "+", "_", " ", "é", "&#52;", "&amp;")


def edit_lines(data, lines: list[bytes]) -> None:
    """Apply one line edit, drawn from `data`, to the lines of a file."""
    kind = data.draw(st.sampled_from(["insert", "attribute", "drop", "duplicate", "swap",
                                      "move", "crlf", "space"]))
    if kind == "insert":
        # a position in a value, or the first letter of a tag or attribute name
        spots = [(i, at) for i, line in enumerate(lines)
                 for m in re.finditer(rb'="([^"]*)"|(?<=[< /])[a-z]', line)
                 for at in (range(m.start(1), m.end(1) + 1) if m[1] is not None
                            else (m.start(),))]
        i, at = data.draw(st.sampled_from(spots))
        lines[i] = lines[i][:at] + data.draw(st.sampled_from(INSERTS)).encode() + lines[i][at:]
        return
    if kind == "attribute":
        # xmlns, or a second copy of the tag's first attribute
        tags = [(i, m.end(), m[1]) for i, line in enumerate(lines)
                for m in [re.match(rb' *<[a-z-]+( [a-z-]+="[^"]*")?', line)] if m]
        i, at, first = data.draw(st.sampled_from(tags))
        extra = data.draw(st.sampled_from([b' xmlns="u"'] + [first] * (first is not None)))
        lines[i] = lines[i][:at] + extra + lines[i][at:]
        return
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "move":
        line = lines.pop(i)
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    else:
        lines[i] = lines[i].rstrip(b"\n") + (b"\r\n" if kind == "crlf" else b" \n")


@settings(max_examples=250, derandomize=True, deadline=None)
@given(st.one_of(st.none(), windowed_instances()), st.integers(1, 3), st.data())
def test_line_edits_read_as_the_expat_pass(inst, edits, data):
    # an export of example1 or of a windowed instance after 1-3 line edits
    # (a line dropped, duplicated, swapped or moved, ended by CRLF or a
    # space, given one character in a value or before a name, or its tag
    # an xmlns or a repeated attribute) reads as the expat pass reads it:
    # the same schedule, channel map and classes, or the same message,
    # whichever path the file takes
    lines = (EXPORTED if inst is None else solved_export(inst)).splitlines(keepends=True)
    for _ in range(edits):
        edit_lines(data, lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "edited.xml")
        path.write_bytes(b"".join(lines))
        got = read_outcome(path)
        with mock.patch.object(fibex, "_read_lines", lambda file: None):
            assert got == read_outcome(path)


@pytest.mark.parametrize("old, new, message", [
    (b'<ecu ', b'<-ecu ', "not well-formed (invalid token)"),
    (b'signal="1"', b'signal="\t1"', "signal ' 1' is not an integer"),
    (b'<frame base-cycle="1"', b'<frame base-cycle="1" base-cycle="2"', "duplicate attribute"),
], ids=["name-dash", "value-tab", "repeated-attribute"])
def test_line_reader_leaves_what_expat_reads_otherwise(tmp_path, old, new, message):
    # a name expat refuses, a value it normalises and an attribute it
    # refuses to repeat are left to expat, which words the refusal
    path = tmp_path / "edited.xml"
    path.write_bytes(EXPORTED.replace(old, new, 1))
    with open(path, "rb") as file:
        assert fibex._read_lines(file) is None
    with pytest.raises(ValueError, match=re.escape(message)):
        read_fibex(path)


# Line edits, each refused at its own line whatever follows it: an integer
# attribute respelled as "x", a <bogus /> element inserted before a line,
# and an end tag that matches no open element inserted before a line.
FAULTS = ("value", "bogus", "break")


def fault_spots(lines: list[bytes], kind: str) -> list[int]:
    """The indices of the lines an edit of `kind` can change, or insert
    before (len(lines) for after the last)."""
    if kind == "value":
        return [i for i, line in enumerate(lines) if re.search(rb'="-?[0-9]+"', line)]
    return list(range(1, len(lines) + 1))


def line_fault(lines: list[bytes], kind: str, i: int) -> None:
    if kind == "value":
        lines[i] = re.sub(rb'="-?[0-9]+"', b'="x"', lines[i], count=1)
    else:
        lines.insert(i, b"<bogus />\n" if kind == "bogus" else b"</bogus>\n")


def assert_first_fault_refused(lines: list[bytes], first: tuple[str, int],
                               second: tuple[str, int]) -> None:
    """`lines` with the edits `first` and `second`, `first` at the earlier
    line, read as `lines` with `first` alone: the same refusal by the line
    path and by expat."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "edited.xml")

        def outcomes(*edits):
            edited = list(lines)
            for kind, i in sorted(edits, key=lambda edit: -edit[1]):
                line_fault(edited, kind, i)
            path.write_bytes(b"".join(edited))
            got = read_outcome(path)
            with mock.patch.object(fibex, "_read_lines", lambda file: None):
                return got, read_outcome(path)

        alone = outcomes(first)
        assert isinstance(alone[0], str) and alone[0] == alone[1]
        assert isinstance(outcomes(second)[0], str)
        assert outcomes(first, second) == alone


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(FAULTS), st.sampled_from(FAULTS), st.data())
def test_first_fault_in_the_file_is_refused(first, second, data):
    # of two faults in an export, at lines i < j, the refusal is the one
    # the fault at line i gives alone, on the line path and by expat
    lines = EXPORTED.splitlines(keepends=True)
    i = data.draw(st.sampled_from(fault_spots(lines, first)))
    later = [j for j in fault_spots(lines, second) if j > i]
    assume(later)
    assert_first_fault_refused(lines, (first, i), (second, data.draw(st.sampled_from(later))))


@pytest.mark.parametrize("first, second", [
    # a fault in a frame, then an element where channel A holds only slots
    (("value", rb' *<frame '), ("bogus", rb' *<slot id="2"')),
    # a fault in a signal instance, then one where its slot holds only frames
    (("value", rb' *<signal-instance '), ("bogus", rb' *</slot>')),
    # a fault in a frame, then one where channels holds only channels
    (("value", rb' *<frame '), ("bogus", rb' *</channels>')),
    # a fault in the cluster, then a line that breaks the XML
    (("value", rb' *<cluster '), ("break", rb'</flexray-schedule>')),
    # a misplaced element, then a line that breaks the XML
    (("bogus", rb' *<ecu '), ("break", rb' *<channel ')),
], ids=["frame-then-channel-child", "instance-then-slot-child",
        "frame-then-channels-child", "cluster-then-syntax", "element-then-syntax"])
def test_first_fault_is_refused_over_a_later_one_nearer_the_root(first, second):
    # the second fault lies nearer the root, or is a syntax error, yet the
    # first in the file is the one refused
    lines = EXPORTED.splitlines(keepends=True)

    def at(kind: str, pattern: bytes) -> tuple[str, int]:
        return kind, next(i for i, line in enumerate(lines) if re.match(pattern, line))

    assert_first_fault_refused(lines, at(*first), at(*second))


def test_content_fault_is_refused_without_the_file_name(tmp_path):
    # the reader words a content fault alone; a parser failure names the file
    path = tmp_path / "edited.xml"
    path.write_bytes(re.sub(rb'<frame base-cycle="[0-9]+"', b'<frame base-cycle="x"',
                            EXPORTED, count=1))
    with pytest.raises(ValueError) as refusal:
        read_fibex(path)
    assert str(refusal.value) == "frame in slot 1 on channel A: base-cycle 'x' is not an integer"


DOCTYPE = b'<!DOCTYPE flexray-schedule SYSTEM "x.dtd">\n'


@pytest.mark.parametrize("doctype, old, new", [
    (DOCTYPE, b'owner="', b'owner="&x;'),
    (DOCTYPE, b'channels="', b'channels="&x;'),
    (DOCTYPE, b'image="', b'image="&x;'),
    (DOCTYPE, b'<signal-instance ', b'&x;<signal-instance '),
    (b'<!DOCTYPE flexray-schedule [<!ENTITY x SYSTEM "x.xml">]>\n', b'<signal-instance ',
     b'&x;<signal-instance '),
    (b'<!DOCTYPE flexray-schedule>\n', b'', b''),
], ids=["owner", "channels", "image", "content", "external-entity", "bare"])
def test_document_type_declaration_exits_2(tmp_path, example1, capsys, doctype, old, new):
    # under a DTD expat may drop an entity it cannot expand, so a file
    # with one is refused, whatever it declares or references
    path = tmp_path / "doctype.xml"
    path.write_bytes(EXPORTED.replace(fibex._DECLARATION, fibex._DECLARATION + doctype, 1)
                     .replace(old, new, 1))
    message = "is not a schedule file: document type declaration <!DOCTYPE " \
              "flexray-schedule> is not allowed"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_fibex(path)
    inst_file = tmp_path / "example1.json"
    save_instance(example1, inst_file)
    assert main(["validate", str(inst_file), str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    (b'owner="', b'owner="&x;'),
    (b'<signal-instance ', b'&x;<signal-instance '),
], ids=["attribute", "content"])
def test_undefined_entity_without_a_dtd_is_expats_refusal(tmp_path, old, new):
    path = tmp_path / "entity.xml"
    path.write_bytes(EXPORTED.replace(old, new, 1))
    with pytest.raises(ValueError, match="is not a schedule file: undefined entity: line"):
        read_fibex(path)


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_file_read_from_a_pipe_reads_as_from_disk(tmp_path, line_end):
    # a pipe cannot be read twice, so expat alone reads it, in the writer's
    # line layout or not
    data = EXPORTED.replace(b"\n", line_end)
    path, pipe = tmp_path / "export.xml", tmp_path / "pipe"
    path.write_bytes(data)
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(data,), daemon=True)
    writer.start()
    got = read_outcome(pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == read_outcome(path)


@pytest.fixture(scope="module")
def realcase_export(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("realcase") / "realcase.xml"
    path.write_bytes(solved_export(generate(realcase_profile(), seed=0)))
    return path


def read_peak(path: Path) -> tuple[int, int]:
    """The tracemalloc peak of reading `path`, and what its schedule keeps,
    both above what was allocated before the read."""
    read_fibex(path)  # the first read fills the parser's and model's caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        readback = read_fibex(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert readback[0].frame_count() > 1000
    return peak - before, retained - before


def test_read_peak_stays_near_what_the_schedule_retains(realcase_export):
    # with no element tree, the memory the reader allocates while it reads
    # a realcase-sized export stays within twice what its schedule keeps;
    # the line path streams the file
    peak, retained = read_peak(realcase_export)
    assert peak < 2 * retained


def test_read_peak_of_a_crlf_copy_stays_near_what_the_schedule_retains(realcase_export):
    # CRLF line ends leave the writer's layout, so expat reads this copy
    path = realcase_export.with_name("realcase-crlf.xml")
    path.write_bytes(realcase_export.read_bytes().replace(b"\n", b"\r\n"))
    with open(path, "rb") as file:
        assert fibex._read_lines(file) is None
    peak, retained = read_peak(path)
    assert peak < 2 * retained


def test_read_peak_of_a_one_line_copy_stays_near_what_the_schedule_retains(realcase_export):
    # the whole document on the line after the writer's declaration: the
    # line reader gives up within its first piece of that line, so the
    # file is not held whole before expat reads it
    declaration, body = realcase_export.read_bytes().split(b"\n", 1)
    path = realcase_export.with_name("realcase-one-line.xml")
    path.write_bytes(declaration + b"\n" + body.replace(b"\n", b""))
    with open(path, "rb") as file:
        assert fibex._read_lines(file) is None
        assert file.tell() == len(fibex._DECLARATION) + fibex._LINE_LIMIT
    peak, retained = read_peak(path)
    assert peak < 2 * retained
