from __future__ import annotations

import dataclasses
import re
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
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
from flexseg.fibex import export_fibex, read_fibex
from flexseg.generator import sae_profile, generate
from flexseg.hypergraph import build_hypergraph
from conftest import example1_instance
from flexseg.model import Ecu, EcuKind, Instance, NetworkConfig, save_instance
from flexseg.scheduler import Occupancy, Schedule, SlotColumn, schedule_channels
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
    col = SlotColumn(owner=3, is_gateway=False, slot_payload_bytes=16)
    for base, occ in ((2, Occupancy(7, 12, 4, False, 2)), (1, Occupancy(5, 0, 16, False, 4)),
                      (2, Occupancy(6, 3, 9, False, 2)), (2, Occupancy(8, 0, 3, True, 4))):
        col.add(base, occ)
    sched.add_column("A", 3, col)
    sched.add_column("A", 1, SlotColumn(owner=0, is_gateway=True, slot_payload_bytes=16))
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
            assert got.mask == col.mask


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
    assert read_fibex(path)[0].placements == placements


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
    ("channels/channel[@name='B']", "name", "C", "channel element: name 'C' is not A or B"),
])
def test_reader_rejects_unknown_channel_names(tmp_path, example1, capsys,
                                              element, attr, value, message):
    assert_reader_rejects(tmp_path, example1, capsys, element, attr, value, message)


def assert_reader_rejects(tmp_path, example1, capsys, element, attr, value, message):
    """Setting `attr` of the first `element` of an exported file to `value`,
    or removing it when `value` is None, makes read_fibex raise `message`
    and `flexseg validate` exit 2."""
    asg, sched = solved_example1(example1)
    path = tmp_path / "example1.xml"
    export_fibex(example1, asg, sched, path)
    tree = ET.parse(path)
    if value is None:
        del tree.getroot().find(element).attrib[attr]
    else:
        tree.getroot().find(element).set(attr, value)
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
    or the cluster, the channel map and every column's stored frames."""
    tree.write(path)
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
