from __future__ import annotations

import dataclasses
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexseg.assignment import CriterionParams, default_alpha, solve_cah, solve_exact
from flexseg.cli import main
from flexseg.fibex import export_fibex, read_fibex
from flexseg.generator import sae_profile, generate
from flexseg.hypergraph import build_hypergraph
from flexseg.model import Instance, save_instance
from flexseg.scheduler import schedule_channels
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

    expected = set()
    for p in sched.placements:
        channels = ("A", "B") if p.channel == "BOTH" else (p.channel,)
        for ch in channels:
            expected.add((ch, p.slot, p.base_cycle))
    assert set(frames) == expected


def test_empty_schedule_skeleton(tmp_path, example1):
    inst = Instance(example1.config, example1.ecus, ())
    from flexseg.scheduler import Schedule
    from flexseg.assignment import ChannelAssignment
    asg = ChannelAssignment(channel_of={3: "A", 4: "A", 5: "B"}, payload_a=0,
                            payload_b=0, payload_gw=0, criterion=0.0)
    path = tmp_path / "empty.xml"
    export_fibex(inst, asg, Schedule(config=inst.config), path)
    root = ET.parse(path).getroot()
    assert len(root.find("ecus")) == len(inst.ecus)
    assert sum(len(ch) for ch in root.find("channels")) == 0


def test_roundtrip_recovers_every_placement(tmp_path, example1):
    asg, sched = solved_example1(example1)
    path = tmp_path / "example1.xml"
    export_fibex(example1, asg, sched, path)

    expected = set()
    for p in sched.placements:
        channels = ("A", "B") if p.channel == "BOTH" else (p.channel,)
        for ch in channels:
            expected.add((p.signal, ch, p.base_cycle, p.slot, p.offset_bytes,
                          p.is_image))
    assert independent_placements(path) == expected


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
    expected = set()
    for p in sched.placements:
        channels = ("A", "B") if p.channel == "BOTH" else (p.channel,)
        for ch in channels:
            expected.add((p.signal, ch, p.base_cycle, p.slot, p.offset_bytes,
                          p.is_image))
    assert independent_placements(path) == expected


@pytest.mark.parametrize("element, attr, value, message", [
    ("ecus/ecu[@id='3']", "channels", "X", "ecu 3: channels 'X' is not A or B"),
    ("channels/channel[@name='B']", "name", "C", "channel element: name 'C' is not A or B"),
])
def test_reader_rejects_unknown_channel_names(tmp_path, example1, capsys,
                                              element, attr, value, message):
    assert_reader_rejects(tmp_path, example1, capsys, element, attr, value, message)


def assert_reader_rejects(tmp_path, example1, capsys, element, attr, value, message):
    """Setting `attr` of the first `element` of an exported file to `value`
    makes read_fibex raise `message` and `flexseg validate` exit 2."""
    asg, sched = solved_example1(example1)
    path = tmp_path / "example1.xml"
    export_fibex(example1, asg, sched, path)
    tree = ET.parse(path)
    tree.getroot().find(element).set(attr, value)
    broken = tmp_path / "broken.xml"
    tree.write(broken)
    with pytest.raises(ValueError, match=message):
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
])
def test_reader_rejects_out_of_range_cycles(tmp_path, example1, capsys,
                                            element, attr, value, message):
    # a cluster, base cycle, repetition, offset, payload or flag the stored
    # frames cannot hold is an error naming its element, not dropped
    # occurrences, a failed shift, a silent false or a finding
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
