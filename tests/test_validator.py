from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexseg.assignment import CH_A, CH_B, ChannelAssignment, CriterionParams, solve_cah
from flexseg.generator import generate, sae_profile
from flexseg.hypergraph import build_hypergraph
from flexseg.model import ALLOWED_PERIOD_CYCLES, Ecu, EcuKind, Instance, NetworkConfig, Signal
from flexseg.scheduler import CHANNELS, Occupancy, Schedule, SlotColumn, schedule_channels
from flexseg.validator import Violation, validate
from flexseg.driver import DriverConfig, run


def plain_assignment(channel_of):
    return ChannelAssignment(channel_of=channel_of, payload_a=0, payload_b=0,
                             payload_gw=0, criterion=0.0)


def add_occurrences(col: SlotColumn, signal: int, base: int, period: int,
                    offset: int, payload: int, is_image=False):
    col.add(base, Occupancy(signal=signal, offset=offset, payload=payload,
                            is_image=is_image, repetition=period))


def codes(violations):
    return {v.code for v in violations}


def test_reference_fragment_has_no_packing_violations():
    """Hand-built fragment: 4-byte signals packed at offsets 0 and 4 of one
    slot on A (period 1 and 2), an 8-byte signal at slot 2 base cycle 2 on
    B; byte ranges and periodicity must pass."""
    ecus = (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.COMMON),
            Ecu(3, EcuKind.ONE_PORT), Ecu(4, EcuKind.ONE_PORT), Ecu(5, EcuKind.ONE_PORT))
    signals = (
        Signal(8, 5, 1, 4, 0.0, 2.0, False, frozenset({2})),
        Signal(9, 5, 2, 4, 0.0, 2.0, False, frozenset({2})),
        Signal(3, 2, 2, 8, 0.0, 2.0, False, frozenset({4})),
    )
    inst = Instance(NetworkConfig(1.0, 8), ecus, signals)
    sched = Schedule(config=inst.config)

    col_a3 = SlotColumn(owner=5, is_gateway=False)
    add_occurrences(col_a3, signal=8, base=1, period=1, offset=0, payload=4)
    add_occurrences(col_a3, signal=9, base=1, period=2, offset=4, payload=4)
    sched.columns[CH_A][3] = col_a3

    col_b2 = SlotColumn(owner=2, is_gateway=False)
    add_occurrences(col_b2, signal=3, base=2, period=2, offset=0, payload=8)
    sched.columns[CH_B][2] = col_b2

    asg = plain_assignment({3: CH_B, 4: CH_B, 5: CH_A})
    violations = validate(inst, asg, sched)
    assert not any(v.code in ("V2", "V4") for v in violations)


def test_overlapping_frames_flagged_v2():
    ecus = (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.COMMON))
    signals = (
        Signal(1, 1, 1, 8, 0.0, 64.0, False, frozenset({2})),
        Signal(2, 1, 1, 8, 0.0, 64.0, False, frozenset({2})),
    )
    inst = Instance(NetworkConfig(1.0, 8), ecus, signals)
    sched = Schedule(config=inst.config)
    col = SlotColumn(owner=1, is_gateway=False)
    add_occurrences(col, signal=1, base=1, period=1, offset=0, payload=8)
    add_occurrences(col, signal=2, base=1, period=1, offset=0, payload=8)
    sched.columns[CH_A][1] = col
    violations = validate(inst, plain_assignment({}), sched)
    assert "V2" in codes(violations)


def test_missing_signal_flagged_v1(example1):
    sched = Schedule(config=example1.config)
    violations = validate(example1, plain_assignment({3: CH_A, 4: CH_A, 5: CH_A}), sched)
    assert all(v.code == "V1" for v in violations)
    assert len(violations) == len(example1.signals)


def test_jitter_flagged_v4():
    # (period of signal 1, [(base, repetition, offset) of each stored instance])
    cases = [
        # every 8 cycles: cycles 5, 13, ... are missing
        (4, [(1, 8, 0)]),
        # every 4th cycle between them, but at two offsets
        (4, [(1, 8, 0), (5, 8, 4)]),
        # a base cycle beyond the period: cycles 1 and 2 are missing
        (4, [(6, 4, 0)]),
        # the one occurrence of a period-64 signal, stored with repetition 32
        (64, [(33, 32, 0)]),
    ]
    ecus = (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.COMMON))
    for period, stored in cases:
        signals = (Signal(1, 1, period, 4, 0.0, 64.0, False, frozenset({2})),)
        inst = Instance(NetworkConfig(1.0, 8), ecus, signals)
        sched = Schedule(config=inst.config)
        col = SlotColumn(owner=1, is_gateway=False)
        for base, repetition, offset in stored:
            col.add(base, Occupancy(1, offset, 4, False, repetition))
        sched.columns[CH_A][1] = col
        assert "V4" in codes(validate(inst, plain_assignment({}), sched)), stored


def test_window_violation_flagged_v5():
    ecus = (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.COMMON))
    signals = (Signal(1, 1, 4, 4, 2.0, 4.0, False, frozenset({2})),)
    inst = Instance(NetworkConfig(1.0, 8), ecus, signals)
    sched = Schedule(config=inst.config)
    col = SlotColumn(owner=1, is_gateway=False)
    add_occurrences(col, signal=1, base=1, period=4, offset=0, payload=4)  # too early
    sched.columns[CH_A][1] = col
    assert "V5" in codes(validate(inst, plain_assignment({}), sched))


def test_fault_tolerant_misalignment_flagged_v6(example1):
    hg = build_hypergraph(example1)
    asg = solve_cah(hg, CriterionParams(alpha=1 / 52), tries_count=20, rng_seed=0)
    sched = schedule_channels(example1, asg)
    assert validate(example1, asg, sched) == []
    # displace the fault-tolerant signal on channel B by one slot
    fault_tolerant = {s.id for s in example1.signals if s.fault_tolerant}
    ft_slot = next(p.slot for p in sched.placements
                   if p.channel == CH_B and p.signal in fault_tolerant)
    col = sched.columns[CH_B].pop(ft_slot)
    fresh = sched.max_slot(CH_B) + 1
    sched.columns[CH_B][fresh] = col
    assert "V6" in codes(validate(example1, asg, sched))


def test_wrong_channel_flagged_v9(example1):
    hg = build_hypergraph(example1)
    asg = solve_cah(hg, CriterionParams(alpha=1 / 52), tries_count=20, rng_seed=0)
    sched = schedule_channels(example1, asg)
    flipped = dict(asg.channel_of)
    some = next(iter(flipped))
    flipped[some] = CH_B if flipped[some] == CH_A else CH_A
    wrong = ChannelAssignment(channel_of=flipped, payload_a=0, payload_b=0,
                              payload_gw=0, criterion=0.0)
    result = codes(validate(example1, wrong, sched))
    assert "V9" in result or "V7" in result


def test_unassigned_one_port_ecu_reported_once(example1):
    # ECU 5 transmits signals 8 and 9 and ECU 4 signals 7 and 10, and each
    # receives five signals.  Each is reported once,
    # where first met: 5's originals are on channel A, whose columns come
    # before B's, where 4's are.
    sched = schedule_channels(example1, plain_assignment({3: CH_B, 4: CH_B, 5: CH_A}))
    assert validate(example1, plain_assignment({3: CH_B, 4: CH_B}), sched) == [
        Violation("V9", "one-port ECU 5 has no channel assigned")]
    assert validate(example1, plain_assignment({3: CH_B}), sched) == [
        Violation("V9", "one-port ECU 5 has no channel assigned"),
        Violation("V9", "one-port ECU 4 has no channel assigned")]


def test_base_cycle_outside_hyperperiod_flagged_v4():
    # a hand-built instance no cycle of 1..64 can hold is a finding, not a
    # failed shift or an empty cycle set
    ecus = (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.COMMON))
    signals = (Signal(1, 1, 4, 4, 0.0, 64.0, False, frozenset({2})),)
    inst = Instance(NetworkConfig(1.0, 8), ecus, signals)
    for base in (0, -3, 65):
        sched = Schedule(config=inst.config)
        col = SlotColumn(owner=1, is_gateway=False)
        col.frames[base] = [Occupancy(1, 0, 4, False, 4)]
        sched.columns[CH_A][1] = col
        violations = validate(inst, plain_assignment({}), sched)
        assert [(v.code, v.message) for v in violations] == [
            ("V4", f"signal 1 at (A,1,{base}): base cycle {base} or repetition 4 is out of "
                   f"range"),
            ("V1", "signal 1 is not placed")]


def test_image_preceding_original_flagged_v8():
    ecus = (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.COMMON),
            Ecu(3, EcuKind.ONE_PORT), Ecu(4, EcuKind.ONE_PORT))
    signals = (Signal(1, 3, 1, 4, 0.0, 64.0, False, frozenset({4})),)
    inst = Instance(NetworkConfig(1.0, 8), ecus, signals)
    sched = Schedule(config=inst.config)
    col_b = SlotColumn(owner=3, is_gateway=False)
    add_occurrences(col_b, signal=1, base=1, period=1, offset=0, payload=4)
    sched.columns[CH_B][2] = col_b
    col_gw = SlotColumn(owner=0, is_gateway=True)
    add_occurrences(col_gw, signal=1, base=1, period=1, offset=0, payload=4,
                    is_image=True)
    sched.columns[CH_A][1] = col_gw  # image slot id below the original's
    asg = plain_assignment({3: CH_B, 4: CH_A})
    assert "V8" in codes(validate(inst, asg, sched))


def test_gateway_slot_with_original_flagged_v3():
    ecus = (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.COMMON))
    signals = (Signal(1, 1, 1, 4, 0.0, 64.0, False, frozenset({2})),)
    inst = Instance(NetworkConfig(1.0, 8), ecus, signals)
    sched = Schedule(config=inst.config)
    col = SlotColumn(owner=0, is_gateway=True)
    add_occurrences(col, signal=1, base=1, period=1, offset=0, payload=4)
    sched.columns[CH_A][1] = col
    assert "V3" in codes(validate(inst, plain_assignment({}), sched))


def test_receiver_cannot_hear_flagged_v7():
    ecus = (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.COMMON),
            Ecu(3, EcuKind.ONE_PORT), Ecu(4, EcuKind.ONE_PORT))
    signals = (Signal(1, 3, 1, 4, 0.0, 64.0, False, frozenset({4})),)
    inst = Instance(NetworkConfig(1.0, 8), ecus, signals)
    sched = Schedule(config=inst.config)
    col = SlotColumn(owner=3, is_gateway=False)
    add_occurrences(col, signal=1, base=1, period=1, offset=0, payload=4)
    sched.columns[CH_B][1] = col
    # receiver 4 sits on channel A and no image exists
    asg = plain_assignment({3: CH_B, 4: CH_A})
    assert "V7" in codes(validate(inst, asg, sched))


def test_pipeline_schedules_are_clean_across_profiles():
    for level in (1, 4, 7):
        for seed in range(4):
            inst = generate(sae_profile(level, ecu_count=10, signal_count=120,
                                        fault_tolerant_fraction=0.15), seed=seed)
            result = run(inst, DriverConfig(cah_tries=10, max_iterations=3,
                                            rng_seed=seed))
            assert validate(inst, result.assignment, result.schedule) == []


def test_validator_is_pure(example1):
    hg = build_hypergraph(example1)
    asg = solve_cah(hg, CriterionParams(alpha=1 / 52), tries_count=20, rng_seed=0)
    sched = schedule_channels(example1, asg)
    first = validate(example1, asg, sched)
    second = validate(example1, asg, sched)
    assert first == second == []


def test_violation_json_shape():
    from flexseg.validator import Violation
    v = Violation("V2", "overlap")
    assert v.to_json_dict() == {"code": "V2", "message": "overlap"}


def test_slot_id_below_one_flagged_v3():
    # an otherwise clean frame in slot 0: FlexRay static slot ids start at 1
    ecus = (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.COMMON))
    signals = (Signal(1, 1, 1, 4, 0.0, 64.0, False, frozenset({2})),)
    inst = Instance(NetworkConfig(1.0, 8), ecus, signals)
    for slot in (0, -3):
        sched = Schedule(config=inst.config)
        col = SlotColumn(owner=1, is_gateway=False)
        add_occurrences(col, signal=1, base=1, period=1, offset=0, payload=4)
        sched.columns[CH_A][slot] = col
        violations = validate(inst, plain_assignment({}), sched)
        assert [v.code for v in violations] == ["V3"]
        assert "below 1" in violations[0].message


def expanded_frame_findings(inst, sched):
    """Reference for the frame checks: the (code, message) of every V2, V4
    and V5 finding, in validate's order, from expanding each stored
    instance to a list entry per cycle and summing and sorting each cycle."""
    out = []
    signals = {s.id: s for s in inst.signals}
    h = inst.config.slot_payload_bytes
    m = inst.config.cycle_duration_ms
    groups = {}
    for ch in CHANNELS:
        for slot, col in sched.columns[ch].items():
            cells = {}
            for base, entries in col.frames.items():
                for occ in entries:
                    sig = signals.get(occ.signal)
                    if sig is None:
                        continue
                    if occ.payload != sig.payload_bytes:
                        out.append(("V2", f"signal {sig.id} at ({ch},{slot},{base}): stored "
                                          f"payload {occ.payload} != {sig.payload_bytes}"))
                    if occ.repetition != sig.period_cycles:
                        out.append(("V4", f"signal {sig.id} at ({ch},{slot},{base}): "
                                          f"repetition {occ.repetition} != period "
                                          f"{sig.period_cycles}"))
                    span = (occ.offset, occ.offset + sig.payload_bytes, sig.id)
                    if span[0] < 0 or span[1] > h:
                        out.append(("V2", f"signal {sig.id} outside frame bounds in "
                                          f"({ch},{slot},{base})"))
                    cyc_map = groups.setdefault((sig.id, ch, slot, occ.is_image), {})
                    for cycle in range(base, 65, occ.repetition):
                        cells.setdefault(cycle, []).append(span)
                        if cycle in cyc_map:
                            out.append(("V2", f"signal {sig.id} twice in frame "
                                              f"({ch},{slot},{cycle})"))
                        cyc_map[cycle] = occ.offset
            for cycle, spans in cells.items():
                total = sum(hi - lo for lo, hi, _ in spans)
                if total > h:
                    out.append(("V2", f"frame ({ch},{slot},{cycle}) payload {total} "
                                      f"exceeds {h}"))
                spans.sort()
                for (_, a_hi, a_id), (b_lo, _, b_id) in zip(spans, spans[1:]):
                    if b_lo < a_hi:
                        out.append(("V2", f"signals {a_id} and {b_id} overlap in frame "
                                          f"({ch},{slot},{cycle})"))
    for (sig_id, ch, slot, _), cyc_map in groups.items():
        sig = signals[sig_id]
        if len(set(cyc_map.values())) > 1:
            out.append(("V4", f"signal {sig_id} on ({ch},{slot}): occurrences at "
                              f"differing offsets"))
        base = min(cyc_map)
        if base > sig.period_cycles or \
                sorted(cyc_map) != list(range(base, 65, sig.period_cycles)):
            out.append(("V4", f"signal {sig_id} on ({ch},{slot}): cycles {sorted(cyc_map)} "
                              f"are not every {sig.period_cycles} cycles from a base in "
                              f"1..{sig.period_cycles}"))
        if not ((base - 1) * m >= sig.release_ms - 1e-9
                and base * m <= sig.deadline_ms + 1e-9):
            out.append(("V5", f"signal {sig_id} base cycle {base} violates window "
                              f"[{sig.release_ms}, {sig.deadline_ms}] ms"))
    return out


@st.composite
def hand_built_columns(draw):
    """An instance of up to four signals from common ECU 1 and a schedule of
    hand-built columns on both channels: any repetition, bases in 1..64
    (above the repetition too), offsets past either end of the frame,
    stored payloads off the signal's, a signal stored twice in one slot
    and an unknown signal id."""
    h = draw(st.sampled_from((2, 8, 16)))
    signals = []
    for sig_id in range(1, draw(st.integers(1, 4)) + 1):
        period = draw(st.sampled_from(ALLOWED_PERIOD_CYCLES))
        signals.append(Signal(sig_id, 1, period, draw(st.integers(1, h)),
                              draw(st.sampled_from((0.0, 2.0))),
                              draw(st.sampled_from((period * 1.0, 64.0))), False,
                              frozenset({2})))
    inst = Instance(NetworkConfig(1.0, h),
                    (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.COMMON)),
                    tuple(signals))
    sched = Schedule(config=inst.config)
    for ch in CHANNELS:
        for slot in range(1, draw(st.integers(0, 2)) + 1):
            col = SlotColumn(owner=1, is_gateway=False)
            for _ in range(draw(st.integers(1, 5))):
                sig_id = draw(st.integers(1, len(signals) + 1))
                payload = signals[sig_id - 1].payload_bytes if sig_id <= len(signals) else 1
                col.add(draw(st.integers(1, 64)), Occupancy(
                    sig_id, draw(st.integers(-2, h)),
                    draw(st.sampled_from((payload, payload + 1))), draw(st.booleans()),
                    draw(st.sampled_from(ALLOWED_PERIOD_CYCLES))))
            sched.columns[ch][slot] = col
    return inst, sched


@settings(max_examples=200, derandomize=True, deadline=None)
@given(hand_built_columns())
def test_frame_checks_match_per_cycle_expansion(case):
    inst, sched = case
    found = [(v.code, v.message) for v in validate(inst, plain_assignment({}), sched)
             if v.code in ("V2", "V4", "V5")]
    assert found == expanded_frame_findings(inst, sched)


def fault_case(signal, columns, channel_of):
    """An instance of gateway 0, common ECUs 1 and 2 and one-port ECUs 3 and
    4 holding one `signal`, a schedule of `columns` given as (channel, slot,
    owner, is_gateway, [(base, offset, is_image)]) with the signal's period
    and payload, and a channel map."""
    inst = Instance(NetworkConfig(1.0, 8),
                    (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.COMMON),
                     Ecu(3, EcuKind.ONE_PORT), Ecu(4, EcuKind.ONE_PORT)),
                    (signal,))
    sched = Schedule(config=inst.config)
    for ch, slot, owner, is_gateway, stored in columns:
        col = SlotColumn(owner=owner, is_gateway=is_gateway)
        for base, offset, is_image in stored:
            add_occurrences(col, signal.id, base, signal.period_cycles, offset,
                            signal.payload_bytes, is_image)
        sched.columns[ch][slot] = col
    return inst, sched, plain_assignment(channel_of)


def signal_from(transmitter, receivers, period=1, fault_tolerant=False):
    return Signal(1, transmitter, period, 4, 0.0, 64.0, fault_tolerant,
                  frozenset(receivers))


# (signal, columns, channel map, expected (code, message) pairs)
BACK_HALF_FAULTS = {
    "owner not an ECU": (
        signal_from(1, {2}), [(CH_A, 1, 9, False, [(1, 0, False)])], {},
        [("V3", "(A,1): owner 9 is not an ECU")]),
    "gateway flag against owner class": (
        signal_from(1, {2}), [(CH_A, 1, 1, True, [(1, 0, False)])], {},
        [("V3", "(A,1): gateway flag does not match owner class"),
         ("V3", "original signal 1 in gateway slot (A,1)")]),
    "transmitter other than the owner": (
        signal_from(1, {2}), [(CH_A, 1, 2, False, [(1, 0, False)])], {},
        [("V3", "signal 1 in slot (A,1) owned by ECU 2, transmitter is 1")]),
    "fault-tolerant signal with an image": (
        signal_from(1, {2}, fault_tolerant=True),
        [(CH_A, 1, 1, False, [(1, 0, False)]), (CH_B, 1, 1, False, [(1, 0, False)]),
         (CH_B, 2, 0, True, [(1, 0, True)])], {},
        [("V1", "fault-tolerant signal 1 has an image")]),
    "image that is not needed": (
        signal_from(1, {2}),
        [(CH_A, 1, 1, False, [(1, 0, False)]), (CH_B, 2, 0, True, [(1, 0, True)])], {},
        [("V1", "signal 1 has an image but needs none")]),
    "image and original on one channel": (
        signal_from(3, {4}),
        [(CH_A, 1, 3, False, [(1, 0, False)]), (CH_A, 2, 0, True, [(1, 0, True)])],
        {3: CH_A, 4: CH_A},
        [("V1", "signal 1: image and original both on channel A")]),
    "original placed twice": (
        signal_from(1, {2}),
        [(CH_A, 1, 1, False, [(1, 0, False)]), (CH_A, 2, 1, False, [(1, 0, False)])], {},
        [("V1", "signal 1 placed twice on channel A")]),
    "image placed twice": (
        signal_from(3, {4}),
        [(CH_A, 1, 3, False, [(1, 0, False)]), (CH_B, 2, 0, True, [(1, 0, True)]),
         (CH_B, 3, 0, True, [(1, 0, True)])],
        {3: CH_A, 4: CH_B},
        [("V1", "signal 1 image placed twice on channel B")]),
    "image base and slot": (
        signal_from(3, {4}, period=2),
        [(CH_A, 2, 3, False, [(1, 0, False)]), (CH_B, 1, 0, True, [(2, 0, True)])],
        {3: CH_A, 4: CH_B},
        [("V8", "signal 1: image base cycle 2 != original 1"),
         ("V8", "signal 1: image slot 1 not after original slot 2")]),
    "receiver without a channel": (
        signal_from(1, {3}), [(CH_A, 1, 1, False, [(1, 0, False)])], {},
        [("V9", "one-port ECU 3 has no channel assigned")]),
    "transmitter without a channel": (
        signal_from(3, {2}), [(CH_A, 1, 3, False, [(1, 0, False)])], {},
        [("V9", "one-port ECU 3 has no channel assigned")]),
    "transmitted on the wrong channel": (
        signal_from(3, {2}), [(CH_A, 1, 3, False, [(1, 0, False)])], {3: CH_B},
        [("V9", "signal 1 transmitted by ECU 3 on channel A, assigned to B"),
         ("V9", "one-port ECU 3 owns slot 1 on channel A, assigned to B")]),
    "owner on the wrong channel": (
        signal_from(1, {2}),
        [(CH_A, 1, 1, False, [(1, 0, False)]), (CH_A, 2, 3, False, [])], {3: CH_B},
        [("V9", "one-port ECU 3 owns slot 2 on channel A, assigned to B")]),
}


@pytest.mark.parametrize("name", list(BACK_HALF_FAULTS))
def test_back_half_rules_report_each_fault(name):
    """One hand-built fault per row; the findings are compared as a
    multiset, since their order across rules is not part of the contract."""
    signal, columns, channel_of, expected = BACK_HALF_FAULTS[name]
    inst, sched, asg = fault_case(signal, columns, channel_of)
    found = Counter((v.code, v.message) for v in validate(inst, asg, sched))
    assert found == Counter(expected)
