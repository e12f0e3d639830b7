from __future__ import annotations

import random
from collections import Counter
from dataclasses import astuple, replace

import pytest

import flexseg.scheduler as scheduler
from flexseg.assignment import CH_A, CH_B, CriterionParams, evaluate_criterion, solve_exact
from flexseg.fibex import export_fibex, read_fibex
from flexseg.generator import GeneratorProfile, generate, sae_profile
from flexseg.hypergraph import build_hypergraph
from flexseg.model import (
    Ecu,
    EcuKind,
    Instance,
    NetworkConfig,
    Signal,
)
from flexseg.scheduler import (
    BOTH,
    InfeasibleWindowError,
    Occupancy,
    Schedule,
    SlotColumn,
    determine_channel,
    lbsc,
    place_to_schedule,
    reorder_slots,
    schedule_channels,
    schedule_single_channel,
    sort_signals,
)
from flexseg.validator import validate


def make_signal(sid, tx, period=1, payload=4, release=0.0, deadline=None,
                ft=False, receivers=(2,)):
    deadline = deadline if deadline is not None else period * 1.0
    return Signal(sid, tx, period, payload, release, deadline, ft,
                  frozenset(receivers))


def assignment_for(inst: Instance, channel_of: dict[int, str]):
    hg = build_hypergraph(inst)
    params = CriterionParams(alpha=0.0, beta=1.0)
    from flexseg.assignment import ChannelAssignment
    p_a, p_b, p_g, crit = evaluate_criterion(hg, channel_of, params)
    return ChannelAssignment(channel_of=channel_of, payload_a=p_a, payload_b=p_b,
                             payload_gw=p_g, criterion=crit)


# --- sorting ----------------------------------------------------------------

def test_sort_puts_fault_tolerant_first(example1):
    ordered = sort_signals(example1.signals)
    assert ordered[0].id == 1
    assert not any(s.fault_tolerant for s in ordered[1:])


def test_sort_keys_and_stability():
    a = make_signal(1, 2, period=2, payload=4)
    b = make_signal(2, 2, period=2, payload=8)
    c = make_signal(3, 2, period=1, payload=8)
    d = make_signal(4, 2, period=2, payload=8)  # identical keys to b
    ordered = sort_signals([a, b, c, d])
    # decreasing payload first, then increasing window gap (c has the
    # smaller deadline), then increasing period; ties keep input order
    assert [s.id for s in ordered] == [3, 2, 4, 1]


def test_sort_identical_keys_keep_input_order():
    signals = [make_signal(i, 2, period=2, payload=4) for i in (5, 3, 8, 1)]
    assert [s.id for s in sort_signals(signals)] == [5, 3, 8, 1]


def test_sort_decreasing_payload():
    small = make_signal(1, 2, payload=4)
    big = make_signal(2, 2, payload=8)
    assert [s.id for s in sort_signals([small, big])] == [2, 1]


# --- channel selection ------------------------------------------------------

def test_determine_channel_one_port_receiver(example1):
    asg = assignment_for(example1, {3: "B", 4: "B", 5: "A"})
    loads = {CH_A: 0.0, CH_B: 0.0}
    s3 = example1.signals[2]  # ECU2 -> {4}
    assert determine_channel(s3, example1.one_port_ids, asg.channel_of, loads) == CH_B
    s5 = example1.signals[4]  # ECU3 -> {4, 5}: spans both channels
    assert determine_channel(s5, example1.one_port_ids, asg.channel_of, loads) == BOTH


def test_determine_channel_balances_common_traffic(example1):
    asg = assignment_for(example1, {3: "B", 4: "B", 5: "A"})
    sig = make_signal(99, 1, receivers={2})  # common -> common
    one_port, channel_of = example1.one_port_ids, asg.channel_of
    assert determine_channel(sig, one_port, channel_of, {CH_A: 0.0, CH_B: 10.0}) == CH_A
    assert determine_channel(sig, one_port, channel_of, {CH_A: 10.0, CH_B: 0.0}) == CH_B


# --- placement --------------------------------------------------------------

def empty_schedule(h=8, m=1.0):
    return Schedule(config=NetworkConfig(m, h))


def test_place_first_signal(example1):
    sched = empty_schedule()
    sig = make_signal(1, 2, period=1, payload=4, deadline=64.0)
    (placement,) = place_to_schedule(sched, sig, CH_A, owner=2)
    assert (placement.slot, placement.base_cycle, placement.offset_bytes) == (1, 1, 0)


def test_frame_packing_two_signals_share_slot():
    sched = empty_schedule()
    s1 = make_signal(1, 2, period=1, payload=4, deadline=64.0)
    s2 = make_signal(2, 2, period=1, payload=4, deadline=64.0)
    (p1,) = place_to_schedule(sched, s1, CH_A, owner=2)
    (p2,) = place_to_schedule(sched, s2, CH_A, owner=2)
    assert p1.slot == p2.slot == 1
    assert (p1.offset_bytes, p2.offset_bytes) == (0, 4)


def brute_force_positions(sched: Schedule, sig: Signal, channel: str, owner: int):
    """All feasible (slot, base, offset) triples within the allocated slots,
    enumerated directly against the stored instances of each column."""
    h = sched.config.slot_payload_bytes
    feasible = []
    for slot in range(1, sched.max_slot(channel) + 1):
        col = sched.columns[channel].get(slot)
        if col is not None and (col.owner != owner or col.is_gateway):
            continue
        for base in range(1, sig.period_cycles + 1):
            if not ((base - 1) * sched.config.cycle_duration_ms >= sig.release_ms - 1e-9
                    and base * sched.config.cycle_duration_ms <= sig.deadline_ms + 1e-9):
                continue
            cycles = set(range(base, 65, sig.period_cycles))
            sharing = [occ for stored_base, entries in (col.frames.items() if col else ())
                       for occ in entries
                       if cycles & set(range(stored_base, 65, occ.repetition))]
            for offset in range(h - sig.payload_bytes + 1):
                if all(offset + sig.payload_bytes <= occ.offset
                       or occ.offset + occ.payload <= offset for occ in sharing):
                    feasible.append((slot, base, offset))
    return feasible


def test_long_signal_needs_fresh_slot():
    # 4-byte period-1 signal fills bytes 0..3 of every cycle in slot 1;
    # an 8-byte period-2 signal cannot fit anywhere in that slot
    sched = empty_schedule()
    filler = make_signal(1, 2, period=1, payload=4, deadline=64.0)
    place_to_schedule(sched, filler, CH_A, owner=2)
    wide = make_signal(2, 2, period=2, payload=8, deadline=64.0)
    assert brute_force_positions(sched, wide, CH_A, owner=2) == []
    (placement,) = place_to_schedule(sched, wide, CH_A, owner=2)
    assert placement.slot == 2


def test_placement_matches_brute_force_first_fit():
    rng = random.Random(4)
    for _ in range(20):
        sched = empty_schedule()
        owner = 2
        for sid in range(1, rng.randint(2, 12)):
            period = rng.choice([1, 2, 4, 8])
            sig = make_signal(sid, owner, period=period,
                              payload=rng.randint(1, 8), deadline=float(period))
            before = brute_force_positions(sched, sig, CH_A, owner)
            (placement,) = place_to_schedule(sched, sig, CH_A, owner=owner)
            got = (placement.slot, placement.base_cycle, placement.offset_bytes)
            if before:
                assert got == min(before)
            else:
                assert placement.slot == sched.max_slot(CH_A)


def test_infeasible_window_raises():
    sched = empty_schedule()
    sig = Signal(1, 2, 2, 4, 1.9, 2.0, False, frozenset({4}))
    with pytest.raises(InfeasibleWindowError, match="signal 1"):
        place_to_schedule(sched, sig, CH_A, owner=2)


def test_fresh_slot_uses_earliest_feasible_cycle():
    sched = empty_schedule()
    sig = Signal(1, 2, 4, 4, 1.0, 4.0, False, frozenset({4}))
    (placement,) = place_to_schedule(sched, sig, CH_A, owner=2)
    assert placement.base_cycle == 2  # cycle 1 is before the release


def test_slot_exclusive_to_owner():
    sched = empty_schedule()
    place_to_schedule(sched, make_signal(1, 2, payload=1, deadline=64.0), CH_A, owner=2)
    (placement,) = place_to_schedule(
        sched, make_signal(2, 3, payload=1, deadline=64.0), CH_A, owner=3)
    assert placement.slot == 2  # slot 1 belongs to ECU 2


def test_add_column_replacing_an_owner_is_seen_by_the_next_placement():
    # the replacement keeps the number of columns, so only the column
    # itself tells that slot 1 now belongs to ECU 3
    sched = empty_schedule()
    place_to_schedule(sched, make_signal(1, 2, payload=1, deadline=64.0), CH_A, owner=2)
    sched.add_column(CH_A, 1, SlotColumn(owner=3, is_gateway=False))
    (p3,) = place_to_schedule(sched, make_signal(2, 3, payload=1, deadline=64.0),
                              CH_A, owner=3)
    assert p3.slot == 1
    (p2,) = place_to_schedule(sched, make_signal(3, 2, payload=1, deadline=64.0),
                              CH_A, owner=2)
    assert p2.slot == 2


def test_add_column_clears_where_a_repeated_request_starts():
    # two identical full-width period-1 requests fill slots 1 and 2; once
    # slot 1 is emptied, the same request must find it again
    sched = empty_schedule()
    for sid, slot in ((1, 1), (2, 2)):
        (p,) = place_to_schedule(sched, make_signal(sid, 2, payload=8), CH_A, owner=2)
        assert p.slot == slot
    sched.add_column(CH_A, 1, SlotColumn(owner=2, is_gateway=False))
    (p,) = place_to_schedule(sched, make_signal(3, 2, payload=8), CH_A, owner=2)
    assert p.slot == 1


def test_read_back_schedule_places_like_the_exported_one(tmp_path, example1):
    asg = assignment_for(example1, {3: "B", 4: "B", 5: "A"})
    sched = schedule_channels(example1, asg)
    path = tmp_path / "example1.xml"
    export_fibex(example1, asg, sched, path)
    readback, _ = read_fibex(path)
    # (signal, target, owner, is_image, fixed base cycle)
    steps = [
        (make_signal(101, 2, period=2, payload=4, deadline=2.0), CH_A, 2, False, None),
        (make_signal(102, 2, period=4, payload=2, deadline=4.0), CH_B, 2, False, None),
        (make_signal(103, 1, period=1, payload=3, deadline=1.0), BOTH, 1, False, None),
        (make_signal(104, 4, period=2, payload=4, deadline=2.0), CH_B, 4, False, None),
        (make_signal(105, 4, period=2, payload=4, deadline=2.0), CH_A, 0, True, 2),
    ]
    for sig, target, owner, is_image, base in steps:
        kwargs = {"is_image": is_image, "fixed_base_cycle": base}
        assert (place_to_schedule(sched, sig, target, owner, **kwargs)
                == place_to_schedule(readback, sig, target, owner, **kwargs))
    assert readback.columns == sched.columns


# --- full channel scheduling ------------------------------------------------

def test_schedule_channels_places_through_the_module_attribute(monkeypatch, example1):
    # a tracer wraps place_to_schedule and reorder_slots from outside and
    # reads the slot of each call's one placement before renumbering
    asg = assignment_for(example1, {3: "B", 4: "B", 5: "A"})
    calls, renumbered = [], []
    place, reorder = scheduler.place_to_schedule, scheduler.reorder_slots

    def record_place(sched, sig, target, owner, **kwargs):
        placed = place(sched, sig, target, owner, **kwargs)
        calls.append((sched, sig.id, target, kwargs.get("is_image", False), placed))
        return placed

    def record_reorder(sched):
        renumbered.append(sched)
        return reorder(sched)

    monkeypatch.setattr(scheduler, "place_to_schedule", record_place)
    monkeypatch.setattr(scheduler, "reorder_slots", record_reorder)
    out = scheduler.schedule_channels(example1, asg)

    (pre,) = renumbered
    assert all(sched is pre and len(placed) == 1 for sched, *_, placed in calls)
    # the calls' placements, a BOTH one as an A and a B record, are what
    # the columns hold
    returned = Counter()
    for *_, (p,) in calls:
        for ch in (CH_A, CH_B) if p.channel == BOTH else (p.channel,):
            returned[astuple(replace(p, channel=ch))] += 1
    assert returned == Counter(astuple(p) for p in pre.placements)
    # renumbering moves gateway slots, so the recorded slots are the old ids
    new_ids = scheduler._renumber(pre)
    assert any(old != new for (_, old), new in new_ids.items())
    assert (Counter(astuple(replace(p, slot=new_ids[(p.channel, p.slot)]))
                    for p in pre.placements)
            == Counter(astuple(p) for p in out.placements))

    made = {}
    for _, sid, target, is_image, _ in calls:
        made.setdefault(sid, []).append((target, is_image))
    assert made[1] == [(BOTH, False)]  # fault-tolerant
    assert made[2] == [(CH_A, False), (CH_B, False)]  # common transmitter on both
    images = {sid: kinds for sid, kinds in made.items()
              if any(is_image for _, is_image in kinds)}
    assert images.keys() == {5, 6, 7, 9}
    home = {3: CH_B, 4: CH_B, 5: CH_A}
    for sid, kinds in images.items():
        ch = home[example1.signals[sid - 1].transmitter]
        assert kinds == [(ch, False), (CH_A if ch == CH_B else CH_B, True)]
    assert all(len(kinds) == 1 for sid, kinds in made.items() if sid not in {2, *images})


def test_schedule_example1(example1):
    asg = assignment_for(example1, {3: "B", 4: "B", 5: "A"})
    sched = schedule_channels(example1, asg)

    # the fault-tolerant signal occupies one identical position on both channels
    ft = [p for p in sched.placements if p.signal == 1]
    assert [p.channel for p in ft] == [CH_A, CH_B]
    assert len({(p.slot, p.base_cycle, p.offset_bytes) for p in ft}) == 1
    assert not any(p.is_image for p in ft)

    # images exist exactly for the one-port transmissions that span channels
    images = {p.signal for p in sched.placements if p.is_image}
    assert images == {5, 6, 7, 9}
    # the common-transmitter signal that spans channels is duplicated, not imaged
    s2 = [p for p in sched.placements if p.signal == 2]
    assert {p.channel for p in s2} == {CH_A, CH_B}
    assert not any(p.is_image for p in s2)

    # images of different originals share a gateway slot
    image_slots = {}
    for p in sched.placements:
        if p.is_image:
            image_slots.setdefault((p.channel, p.slot), []).append(p.signal)
    assert any(len(v) > 1 for v in image_slots.values())

    assert validate(example1, asg, sched) == []


def test_schedule_all_fault_tolerant(example1):
    signals = tuple(
        Signal(s.id, s.transmitter, s.period_cycles, s.payload_bytes,
               s.release_ms, s.deadline_ms, True, s.receivers)
        for s in example1.signals if s.transmitter in (1, 2)
    )
    inst = Instance(example1.config, example1.ecus, signals)
    asg = assignment_for(inst, {3: "A", 4: "A", 5: "A"})
    sched = schedule_channels(inst, asg)
    assert sched.gateway_slot_count() == 0
    assert sched.columns[CH_A].keys() == sched.columns[CH_B].keys()
    for slot in sched.columns[CH_A]:
        assert sched.columns[CH_A][slot].frames == sched.columns[CH_B][slot].frames
    # channel-for-channel identical to the single-channel baseline
    single = schedule_single_channel(inst)
    assert sched.columns[CH_A].keys() == single.columns[CH_A].keys()
    for slot in single.columns[CH_A]:
        assert sched.columns[CH_A][slot].frames == single.columns[CH_A][slot].frames


def test_schedule_single_sided_instance(example1):
    # all one-port endpoints on channel A: channel B stays empty
    signals = tuple(s for s in example1.signals
                    if not s.fault_tolerant and not s.receivers & {3}
                    and s.transmitter != 3)
    inst = Instance(example1.config, example1.ecus, signals)
    asg = assignment_for(inst, {3: "A", 4: "A", 5: "A"})
    sched = schedule_channels(inst, asg)
    assert sched.max_slot(CH_B) == 0
    assert validate(inst, asg, sched) == []


def test_schedule_deterministic(example1):
    asg = assignment_for(example1, {3: "B", 4: "B", 5: "A"})
    one = schedule_channels(example1, asg)
    two = schedule_channels(example1, asg)
    assert one.columns == two.columns
    assert one.placements == two.placements


# --- slot reordering --------------------------------------------------------

def test_reorder_images_after_latest_original():
    profile = sae_profile(3, ecu_count=10, signal_count=80,
                          common_ecu_fraction=0.3)
    for seed in range(6):
        inst = generate(profile, seed=seed)
        hg = build_hypergraph(inst)
        asg = solve_exact(hg, CriterionParams(alpha=0.01, beta=1.0))
        sched = schedule_channels(inst, asg)
        home_slot = {p.signal: p.slot for p in sched.placements if not p.is_image}
        for p in sched.placements:
            if p.is_image:
                assert p.slot > home_slot[p.signal]
        assert validate(inst, asg, sched) == []


def test_reorder_no_gateway_slots_is_identity(example1):
    signals = tuple(s for s in example1.signals if s.fault_tolerant)
    inst = Instance(example1.config, example1.ecus, signals)
    asg = assignment_for(inst, {3: "A", 4: "A", 5: "A"})
    sched = schedule_channels(inst, asg)
    again = reorder_slots(sched)
    assert again.columns == sched.columns
    assert again.placements == sched.placements


def test_reorder_pushes_gateway_past_cross_channel_original():
    # one gateway slot on A whose single original sits in slot 2 of B:
    # the gateway slot must land at id 3 or later
    ecus = (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.COMMON),
            Ecu(3, EcuKind.ONE_PORT), Ecu(4, EcuKind.ONE_PORT))
    signals = (
        make_signal(1, 2, payload=8, deadline=64.0, receivers={3}),   # fills B slot 1
        make_signal(2, 3, payload=8, deadline=64.0, receivers={4}),   # B slot 2, imaged
    )
    inst = Instance(NetworkConfig(1.0, 8), ecus, signals)
    asg = assignment_for(inst, {3: "B", 4: "A"})
    sched = schedule_channels(inst, asg)
    image = next(p for p in sched.placements if p.is_image)
    original = next(p for p in sched.placements if p.signal == 2 and not p.is_image)
    assert original.slot == 2 and original.channel == CH_B
    assert image.channel == CH_A and image.slot >= 3
    assert validate(inst, asg, sched) == []


def test_fault_tolerant_prefix_shares_ids_after_reorder():
    profile = sae_profile(2, ecu_count=10, signal_count=60,
                          common_ecu_fraction=0.5, fault_tolerant_fraction=0.4)
    inst = generate(profile, seed=11)
    hg = build_hypergraph(inst)
    asg = solve_exact(hg, CriterionParams(alpha=0.01, beta=1.0))
    sched = schedule_channels(inst, asg)
    # each fault-tolerant signal sits at one (slot, base, offset) on both
    # channels, and those slots are the first ids, none a gateway slot
    fault_tolerant = {s.id for s in inst.signals if s.fault_tolerant}
    where = {}
    for p in sched.placements:
        if p.signal in fault_tolerant:
            where.setdefault(p.signal, {})[p.channel] = (p.slot, p.base_cycle, p.offset_bytes)
    assert where and all(at.keys() == {CH_A, CH_B} and at[CH_A] == at[CH_B]
                         for at in where.values())
    prefix = {at[CH_A][0] for at in where.values()}
    assert prefix == set(range(1, len(prefix) + 1))
    assert not any(sched.columns[ch][slot].is_gateway for ch in (CH_A, CH_B) for slot in prefix)
    assert validate(inst, asg, sched) == []

    # frame_count counts each occupied (channel, slot, cycle) once
    period = {s.id: s.period_cycles for s in inst.signals}
    assert sched.frame_count() == len({(p.channel, p.slot, cycle) for p in sched.placements
                                       for cycle in range(p.base_cycle, 65, period[p.signal])})


# --- single channel and lower bound ----------------------------------------

def test_single_channel_example1(example1):
    sched = schedule_single_channel(example1)
    assert sched.max_slot(CH_B) == 0
    assert sched.max_slot(CH_A) >= lbsc(example1.signals, 8)


def test_single_channel_empty():
    inst = Instance(NetworkConfig(1.0, 8),
                    (Ecu(0, EcuKind.GATEWAY), Ecu(1, EcuKind.COMMON),
                     Ecu(2, EcuKind.COMMON)), ())
    assert schedule_single_channel(inst).allocated_slots() == 0


def test_lbsc_example1(example1):
    assert lbsc(example1.signals, 8) == 6


def test_lbsc_independent_arithmetic(example1):
    # recompute the bound from scratch: ceil of per-ECU byte-cycles over
    # the 64-cycle slot capacity
    import math
    loads = {}
    for s in example1.signals:
        loads.setdefault(s.transmitter, 0)
        loads[s.transmitter] += s.payload_bytes * (64 // s.period_cycles)
    expected = sum(math.ceil(v / (64 * 8)) for v in loads.values())
    assert lbsc(example1.signals, 8) == expected == 6


def test_lbsc_single_signal():
    assert lbsc([make_signal(1, 2, payload=1, period=64, deadline=64.0)], 8) == 1


def test_lbsc_below_single_channel_slots():
    for seed in range(8):
        inst = generate(GeneratorProfile(ecu_count=9, signal_count=150), seed=seed)
        single = schedule_single_channel(inst)
        assert lbsc(inst.signals, inst.config.slot_payload_bytes) <= single.max_slot(CH_A)


def test_dual_channel_saves_slots_on_average():
    from flexseg.driver import DriverConfig, run
    singles, duals = [], []
    for seed in range(10):
        inst = generate(sae_profile(1, ecu_count=10, signal_count=120), seed=seed)
        singles.append(schedule_single_channel(inst).max_slot(CH_A))
        result = run(inst, DriverConfig(cah_tries=20, max_iterations=3, rng_seed=seed))
        duals.append(result.schedule.allocated_slots())
    assert sum(duals) / len(duals) <= sum(singles) / len(singles)


def test_adding_a_signal_never_frees_slots():
    # append a signal that sorts last: the existing placement sequence is
    # unchanged, so the slot count cannot drop
    from flexseg.assignment import ChannelAssignment
    for seed in range(6):
        inst = generate(GeneratorProfile(ecu_count=8, signal_count=40), seed=seed)
        hg = build_hypergraph(inst)
        asg = solve_exact(hg, CriterionParams(alpha=0.01, beta=1.0))
        base = schedule_channels(inst, asg)
        extra = Signal(9999, inst.signals[0].transmitter, 64, 1, 0.0,
                       64.0 * inst.config.cycle_duration_ms, False,
                       inst.signals[0].receivers)
        grown = Instance(inst.config, inst.ecus, inst.signals + (extra,))
        bigger = schedule_channels(grown, asg)
        assert bigger.allocated_slots() >= base.allocated_slots()


def test_column_mask_keeps_only_the_bytes_inside_the_frame():
    # instances running past an 8-byte frame, as a schedule file may hold
    col = SlotColumn(owner=1, is_gateway=False)
    col.add(1, Occupancy(7, 6, 4, False, 64))
    col.add(2, Occupancy(8, 9, 2, False, 64))
    col.add(3, Occupancy(9, 0, 10**30, False, 64))
    masks = scheduler._SlotIndex.derive({CH_A: {1: col}, CH_B: {}}, 8).masks
    assert masks == {CH_A: {1: 0b11000000 | 0xFF << 16}, CH_B: {}}
