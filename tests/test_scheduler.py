from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexseg import scheduler as scheduler_mod
from flexseg.assignment import (
    CH_A,
    CH_B,
    ChannelAssignment,
    CriterionParams,
    evaluate_criterion,
    solve_exact,
)
from flexseg.fibex import export_fibex, read_fibex
from flexseg.generator import GeneratorProfile, generate, sae_profile
from flexseg.hypergraph import build_hypergraph
from flexseg.model import (
    Ecu,
    EcuKind,
    Instance,
    NetworkConfig,
    Signal,
    validate_instance,
)
from flexseg.scheduler import (
    BOTH,
    CHANNELS,
    InfeasibleWindowError,
    Occupancy,
    Schedule,
    SlotColumn,
    lbsc,
    place_to_schedule,
    placement_plan,
    reorder_slots,
    schedule_channels,
    schedule_single_channel,
    sort_signals,
)
from flexseg.validator import validate

from conftest import (
    narrow_windows,
    oracle_place,
    replay_single_channel,
    replay_through_place_to_schedule,
)


def make_signal(sid, tx, period=1, payload=4, release=0.0, deadline=None,
                ft=False, receivers=(2,)):
    deadline = deadline if deadline is not None else period * 1.0
    return Signal(sid, tx, period, payload, release, deadline, ft,
                  frozenset(receivers))


def assignment_for(inst: Instance, channel_of: dict[int, str]):
    hg = build_hypergraph(inst)
    params = CriterionParams(alpha=0.0, beta=1.0)
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

def records_of(sched: Schedule, sid: int) -> list[tuple[str, bool]]:
    """(channel, is_image) of each placement of signal `sid`, A first."""
    return [(p.channel, p.is_image) for p in sched.placements if p.signal == sid]


def test_one_port_endpoints_route_a_signal(example1):
    asg = assignment_for(example1, {3: "B", 4: "B", 5: "A"})
    sched = schedule_channels(example1, asg)
    ports = {sig.id: ports for sig, ports, *_ in placement_plan(example1)}
    assert ports[3] == (4,)  # ECU2 -> {4}
    assert records_of(sched, 3) == [(CH_B, False)]
    assert sorted(ports[5]) == [3, 4, 5]  # ECU3 -> {4, 5}: spans both channels
    assert records_of(sched, 5) == [(CH_A, True), (CH_B, False)]


def test_common_traffic_goes_to_the_lighter_channel(example1):
    # no one-port endpoint: each signal goes to the channel with less
    # volume so far, A on a tie; volumes 512, 256, 128, 128, 64
    signals = tuple(make_signal(sid, 1 + sid % 2, payload=payload, receivers={2 - sid % 2})
                    for sid, payload in ((1, 8), (2, 4), (3, 2), (4, 2), (5, 1)))
    inst = Instance(example1.config, example1.ecus, signals)
    sched = schedule_channels(inst, assignment_for(inst, {3: "A", 4: "A", 5: "B"}))
    assert {sid: records_of(sched, sid) for sid in range(1, 6)} == {
        1: [(CH_A, False)], 2: [(CH_B, False)], 3: [(CH_B, False)],
        4: [(CH_B, False)], 5: [(CH_A, False)]}


@pytest.mark.parametrize("channel_of, message", [
    ({3: "B", 4: "B"}, r"assigns no channel to one-port ECUs \[5\]$"),
    ({4: "B"}, r"assigns no channel to one-port ECUs \[3, 5\]$"),
    ({3: "B", 4: "C", 5: "A"}, r"a channel other than A or B: \{4: 'C'\}$"),
    ({3: BOTH, 4: "B", 5: None}, r"a channel other than A or B: \{3: 'BOTH', 5: None\}$"),
])
def test_schedule_channels_refuses_an_incomplete_or_malformed_map(example1, channel_of,
                                                                 message):
    # checked before anything is placed: side sets alone would send a
    # signal of an unassigned ECU to the other side's channel
    asg = ChannelAssignment(channel_of=channel_of, payload_a=0, payload_b=0,
                            payload_gw=0, criterion=0.0)
    with pytest.raises(ValueError, match=message):
        schedule_channels(example1, asg)


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


@pytest.mark.parametrize("bad", [
    Signal(3, 2, 3, 4, 0.0, 3.0, False, frozenset({4})),  # period not a power of two
    Signal(3, 2, 2, 9, 0.0, 2.0, False, frozenset({4})),  # payload over the slot
    Signal(3, 2, 2, 4, 1.9, 2.0, False, frozenset({4})),  # no base cycle in the window
])
def test_plan_refuses_what_place_to_schedule_refuses(example1, bad):
    with pytest.raises(ValueError) as placing:
        place_to_schedule(empty_schedule(), bad, CH_A, owner=2)
    inst = Instance(example1.config, example1.ecus,
                    (example1.signals[0], bad, example1.signals[3]))
    asg = assignment_for(example1, {3: "B", 4: "B", 5: "A"})
    for build in (lambda: placement_plan(inst), lambda: schedule_channels(inst, asg)):
        with pytest.raises(type(placing.value), match=f"^{re.escape(str(placing.value))}$"):
            build()


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


def test_request_evicted_from_the_fit_plan_cache_places_alike():
    # an evicted request comes back under a new id: it loses its refusal
    # memory, so it may test more columns, but it takes the same places
    def place_eleven(evict):
        sched = empty_schedule()
        placed = []
        for sid in range(1, 12):
            if evict:
                scheduler_mod._fit_plan.cache_clear()
            sig = make_signal(sid, 2, period=2, payload=3, deadline=64.0)
            placed += place_to_schedule(sched, sig, CH_A, owner=2)
        return sched, placed

    kept, kept_placed = place_eleven(False)
    evicted, evicted_placed = place_eleven(True)
    assert evicted_placed == kept_placed
    assert evicted.columns == kept.columns
    assert (evicted.place_calls, evicted.fresh_slots, evicted.scan_depth) == (
        kept.place_calls, kept.fresh_slots, kept.scan_depth)
    assert evicted.probes >= kept.probes


def test_place_refuses_a_schedule_it_did_not_build(tmp_path, example1):
    # place_to_schedule keeps lanes of its own from its first placement
    # onto an empty schedule; a schedule built by either builder, read back
    # or renumbered holds columns it never placed, so placing there is
    # refused and changes nothing
    asg = assignment_for(example1, {3: "B", 4: "B", 5: "A"})
    built = schedule_channels(example1, asg)
    path = tmp_path / "example1.xml"
    export_fibex(example1, asg, built, path)
    readback, _ = read_fibex(path)
    single = schedule_single_channel(example1)
    sig = make_signal(101, 2, period=2, payload=4, deadline=2.0)
    for sched in (built, readback, single):
        before = (repr(sched.columns), sched.place_calls, sched.fresh_slots,
                  sched.scan_depth, sched.probes)
        with pytest.raises(ValueError, match="holds columns placed otherwise"):
            place_to_schedule(sched, sig, CH_A, owner=2)
        assert (repr(sched.columns), sched.place_calls, sched.fresh_slots,
                sched.scan_depth, sched.probes) == before


# --- full channel scheduling ------------------------------------------------

@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 7), st.integers(5, 12), st.integers(0, 80),
       st.sampled_from([0.0, 0.3]), st.integers(0, 2**16), st.randoms(use_true_random=False))
def test_schedule_channels_matches_replay_through_place_to_schedule(
        level, ecus, signals, ft, gen_seed, rng):
    inst = narrow_windows(generate(sae_profile(level, ecu_count=ecus, signal_count=signals,
                                               fault_tolerant_fraction=ft), gen_seed), rng)
    validate_instance(inst)
    channel_of = {u: rng.choice((CH_A, CH_B)) for u in sorted(inst.one_port_ids)}
    asg = assignment_for(inst, channel_of)
    built = schedule_channels(inst, asg)
    assert validate(inst, asg, built) == []
    # the replay places a signal on both channels on A, then on B
    replayed, counts = replay_through_place_to_schedule(inst, channel_of)
    assert built.columns == replayed.columns
    assert (built.place_calls, built.fresh_slots, built.scan_depth) == (
        counts["place_calls"], counts["fresh_slots"], counts["scan_depth"])
    # both sides take their request ids from _fit_plan, so equal probes
    # check the counting, not how requests share refusal memory; the
    # corpus probe pins in test_corpus_digests.py check that
    assert built.probes == replayed.probes
    # every placement that opens no slot tests at least one column
    assert built.probes >= built.place_calls - built.fresh_slots
    # and to the linear scan, which shares no code with first fit
    scanned, counts = replay_through_place_to_schedule(inst, channel_of, oracle_place)
    assert built.columns == scanned.columns
    assert (built.place_calls, built.fresh_slots, built.scan_depth) == (
        counts["place_calls"], counts["fresh_slots"], counts["scan_depth"])
    again = schedule_channels(inst, asg, plan=placement_plan(inst))
    assert again.columns == built.columns
    assert (again.place_calls, again.fresh_slots, again.scan_depth, again.probes) == (
        built.place_calls, built.fresh_slots, built.scan_depth, built.probes)


def test_schedule_channels_routes_example1(example1):
    asg = assignment_for(example1, {3: "B", 4: "B", 5: "A"})
    sched = schedule_channels(example1, asg)
    made = {}
    for p in sched.placements:
        made.setdefault(p.signal, []).append(p)
    kinds = {sid: [(p.channel, p.is_image) for p in ps] for sid, ps in made.items()}
    # fault-tolerant: placed on A, then on B, at the same position on both
    assert kinds[1] == [(CH_A, False), (CH_B, False)]
    assert made[1][0].slot == made[1][1].slot
    assert kinds[2] == [(CH_A, False), (CH_B, False)]  # common transmitter on both
    images = {sid for sid, ks in kinds.items() if any(is_image for _, is_image in ks)}
    assert images == {5, 6, 7, 9}
    home = {3: CH_B, 4: CH_B, 5: CH_A}
    for sid in images:
        ch = home[example1.signals[sid - 1].transmitter]
        assert sorted(kinds[sid], key=lambda k: k[1]) == [
            (ch, False), (CH_A if ch == CH_B else CH_B, True)]
    assert all(len(ks) == 1 for sid, ks in kinds.items() if sid not in {1, 2, *images})
    # one call per signal, a second for signals 1 and 2 and one per image
    assert sched.place_calls == len(example1.signals) + 1 + 1 + len(images)
    # 10 calls open a fresh slot; each of the other 6 (signal 7's image,
    # signal 2 on A and on B, signals 5, 9 and 10) fits in the first
    # column it tests
    assert (sched.fresh_slots, sched.probes) == (10, 6)


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


def reference_renumber(sched: Schedule) -> dict[tuple[str, int], int]:
    """The renumbering the scheduler is held to: each original's (channel,
    slot) looked up, then each channel's non-gateway chain and gateway
    columns kept in lists for a second loop."""
    # an imaged original is on its one-port transmitter's channel only
    original_slot = {occ.signal: (ch, t) for ch in CHANNELS
                     for t, col in sched.columns[ch].items() if not col.is_gateway
                     for entries in col.frames.values() for occ in entries}

    new_ids: dict[tuple[str, int], int] = {}
    chains: dict[str, list[int]] = {}
    gateways: dict[str, list[int]] = {}
    for ch in CHANNELS:
        pre = sorted(sched.columns[ch])
        chains[ch] = [t for t in pre if not sched.columns[ch][t].is_gateway]
        gateways[ch] = [t for t in pre if sched.columns[ch][t].is_gateway]
        for new_id, t in enumerate(chains[ch], start=1):
            new_ids[(ch, t)] = new_id

    for ch in CHANNELS:
        pending = []
        for t in gateways[ch]:
            frames = sched.columns[ch][t].frames
            latest = max((new_ids[original_slot[occ.signal]]
                          for entries in frames.values() for occ in entries), default=0)
            pending.append((t, latest))
        tick = len(chains[ch]) + 1
        while pending:
            eligible = [item for item in pending if item[1] < tick]
            if eligible:
                first = min(eligible)
                new_ids[(ch, first[0])] = tick
                pending.remove(first)
            tick += 1
    return new_ids


@st.composite
def column_layouts(draw) -> Schedule:
    """Hand-built columns on both channels at distinct slot ids, put in
    drawn order.  Each original column holds one or two signals of its
    owner; each gateway column holds images of one to three signals whose
    originals sit anywhere on the other channel, so gateway columns may
    have to wait for a later id and yield to one behind them."""
    sched = Schedule(config=NetworkConfig(1.0, 8))
    layout = {ch: draw(st.lists(st.tuples(st.integers(1, 16), st.booleans()),
                                min_size=1, max_size=10, unique_by=lambda c: c[0]))
              for ch in CHANNELS}
    originals: dict[str, list[int]] = {ch: [] for ch in CHANNELS}
    for ch in CHANNELS:
        for t, gateway in layout[ch]:
            owner = 0 if gateway else draw(st.integers(1, 3))
            col = sched.columns[ch][t] = SlotColumn(owner, gateway)
            if gateway:
                continue  # filled below, once every original is drawn
            for offset in range(draw(st.integers(1, 2))):
                originals[ch].append(signal := 100 * len(originals[ch]) + ord(ch))
                col.add(draw(st.integers(1, 4)), Occupancy(signal, offset, 1, False, 4))
    for ch, other in zip(CHANNELS, reversed(CHANNELS)):
        for t, gateway in layout[ch]:
            if gateway and originals[other]:
                images = draw(st.lists(st.sampled_from(originals[other]), min_size=1,
                                       max_size=3, unique=True))
                for offset, signal in enumerate(images):
                    sched.columns[ch][t].add(draw(st.integers(1, 4)),
                                             Occupancy(signal, offset, 1, True, 4))
            elif gateway:  # nothing to retransmit: an original column after all
                col = sched.columns[ch][t] = SlotColumn(1, False)
                col.add(1, Occupancy(1000 * ord(ch) + t, 0, 1, False, 4))
    return sched


def slot_ids(before: Schedule, after: Schedule) -> dict[tuple[str, int], int]:
    """The id each column of `before` has in `after`, matched by identity."""
    new_id = {id(col): t for ch in CHANNELS for t, col in after.columns[ch].items()}
    return {(ch, t): new_id[id(col)]
            for ch in CHANNELS for t, col in before.columns[ch].items()}


def assert_images_follow_originals(sched: Schedule) -> None:
    """V8: each gateway column has a higher id than the original of every
    signal it retransmits."""
    original = {occ.signal: t for ch in CHANNELS for t, col in sched.columns[ch].items()
                if not col.is_gateway for entries in col.frames.values() for occ in entries}
    for ch in CHANNELS:
        for t, col in sched.columns[ch].items():
            if col.is_gateway:
                for entries in col.frames.values():
                    assert all(original[occ.signal] < t for occ in entries), (ch, t)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(column_layouts())
def test_reorder_matches_reference_renumbering(sched):
    again = reorder_slots(sched)
    assert slot_ids(sched, again) == reference_renumber(sched)
    assert_images_follow_originals(again)


def test_waiting_gateway_column_yields_to_a_later_one():
    # A holds one original and, in first-fit order, gateway columns 2 and
    # 3.  Column 2 retransmits B's third original and must wait past it;
    # column 3 retransmits B's first and takes id 2 ahead of it.
    sched = Schedule(config=NetworkConfig(1.0, 8))
    sched.columns[CH_A][1] = SlotColumn(1, False)
    sched.columns[CH_A][1].add(1, Occupancy(1, 0, 8, False, 1))
    for t, signal in ((2, 13), (3, 11)):
        sched.columns[CH_A][t] = SlotColumn(0, True)
        sched.columns[CH_A][t].add(1, Occupancy(signal, 0, 8, True, 1))
    for t in (1, 2, 3):
        sched.columns[CH_B][t] = SlotColumn(2, False)
        sched.columns[CH_B][t].add(1, Occupancy(10 + t, 0, 8, False, 1))
    again = reorder_slots(sched)
    expected = {(CH_A, 1): 1, (CH_A, 2): 4, (CH_A, 3): 2,
                (CH_B, 1): 1, (CH_B, 2): 2, (CH_B, 3): 3}
    assert slot_ids(sched, again) == reference_renumber(sched) == expected
    assert_images_follow_originals(again)


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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 7), st.integers(5, 12), st.integers(0, 80),
       st.sampled_from([0.0, 0.3]), st.integers(0, 2**16), st.randoms(use_true_random=False))
def test_single_channel_matches_placement_through_place_to_schedule(
        level, ecus, signals, ft, gen_seed, rng):
    inst = narrow_windows(generate(sae_profile(level, ecu_count=ecus, signal_count=signals,
                                               fault_tolerant_fraction=ft), gen_seed), rng)
    # now and then one signal no slot can take: an empty window or a
    # payload above the slot's
    if inst.signals and rng.random() < 0.2:
        k = rng.randrange(len(inst.signals))
        sig = inst.signals[k]
        sig = (dataclasses.replace(sig, release_ms=sig.deadline_ms) if rng.random() < 0.5
               else dataclasses.replace(sig, payload_bytes=inst.config.slot_payload_bytes + 1))
        inst = dataclasses.replace(
            inst, signals=inst.signals[:k] + (sig,) + inst.signals[k + 1:])
    # the reference: every signal in placement order, through the public
    # place_to_schedule, on channel A for its transmitter
    try:
        expected, _ = replay_single_channel(inst)
    except ValueError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            schedule_single_channel(inst)
        return
    single = schedule_single_channel(inst)
    assert single.columns == expected.columns
    assert single.placements == expected.placements
    assert (single.place_calls, single.fresh_slots, single.scan_depth, single.probes) == (
        expected.place_calls, expected.fresh_slots, expected.scan_depth, expected.probes)
    # and the same replay through the linear scan
    scanned, counts = replay_single_channel(inst, oracle_place)
    assert single.columns == scanned.columns
    assert (single.place_calls, single.fresh_slots, single.scan_depth) == (
        counts["place_calls"], counts["fresh_slots"], counts["scan_depth"])


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
