"""place_to_schedule against a plain linear first-fit scan.

The oracle visits every slot id from 1, every feasible base cycle and
every offset, and expands the stored instances of each column (base cycle
plus repetition) to their cycles itself, so it shares neither the owner
index nor the packed column masks of the scheduler.  Random sequences of
placements, with hand-built columns before and between them and
requests repeated with a new signal id, must yield the same placements
and frames, and the masks the index keeps placement by placement must
equal those it derives from the frames.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexseg.assignment import CH_A, CH_B
from flexseg.model import (
    ALLOWED_PERIOD_CYCLES,
    NetworkConfig,
    Signal,
    base_cycle_window,
)
from flexseg.scheduler import (
    BOTH,
    CHANNELS,
    InfeasibleWindowError,
    Occupancy,
    Placement,
    Schedule,
    SlotColumn,
    _SlotIndex,
    place_to_schedule,
)

GATEWAY = 0


def oracle_place(sched: Schedule, sig: Signal, target: str, owner: int, *,
                 is_image: bool = False,
                 fixed_base_cycle: int | None = None) -> list[Placement]:
    """Linear first-fit scan: slot ids ascending from 1, base cycles
    ascending within the window, offsets ascending; a fresh slot at
    max_slot+1 when nothing fits."""
    h = sched.config.slot_payload_bytes
    channels = CHANNELS if target == BOTH else (target,)
    if fixed_base_cycle is not None:
        bases = [fixed_base_cycle]
    else:
        bases = base_cycle_window(sig.period_cycles, sig.release_ms, sig.deadline_ms,
                                  sched.config.cycle_duration_ms)
        if not bases:
            raise InfeasibleWindowError(f"signal {sig.id}")
    probe = (1 << sig.payload_bytes) - 1

    # a fresh slot gets id 1 or above, even beside columns below 1
    limit = max(0, *(sched.max_slot(ch) for ch in channels)) + 1
    chosen = None
    for slot in range(1, limit + 1):
        cols = [sched.columns[ch].get(slot) for ch in channels]
        if any(c is not None and (c.owner != owner or c.is_gateway != is_image)
               for c in cols):
            continue
        for base in bases:
            cycles = set(range(base, 65, sig.period_cycles))
            used = 0
            for col in cols:
                for stored_base, entries in col.frames.items() if col else ():
                    for occ in entries:
                        if cycles & set(range(stored_base, 65, occ.repetition)):
                            used |= ((1 << occ.payload) - 1) << occ.offset
            offset = next((o for o in range(h - sig.payload_bytes + 1)
                           if not used & probe << o), None)
            if offset is not None:
                chosen = (slot, base, offset)
                break
        if chosen:
            break
    if chosen is None:
        chosen = (limit, bases[0], 0)

    slot, base, offset = chosen
    occ = Occupancy(signal=sig.id, offset=offset, payload=sig.payload_bytes,
                    is_image=is_image, repetition=sig.period_cycles)
    for ch in channels:
        sched.columns[ch].setdefault(slot, SlotColumn(owner=owner, is_gateway=is_image)).add(
            base, occ)
    return [Placement(signal=sig.id, channel=target, base_cycle=base,
                      slot=slot, offset_bytes=offset, is_image=is_image)]


def grids(sched: Schedule):
    return {ch: {slot: (col.owner, col.is_gateway, col.frames)
                 for slot, col in sched.columns[ch].items()}
            for ch in CHANNELS}


def add_by_hand(sched: Schedule, ch: str, slot: int, owner: int, occupancies,
                replace: bool = False) -> None:
    """Add occurrences through SlotColumn.add to the column at `slot`, or to
    a new one if there is none or `replace` is set, and store the column
    through Schedule.add_column."""
    col = None if replace else sched.columns[ch].get(slot)
    col = col or SlotColumn(owner=owner, is_gateway=owner == GATEWAY)
    for sid, period, base, offset, payload in occupancies:
        col.add(base, Occupancy(sid, offset, payload, col.is_gateway, period))
    sched.add_column(ch, slot, col)


@st.composite
def hand_columns(draw, h: int):
    """(channel, slot, owner, occupancies, replace) of a column built by
    hand; the slot id may be below 1, an occupancy may run past the end of
    the frame, and a replacing column can free bytes or change the owner."""
    ch = draw(st.sampled_from(CHANNELS))
    slot = draw(st.integers(-1, 12))
    owner = draw(st.integers(0, 3))
    occupancies = []
    for _ in range(draw(st.integers(0, 3))):
        period = draw(st.sampled_from(ALLOWED_PERIOD_CYCLES))
        payload = draw(st.integers(1, h))
        occupancies.append((draw(st.integers(1000, 1999)), period,
                            draw(st.integers(1, period)),
                            draw(st.integers(0, h - 1)), payload))
    return ("hand", ch, slot, owner, occupancies, draw(st.booleans()))


@st.composite
def placements(draw, h: int):
    """Arguments of one place_to_schedule call: an original with a
    window, possibly restricted or empty, or a gateway image with a
    fixed base cycle."""
    period = draw(st.sampled_from(ALLOWED_PERIOD_CYCLES))
    payload = draw(st.integers(1, h))
    if draw(st.booleans()):
        target = draw(st.sampled_from((CH_A, CH_B)))
        base = draw(st.integers(1, period))
        return ("place", period, payload, 0.0, float(period), target, GATEWAY,
                True, base)
    lo = draw(st.integers(1, period))
    hi = draw(st.integers(lo, period))
    # a half-cycle release shifts the first feasible base past lo, which
    # can leave the window empty
    release = lo - 1 + draw(st.sampled_from((0.0, 0.5)))
    target = draw(st.sampled_from((CH_A, CH_B, BOTH)))
    return ("place", period, payload, release, float(hi), target,
            draw(st.integers(1, 3)), False, None)


@st.composite
def scenarios(draw):
    h = draw(st.integers(1, 16))
    steps = draw(st.lists(hand_columns(h), max_size=5))
    steps += draw(st.lists(st.one_of(placements(h), placements(h), hand_columns(h),
                                     st.tuples(st.just("repeat"), st.booleans())),
                           min_size=1, max_size=25))
    return h, steps


def play(h: int, steps) -> None:
    """Apply the same steps to a schedule placed by place_to_schedule and
    one placed by the oracle; they must agree after every step."""
    fast = Schedule(config=NetworkConfig(1.0, h))
    slow = Schedule(config=NetworkConfig(1.0, h))
    request = taken = None
    for sid, step in enumerate(steps, start=1):
        if step[0] == "hand":
            for sched in (fast, slow):
                add_by_hand(sched, *step[1:])
            continue
        if step[0] == "repeat":
            # the previous request again, with a new id; with step[1] set,
            # first empty the lowest column below the slot it took, so
            # that the slot could take it; none after an infeasible request
            if taken is None:
                continue
            ch, owner = CH_A if request[5] == BOTH else request[5], request[6]
            below = [t for t in sorted(fast.columns[ch]) if 1 <= t < taken]
            if step[1] and below:
                for sched in (fast, slow):
                    add_by_hand(sched, ch, below[0], owner, [], replace=True)
            step = request
        request = step
        _, period, payload, release, deadline, target, owner, is_image, base = step
        sig = Signal(sid, owner or 1, period, payload, release, deadline, False,
                     frozenset({9}))
        outcome = []
        for sched, place in ((fast, place_to_schedule), (slow, oracle_place)):
            try:
                outcome.append(place(sched, sig, target, owner, is_image=is_image,
                                     fixed_base_cycle=base))
            except InfeasibleWindowError:
                outcome.append("infeasible")
        assert outcome[0] == outcome[1], step
        taken = None if outcome[0] == "infeasible" else outcome[0][0].slot
        assert grids(fast) == grids(slow), step
        # the masks kept placement by placement are those of the frames
        if fast._index is not None:
            assert fast._index.masks == _SlotIndex.derive(fast.columns, h).masks, step
    assert fast.placements == slow.placements


@settings(max_examples=300, derandomize=True, deadline=None)
@given(scenarios())
def test_first_fit_matches_linear_scan(scenario):
    play(*scenario)


def test_holes_on_one_channel_match_linear_scan():
    # channel A has slots 2 and 5 with holes at 1, 3 and 4; channel B runs
    # 1..3, so BOTH placements must skip B's foreign slots and fill A's
    # holes in id order
    steps = [
        ("hand", CH_A, 2, 1, [(1001, 1, 1, 0, 6)]),
        ("hand", CH_A, 5, 2, [(1002, 2, 2, 2, 3)]),
        ("hand", CH_B, 1, 3, [(1003, 1, 1, 0, 8)]),
        ("hand", CH_B, 2, 1, [(1004, 4, 1, 0, 2)]),
        ("hand", CH_B, 3, 2, []),
    ]
    places = [
        (1, 2, 0.0, 1.0, BOTH, 1, False, None),
        (2, 4, 0.0, 2.0, BOTH, 2, False, None),
        (1, 8, 0.0, 1.0, BOTH, 2, False, None),
        (4, 3, 1.0, 4.0, CH_A, 1, False, None),
        (8, 5, 0.0, 8.0, CH_A, GATEWAY, True, 3),
        (1, 8, 0.0, 1.0, BOTH, 3, False, None),
        (2, 4, 0.0, 2.0, CH_B, 1, False, None),
    ]
    play(8, steps + [("place", *p) for p in places])


def test_unpackable_arguments_rejected():
    # the packed masks hold periods that divide the 64-cycle hyperperiod,
    # payloads within the frame and base cycles within the period
    sched = Schedule(config=NetworkConfig(1.0, 8))
    with pytest.raises(ValueError, match="period_cycles 3"):
        place_to_schedule(sched, Signal(1, 3, 3, 4, 0.0, 3.0, False, frozenset({4})),
                          CH_A, owner=3)
    for payload in (0, 9):
        with pytest.raises(ValueError, match=f"payload_bytes {payload} outside 1..8"):
            place_to_schedule(sched, Signal(1, 3, 4, payload, 0.0, 4.0, False,
                                            frozenset({4})), CH_A, owner=3)
    sig = Signal(2, 3, 4, 4, 0.0, 4.0, False, frozenset({4}))
    for base in (0, 5):
        with pytest.raises(ValueError, match="fixed base cycle"):
            place_to_schedule(sched, sig, CH_A, owner=GATEWAY, is_image=True,
                              fixed_base_cycle=base)
    assert sched.columns == {CH_A: {}, CH_B: {}}
