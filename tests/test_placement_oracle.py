"""place_to_schedule against a plain linear first-fit scan.

The oracle (`oracle_place` in conftest.py) visits every slot id from 1,
every feasible base cycle and every offset, and expands the stored
instances of each column (base cycle plus repetition) to their cycles
itself, so it shares neither the lanes nor the packed column masks of the
scheduler.  Random sequences of placements (originals on channel A or B,
gateway images, and requests repeated with a new signal id) must yield
the same placements and frames, and the lanes the scheduler keeps
placement by placement must equal lanes expanded here from the frames.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexseg.assignment import CH_A, CH_B
from flexseg.model import ALLOWED_PERIOD_CYCLES, NetworkConfig, Signal
from flexseg.scheduler import CHANNELS, InfeasibleWindowError, Schedule, place_to_schedule

from conftest import oracle_place

GATEWAY = 0


def grids(sched: Schedule):
    return {ch: {slot: (col.owner, col.is_gateway, col.frames)
                 for slot, col in sched.columns[ch].items()}
            for ch in CHANNELS}


def expected_lanes(sched: Schedule, h: int):
    """(open, masks) of each first-fit lane, expanded from the frames.  A
    lane's columns are those of one (channel, owner, gateway flag) in id
    order, indexed from 0.  Each instance sets bit (cycle - 1) * h + byte
    for every cycle from its base cycle on in steps of its repetition and
    every byte it covers; a column is open while some bit of its 64 * h
    is clear.  Asserts that each channel's columns are slots 1..len."""
    full = (1 << 64 * h) - 1
    lanes = {}
    for ch in CHANNELS:
        cols = sched.columns[ch]
        assert sorted(cols) == list(range(1, len(cols) + 1)), ch
        for t in sorted(cols):
            mask = 0
            for base, entries in cols[t].frames.items():
                for occ in entries:
                    for cycle in range(base, 65, occ.repetition):
                        for byte in range(occ.offset, occ.offset + occ.payload):
                            mask |= 1 << (cycle - 1) * h + byte
            open_, masks = lanes.setdefault((ch, cols[t].owner, cols[t].is_gateway),
                                            ([], []))
            if mask != full:
                open_.append(len(masks))
            masks.append(mask)
    return lanes


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
    target = draw(st.sampled_from((CH_A, CH_B)))
    return ("place", period, payload, release, float(hi), target,
            draw(st.integers(1, 3)), False, None)


@st.composite
def scenarios(draw):
    h = draw(st.integers(1, 16))
    steps = draw(st.lists(st.one_of(placements(h), placements(h), st.just(("repeat",))),
                          min_size=1, max_size=30))
    return h, steps


def play(h: int, steps) -> Schedule:
    """Apply the same steps to a schedule placed by place_to_schedule and
    one placed by the oracle; they must agree after every step.  Returns
    the schedule place_to_schedule built."""
    fast = Schedule(config=NetworkConfig(1.0, h))
    slow = Schedule(config=NetworkConfig(1.0, h))
    request = None
    for sid, step in enumerate(steps, start=1):
        if step[0] == "repeat":
            # the previous request again, with a new id
            if request is None:
                continue
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
        assert grids(fast) == grids(slow), step
        # the lanes kept placement by placement are those of the frames
        if fast._lanes is not None:
            kept = {key: (lane.open, lane.masks) for key, lane in fast._lanes.items()}
            assert kept == expected_lanes(fast, h), step
    assert fast.placements == slow.placements
    return fast


@settings(max_examples=300, derandomize=True, deadline=None)
@given(scenarios())
def test_first_fit_matches_linear_scan(scenario):
    play(*scenario)


def test_target_other_than_one_channel_refused():
    # first fit places on channel A or B; any other target is refused
    # before anything changes, even before the lanes are made
    sig = Signal(9, 2, 2, 2, 0.0, 2.0, False, frozenset({9}))
    empty = Schedule(config=NetworkConfig(1.0, 8))
    placed = play(8, [("place", 1, 8, 0.0, 1.0, CH_A, 1, False, None),
                      ("place", 2, 2, 0.0, 2.0, CH_B, 2, False, None),
                      ("place", 2, 4, 0.0, 2.0, CH_A, GATEWAY, True, 1)])

    def state():
        return (repr(placed.columns),
                {key: (list(lane.open), list(lane.masks), dict(lane.taken))
                 for key, lane in placed._lanes.items()},
                placed.place_calls, placed.fresh_slots, placed.scan_depth, placed.probes)

    before = state()
    for target in ("BOTH", "C"):
        for sched in (empty, placed):
            with pytest.raises(ValueError, match=f"target '{target}'"):
                place_to_schedule(sched, sig, target, 2)
        assert empty._lanes is None
        assert empty.columns == {CH_A: {}, CH_B: {}}
        assert state() == before


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
