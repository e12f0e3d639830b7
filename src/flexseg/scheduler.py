"""Channel scheduling: pack signal occurrences into slot/cycle/offset grids.

Slots live on a single id timeline shared by both channels: the same slot
id can carry a frame from a different owner on each channel.  First fit
places on one channel at a time; a signal on both channels is placed on
A, then on B.  Fault-tolerant signals sort first, so they occupy identical
positions on both channels; cross-channel signals get a gateway-
retransmitted image on the opposite channel, placed in the same base cycle
and pushed to a strictly later slot by the final reordering pass.

Every slot has one owner, so first fit is a set of independent lanes,
one per (channel, owner, gateway flag), each owning its columns.  A
one-port transmitter sends every signal of its own from one lane, its
home lane, whatever channel the map gives it and in either builder.  So
the placement plan packs each home lane once, and every schedule built
from the plan, by either builder, shares its columns, numbered on the
transmitter's channel at the rows that opened them.  The builders run
first fit only for the lanes of common transmitters and the gateway, and
`place_to_schedule` keeps lanes of its own.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import count

from .assignment import CH_A, CH_B, ChannelAssignment
from .model import (
    ALLOWED_PERIOD_CYCLES,
    HYPERPERIOD_CYCLES,
    Instance,
    NetworkConfig,
    Signal,
    base_cycle_window,
)

BOTH = "BOTH"
CHANNELS = (CH_A, CH_B)


class InfeasibleWindowError(ValueError):
    """No base cycle satisfies a signal's release/deadline window."""


@dataclass(slots=True)
class Placement:
    signal: int
    channel: str  # CH_A or CH_B; a signal on both channels has a record on each
    base_cycle: int
    slot: int
    offset_bytes: int
    is_image: bool = False


@dataclass(slots=True)
class Occupancy:
    """One signal instance of a frame: it occurs in the frame's base cycle
    and every `repetition` cycles after it."""
    signal: int
    offset: int
    payload: int
    is_image: bool
    repetition: int


@dataclass
class SlotColumn:
    """The frames of one slot on one channel, keyed by base cycle as in
    the FIBEX file."""
    owner: int
    is_gateway: bool
    frames: dict[int, list[Occupancy]] = field(default_factory=dict, init=False)

    def add(self, base: int, occ: Occupancy) -> None:
        self.frames.setdefault(base, []).append(occ)


def by_offset(occ: Occupancy) -> tuple[int, int]:
    """The order of the signal instances of one frame in the FIBEX file."""
    return occ.offset, occ.signal


@lru_cache(maxsize=None)
def _cycle_pattern(period: int, h: int) -> int:
    """Bit 0 of every `period`-th cycle of a column mask."""
    return sum(1 << k * period * h for k in range(HYPERPERIOD_CYCLES // period))


@dataclass(slots=True, eq=False)
class _Lane:
    """The columns of one owner and gateway flag on one channel: where
    first fit looks for a request of that owner and flag.

    The lane owns its columns, `cols`, and their masks, `masks`, in the
    order it opened them, indexed from 0.  A mask holds the occupied bytes
    of its column, all cycles as one int, bit (cycle - 1) * h + byte.  A
    column the lane opens takes the next id of `channel`, the schedule's
    columns of its channel; a home lane has no channel, and a builder
    numbers its columns.  Ids on a channel rise in the order columns
    open, so index order is id order.  `open` holds the ascending indices
    of the columns that are not full.  `taken` maps a request id to the
    index the last such request took.  Every candidate below it refused
    it, and masks only grow, so an identical request starts its scan
    there.  `probes` counts the columns the lane's placements tested."""
    owner: int
    is_gateway: bool
    channel: dict[int, SlotColumn] | None
    cols: list[SlotColumn] = field(default_factory=list)
    masks: list[int] = field(default_factory=list)
    open: list[int] = field(default_factory=list)
    taken: dict = field(default_factory=dict)
    probes: int = 0


class _Lanes(dict):
    """The lanes of one schedule, keyed by (channel, owner, gateway flag)
    and made at their first request, each opening its columns on its
    channel of `columns`."""

    def __init__(self, columns: dict[str, dict[int, SlotColumn]]) -> None:
        super().__init__()
        self.columns = columns

    def __missing__(self, key: tuple[str, int, bool]) -> _Lane:
        target, owner, is_gateway = key
        lane = self[key] = _Lane(owner, is_gateway, self.columns[target])
        return lane


def _count(sched: Schedule, probes: int) -> None:
    """Write first fit's counters to `sched`, placed from empty, with
    `probes` the columns its placements tested.  Each placement stores
    one signal instance, and a slot opens only where a placement fell back
    to the next id, so the rest are read off the columns."""
    sched.place_calls = sched.scan_depth = 0
    for cols in sched.columns.values():
        for slot, col in cols.items():
            placed = sum(map(len, col.frames.values()))
            sched.place_calls += placed
            sched.scan_depth += slot * placed
    sched.fresh_slots = sum(map(len, sched.columns.values()))
    sched.probes = probes


@dataclass
class Schedule:
    config: NetworkConfig
    columns: dict[str, dict[int, SlotColumn]] = field(
        default_factory=lambda: {CH_A: {}, CH_B: {}})
    # place_to_schedule's lanes, made at its first placement
    _lanes: _Lanes | None = field(default=None, init=False, repr=False,
                                  compare=False)
    # First fit's counters over the placements that built the columns:
    # calls, fallbacks to a fresh slot, the sum of the slot ids taken
    # before renumbering, and the candidate columns tested (the fallback
    # to a fresh slot is not a probe).
    place_calls: int = field(default=0, compare=False)
    fresh_slots: int = field(default=0, compare=False)
    scan_depth: int = field(default=0, compare=False)
    probes: int = field(default=0, compare=False)

    @property
    def placements(self) -> list[Placement]:
        """The columns' signal instances in FIBEX file order; a signal on
        both channels is an A and a B record."""
        return [Placement(occ.signal, ch, base, slot, occ.offset, occ.is_image)
                for ch in CHANNELS
                for slot, col in sorted(self.columns[ch].items())
                for base, entries in sorted(col.frames.items())
                for occ in sorted(entries, key=by_offset)]

    def max_slot(self, channel: str) -> int:
        cols = self.columns[channel]
        return max(cols) if cols else 0

    def allocated_slots(self) -> int:
        return max(self.max_slot(CH_A), self.max_slot(CH_B))

    def gateway_slot_count(self) -> int:
        return sum(
            1 for ch in CHANNELS for col in self.columns[ch].values() if col.is_gateway
        )

    def frame_count(self) -> int:
        """Occupied (channel, slot, cycle) frames."""
        count = 0
        for ch in CHANNELS:
            for col in self.columns[ch].values():
                # bit c - 1 for each cycle c in which the column holds an instance
                cycles = 0
                for base, entries in col.frames.items():
                    for occ in entries:
                        cycles |= _cycle_pattern(occ.repetition, 1) << base - 1
                count += (cycles & (1 << HYPERPERIOD_CYCLES) - 1).bit_count()
        return count


def sort_signals(signals) -> list[Signal]:
    """Stable order: fault-tolerant first, then decreasing payload,
    increasing release-to-deadline gap, increasing period."""
    return sorted(signals, key=lambda s: (
        0 if s.fault_tolerant else 1,
        -s.payload_bytes,
        s.deadline_ms - s.release_ms,
        s.period_cycles,
    ))


def signal_volume(sig: Signal) -> int:
    """Payload bytes weighted by occurrence count over the hyperperiod."""
    return sig.payload_bytes * sig.occurrence_count()


_request_ids = count()


@lru_cache(maxsize=1024)
def _fit_plan(period: int, h: int, payload: int, bases: tuple[int, ...]):
    """A first-fit request: shifts and masks that find the first free
    (base, offset) in a column mask for a signal of this period and
    payload within `bases`, the base a fresh slot takes, the slot's bytes
    `h`, the mask of a full column and the request id.

    Folding the mask onto `period` cycles ORs the occurrences of every base
    together; bit (base - 1) * h + offset of the free-run mask is set when
    bytes offset..offset+payload-1 are free in all of them.  `pattern`
    shifted to that bit is the bytes the signal covers in a column mask.

    The id keys first fit's refusal memory.  The cache returns one tuple
    for equal arguments, so equal requests share an id.  Ids are never
    reused, so a request evicted from the cache comes back under a new id
    and loses only its refusal memory, never takes another's."""
    fold, width = [], HYPERPERIOD_CYCLES * h
    while width > period * h:
        width //= 2
        fold.append(width)
    runs, length = [], 1
    while length < payload:
        step = min(length, payload - length)
        runs.append(step)
        length += step
    starts = (1 << max(h - payload + 1, 0)) - 1
    allowed = sum(starts << (b - 1) * h for b in bases)
    pattern = _cycle_pattern(period, h) * ((1 << payload) - 1)
    return (tuple(fold), (1 << width) - 1, tuple(runs), allowed, pattern, bases[0],
            h, (1 << HYPERPERIOD_CYCLES * h) - 1, next(_request_ids))


def _checked_bases(sig: Signal, config: NetworkConfig,
                   fixed_base_cycle: int | None = None) -> tuple[int, ...]:
    """The base cycles first fit may give `sig`: `fixed_base_cycle` alone,
    or else its release/deadline window.  A period or payload that no slot
    can take, a fixed cycle outside the period or an empty window is a
    ValueError naming the signal."""
    h = config.slot_payload_bytes
    period = sig.period_cycles
    if period not in ALLOWED_PERIOD_CYCLES:
        raise ValueError(f"signal {sig.id}: period_cycles {period} is not "
                         f"a power of two in 1..{HYPERPERIOD_CYCLES}")
    if not 1 <= sig.payload_bytes <= h:
        raise ValueError(f"signal {sig.id}: payload_bytes {sig.payload_bytes} "
                         f"outside 1..{h}")
    if fixed_base_cycle is not None:
        if not 1 <= fixed_base_cycle <= period:
            raise ValueError(f"signal {sig.id}: fixed base cycle {fixed_base_cycle} "
                             f"outside 1..{period}")
        return (fixed_base_cycle,)
    bases = base_cycle_window(period, sig.release_ms, sig.deadline_ms,
                              config.cycle_duration_ms)
    if not bases:
        raise InfeasibleWindowError(f"signal {sig.id}: no feasible base cycle in its window")
    return bases


def placement_plan(inst: Instance) -> list[tuple]:
    """What placing each signal needs that depends only on the instance:
    one row (signal, one-port endpoints, signal_volume, _fit_plan of its
    checked base cycles, home) per signal in `sort_signals` order.  Signals
    of one period, payload, release and deadline share the volume and
    request, computed once.  Raises what `place_to_schedule` raises for
    the first signal it cannot place.

    A one-port transmitter's home lane gets every signal it sends, under
    any map and in either builder, and first fit in a lane reads only the
    lane, so each home lane is packed here, once.  `home` is None for a
    common transmitter, and otherwise the column the row opened (or None),
    the _fit_plan of the row's gateway image at its original's base, and
    the columns the row probed."""
    h = inst.config.slot_payload_bytes
    one_port = inst.one_port_ids
    shared: dict[tuple, tuple] = {}
    homes: dict[int, _Lane] = {}
    plan = []
    for sig in sort_signals(inst.signals):
        key = (sig.period_cycles, sig.payload_bytes, sig.release_ms, sig.deadline_ms)
        row = shared.get(key)
        if row is None:
            bases = _checked_bases(sig, inst.config)
            row = shared[key] = (
                signal_volume(sig), _fit_plan(sig.period_cycles, h, sig.payload_bytes, bases))
        tx = sig.transmitter
        ports = tuple(sig.receivers & one_port)
        home = None
        if tx in one_port:
            ports = (tx,) + ports
            lane = homes.get(tx)
            if lane is None:
                lane = homes[tx] = _Lane(tx, False, None)
            opened, probes = len(lane.cols), lane.probes
            k, base, _ = _place(lane, sig, row[1])
            home = (lane.cols[k] if k == opened else None,
                    _fit_plan(sig.period_cycles, h, sig.payload_bytes, (base,)),
                    lane.probes - probes)
        plan.append((sig, ports, *row, home))
    return plan


def _place(lane: _Lane, sig: Signal, fit: tuple) -> tuple[int, int, int]:
    """First fit of all occurrences of `sig` by its request `fit`, a
    _fit_plan, onto the open columns of `lane` or a column it opens; no
    argument is checked.  Returns the lane's index of the column, and the
    base cycle and offset taken."""
    masks = lane.masks
    own = lane.open
    fold, width_mask, runs, allowed, pattern, fresh_base, h, full, key = fit
    start = bisect_left(own, lane.taken.get(key, 0))
    for i in range(start, len(own)):
        k = own[i]
        mask = masks[k]
        for shift in fold:
            mask |= mask >> shift
        free = ~mask & width_mask
        for step in runs:
            free &= free >> step
        free &= allowed
        if free:
            base, offset = divmod((free & -free).bit_length() - 1, h)
            base += 1
            lane.probes += i - start + 1
            break
    else:
        # A fresh slot always has room; use the earliest feasible cycle.
        lane.probes += len(own) - start
        k, base, offset = len(masks), fresh_base, 0
        masks.append(0)
        own.append(k)
        col = SlotColumn(lane.owner, lane.is_gateway)
        lane.cols.append(col)
        if lane.channel is not None:
            lane.channel[len(lane.channel) + 1] = col

    lane.taken[key] = k
    lane.cols[k].add(base, Occupancy(sig.id, offset, sig.payload_bytes, lane.is_gateway,
                                     sig.period_cycles))
    # base lies in 1..period, so the shifted pattern stays within the column
    masks[k] = mask = masks[k] | pattern << (base - 1) * h + offset
    if mask == full:
        del own[bisect_left(own, k)]
    return k, base, offset


def place_to_schedule(sched: Schedule, sig: Signal, target: str, owner: int, *,
                      is_image: bool = False,
                      fixed_base_cycle: int | None = None) -> list[Placement]:
    """First-fit placement of all occurrences of one signal on channel
    `target`, CH_A or CH_B.

    Takes the lowest slot id, then the lowest base cycle within the feasible
    window, then the lowest offset, where the slot is unowned or owned by
    `owner` and all period-induced occurrences fit at a common offset.
    Falls back to a fresh slot at max_slot+1.  Only the open slots of
    `owner` and the next slot id are visited, from the slot an identical
    request last took, and each is tested with a few operations on its
    packed column mask.  A signal on both channels is placed on A, then
    on B.  Any other target is a ValueError, and so is a first placement
    onto a schedule that is not empty (built by a builder, read back,
    renumbered or built by hand): the lanes are this function's own, made
    at its first placement.  Neither changes anything.  The counters are
    then recounted as the builders count them.
    """
    if target not in CHANNELS:
        raise ValueError(f"target {target!r} is not channel {CH_A} or {CH_B}")
    bases = _checked_bases(sig, sched.config, fixed_base_cycle)
    lanes = sched._lanes
    if lanes is None:
        if sched.columns[CH_A] or sched.columns[CH_B]:
            raise ValueError("place_to_schedule extends only a schedule it placed "
                             "from empty; this one holds columns placed otherwise")
        lanes = sched._lanes = _Lanes(sched.columns)
    fit = _fit_plan(sig.period_cycles, sched.config.slot_payload_bytes,
                    sig.payload_bytes, bases)
    lane = lanes[target, owner, is_image]
    k, base, offset = _place(lane, sig, fit)
    slot = next(t for t, col in sched.columns[target].items() if col is lane.cols[k])
    _count(sched, sum(each.probes for each in lanes.values()))
    return [Placement(sig.id, target, base, slot, offset, is_image)]


def schedule_channels(inst: Instance, asg: ChannelAssignment, *,
                      plan: list[tuple] | None = None) -> Schedule:
    """Build both channel schedules for an instance under an assignment.

    Walks `plan`, `placement_plan(inst)` (built here when not given), onto
    an empty schedule.  First fit runs only for the lanes of common
    transmitters and the gateway; at the row that opened a home column,
    that column takes the next id of its transmitter's channel.  So the
    schedules built from one plan share the home columns, and each counts
    their placements and probes as if it had made them.  A signal on both
    channels is placed on A, then on B.  Fault-tolerant signals sort
    first, so each lands at one position on both channels, in slots 1..k,
    a common prefix that renumbering keeps.  Each other signal goes to the
    channels of its one-port endpoints, or, when it has none, to the
    channel with less volume so far; a one-port transmitter whose
    receivers span the channels additionally gets a gateway image on the
    opposite channel, while a common transmitter simply transmits on both
    channels itself.  A map that leaves a one-port ECU without channel A
    or B is a ValueError, raised before anything is placed.
    """
    one_port = inst.one_port_ids
    channel_of = asg.channel_of
    missing = sorted(one_port - channel_of.keys())
    if missing:
        raise ValueError(f"channel map assigns no channel to one-port ECUs {missing}")
    bad = {u: channel_of[u] for u in sorted(one_port) if channel_of[u] not in CHANNELS}
    if bad:
        raise ValueError(f"channel map gives one-port ECUs a channel other than "
                         f"{CH_A} or {CH_B}: {bad}")
    a_side = frozenset(u for u in one_port if channel_of[u] == CH_A)
    b_side = one_port - a_side
    if plan is None:
        plan = placement_plan(inst)
    sched = Schedule(config=inst.config)
    lanes = _Lanes(sched.columns)
    load_a = load_b = probes = 0
    gw = inst.gateway.id
    for sig, ports, volume, fit, home in plan:
        tx = sig.transmitter
        if sig.fault_tolerant:
            ch = BOTH
        elif a_side.isdisjoint(ports):  # B if it has a B-side endpoint, else the lighter
            ch = CH_A if b_side.isdisjoint(ports) and load_a <= load_b else CH_B
        else:
            ch = CH_A if b_side.isdisjoint(ports) else BOTH
        if home is not None:  # a one-port transmitter, placed on its own channel
            col, image_fit, probed = home
            probes += probed
            own, away = (CH_A, CH_B) if tx in a_side else (CH_B, CH_A)
            if col is not None:
                cols = sched.columns[own]
                cols[len(cols) + 1] = col
            if ch == BOTH:
                _place(lanes[away, gw, True], sig, image_fit)
        elif ch == BOTH:  # as for every fault-tolerant signal
            _place(lanes[CH_A, tx, False], sig, fit)
            _place(lanes[CH_B, tx, False], sig, fit)
        else:
            _place(lanes[ch, tx, False], sig, fit)
        if ch != CH_B:
            load_a += volume
        if ch != CH_A:
            load_b += volume

    _count(sched, probes + sum(lane.probes for lane in lanes.values()))
    return reorder_slots(sched)


def reorder_slots(sched: Schedule) -> Schedule:
    """Renumber slots on the shared id timeline: per channel, non-gateway
    slots first in original order, which keeps a fault-tolerant prefix
    shared by both channels, then each gateway slot in original order at
    the lowest free id above the chain and above every original it
    retransmits.  Frame contents are unchanged."""
    columns: dict[str, dict[int, SlotColumn]] = {ch: {} for ch in CHANNELS}
    # an imaged original is on its one-port transmitter's channel only
    original_id: dict[int, int] = {}
    for ch in CHANNELS:
        cols = sched.columns[ch]
        chain = [cols[t] for t in sorted(cols) if not cols[t].is_gateway]
        for new_id, col in enumerate(chain, start=1):
            columns[ch][new_id] = col
            for entries in col.frames.values():
                for occ in entries:
                    original_id[occ.signal] = new_id

    for ch in CHANNELS:
        new = columns[ch]
        start = len(new) + 1
        for _, col in sorted(sched.columns[ch].items()):
            if col.is_gateway:
                new_id = max([start] + [original_id[occ.signal] + 1
                                        for entries in col.frames.values() for occ in entries])
                while new_id in new:
                    new_id += 1
                new[new_id] = col
    return replace(sched, columns=columns)


def schedule_single_channel(inst: Instance) -> Schedule:
    """Schedule every signal onto one channel (mirrored-channels semantics:
    no assignment, no images); the baseline for bandwidth comparisons.
    Walks `placement_plan(inst)` onto channel A of an empty schedule as
    `schedule_channels` walks it, every lane owned by a transmitter: a
    home column takes the next id at the row that opened it, and first
    fit runs only for common transmitters."""
    sched = Schedule(config=inst.config)
    cols = sched.columns[CH_A]
    lanes = _Lanes(sched.columns)
    probes = 0
    for sig, _, _, fit, home in placement_plan(inst):
        if home is None:
            _place(lanes[CH_A, sig.transmitter, False], sig, fit)
        else:
            col, _, probed = home
            probes += probed
            if col is not None:
                cols[len(cols) + 1] = col
    _count(sched, probes + sum(lane.probes for lane in lanes.values()))
    return sched


def lbsc(signals, slot_payload_bytes: int) -> int:
    """Area lower bound on single-channel slot count.

    Every slot is exclusive to one transmitter, so each transmitting ECU
    independently needs at least ceil(byte-cycles / slot capacity) slots.
    """
    per_ecu: dict[int, int] = {}
    for s in signals:
        per_ecu[s.transmitter] = per_ecu.get(s.transmitter, 0) + signal_volume(s)
    capacity = HYPERPERIOD_CYCLES * slot_payload_bytes
    return sum(-(-load // capacity) for load in per_ecu.values())
