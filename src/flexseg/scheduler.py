"""Channel scheduling: pack signal occurrences into slot/cycle/offset grids.

Slots live on a single id timeline shared by both channels: the same slot
id can carry a frame from a different owner on each channel.  Fault-
tolerant signals occupy identical positions on both channels; cross-
channel signals get a gateway-retransmitted image on the opposite channel,
placed in the same base cycle and pushed to a strictly later slot by the
final reordering pass.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

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
    channel: str  # CH_A or CH_B; BOTH only as returned by place_to_schedule
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


# An instance recurs in the cycles of `_EVERY[repetition] << base`, bit c
# for cycle c; the bits of cycles 1..64 are `_IN_HYPERPERIOD`.
_EVERY = {period: _cycle_pattern(period, 1) for period in ALLOWED_PERIOD_CYCLES}
_IN_HYPERPERIOD = ((1 << HYPERPERIOD_CYCLES) - 1) << 1


def _occupancy_mask(base: int, occ: Occupancy, h: int) -> int:
    """The bytes that `occ` at `base` covers in a column mask: bit
    (cycle - 1) * h + byte, none past the frame's end or the hyperperiod."""
    if occ.offset + occ.payload <= h:
        frame = ((1 << occ.payload) - 1) << occ.offset
    else:
        frame = ((1 << h) - 1) >> occ.offset << occ.offset
    bits = _cycle_pattern(occ.repetition, h) * frame << (base - 1) * h
    # a base above the repetition runs past the hyperperiod
    return bits & ((1 << HYPERPERIOD_CYCLES * h) - 1)


@dataclass
class _SlotIndex:
    """Where first fit looks on each channel and what it finds there,
    derived from the columns once and then kept in step by `add`;
    `Schedule.add_column` drops it.

    `masks[ch][slot]` holds the occupied bytes of a column, all cycles as
    one int (see `_occupancy_mask`); `full` is the mask of a full column.
    Only slots in `open` (ascending ids of the columns that are not full,
    per channel, owner and gateway flag), in `holes` (ascending ids in
    1..top with no column) or above `top` can take a placement.

    `taken` maps a request (target, owner, image flag, period, payload,
    base cycles) to the slot the last such request took.  Every candidate
    below that slot refused it, and masks only grow until the index is
    dropped, so an identical request starts its scan there."""
    full: int
    top: dict[str, int]
    holes: dict[str, list[int]]
    open: dict[tuple[str, int, bool], list[int]]
    masks: dict[str, dict[int, int]]
    taken: dict[tuple, int]

    @classmethod
    def derive(cls, columns: dict[str, dict[int, SlotColumn]], h: int) -> _SlotIndex:
        idx = cls((1 << HYPERPERIOD_CYCLES * h) - 1, top={}, holes={}, open={},
                  masks={}, taken={})
        for ch in CHANNELS:
            cols = columns[ch]
            # slot ids below 1 are invalid and never take a placement
            idx.top[ch] = top = max(max(cols, default=0), 0)
            idx.holes[ch] = [t for t in range(1, top + 1) if t not in cols]
            masks = idx.masks[ch] = {}
            for t in sorted(cols):
                col = cols[t]
                mask = 0
                for base, entries in col.frames.items():
                    for occ in entries:
                        mask |= _occupancy_mask(base, occ, h)
                masks[t] = mask
                if t >= 1 and mask != idx.full:
                    idx.open.setdefault((ch, col.owner, col.is_gateway), []).append(t)
        return idx

    def candidates(self, ch: str, owner: int, is_gateway: bool, limit: int) -> list[int]:
        """Ascending slot ids below `limit` that are empty on `ch` or hold an
        open column of `owner` there; the open list itself when there is no
        empty one."""
        own = self.open.get((ch, owner, is_gateway), [])
        holes, top = self.holes[ch], self.top[ch]
        if holes:
            own = sorted(own + holes)
        return [*own, *range(top + 1, limit)] if top + 1 < limit else own

    def add(self, ch: str, slot: int, col: SlotColumn, bits: int) -> None:
        """Record the bytes `bits` of an instance just added to `col`, the
        column at `slot` on `ch`; a slot with no mask yet holds a new column."""
        masks = self.masks[ch]
        mask = masks.get(slot)
        if mask is None:
            if slot > self.top[ch]:
                self.holes[ch].extend(range(self.top[ch] + 1, slot))
                self.top[ch] = slot
            else:
                holes = self.holes[ch]
                del holes[bisect_left(holes, slot)]
            insort(self.open.setdefault((ch, col.owner, col.is_gateway), []), slot)
            mask = 0
        masks[slot] = mask = mask | bits
        if mask == self.full:
            own = self.open[(ch, col.owner, col.is_gateway)]
            del own[bisect_left(own, slot)]


@dataclass
class Schedule:
    config: NetworkConfig
    columns: dict[str, dict[int, SlotColumn]] = field(
        default_factory=lambda: {CH_A: {}, CH_B: {}})
    _index: _SlotIndex | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def add_column(self, ch: str, slot: int, col: SlotColumn) -> None:
        """Store `col` at `slot` on `ch`, replacing any column there; the
        next placement derives the slot index again."""
        self.columns[ch][slot] = col
        self._index = None

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
                # the cycles in which the column holds an instance
                cycles = 0
                for base, entries in col.frames.items():
                    for occ in entries:
                        cycles |= _EVERY[occ.repetition] << base
                count += (cycles & _IN_HYPERPERIOD).bit_count()
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


def determine_channel(sig: Signal, one_port: frozenset[int], channel_of: dict[int, str],
                      loads: dict[str, float]) -> str:
    """Channel selection for a non-fault-tolerant signal.

    One-port endpoints (ids in `one_port`) force their assigned channel in
    `channel_of`; if they span both, the signal must appear on both.  When
    every endpoint is wired to both channels the lighter-loaded channel is
    chosen.
    """
    required = {channel_of[u] for u in (sig.transmitter, *sig.receivers) if u in one_port}
    if len(required) == 2:
        return BOTH
    if len(required) == 1:
        return next(iter(required))
    return CH_A if loads[CH_A] <= loads[CH_B] else CH_B


@lru_cache(maxsize=1024)
def _fit_plan(period: int, h: int, payload: int, bases: tuple[int, ...]):
    """Shifts and masks that find the first free (base, offset) in a
    column mask for a signal of this period and payload.

    Folding the mask onto `period` cycles ORs the occurrences of every base
    together; bit (base - 1) * h + offset of the free-run mask is set when
    bytes offset..offset+payload-1 are free in all of them.  `pattern`
    shifted to that bit is the bytes the signal covers in a column mask."""
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
    return tuple(fold), (1 << width) - 1, tuple(runs), allowed, pattern


def place_to_schedule(sched: Schedule, sig: Signal, target: str, owner: int, *,
                      is_image: bool = False,
                      fixed_base_cycle: int | None = None) -> list[Placement]:
    """First-fit placement of all occurrences of one signal.

    Takes the lowest slot id, then the lowest base cycle within the feasible
    window, then the lowest offset, where the slot is unowned or owned by
    `owner` on every target channel and all period-induced occurrences fit
    at a common offset.  Falls back to a fresh slot at max_slot+1, and
    never below 1.  Only the open slots of `owner` and empty slot ids are
    visited, from the slot an identical request last took, and each is
    tested with a few operations on its packed column mask.
    """
    h = sched.config.slot_payload_bytes
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
        bases = (fixed_base_cycle,)
    else:
        bases = base_cycle_window(period, sig.release_ms, sig.deadline_ms,
                                  sched.config.cycle_duration_ms)
        if not bases:
            raise InfeasibleWindowError(
                f"signal {sig.id}: no feasible base cycle in its window")

    idx = sched._index
    if idx is None:
        idx = sched._index = _SlotIndex.derive(sched.columns, h)
    if target == BOTH:
        channels = CHANNELS
        limit = max(idx.top[CH_A], idx.top[CH_B]) + 1
        second = sched.columns[CH_B]
    else:
        channels = (target,)
        limit = idx.top[target] + 1
        second = None
    first = idx.masks[channels[0]]
    fold, width_mask, runs, allowed, pattern = _fit_plan(period, h, sig.payload_bytes,
                                                         bases)
    # A candidate is empty on the first channel or an open column of
    # `owner` there; only the second channel of BOTH needs the owner test.
    request = (target, owner, is_image, period, sig.payload_bytes, bases)
    candidates = idx.candidates(channels[0], owner, is_image, limit)
    start = bisect_left(candidates, idx.taken.get(request, 0))
    for slot in islice(candidates, start, None):
        mask = first.get(slot, 0)
        if second is not None:
            col = second.get(slot)
            if col is not None:
                if col.owner != owner or col.is_gateway != is_image:
                    continue
                mask |= idx.masks[CH_B][slot]
        for shift in fold:
            mask |= mask >> shift
        free = ~mask & width_mask
        for step in runs:
            free &= free >> step
        free &= allowed
        if free:
            base, offset = divmod((free & -free).bit_length() - 1, h)
            base += 1
            break
    else:
        # A fresh slot always has room; use the earliest feasible cycle.
        slot, base, offset = limit, bases[0], 0

    idx.taken[request] = slot
    occ = Occupancy(sig.id, offset, sig.payload_bytes, is_image, period)
    bits = (pattern << (base - 1) * h + offset) & idx.full
    for ch in channels:
        cols = sched.columns[ch]
        col = cols.get(slot)
        if col is None:
            col = cols[slot] = SlotColumn(owner, is_image)
        col.add(base, occ)
        idx.add(ch, slot, col, bits)
    return [Placement(sig.id, target, base, slot, offset, is_image)]


def schedule_channels(inst: Instance, asg: ChannelAssignment) -> Schedule:
    """Build both channel schedules for an instance under an assignment.

    Fault-tolerant signals sort first, so they open the same slots 1..k on
    both channels, a common prefix that renumbering keeps.  Each other
    signal is routed by determine_channel; a one-port transmitter whose
    receivers span the channels additionally gets a gateway image on the
    opposite channel, while a common transmitter simply transmits on both
    channels itself.
    """
    sched = Schedule(config=inst.config)
    loads = {CH_A: 0.0, CH_B: 0.0}
    gw = inst.gateway.id
    one_port = inst.one_port_ids
    for sig in sort_signals(inst.signals):
        tx = sig.transmitter
        if sig.fault_tolerant:
            ch = BOTH
        else:
            ch = determine_channel(sig, one_port, asg.channel_of, loads)
        if ch != BOTH:
            place_to_schedule(sched, sig, ch, owner=tx)
            loads[ch] += signal_volume(sig)
            continue
        if sig.fault_tolerant:
            place_to_schedule(sched, sig, BOTH, owner=tx)
        elif tx not in one_port:
            place_to_schedule(sched, sig, CH_A, owner=tx)
            place_to_schedule(sched, sig, CH_B, owner=tx)
        else:
            home = asg.channel_of[tx]
            original = place_to_schedule(sched, sig, home, owner=tx)[0]
            place_to_schedule(sched, sig, CH_B if home == CH_A else CH_A, owner=gw,
                              is_image=True, fixed_base_cycle=original.base_cycle)
        loads[CH_A] += signal_volume(sig)
        loads[CH_B] += signal_volume(sig)

    return reorder_slots(sched)


def _renumber(sched: Schedule) -> dict[tuple[str, int], int]:
    """New slot ids: per-channel non-gateway slots first in original order,
    which keeps a fault-tolerant prefix shared by both channels, gateway
    slots as soon as every original they retransmit has a smaller id."""
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


def reorder_slots(sched: Schedule) -> Schedule:
    """Renumber slots on the shared id timeline so that every gateway slot
    comes strictly after the slot of the latest original it retransmits.
    Frame contents are unchanged."""
    new_ids = _renumber(sched)
    out = Schedule(config=sched.config)
    for ch in CHANNELS:
        out.columns[ch] = {new_ids[(ch, t)]: col for t, col in sched.columns[ch].items()}
    return out


def schedule_single_channel(inst: Instance) -> Schedule:
    """Schedule every signal onto one channel (mirrored-channels semantics:
    no assignment, no images); the baseline for bandwidth comparisons."""
    sched = Schedule(config=inst.config)
    for sig in sort_signals(inst.signals):
        place_to_schedule(sched, sig, CH_A, owner=sig.transmitter)
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
