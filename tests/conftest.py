from __future__ import annotations

import dataclasses
import itertools
import random
from collections import Counter

import pytest

from flexseg import assignment as asg_mod
from flexseg.assignment import CH_A, CH_B, ChannelAssignment, CriterionParams
from flexseg.hypergraph import Hypergraph
from flexseg.model import (
    Ecu,
    EcuKind,
    Instance,
    NetworkConfig,
    Signal,
    base_cycle_window,
)
from flexseg.scheduler import (
    InfeasibleWindowError,
    Occupancy,
    Placement,
    Schedule,
    SlotColumn,
    place_to_schedule,
    reorder_slots,
    sort_signals,
)


def example1_instance() -> Instance:
    """Ten-signal, six-ECU reference network (1 ms cycle, 8-byte slots)."""
    ecus = (
        Ecu(0, EcuKind.GATEWAY),
        Ecu(1, EcuKind.COMMON), Ecu(2, EcuKind.COMMON),
        Ecu(3, EcuKind.ONE_PORT), Ecu(4, EcuKind.ONE_PORT), Ecu(5, EcuKind.ONE_PORT),
    )
    tx = [1, 2, 2, 2, 3, 3, 4, 5, 5, 4]
    period = [1, 2, 2, 2, 2, 1, 1, 1, 2, 2]
    payload = [8, 4, 8, 8, 4, 4, 4, 4, 4, 4]
    ft = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    receivers = [{2, 3}, {4, 5}, {4}, {5}, {4, 5}, {4, 5}, {3, 5}, {2}, {3, 4}, {3}]
    signals = tuple(
        Signal(id=i + 1, transmitter=tx[i], period_cycles=period[i],
               payload_bytes=payload[i], release_ms=0.0, deadline_ms=2.0,
               fault_tolerant=bool(ft[i]), receivers=frozenset(receivers[i]))
        for i in range(10)
    )
    return Instance(config=NetworkConfig(1.0, 8), ecus=ecus, signals=signals,
                    name="example1")


@pytest.fixture
def example1() -> Instance:
    return example1_instance()


def brute_force_assignments(hg: Hypergraph):
    """Yield every full channel map over the free ECUs."""
    free = list(hg.free_ecus)
    for bits in itertools.product("AB", repeat=len(free)):
        yield dict(zip(free, bits))


def oracle_payloads(hg: Hypergraph, channel_of: dict[int, str]) -> tuple[int, int, int]:
    """Straightforward re-statement of the payload rules, written
    independently of the package evaluator.  An ECU missing from
    `channel_of` is unassigned and loads neither channel."""
    p_a = p_b = p_g = 0
    for ends, weight in hg.edges.items():
        on_a = any(channel_of.get(u) == "A" for u in ends)
        on_b = any(channel_of.get(u) == "B" for u in ends)
        if on_a and on_b:
            p_a += weight
            p_b += weight
            p_g += weight
        elif on_a:
            p_a += weight
        elif on_b:
            p_b += weight
    return p_a + hg.ft_weight_bytes, p_b + hg.ft_weight_bytes, p_g


def oracle_criterion(hg: Hypergraph, channel_of: dict[int, str],
                     alpha: float, beta: float) -> float:
    p_a, p_b, p_g = oracle_payloads(hg, channel_of)
    return max(beta * p_a, p_b) + alpha * p_g


def oracle_minimum(hg: Hypergraph, alpha: float, beta: float,
                   pin: int | None = None) -> float:
    """Exhaustive minimum of the criterion, optionally honoring a pinned ECU."""
    best = float("inf")
    for channel_of in brute_force_assignments(hg):
        if pin is not None and channel_of[pin] != "A":
            continue
        best = min(best, oracle_criterion(hg, channel_of, alpha, beta))
    return best


def reference_bound(st: asg_mod._State, params: CriterionParams, sum_a: int, sum_b: int,
                    sum_g: int, pool: int) -> float:
    """The branch-and-bound bound written with min and max: decided
    weights count fully and the pool is split fractionally at the balance
    point, clamped to [0, pool]."""
    beta = params.beta
    fa = sum_a + st.ft
    fb = sum_b + st.ft
    if pool:
        split = (fb + pool - beta * fa) / (1.0 + beta)
        split = min(max(split, 0.0), float(pool))
        m = max(beta * (fa + split), fb + pool - split)
    else:
        m = max(beta * fa, fb)
    return m + params.alpha * sum_g


def reference_solve_exact(hg: Hypergraph, params: CriterionParams,
                          time_limit_ms: int = 60_000) -> ChannelAssignment:
    """`solve_exact` as a search over one held map: each child is applied
    with `_State.assign`, undone with `saved`/`restore`, and bounded by
    `reference_bound`.  Its decisions are the solver's: the branch order,
    the first ECU pinned to A, B first only on a strictly lower bound, a
    child searched when its bound is not above the incumbent, the
    incumbent replaced on a strictly lower criterion, every call counted
    as a node and the clock read through `assignment.time` at every 64th,
    and all on A when no leaf was reached."""
    st = asg_mod._new_state(hg)
    if not hg.free_ecus:
        return asg_mod._finish(st, params, optimal=True)
    order = asg_mod._branch_order(hg)
    deadline = asg_mod.time.monotonic() + time_limit_ms / 1000.0
    best_crit = float("inf")
    best_a = None
    nodes = 0
    timed_out = False

    def dfs(depth: int) -> None:
        nonlocal best_crit, best_a, nodes, timed_out
        if timed_out:
            return
        nodes += 1
        if nodes & 63 == 0 and asg_mod.time.monotonic() > deadline:
            timed_out = True
            return
        if depth == len(order):
            crit = st.criterion(params)
            if crit < best_crit:
                best_crit = crit
                best_a = st.mask_a
            return
        ecu = order[depth]
        split = floating, on_b, on_a = st.add_split(ecu)
        pool = st.sum_float - floating
        bound_a = reference_bound(st, params, st.sum_a + floating + on_b, st.sum_b,
                                  st.sum_g + on_b, pool)
        if depth == 0:
            children = ((bound_a, CH_A),)
        else:
            bound_b = reference_bound(st, params, st.sum_a, st.sum_b + floating + on_a,
                                      st.sum_g + on_a, pool)
            children = ((bound_b, CH_B), (bound_a, CH_A)) if bound_b < bound_a \
                else ((bound_a, CH_A), (bound_b, CH_B))
        before = st.saved()
        for bound, ch in children:
            if not bound > best_crit:
                st.assign(ecu, ch, split)
                dfs(depth + 1)
                st.restore(before)

    if asg_mod.time.monotonic() > deadline:
        timed_out = True
    else:
        dfs(0)
    if best_a is None:
        best_a = st.full
        timed_out = True
    st.load(best_a)
    return asg_mod._finish(st, params, optimal=not timed_out and params.beta == 1)


def subset_sum_half(items: list[int]) -> bool:
    """Dynamic program: can the multiset be split into two equal halves?"""
    total = sum(items)
    if total % 2:
        return False
    reachable = 1  # bitset over achievable subset sums
    for value in items:
        reachable |= reachable << value
    return bool(reachable >> (total // 2) & 1)


def random_hypergraph(rng: random.Random, max_free: int = 12,
                      max_edges: int = 40, min_free: int = 3,
                      max_weight: int = 20) -> Hypergraph:
    """Random assignment problem: a few common vertices, signal groups of
    weight 1..max_weight over 1..3 one-port endpoints, occasional
    all-common groups and FT payload.  Groups with equal one-port
    endpoints merge into one edge; all-common groups only add to the total
    payload."""
    n_free = rng.randint(min_free, max_free)
    free = list(range(1, n_free + 1))
    common = list(range(101, 101 + rng.randint(0, 3)))
    n_edges = rng.randint(1, max_edges)
    seen: set[frozenset[int]] = set()
    edges: dict[frozenset[int], int] = {}
    total = 0
    for _ in range(n_edges):
        if common and rng.random() < 0.1:
            members = rng.sample(common, min(len(common), rng.randint(1, 2)))
        else:
            members = rng.sample(free, rng.randint(1, min(3, n_free)))
            members += rng.sample(common, min(len(common), rng.randint(0, 1)))
        key = frozenset(members)
        if key in seen:
            continue
        seen.add(key)
        weight = rng.randint(1, max_weight)
        total += weight
        ends = key.difference(common)
        if ends:
            edges[ends] = edges.get(ends, 0) + weight
    ft = rng.choice([0, 0, rng.randint(1, 15)])
    return Hypergraph(edges={k: edges[k] for k in sorted(edges, key=sorted)},
                      free_ecus=tuple(free), ft_weight_bytes=ft,
                      total_weight_bytes=total + ft)


def spearman_rho(xs: list[float], ys: list[float]) -> float:
    """Rank correlation with average ranks for ties."""
    def ranks(values: list[float]) -> list[float]:
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mean = (n + 1) / 2
    cov = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    var_x = sum((a - mean) ** 2 for a in rx)
    var_y = sum((b - mean) ** 2 for b in ry)
    if var_x == 0 or var_y == 0:
        return 1.0
    return cov / (var_x * var_y) ** 0.5


def oracle_place(sched: Schedule, sig: Signal, target: str, owner: int, *,
                 is_image: bool = False,
                 fixed_base_cycle: int | None = None) -> list[Placement]:
    """Linear first-fit scan: slot ids ascending from 1, base cycles
    ascending within the window, offsets ascending; a fresh slot at
    max_slot+1 when nothing fits.  It expands the stored instances of each
    column (base cycle plus repetition) to their cycles itself, so it
    shares neither the lanes nor the packed column masks of the
    scheduler."""
    h = sched.config.slot_payload_bytes
    cols = sched.columns[target]
    if fixed_base_cycle is not None:
        bases = [fixed_base_cycle]
    else:
        bases = base_cycle_window(sig.period_cycles, sig.release_ms, sig.deadline_ms,
                                  sched.config.cycle_duration_ms)
        if not bases:
            raise InfeasibleWindowError(f"signal {sig.id}")
    probe = (1 << sig.payload_bytes) - 1

    limit = sched.max_slot(target) + 1
    chosen = None
    for slot in range(1, limit + 1):
        col = cols.get(slot)
        if col is not None and (col.owner != owner or col.is_gateway != is_image):
            continue
        for base in bases:
            cycles = set(range(base, 65, sig.period_cycles))
            used = 0
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
    cols.setdefault(slot, SlotColumn(owner=owner, is_gateway=is_image)).add(base, occ)
    return [Placement(signal=sig.id, channel=target, base_cycle=base,
                      slot=slot, offset_bytes=offset, is_image=is_image)]


def counting(sched: Schedule, place, counts: Counter):
    """`place` onto `sched`, counting what a tracer wrapping each call
    counts: calls, slots above the highest id of the target channel before
    the call, and the slot ids taken."""
    def counted(sig, target, owner, **kwargs):
        highest = sched.max_slot(target)
        (placed,) = place(sched, sig, target, owner, **kwargs)
        counts["place_calls"] += 1
        counts["fresh_slots"] += placed.slot > highest
        counts["scan_depth"] += placed.slot
        return placed
    return counted


def replay_through_place_to_schedule(inst: Instance, channel_of: dict[int, str],
                                     place=place_to_schedule):
    """schedule_channels' routing, replayed signal by signal through
    `place`, the public place_to_schedule unless given, and then
    reorder_slots.  Also returns the counts of `counting`."""
    sched = Schedule(config=inst.config)
    counts = Counter()
    place = counting(sched, place, counts)
    one_port, gateway = inst.one_port_ids, inst.gateway.id
    loads = {CH_A: 0, CH_B: 0}
    for sig in sort_signals(inst.signals):
        tx = sig.transmitter
        required = {channel_of[u] for u in {tx, *sig.receivers} & one_port}
        reached = (CH_A, CH_B)
        if len(required) < 2 and not sig.fault_tolerant:
            (ch,) = required or {CH_A if loads[CH_A] <= loads[CH_B] else CH_B}
            place(sig, ch, tx)
            reached = (ch,)
        elif sig.fault_tolerant or tx not in one_port:
            place(sig, CH_A, tx)
            place(sig, CH_B, tx)
        else:
            home = channel_of[tx]
            original = place(sig, home, tx)
            place(sig, CH_B if home == CH_A else CH_A, gateway, is_image=True,
                  fixed_base_cycle=original.base_cycle)
        for ch in reached:
            loads[ch] += sig.payload_bytes * (64 // sig.period_cycles)
    return reorder_slots(sched), counts


def replay_single_channel(inst: Instance, place=place_to_schedule):
    """schedule_single_channel replayed: every signal in placement order
    through `place` on channel A for its transmitter.  Returns the
    schedule and the counts of `counting`."""
    sched = Schedule(config=inst.config)
    counts = Counter()
    place = counting(sched, place, counts)
    for sig in sort_signals(inst.signals):
        place(sig, CH_A, sig.transmitter)
    return sched, counts


def narrow_windows(inst: Instance, rng) -> Instance:
    """About half the signals get a window of cycles lo..hi within their
    period."""
    m = inst.config.cycle_duration_ms
    narrowed = []
    for sig in inst.signals:
        if rng.random() < 0.5:
            lo = rng.randint(1, sig.period_cycles)
            hi = rng.randint(lo, sig.period_cycles)
            sig = dataclasses.replace(sig, release_ms=(lo - 1) * m, deadline_ms=hi * m)
        narrowed.append(sig)
    return dataclasses.replace(inst, signals=tuple(narrowed))
