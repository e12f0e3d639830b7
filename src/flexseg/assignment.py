"""Solvers for the ECU-to-channel assignment subproblem.

Three solvers share one incremental criterion evaluator: an exact
depth-first branch-and-bound, a restarted local search (greedy list
assignment + single-move exchange + pairwise 2-opt), and a binary
genetic algorithm baseline.  The model can also be exported in LP file
format so any external MILP solver can cross-check the exact solver.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

from .hypergraph import Hypergraph

CH_A = "A"
CH_B = "B"


@dataclass(frozen=True)
class CriterionParams:
    """Weights of the assignment objective max(beta*P_A, P_B) + alpha*P_G."""
    alpha: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and non-negative, not {self.alpha}")
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and positive, not {self.beta}")


@dataclass
class ChannelAssignment:
    channel_of: dict[int, str]
    payload_a: int
    payload_b: int
    payload_gw: int
    criterion: float
    optimal: bool = False

    def to_json_dict(self) -> dict:
        return {
            "channel_of": {str(u): ch for u, ch in sorted(self.channel_of.items())},
            "P_A": self.payload_a,
            "P_B": self.payload_b,
            "P_G": self.payload_gw,
            "criterion": self.criterion,
            "optimal": self.optimal,
        }


def default_alpha(hg: Hypergraph) -> float:
    """1 / total signal payload, the weight at which gateway traffic only
    breaks ties between assignments with equal channel payloads."""
    total = hg.total_weight_bytes
    return 1.0 / total if total > 0 else 0.0


# The solvers read the coverage table up to this many one-port ECUs and
# walk each ECU's incident edges above it.  The table holds 2**n entries of
# 8 bytes and its build doubles with each ECU.  On sae4 hypergraphs of
# about 650 edges (2 cores, Python 3.11), a 100-try cah call saves 50-70 ms
# with the table; the build pays back after 1.5 calls at n = 19, 3 at 20,
# 5-7 at 21 and 11-13 at 22, more than a run's 10 iterations.
TABLE_MAX_ECUS = 20


class _State:
    """Payload bookkeeping over a partial channel assignment, the one
    evaluator of P_A, P_B and P_G behind every solver.

    The map is two bitmasks over `free_ecus`, bit i standing for the i-th
    ECU: `mask_a` and `mask_b`.  Unassigned ECUs are treated as absent: an
    edge counts toward a channel once at least one of its assigned
    endpoints lies there.  `add_split` and `move_delta` score a candidate
    without changing any state; `criterion_at` turns the resulting sums
    into the float `criterion` gives once the candidate is applied,
    `bound_at` into a lower bound, and `assign` and `move` apply it from that
    score.  `saved` and `restore` undo any run of changes.  Only the
    scoring has two backings: `_TableState` reads the hypergraph's coverage
    table, `_WalkState` walks the incident edges of the ECU that changes.
    """

    __slots__ = ("bit", "full", "ft", "total", "mask_a", "mask_b",
                 "sum_a", "sum_b", "sum_g", "sum_float")

    def __init__(self, hg: Hypergraph):
        self.bit = {u: 1 << i for i, u in enumerate(hg.free_ecus)}
        self.full = (1 << len(hg.free_ecus)) - 1
        self.ft = hg.ft_weight_bytes
        self.total = sum(hg.edges.values())
        self.reset()

    def reset(self) -> None:
        """Unassign every ECU."""
        self.mask_a = self.mask_b = 0
        self.sum_a = self.sum_b = self.sum_g = 0
        self.sum_float = self.total

    def load(self, mask: int) -> None:
        """Assign every ECU: bit set = channel A.  ECUs already on their
        channel stay, so loading a map near the last one is cheap."""
        for u, b in self.bit.items():
            if not (self.mask_a | self.mask_b) & b:
                self.assign(u, CH_A if mask & b else CH_B)
            elif (self.mask_a ^ mask) & b:
                self.move(u)

    def assign(self, ecu: int, ch: str, split: tuple[int, int, int] | None = None) -> None:
        """Put an unassigned ECU on `ch`, applying its `add_split` score,
        which is worked out here when not given."""
        floating, on_b, on_a = self.add_split(ecu) if split is None else split
        self.sum_float -= floating
        if ch == CH_A:
            self.mask_a |= self.bit[ecu]
            self.sum_a += floating + on_b
            self.sum_g += on_b
        else:
            self.mask_b |= self.bit[ecu]
            self.sum_b += floating + on_a
            self.sum_g += on_a

    def move(self, ecu: int, delta: tuple[int, int, int] | None = None) -> None:
        """Flip an assigned ECU's channel, applying its `move_delta` score,
        which is worked out here when not given."""
        d_a, d_b, d_g = self.move_delta(ecu) if delta is None else delta
        b = self.bit[ecu]
        self.mask_a ^= b
        self.mask_b ^= b
        self.sum_a += d_a
        self.sum_b += d_b
        self.sum_g += d_g

    def saved(self) -> tuple[int, ...]:
        """The map and its sums, for `restore`."""
        return self.mask_a, self.mask_b, self.sum_a, self.sum_b, self.sum_g, self.sum_float

    def restore(self, saved: tuple[int, ...]) -> None:
        self.mask_a, self.mask_b, self.sum_a, self.sum_b, self.sum_g, self.sum_float = saved

    @property
    def assigned(self) -> dict[int, str]:
        """The channel of each assigned ECU, in `free_ecus` order."""
        a, b = self.mask_a, self.mask_b
        return {u: CH_A if a & m else CH_B for u, m in self.bit.items() if (a | b) & m}

    def payloads(self) -> tuple[int, int, int]:
        return self.sum_a + self.ft, self.sum_b + self.ft, self.sum_g

    def criterion(self, params: CriterionParams) -> float:
        return self.criterion_at(params, self.sum_a, self.sum_b, self.sum_g)

    def criterion_at(self, params: CriterionParams, sum_a: int, sum_b: int,
                     sum_g: int) -> float:
        """The criterion of a map with these edge sums (fault-tolerant
        payload excluded, as in `sum_a`/`sum_b`)."""
        return max(params.beta * (sum_a + self.ft), sum_b + self.ft) + params.alpha * sum_g

    def bound_at(self, params: CriterionParams, sum_a: int, sum_b: int, sum_g: int,
                 pool: int) -> float:
        """Admissible lower bound over all completions of a partial map with
        these edge sums and `pool` weight on edges with no assigned endpoint.

        Decided edge weights count fully; the pooled weight is split
        fractionally between the channels at the balance point, which can
        only undercut any integral completion.
        """
        beta = params.beta
        fa = sum_a + self.ft
        fb = sum_b + self.ft
        if pool:
            split = (fb + pool - beta * fa) / (1.0 + beta)
            split = min(max(split, 0.0), float(pool))
            m = max(beta * (fa + split), fb + pool - split)
        else:
            m = max(beta * fa, fb)
        return m + params.alpha * sum_g


class _TableState(_State):
    """Scores read from the coverage table `hg.uncovered`: with u the table
    and T = u[0] the edge payload, P_A = T - u[A], P_B = T - u[B], the
    floating pool is u[A|B] and P_G = P_A + P_B - (T - u[A|B]).  Every
    candidate costs two or three lookups, and so does loading a map."""

    __slots__ = ("uncovered",)

    def __init__(self, hg: Hypergraph):
        self.uncovered = hg.uncovered
        super().__init__(hg)

    def load(self, mask: int) -> None:
        """Assign every ECU: bit set = channel A."""
        u, total = self.uncovered, self.total
        self.mask_a, self.mask_b = mask, self.full ^ mask
        self.sum_a = total - u[mask]
        self.sum_b = total - u[self.mask_b]
        self.sum_float = u[self.full]
        self.sum_g = self.sum_a + self.sum_b - total + self.sum_float

    def add_split(self, ecu: int) -> tuple[int, int, int]:
        """Incident weight of an unassigned ECU that is (floating, on B
        only, on A only).  Assigning it to A adds floating + on-B-only to
        P_A and on-B-only to P_G; to B, floating + on-A-only to P_B and
        on-A-only to P_G.  Either takes the floating weight off the pool."""
        b, u = self.bit[ecu], self.uncovered
        floating = self.sum_float - u[self.mask_a | self.mask_b | b]
        return (floating,
                self.total - u[self.mask_a | b] - self.sum_a - floating,
                self.total - u[self.mask_b | b] - self.sum_b - floating)

    def move_delta(self, ecu: int) -> tuple[int, int, int]:
        """(dA, dB, dG) that flipping an assigned ECU's channel would make
        to the sums.  A|B stays the same, so dG = dA + dB."""
        b, u = self.bit[ecu], self.uncovered
        d_a = self.total - u[self.mask_a ^ b] - self.sum_a
        d_b = self.total - u[self.mask_b ^ b] - self.sum_b
        return d_a, d_b, d_a + d_b


class _WalkState(_State):
    """Scores worked out by walking the ECU's incident edges, each held as
    (endpoint mask, weight) and tested against `mask_a` and `mask_b`.  The
    evaluator of hypergraphs above `TABLE_MAX_ECUS` and the reference the
    table is tested against."""

    __slots__ = ("incident",)

    def __init__(self, hg: Hypergraph):
        super().__init__(hg)
        bit = self.bit
        self.incident = incident = {u: [] for u in bit}
        for ends, w in hg.edges.items():
            mask = 0
            for u in ends:
                mask |= bit[u]
            edge = (mask, w)
            for u in ends:
                incident[u].append(edge)

    def add_split(self, ecu: int) -> tuple[int, int, int]:
        """As `_TableState.add_split`, in one walk."""
        mask_a, mask_b = self.mask_a, self.mask_b
        floating = on_b = on_a = 0
        for m, w in self.incident[ecu]:
            if m & mask_a:
                if not m & mask_b:
                    on_a += w
            elif m & mask_b:
                on_b += w
            else:
                floating += w
        return floating, on_b, on_a

    def move_delta(self, ecu: int) -> tuple[int, int, int]:
        """(dA, dB, dG) that flipping an assigned ECU's channel would make
        to the sums.  An edge leaves the old channel when the ECU is its
        only endpoint there, and reaches the new one when it has none
        there yet; the gateway carries it exactly while it is on both."""
        b = self.bit[ecu]
        on_a = self.mask_a & b
        # the ECU's other endpoints on its channel, and the target channel
        rest, to = (self.mask_a ^ b, self.mask_b) if on_a else (self.mask_b ^ b, self.mask_a)
        d_from = d_to = d_g = 0
        for m, w in self.incident[ecu]:
            if not m & rest:
                d_from -= w
                if m & to:
                    d_g -= w
                else:
                    d_to += w
            elif not m & to:
                d_to += w
                d_g += w
        return (d_from, d_to, d_g) if on_a else (d_to, d_from, d_g)


def _new_state(hg: Hypergraph) -> _State:
    """The solvers' evaluator: table lookups up to `TABLE_MAX_ECUS`
    one-port ECUs, edge walks above."""
    if len(hg.free_ecus) <= TABLE_MAX_ECUS:
        return _TableState(hg)
    return _WalkState(hg)


def _finish(st: _State, params: CriterionParams, optimal: bool) -> ChannelAssignment:
    """The result for the full map `st` holds."""
    p_a, p_b, p_g = st.payloads()
    return ChannelAssignment(
        channel_of=dict(sorted(st.assigned.items())),
        payload_a=p_a, payload_b=p_b, payload_gw=p_g,
        criterion=st.criterion(params), optimal=optimal,
    )


def evaluate_criterion(hg: Hypergraph, channel_of: dict[int, str],
                       params: CriterionParams) -> tuple[int, int, int, float]:
    """Return (P_A, P_B, P_G, criterion) for a full channel map.

    An edge whose one-port endpoints sit on one channel only loads that
    channel; an edge spanning both loads both channels plus the gateway.
    The fault-tolerant payload is added to both channels unconditionally.
    """
    for u in hg.free_ecus:
        if u not in channel_of:
            raise ValueError(f"no channel assigned for ECU {u}")
    on_a = frozenset(u for u in hg.free_ecus if channel_of[u] == CH_A)
    only_a = only_b = both = 0
    for ends, w in hg.edges.items():
        if ends.isdisjoint(on_a):
            only_b += w
        elif ends <= on_a:
            only_a += w
        else:
            both += w
    ft = hg.ft_weight_bytes
    p_a, p_b = only_a + both + ft, only_b + both + ft
    return p_a, p_b, both, max(params.beta * p_a, p_b) + params.alpha * both


def pinned_ecu(hg: Hypergraph) -> int | None:
    """The ECU fixed to channel A to break the relabeling symmetry.

    Chosen as the first ECU in branch order: largest total incident edge
    weight, ties by lowest id.
    """
    order = _branch_order(hg)
    return order[0] if order else None


def _branch_order(hg: Hypergraph) -> list[int]:
    totals = dict.fromkeys(hg.free_ecus, 0)
    for ends, w in hg.edges.items():
        for u in ends:
            totals[u] += w
    return sorted(hg.free_ecus, key=lambda u: (-totals[u], u))


def solve_exact(hg: Hypergraph, params: CriterionParams,
                time_limit_ms: int = 60_000) -> ChannelAssignment:
    """Depth-first branch-and-bound over the binary channel choices.

    The first ECU in branch order is pinned to channel A; children are
    explored cheaper-bound first and pruned against the incumbent.  On
    time-limit expiry the incumbent is returned flagged non-optimal.

    The pin only removes mirror images: swapping the channels of a map
    swaps P_A and P_B, which leaves max(beta*P_A, P_B) unchanged at
    beta = 1 alone.  At any other beta the optimum may need the pinned ECU
    on B, so the result is the best map with the pin and never flagged
    optimal.
    """
    st = _new_state(hg)
    if not hg.free_ecus:
        return _finish(st, params, optimal=True)

    order = _branch_order(hg)
    deadline = time.monotonic() + time_limit_ms / 1000.0
    best_crit = float("inf")
    best_a: int | None = None
    nodes = 0
    timed_out = False

    def dfs(depth: int) -> None:
        nonlocal best_crit, best_a, nodes, timed_out
        if timed_out:
            return
        nodes += 1
        if nodes & 63 == 0 and time.monotonic() > deadline:
            timed_out = True
            return
        if depth == len(order):
            crit = st.criterion(params)
            if crit < best_crit:
                best_crit = crit
                best_a = st.mask_a
            return
        # Both child bounds from one add_split; a child is assigned only when
        # its bound survives the incumbent found so far.
        ecu = order[depth]
        split = floating, on_b, on_a = st.add_split(ecu)
        pool = st.sum_float - floating
        bound_a = st.bound_at(params, st.sum_a + floating + on_b, st.sum_b,
                              st.sum_g + on_b, pool)
        if depth == 0:
            children = ((bound_a, CH_A),)
        else:
            bound_b = st.bound_at(params, st.sum_a, st.sum_b + floating + on_a,
                                  st.sum_g + on_a, pool)
            children = ((bound_b, CH_B), (bound_a, CH_A)) if bound_b < bound_a \
                else ((bound_a, CH_A), (bound_b, CH_B))
        before = st.saved()
        for bound, ch in children:
            if not bound > best_crit:
                st.assign(ecu, ch, split)
                dfs(depth + 1)
                st.restore(before)

    if time.monotonic() > deadline:
        timed_out = True
    else:
        dfs(0)
    if best_a is None:
        # Expired before reaching any leaf: fall back to everything on A.
        best_a = st.full
        timed_out = True
    st.load(best_a)
    return _finish(st, params, optimal=not timed_out and params.beta == 1)


def _greedy_assignment(st: _State, ordered: list[int], params: CriterionParams) -> None:
    """List-style construction: place each ECU on the channel that yields
    the lower partial criterion, ties to the lighter channel, then A."""
    for ecu in ordered:
        split = floating, on_b, on_a = st.add_split(ecu)
        load_a, load_b, load_g = st.sum_a, st.sum_b, st.sum_g
        crit_a = st.criterion_at(params, load_a + floating + on_b, load_b, load_g + on_b)
        crit_b = st.criterion_at(params, load_a, load_b + floating + on_a, load_g + on_a)
        if crit_a < crit_b or (crit_a == crit_b and load_a <= load_b):
            st.assign(ecu, CH_A, split)
        else:
            st.assign(ecu, CH_B, split)


def _exchange(st: _State, ordered: list[int], params: CriterionParams) -> None:
    """Move single ECUs across while any move strictly improves."""
    crit = st.criterion(params)
    improved = True
    while improved:
        improved = False
        for ecu in ordered:
            delta = d_a, d_b, d_g = st.move_delta(ecu)
            moved = st.criterion_at(params, st.sum_a + d_a, st.sum_b + d_b, st.sum_g + d_g)
            if moved < crit:
                st.move(ecu, delta)
                crit = moved
                improved = True


def _two_opt(st: _State, ecus: list[int], params: CriterionParams) -> None:
    """Swap channel-A/channel-B pairs when the swap strictly improves:
    each channel-A ECU is moved once, each channel-B partner scored with it
    moved, and the map restored when no partner improves."""
    crit = st.criterion(params)
    for u in ecus:
        if not st.mask_a & st.bit[u]:
            continue
        before = st.saved()
        on_b = st.mask_b
        st.move(u)
        for v in ecus:
            if not on_b & st.bit[v]:
                continue
            delta = d_a, d_b, d_g = st.move_delta(v)
            swapped = st.criterion_at(params, st.sum_a + d_a, st.sum_b + d_b, st.sum_g + d_g)
            if swapped < crit:
                st.move(v, delta)
                crit = swapped
                break
        else:
            st.restore(before)


def solve_cah(hg: Hypergraph, params: CriterionParams, tries_count: int = 1000,
              rng_seed: int = 0) -> ChannelAssignment:
    """Restarted 3-stage local search over channel assignments.

    Each restart shuffles the ECU list, builds a greedy assignment, then
    applies single-move exchanges to a local optimum.  The best restart
    gets a final pairwise 2-opt pass.  One evaluator serves every restart;
    each candidate is scored without applying it (`add_split`,
    `move_delta`) and only the chosen move is applied.
    """
    if tries_count < 1:
        raise ValueError("tries_count must be >= 1")
    st = _new_state(hg)
    free = list(hg.free_ecus)
    if not free:
        return _finish(st, params, optimal=True)

    rng = random.Random(rng_seed)
    best_crit = float("inf")
    best_a = 0
    for _ in range(tries_count):
        ordered = rng.sample(free, len(free))
        st.reset()
        _greedy_assignment(st, ordered, params)
        _exchange(st, ordered, params)
        crit = st.criterion(params)
        if crit < best_crit:
            best_crit = crit
            best_a = st.mask_a

    st.load(best_a)
    _two_opt(st, sorted(free), params)
    return _finish(st, params, optimal=False)


GA_POPULATION = 100
GA_STAGNATION_LIMIT = 20


def solve_ga(hg: Hypergraph, params: CriterionParams, rng_seed: int = 0,
             max_generations: int = 100) -> ChannelAssignment:
    """Binary genetic algorithm baseline.

    Individuals are channel bit-vectors over the one-port ECUs (set bit =
    channel A).  A population of `GA_POPULATION`, tournament selection of
    size 2, uniform crossover with probability 0.9, per-bit mutation 1/|N|,
    elitism of 1; stops after the generation budget or
    `GA_STAGNATION_LIMIT` generations without improvement.
    """
    st = _new_state(hg)
    n = len(hg.free_ecus)
    if n == 0:
        return _finish(st, params, optimal=True)

    fitness_cache: dict[int, float] = {}

    def fitness(ind: int) -> float:
        val = fitness_cache.get(ind)
        if val is None:
            st.load(ind)
            val = fitness_cache[ind] = st.criterion(params)
        return val

    rng = random.Random(rng_seed)
    population = [rng.getrandbits(n) for _ in range(GA_POPULATION)]
    best = min(population, key=fitness)
    stagnant = 0
    mut_p = 1.0 / n

    for _ in range(max_generations):
        if stagnant >= GA_STAGNATION_LIMIT:
            break

        def pick() -> int:
            a = population[rng.randrange(GA_POPULATION)]
            b = population[rng.randrange(GA_POPULATION)]
            return a if fitness(a) <= fitness(b) else b

        children = [best]
        while len(children) < GA_POPULATION:
            p1, p2 = pick(), pick()
            if rng.random() < 0.9:
                swap_mask = rng.getrandbits(n)
                c1 = (p1 & swap_mask) | (p2 & ~swap_mask)
                c2 = (p2 & swap_mask) | (p1 & ~swap_mask)
            else:
                c1, c2 = p1, p2
            for child in (c1, c2):
                if len(children) >= GA_POPULATION:
                    break
                for bit in range(n):
                    if rng.random() < mut_p:
                        child ^= 1 << bit
                children.append(child)
        population = children
        gen_best = min(population, key=fitness)
        if fitness(gen_best) < fitness(best):
            best = gen_best
            stagnant = 0
        else:
            stagnant += 1

    st.load(best)
    return _finish(st, params, optimal=False)


def export_lp(hg: Hypergraph, params: CriterionParams, path: str | Path) -> None:
    """Write the assignment model in LP file format.

    Variables: binary x<i> per one-port ECU (1 = channel A), continuous
    uA<k>/uB<k> in [0,1] per edge (one-port endpoint set) flagging presence
    on each channel, and continuous PA, PB, PG, z.
    """
    sum_w = sum(hg.edges.values())
    pin = pinned_ecu(hg)
    ft = hg.ft_weight_bytes

    # z >= beta*(PA + ft) and z >= PB + ft; the fault-tolerant payload rides
    # on both channels regardless of the assignment.
    lines = ["Minimize", f" obj: z + {params.alpha!r} PG", "Subject To"]
    lines.append(f" balA: {params.beta!r} PA - z <= {-params.beta * ft + 0.0!r}")
    lines.append(f" balB: PB - z <= {-ft}")
    lines.append(f" gwdef: PA + PB - PG = {sum_w}")
    if hg.edges:
        terms = " + ".join(f"{w} uA{k}" for k, w in enumerate(hg.edges.values()))
        lines.append(f" defA: {terms} - PA = 0")
        terms = " + ".join(f"{w} uB{k}" for k, w in enumerate(hg.edges.values()))
        lines.append(f" defB: {terms} - PB = 0")
    else:
        lines.append(" defA: PA = 0")
        lines.append(" defB: PB = 0")
    for k, ends in enumerate(hg.edges):
        for u in sorted(ends):
            lines.append(f" linkA_{k}_{u}: x{u} - uA{k} <= 0")
            lines.append(f" linkB_{k}_{u}: x{u} + uB{k} >= 1")
    if pin is not None:
        lines.append(f" pin: x{pin} = 1")
    lines.append("Bounds")
    for k in range(len(hg.edges)):
        lines.append(f" 0 <= uA{k} <= 1")
        lines.append(f" 0 <= uB{k} <= 1")
    if hg.free_ecus:
        lines.append("Binaries")
        lines.append(" " + " ".join(f"x{u}" for u in hg.free_ecus))
    lines.append("End")
    Path(path).write_text("\n".join(lines) + "\n")
