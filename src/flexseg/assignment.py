"""Solvers for the ECU-to-channel assignment subproblem.

Three solvers share one incremental criterion evaluator: an exact
depth-first branch-and-bound, a restarted local search (greedy list
assignment + single-move exchange + pairwise 2-opt), and a binary
genetic algorithm baseline.  The model can also be exported in LP file
format so any external MILP solver can cross-check the exact solver.
"""
from __future__ import annotations

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
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.beta <= 0:
            raise ValueError("beta must be positive")


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


class _State:
    """Incremental payload bookkeeping over a partial channel assignment,
    the one evaluator of P_A, P_B and P_G behind every solver.

    Unassigned ECUs are treated as absent: an edge counts toward a channel
    once at least one of its assigned endpoints lies there.
    """

    __slots__ = ("weights", "cnt_a", "cnt_b", "incident", "ft",
                 "sum_a", "sum_b", "sum_g", "sum_float", "assigned")

    def __init__(self, hg: Hypergraph):
        self.weights = list(hg.edges.values())
        self.cnt_a = [0] * len(self.weights)
        self.cnt_b = [0] * len(self.weights)
        self.incident: dict[int, list[int]] = {u: [] for u in hg.free_ecus}
        for k, ends in enumerate(hg.edges):
            for u in ends:
                self.incident[u].append(k)
        self.ft = hg.ft_weight_bytes
        self.sum_a = 0
        self.sum_b = 0
        self.sum_g = 0
        self.sum_float = sum(self.weights)
        self.assigned: dict[int, str] = {}

    def assign(self, ecu: int, ch: str) -> None:
        self.assigned[ecu] = ch
        weights, cnt_a, cnt_b = self.weights, self.cnt_a, self.cnt_b
        if ch == CH_A:
            for k in self.incident[ecu]:
                if cnt_a[k] == 0:
                    w = weights[k]
                    self.sum_a += w
                    if cnt_b[k] == 0:
                        self.sum_float -= w
                    else:
                        self.sum_g += w
                cnt_a[k] += 1
        else:
            for k in self.incident[ecu]:
                if cnt_b[k] == 0:
                    w = weights[k]
                    self.sum_b += w
                    if cnt_a[k] == 0:
                        self.sum_float -= w
                    else:
                        self.sum_g += w
                cnt_b[k] += 1

    def unassign(self, ecu: int) -> None:
        ch = self.assigned.pop(ecu)
        weights, cnt_a, cnt_b = self.weights, self.cnt_a, self.cnt_b
        if ch == CH_A:
            for k in self.incident[ecu]:
                cnt_a[k] -= 1
                if cnt_a[k] == 0:
                    w = weights[k]
                    self.sum_a -= w
                    if cnt_b[k] == 0:
                        self.sum_float += w
                    else:
                        self.sum_g -= w
        else:
            for k in self.incident[ecu]:
                cnt_b[k] -= 1
                if cnt_b[k] == 0:
                    w = weights[k]
                    self.sum_b -= w
                    if cnt_a[k] == 0:
                        self.sum_float += w
                    else:
                        self.sum_g -= w

    def move(self, ecu: int) -> None:
        ch = self.assigned[ecu]
        self.unassign(ecu)
        self.assign(ecu, CH_B if ch == CH_A else CH_A)

    def payloads(self) -> tuple[int, int, int]:
        return self.sum_a + self.ft, self.sum_b + self.ft, self.sum_g

    def criterion(self, params: CriterionParams) -> float:
        p_a, p_b, p_g = self.payloads()
        return max(params.beta * p_a, p_b) + params.alpha * p_g

    def bound(self, params: CriterionParams) -> float:
        """Admissible lower bound over all completions of the partial map.

        Decided edge weights count fully; the pooled weight of edges with no
        assigned endpoint is split fractionally between the channels at the
        balance point, which can only undercut any integral completion.
        """
        beta = params.beta
        fa = self.sum_a + self.ft
        fb = self.sum_b + self.ft
        pool = self.sum_float
        if pool:
            split = (fb + pool - beta * fa) / (1.0 + beta)
            split = min(max(split, 0.0), float(pool))
            m = max(beta * (fa + split), fb + pool - split)
        else:
            m = max(beta * fa, fb)
        return m + params.alpha * self.sum_g


def _finish(hg: Hypergraph, mapping: dict[int, str], params: CriterionParams,
            optimal: bool) -> ChannelAssignment:
    p_a, p_b, p_g, crit = evaluate_criterion(hg, mapping, params)
    return ChannelAssignment(
        channel_of=dict(sorted(mapping.items())),
        payload_a=p_a, payload_b=p_b, payload_gw=p_g,
        criterion=crit, optimal=optimal,
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
    st = _State(hg)
    for u in hg.free_ecus:
        st.assign(u, channel_of[u])
    p_a, p_b, p_g = st.payloads()
    return p_a, p_b, p_g, st.criterion(params)


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
    free = list(hg.free_ecus)
    if not free:
        return _finish(hg, {}, params, optimal=True)

    order = _branch_order(hg)
    st = _State(hg)
    deadline = time.monotonic() + time_limit_ms / 1000.0
    best_crit = float("inf")
    best_map: dict[int, str] = {}
    nodes = 0
    timed_out = False

    def dfs(depth: int) -> None:
        nonlocal best_crit, best_map, nodes, timed_out
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
                best_map = dict(st.assigned)
            return
        ecu = order[depth]
        if depth == 0:
            choices = [CH_A]
        else:
            bounds = {}
            for ch in (CH_A, CH_B):
                st.assign(ecu, ch)
                bounds[ch] = st.bound(params)
                st.unassign(ecu)
            choices = sorted((CH_A, CH_B), key=lambda c: bounds[c])
        for ch in choices:
            st.assign(ecu, ch)
            if not st.bound(params) > best_crit:
                dfs(depth + 1)
            st.unassign(ecu)

    if time.monotonic() > deadline:
        timed_out = True
    else:
        dfs(0)
    if not best_map:
        # Expired before reaching any leaf: fall back to everything on A.
        best_map = {u: CH_A for u in free}
        timed_out = True
    return _finish(hg, best_map, params,
                   optimal=not timed_out and params.beta == 1)


def _greedy_assignment(st: _State, ordered: list[int], params: CriterionParams) -> None:
    """List-style construction: place each ECU on the channel that yields
    the lower partial criterion, ties to the lighter channel, then A."""
    for ecu in ordered:
        st.assign(ecu, CH_A)
        crit_a = st.criterion(params)
        st.unassign(ecu)
        load_a, load_b = st.sum_a, st.sum_b
        st.assign(ecu, CH_B)
        crit_b = st.criterion(params)
        if crit_a < crit_b or (crit_a == crit_b and load_a <= load_b):
            st.unassign(ecu)
            st.assign(ecu, CH_A)


def _exchange(st: _State, ordered: list[int], params: CriterionParams) -> None:
    """Move single ECUs across while any move strictly improves."""
    improved = True
    while improved:
        improved = False
        for ecu in ordered:
            before = st.criterion(params)
            st.move(ecu)
            if st.criterion(params) < before:
                improved = True
            else:
                st.move(ecu)


def _two_opt(st: _State, ecus: list[int], params: CriterionParams) -> None:
    """Swap channel-A/channel-B pairs when the swap strictly improves."""
    for u in ecus:
        if st.assigned[u] != CH_A:
            continue
        for v in ecus:
            if st.assigned[v] != CH_B or st.assigned[u] != CH_A:
                continue
            before = st.criterion(params)
            st.move(u)
            st.move(v)
            if not st.criterion(params) < before:
                st.move(u)
                st.move(v)


def solve_cah(hg: Hypergraph, params: CriterionParams, tries_count: int = 1000,
              rng_seed: int = 0) -> ChannelAssignment:
    """Restarted 3-stage local search over channel assignments.

    Each restart shuffles the ECU list, builds a greedy assignment, then
    applies single-move exchanges to a local optimum.  The best restart
    gets a final pairwise 2-opt pass.  All criterion updates are delta
    evaluations over the edges incident to the moved ECU.
    """
    if tries_count < 1:
        raise ValueError("tries_count must be >= 1")
    free = list(hg.free_ecus)
    if not free:
        return _finish(hg, {}, params, optimal=True)

    rng = random.Random(rng_seed)
    best_crit = float("inf")
    best_map: dict[int, str] = {}
    for _ in range(tries_count):
        ordered = rng.sample(free, len(free))
        st = _State(hg)
        _greedy_assignment(st, ordered, params)
        _exchange(st, ordered, params)
        crit = st.criterion(params)
        if crit < best_crit:
            best_crit = crit
            best_map = dict(st.assigned)

    st = _State(hg)
    for u in free:
        st.assign(u, best_map[u])
    _two_opt(st, sorted(free), params)
    return _finish(hg, dict(st.assigned), params, optimal=False)


def solve_ga(hg: Hypergraph, params: CriterionParams, rng_seed: int = 0,
             population_size: int = 100, max_generations: int = 100,
             stagnation_limit: int = 20) -> ChannelAssignment:
    """Binary genetic algorithm baseline.

    Individuals are channel bit-vectors over the one-port ECUs (set bit =
    channel A).  Tournament selection of size 2, uniform crossover with
    probability 0.9, per-bit mutation 1/|N|, elitism of 1; stops after the
    generation budget or 20 generations without improvement.
    """
    free = list(hg.free_ecus)
    n = len(free)
    if n == 0:
        return _finish(hg, {}, params, optimal=True)

    # The evaluator holds the last individual scored, starting from all
    # on B; scoring another moves only the ECUs whose bits differ.
    st = _State(hg)
    for u in free:
        st.assign(u, CH_B)
    held = 0
    fitness_cache: dict[int, float] = {}

    def fitness(ind: int) -> float:
        nonlocal held
        val = fitness_cache.get(ind)
        if val is None:
            diff, held = ind ^ held, ind
            while diff:
                low = diff & -diff
                st.move(free[low.bit_length() - 1])
                diff ^= low
            val = fitness_cache[ind] = st.criterion(params)
        return val

    rng = random.Random(rng_seed)
    population = [rng.getrandbits(n) for _ in range(population_size)]
    best = min(population, key=fitness)
    stagnant = 0
    mut_p = 1.0 / n

    for _ in range(max_generations):
        if stagnant >= stagnation_limit:
            break

        def pick() -> int:
            a = population[rng.randrange(population_size)]
            b = population[rng.randrange(population_size)]
            return a if fitness(a) <= fitness(b) else b

        children = [best]
        while len(children) < population_size:
            p1, p2 = pick(), pick()
            if rng.random() < 0.9:
                swap_mask = rng.getrandbits(n)
                c1 = (p1 & swap_mask) | (p2 & ~swap_mask)
                c2 = (p2 & swap_mask) | (p1 & ~swap_mask)
            else:
                c1, c2 = p1, p2
            for child in (c1, c2):
                if len(children) >= population_size:
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

    mapping = {u: (CH_A if best >> i & 1 else CH_B) for i, u in enumerate(free)}
    return _finish(hg, mapping, params, optimal=False)


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
