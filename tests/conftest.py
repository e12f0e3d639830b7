from __future__ import annotations

import itertools
import random

import pytest

from flexseg.hypergraph import Hypergraph
from flexseg.model import Ecu, EcuKind, Instance, NetworkConfig, Signal


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
                      max_edges: int = 40) -> Hypergraph:
    """Random assignment problem: a few common vertices, weighted signal
    groups over 1..3 one-port endpoints, occasional all-common groups and
    FT payload.  Groups with equal one-port endpoints merge into one edge;
    all-common groups only add to the total payload."""
    n_free = rng.randint(3, max_free)
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
        weight = rng.randint(1, 20)
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
