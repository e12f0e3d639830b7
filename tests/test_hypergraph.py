from __future__ import annotations

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from flexseg.assignment import CriterionParams, evaluate_criterion
from flexseg.generator import GeneratorProfile, generate
from flexseg.hypergraph import build_hypergraph
from flexseg.model import EcuKind, Instance, Signal

# Hand aggregation of the ten reference signals by one-port endpoints (the
# one-port ECUs are 3, 4 and 5): the fault-tolerant signal (endpoints
# {1,2,3}, weight 8) is excluded from the edges.
EXAMPLE1_EDGES = {
    frozenset({4, 5}): 4,
    frozenset({4}): 8,
    frozenset({5}): 12,
    frozenset({3, 4, 5}): 16,
    frozenset({3, 4}): 4,
}


def brute_force_groups(inst: Instance) -> dict[frozenset[int], int]:
    """Independent aggregation: group payloads by one-port endpoint set."""
    one_port = {e.id for e in inst.ecus if e.kind == EcuKind.ONE_PORT}
    out: dict[frozenset[int], int] = {}
    for s in inst.signals:
        key = frozenset(u for u in (s.transmitter, *s.receivers) if u in one_port)
        if s.fault_tolerant or not key:
            continue
        out[key] = out.get(key, 0) + s.payload_bytes
    return out


def test_example1_edges(example1):
    hg = build_hypergraph(example1)
    assert hg.edges == EXAMPLE1_EDGES
    assert hg.ft_weight_bytes == 8
    assert hg.total_weight_bytes == 52
    assert hg.free_ecus == (3, 4, 5)


def test_example1_aggregates_shared_endpoint_group(example1):
    hg = build_hypergraph(example1)
    members = [s for s in example1.signals
               if {s.transmitter, *s.receivers} == {3, 4, 5}]
    assert [s.id for s in members] == [5, 6, 7, 9]
    assert hg.edges[frozenset({3, 4, 5})] == sum(s.payload_bytes for s in members)


def test_equal_one_port_sets_merge_across_common_endpoints(example1):
    # signal 3 runs 2 -> 4; a new signal 1 -> 4 has the same one-port set
    extra = Signal(id=11, transmitter=1, period_cycles=1, payload_bytes=3,
                   release_ms=0.0, deadline_ms=2.0, fault_tolerant=False,
                   receivers=frozenset({4}))
    hg = build_hypergraph(
        dataclasses.replace(example1, signals=example1.signals + (extra,)))
    assert hg.edges == {**EXAMPLE1_EDGES, frozenset({4}): 8 + 3}
    assert hg.total_weight_bytes == 52 + 3


def test_example1_matches_brute_force(example1):
    hg = build_hypergraph(example1)
    assert hg.edges == brute_force_groups(example1)


def test_common_endpoints_not_free(example1):
    hg = build_hypergraph(example1)
    assert all(ends <= {3, 4, 5} for ends in hg.edges)


def test_all_fault_tolerant(example1):
    signals = tuple(
        s for s in example1.signals if s.transmitter in (1, 2)
    )
    ft_signals = tuple(
        type(s)(s.id, s.transmitter, s.period_cycles, s.payload_bytes,
                s.release_ms, s.deadline_ms, True, s.receivers)
        for s in signals
    )
    inst = Instance(example1.config, example1.ecus, ft_signals)
    hg = build_hypergraph(inst)
    assert hg.edges == {}
    assert hg.ft_weight_bytes == sum(s.payload_bytes for s in ft_signals)


def test_weight_conservation_random():
    for seed in range(8):
        inst = generate(GeneratorProfile(ecu_count=10, signal_count=120,
                                         fault_tolerant_fraction=0.2), seed=seed)
        hg = build_hypergraph(inst)
        assert hg.total_weight_bytes == sum(s.payload_bytes for s in inst.signals)
        assert hg.edges == brute_force_groups(inst)


def test_permutation_independence():
    inst = generate(GeneratorProfile(ecu_count=8, signal_count=60), seed=3)
    hg = build_hypergraph(inst)
    shuffled = list(inst.signals)
    random.Random(9).shuffle(shuffled)
    hg2 = build_hypergraph(Instance(inst.config, inst.ecus, tuple(shuffled)))
    assert list(hg.edges.items()) == list(hg2.edges.items())
    assert hg == hg2


def test_distinct_endpoint_sets(example1):
    # every key is a non-empty one-port set, in ascending sorted-list order
    hg = build_hypergraph(example1)
    keys = [sorted(ends) for ends in hg.edges]
    assert all(keys)
    assert keys == sorted(keys)


# --- the grouping against a per-signal statement of the criterion -----------

def per_signal_payloads(inst: Instance, channel_of: dict[int, str]) -> tuple[int, int, int]:
    """P_A, P_B and P_G summed signal by signal, without the hypergraph."""
    p_a = p_b = p_g = 0
    for s in inst.signals:
        if s.fault_tolerant:
            p_a += s.payload_bytes
            p_b += s.payload_bytes
            continue
        channels = {channel_of[u] for u in (s.transmitter, *s.receivers)
                    if u in channel_of}
        p_a += s.payload_bytes if "A" in channels else 0
        p_b += s.payload_bytes if "B" in channels else 0
        p_g += s.payload_bytes if len(channels) == 2 else 0
    return p_a, p_b, p_g


@st.composite
def instances_and_maps(draw):
    profile = GeneratorProfile(
        ecu_count=draw(st.integers(3, 9)),
        common_ecu_fraction=draw(st.floats(0.0, 1.0)),
        signal_count=draw(st.integers(0, 40)),
        fault_tolerant_fraction=draw(st.floats(0.0, 1.0)),
    )
    inst = generate(profile, seed=draw(st.integers(0, 2**16)))
    channel_of = {e.id: draw(st.sampled_from("AB")) for e in inst.one_port_ecus}
    params = CriterionParams(alpha=draw(st.floats(0.0, 2.0)),
                             beta=draw(st.floats(0.125, 8.0)))
    return inst, channel_of, params


@settings(max_examples=200, derandomize=True, deadline=None)
@given(instances_and_maps())
def test_grouped_criterion_equals_per_signal_criterion(case):
    inst, channel_of, params = case
    hg = build_hypergraph(inst)
    p_a, p_b, p_g = per_signal_payloads(inst, channel_of)
    assert evaluate_criterion(hg, channel_of, params) == (
        p_a, p_b, p_g, max(params.beta * p_a, p_b) + params.alpha * p_g)
    assert hg.total_weight_bytes == sum(s.payload_bytes for s in inst.signals)
