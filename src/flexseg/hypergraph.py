"""Aggregate signals into hyperedges keyed by their one-port endpoint set.

The hypergraph is the input of the ECU-to-channel assignment subproblem:
vertices are the one-port ECUs, one hyperedge per distinct set of one-port
endpoints of the non-fault-tolerant signals, weighted by summed payloads.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import Instance


@dataclass(frozen=True)
class Hypergraph:
    # one-port endpoint set -> summed payload, non-empty sets in sorted order
    edges: dict[frozenset[int], int]
    free_ecus: tuple[int, ...]
    ft_weight_bytes: int
    total_weight_bytes: int


def build_hypergraph(inst: Instance) -> Hypergraph:
    """Group non-fault-tolerant signals by their one-port endpoints.

    Endpoints are the transmitter plus the receivers.  Common ECUs and the
    gateway are wired to both channels and never constrain the assignment,
    so a signal with no one-port endpoint is in no edge and only counts
    toward the total payload.  Fault-tolerant signals are duplicated on
    both channels regardless of the assignment, so they are kept out of the
    edges and only accumulated as a constant payload added to both sides.
    """
    one_port = {e.id for e in inst.one_port_ecus}
    groups: dict[frozenset[int], int] = {}
    ft_weight = total = 0
    for s in inst.signals:
        total += s.payload_bytes
        if s.fault_tolerant:
            ft_weight += s.payload_bytes
            continue
        key = frozenset(one_port.intersection((s.transmitter, *s.receivers)))
        if key:
            groups[key] = groups.get(key, 0) + s.payload_bytes

    return Hypergraph(
        edges={key: groups[key] for key in sorted(groups, key=sorted)},
        free_ecus=tuple(sorted(one_port)),
        ft_weight_bytes=ft_weight,
        total_weight_bytes=total,
    )
