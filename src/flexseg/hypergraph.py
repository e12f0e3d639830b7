"""Aggregate signals into hyperedges keyed by their one-port endpoint set.

The hypergraph is the input of the ECU-to-channel assignment subproblem:
vertices are the one-port ECUs, one hyperedge per distinct set of one-port
endpoints of the non-fault-tolerant signals, weighted by summed payloads.
Its coverage table, `Hypergraph.uncovered`, turns every payload sum the
assignment solvers need into a lookup.
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property

from .model import Instance

# Table entries per block of the subset-sum transform: 2**10 entries of 8
# bytes, so the transform allocates a few 8 KiB ints beside the table.
_BLOCK_BITS = 10


@dataclass(frozen=True)
class Hypergraph:
    # one-port endpoint set -> summed payload, non-empty sets in sorted order
    edges: dict[frozenset[int], int]
    free_ecus: tuple[int, ...]
    ft_weight_bytes: int
    total_weight_bytes: int

    @cached_property
    def uncovered(self) -> array:
        """Coverage table over the subsets of `free_ecus`: entry S is the
        payload of the edges with no endpoint in S, where bit i of S stands
        for `free_ecus[i]`.  The payload of the edges with an endpoint in S
        is then `uncovered[0] - uncovered[S]`.  It has 2**len(free_ecus)
        entries of 8 bytes and is built on first use."""
        return _uncovered_table(self)


def _uncovered_table(hg: Hypergraph) -> array:
    """One superset-sum transform: entry S starts as the payload of the
    edges whose endpoint set is exactly the complement of S and ends as
    the sum over the supersets of S.

    The table is transformed block by block, each block read as one int
    of 64-bit fields.  Entries never exceed the total payload, so fields
    add without a carry between them and one big-int add updates a whole
    block.  For a bit inside a block, every entry S without the bit gets
    entry S | bit: the fields whose index has the bit set, masked and
    shifted down by bit fields.  For a bit above, the block gets its
    partner block."""
    n = len(hg.free_ecus)
    full = (1 << n) - 1
    bit = {u: 1 << i for i, u in enumerate(hg.free_ecus)}
    table = array("q", [0]) * (full + 1)
    for ends, w in hg.edges.items():
        mask = 0
        for u in ends:
            mask |= bit[u]
        table[full ^ mask] += w

    if sys.byteorder == "big":
        table.byteswap()  # the fields are read as little-endian
    view = memoryview(table).cast("B")
    k = min(n, _BLOCK_BITS)
    span = 8 << k
    with_bit = [int.from_bytes((bytes(8 << i) + b"\xff" * (8 << i)) * (1 << (k - i - 1)), "little")
                for i in range(k)]
    for lo in range(0, len(view), span):
        x = int.from_bytes(view[lo:lo + span], "little")
        for i, m in enumerate(with_bit):
            x += (x & m) >> (64 << i)
        view[lo:lo + span] = x.to_bytes(span, "little")
    for i in range(k, n):
        half = 8 << i
        for lo in range(0, len(view), 2 * half):
            for c in range(lo, lo + half, span):
                x = int.from_bytes(view[c:c + span], "little") + \
                    int.from_bytes(view[c + half:c + half + span], "little")
                view[c:c + span] = x.to_bytes(span, "little")
    view.release()
    if sys.byteorder == "big":
        table.byteswap()
    return table


def build_hypergraph(inst: Instance) -> Hypergraph:
    """Group non-fault-tolerant signals by their one-port endpoints.

    Endpoints are the transmitter plus the receivers.  Common ECUs and the
    gateway are wired to both channels and never constrain the assignment,
    so a signal with no one-port endpoint is in no edge and only counts
    toward the total payload.  Fault-tolerant signals are duplicated on
    both channels regardless of the assignment, so they are kept out of the
    edges and only accumulated as a constant payload added to both sides.
    """
    one_port = inst.one_port_ids
    groups: dict[frozenset[int], int] = {}
    ft_weight = total = 0
    for s in inst.signals:
        total += s.payload_bytes
        if s.fault_tolerant:
            ft_weight += s.payload_bytes
            continue
        key = one_port.intersection((s.transmitter, *s.receivers))
        if key:
            groups[key] = groups.get(key, 0) + s.payload_bytes

    return Hypergraph(
        edges={key: groups[key] for key in sorted(groups, key=sorted)},
        free_ecus=tuple(sorted(one_port)),
        ft_weight_bytes=ft_weight,
        total_weight_bytes=total,
    )
