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
# bytes, one 8 KiB int.  The blocks of the whole table sit beside it while
# the transform runs, one more copy of the table (1 MiB at 17 one-port
# ECUs, 8 MiB at 20).
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

    The filled table is read once into a list of blocks, each one int of
    64-bit fields.  Entries never exceed the total payload, so fields add
    without a carry between them and one big-int add updates a whole
    block.  The transform is one pass per bit.  For a bit inside a block,
    every entry S without the bit gets entry S | bit: the fields whose
    index has the bit set, masked and shifted down by bit fields.  For a
    bit above, the block gets its partner block.  Each block is then
    written back into the table once."""
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
    size = 1 << min(n, _BLOCK_BITS)
    blocks = [int.from_bytes(table[lo:lo + size], "little") for lo in range(0, full + 1, size)]
    for i in range(n):
        if i < _BLOCK_BITS:
            m = int.from_bytes((bytes(8 << i) + b"\xff" * (8 << i)) * (size >> (i + 1)), "little")
            for c, x in enumerate(blocks):
                blocks[c] = x + ((x & m) >> (64 << i))
        else:
            step = 1 << (i - _BLOCK_BITS)
            for c, x in enumerate(blocks):
                if not c & step:
                    blocks[c] = x + blocks[c | step]
    for c, x in enumerate(blocks):
        table[c * size:(c + 1) * size] = array("q", x.to_bytes(8 * size, "little"))
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
