"""Canonical in-memory control-flow graph and its largest weak component.

A Cfg is an immutable directed graph whose nodes are basic blocks, indexed
densely 0..n-1 in ascending address order. Edges are deduplicated pairs of
node ids; self-loops are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class GraphError(ValueError):
    """Base class for CFG construction and query errors."""


class EmptyGraphError(GraphError):
    pass


class DanglingEdgeError(GraphError):
    def __init__(self, address: int):
        super().__init__(f"edge endpoint address {address} does not match any block")
        self.address = address


@dataclass(frozen=True)
class BasicBlock:
    address: int
    size: int = 0
    instr_count: int = 0


@dataclass(frozen=True)
class Cfg:
    sample_id: str
    blocks: tuple[BasicBlock, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def node_count(self) -> int:
        return len(self.blocks)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def undirected_adjacency(self) -> list[list[int]]:
        """Neighbor lists ignoring edge direction; self-loops excluded.

        Neighbor lists are sorted so traversals are deterministic.
        """
        nbrs: list[set[int]] = [set() for _ in range(self.node_count)]
        for u, v in self.edges:
            if u != v:
                nbrs[u].add(v)
                nbrs[v].add(u)
        return [sorted(s) for s in nbrs]

    def self_loop_nodes(self) -> set[int]:
        return {u for u, v in self.edges if u == v}


def build_cfg(
    sample_id: str,
    blocks: list[BasicBlock],
    raw_edges: list[tuple[int, int]],
) -> Cfg:
    """Assemble a Cfg from blocks and address-level edges.

    Blocks get dense ids in ascending address order; duplicate edges collapse;
    self-loops survive. Raises DanglingEdgeError if an edge endpoint matches
    no block address.
    """
    if not blocks:
        raise EmptyGraphError("a CFG needs at least one basic block")
    ordered = tuple(sorted(blocks, key=lambda b: b.address))
    id_of: dict[int, int] = {}
    for i, b in enumerate(ordered):
        if b.address in id_of:
            raise GraphError(f"duplicate block address {b.address}")
        id_of[b.address] = i
    edge_set: set[tuple[int, int]] = set()
    for src, dst in raw_edges:
        if src not in id_of:
            raise DanglingEdgeError(src)
        if dst not in id_of:
            raise DanglingEdgeError(dst)
        edge_set.add((id_of[src], id_of[dst]))
    return Cfg(sample_id=sample_id, blocks=ordered, edges=tuple(sorted(edge_set)))


class _Component(NamedTuple):
    adj: list[list[int]]
    loops: set[int]
    count: int


def largest_component(g: Cfg) -> _Component:
    """g's largest weak component and g's number of weak components.

    The component comes as the undirected adjacency and the self-loop nodes
    of the subgraph it induces, its nodes renumbered densely in id order,
    so each neighbor list stays sorted. Of equal-size components the one
    holding the lowest node id wins.
    """
    adj = g.undirected_adjacency()
    seen = [False] * len(adj)
    largest: list[int] = []
    count = 0
    for start in range(len(adj)):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        found = [start]
        for u in found:  # a breadth-first search: found grows as it is read
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    found.append(v)
        if len(found) > len(largest):
            largest = found
    loops = g.self_loop_nodes()
    if len(largest) < len(adj):
        largest.sort()
        new_id = dict(zip(largest, range(len(largest))))
        adj = [adj[u] for u in largest]
        for nbrs in adj:
            nbrs[:] = map(new_id.__getitem__, nbrs)
        loops = {new_id[u] for u in loops if u in new_id}
    return _Component(adj, loops, count)
