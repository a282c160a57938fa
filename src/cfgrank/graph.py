"""Canonical in-memory control-flow graph and its largest weak component.

A Cfg is an immutable directed graph whose nodes are basic blocks, indexed
densely 0..n-1 in ascending address order. Edges are deduplicated pairs of
node ids; self-loops are kept.
"""

from __future__ import annotations

import reprlib
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import InputError


class DanglingEdgeError(InputError):
    def __init__(self, address: int):
        super().__init__(f"edge endpoint address {reprlib.repr(address)} does not match any block")
        self.address = address


class BasicBlock(NamedTuple):
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
        raise InputError("a CFG needs at least one basic block")
    ordered = tuple(sorted(blocks, key=lambda b: b.address))
    id_of: dict[int, int] = {}
    for i, b in enumerate(ordered):
        if b.address in id_of:
            raise InputError(f"duplicate block address {reprlib.repr(b.address)}")
        id_of[b.address] = i
    edge_set: set[tuple[int, int]] = set()
    for src, dst in raw_edges:
        if src not in id_of:
            raise DanglingEdgeError(src)
        if dst not in id_of:
            raise DanglingEdgeError(dst)
        edge_set.add((id_of[src], id_of[dst]))
    return Cfg(sample_id=sample_id, blocks=ordered, edges=tuple(sorted(edge_set)))


class Components(NamedTuple):
    """The largest weak component of each of a list of graphs, as the
    undirected subgraph that they induce together.

    The components' nodes are numbered one component after another, in
    input order, each one's densely in id order: sizes[j] is the number of
    nodes of graph j's component, which come after those of components
    0..j-1, and counts[j] graph j's number of weak components. The union is
    CSR, intp indptr and int32 indices: node u's neighbors are
    indices[indptr[u]:indptr[u + 1]], sorted, self-loops excluded; loops
    holds the self-loop nodes in ascending order, int32.
    """
    indptr: np.ndarray
    indices: np.ndarray
    loops: np.ndarray
    sizes: np.ndarray
    counts: np.ndarray


def largest_components(graphs: Sequence[Cfg]) -> Components:
    """The largest weak component of each graph, in input order, from one
    labeling of all graphs' nodes together.

    The graphs' nodes are numbered one after another. Each node's label
    starts as its own number; every round hooks the larger label of each
    edge still joining two labels onto the smaller, then jumps pointers
    until each label is a root (Shiloach & Vishkin, J. Algorithms 3(1),
    1982). Labels never grow, so a component ends labeled by its lowest
    node, and of equal-size components the one holding the lowest node id
    is the largest. Every graph needs a node, as build_cfg ensures.
    """
    sizes = np.fromiter((len(g.blocks) for g in graphs), np.intp, len(graphs))
    ecounts = np.fromiter((len(g.edges) for g in graphs), np.intp, len(graphs))
    first = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    ends = np.fromiter(chain.from_iterable(chain.from_iterable(g.edges for g in graphs)),
                       np.intp, 2 * int(ecounts.sum())).reshape(-1, 2)
    ends += np.repeat(first, ecounts)[:, None]
    src, dst = ends[:, 0], ends[:, 1]
    has_loop = np.zeros(total, bool)
    has_loop[src[src == dst]] = True
    src, dst = src[src != dst], dst[src != dst]

    label = np.arange(total)
    u, v = src, dst
    while len(u):
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        np.minimum.at(label, hi, lo)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        u, v = label[u], label[v]
        joined = u != v
        u, v = u[joined], v[joined]

    graph_of = np.repeat(np.arange(len(graphs)), sizes)
    is_root = label == np.arange(total)
    size = np.bincount(label, minlength=total)
    # the first root of each graph whose component has the graph's largest size
    best = np.flatnonzero(is_root & (size == np.maximum.reduceat(size, first)[graph_of]))
    best = best[np.diff(graph_of[best], prepend=-1) != 0]
    keep = label == best[graph_of]
    kept = size[best]
    # a kept node's number in the union
    number = (np.cumsum(keep) - 1).astype(np.int32)
    # both directions of each undirected edge once, sorted by (u, v)
    pairs = np.concatenate((src, dst)) * total + np.concatenate((dst, src))
    pairs = np.sort(pairs[keep[pairs // total]])
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(number[pairs // total],
                                                        minlength=int(kept.sum())))))
    return Components(indptr, number[pairs % total], number[has_loop & keep], kept,
                      np.add.reduceat(is_root, first))
