"""Exact graph properties: closeness, betweenness, degree centrality,
shortest-path statistics, and density.

Centralities and path statistics operate on the undirected view of a
connected graph; callers hand in the largest weak component. Density alone
is defined on the full directed graph.

Betweenness, closeness and the path statistics all come from sweep(), one
Brandes pass per source over an adjacency the caller builds once; the
per-Cfg functions are views over it. closeness_many() gives the same
closeness for many graphs at once, from a bit-parallel BFS with no path
counts.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .graph import Cfg


# closeness_many searches at most this many 64-bit words per state array
# (16 MiB) in one pass, unless a single graph needs more; a corpus of large
# graphs takes several passes instead of gigabytes
BATCH_WORDS = 1 << 21


class DisconnectedGraphError(ValueError):
    def __init__(self):
        super().__init__("centrality requires a connected graph; pass one component")


@dataclass(frozen=True)
class PathStats:
    min: float
    max: float
    mean: float
    median: float
    std: float


@dataclass(frozen=True)
class Sweep:
    """What one Brandes pass from every source yields on a connected graph.

    raw_betweenness counts every pair from both endpoints; hops[d] is the
    number of unordered node pairs at hop distance d.
    """
    raw_betweenness: list[float]
    closeness: list[float]
    hops: list[int]

    def betweenness(self) -> list[float]:
        """Normalized to [0, 1], endpoints excluded; 0 below three nodes."""
        n = len(self.raw_betweenness)
        if n < 3:
            return [0.0] * n
        norm = (n - 1) * (n - 2)
        return [r / norm for r in self.raw_betweenness]

    def path_stats(self) -> PathStats:
        """summary_stats of the list in which each d occurs hops[d] times.

        Every step is the one summary_stats takes on the sorted list: the
        sum of small integers is exact, and the squared deviations are
        summed one by one in ascending order, so each field comes out bit
        for bit the same.
        """
        hops = self.hops
        k = sum(hops)
        if not k:
            return PathStats(0.0, 0.0, 0.0, 0.0, 0.0)
        present = [d for d, count in enumerate(hops) if count]

        def nth(i: int) -> float:
            for d in present:
                i -= hops[d]
                if i < 0:
                    return float(d)
            raise IndexError(i)

        mean = sum(d * hops[d] for d in present) / k
        median = nth(k // 2) if k % 2 else (nth(k // 2 - 1) + nth(k // 2)) / 2
        var = sum(chain.from_iterable(repeat((float(d) - mean) ** 2, hops[d])
                                      for d in present)) / k
        return PathStats(float(present[0]), float(present[-1]), mean, median,
                         math.sqrt(var))


def sweep(adj: list[list[int]]) -> Sweep:
    """Brandes betweenness, closeness and the hop histogram in one pass.

    Each source runs one level-synchronous BFS that counts shortest paths
    (sigma, exact Python ints, since stacked branches double it per level);
    the levels give the distance sum and the histogram. Dependencies are
    then pushed from each node to its predecessors (neighbors one level up)
    in reverse BFS order, so every delta[u] adds its terms in Brandes's order.
    """
    n = len(adj)
    raw = [0.0] * n
    close = [0.0] * n
    hops = [0]
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        dist[s] = 0
        sigma[s] = 1
        order: list[int] = []
        frontier = [s]
        d = total = 0
        while frontier:
            d += 1
            level: list[int] = []
            for u in frontier:
                su = sigma[u]
                for v in adj[u]:
                    dv = dist[v]
                    if dv < 0:
                        dist[v] = d
                        sigma[v] = su
                        level.append(v)
                    elif dv == d:
                        sigma[v] += su
            if level:
                order += level
                total += d * len(level)
                if d == len(hops):
                    hops.append(0)
                hops[d] += len(level)
            frontier = level
        if len(order) != n - 1:
            raise DisconnectedGraphError()
        if n > 1:
            close[s] = (n - 1) / total
        delta = [0.0] * n
        for w in reversed(order):
            sw = sigma[w]
            dw = 1.0 + delta[w]
            up = dist[w] - 1
            for u in adj[w]:
                if dist[u] == up:
                    delta[u] += sigma[u] / sw * dw
            raw[w] += delta[w]
    # every unordered pair was counted once from each end
    return Sweep(raw, close, [h // 2 for h in hops])


def closeness_many(adjs: Iterable[list[list[int]]]) -> list[list[float]]:
    """Closeness per node of each connected graph, in input order.

    A bit-parallel multi-source BFS (Then et al., "The More the Merrier",
    PVLDB 8(4), 2014): graphs needing the same number of 64-bit words per
    node are searched together, every node a source. The hop-distance sums
    are exact integers, so each score is the (n-1)/total that a BFS per
    source gives. Each adjacency is packed into int arrays as it arrives,
    so adjs may be a generator that never holds the lists of the others.
    """
    packed = [(np.fromiter(map(len, adj), np.intp, len(adj)),
               np.fromiter(chain.from_iterable(adj), np.intp)) for adj in adjs]
    scores: list[list[float]] = [[0.0] * len(deg) for deg, _ in packed]
    groups: dict[int, list[int]] = {}
    for i, (deg, _) in enumerate(packed):
        if len(deg) > 1:
            if not deg.all():
                raise DisconnectedGraphError()
            groups.setdefault((len(deg) + 63) >> 6, []).append(i)
    for words, members in groups.items():
        batches: list[list[int]] = [[]]
        rows = 0
        for i in members:
            rows += len(packed[i][0])
            if batches[-1] and rows * words > BATCH_WORDS:
                batches.append([])
                rows = len(packed[i][0])
            batches[-1].append(i)
        for batch in batches:
            totals = iter(_distance_sums([packed[i] for i in batch], words))
            for i in batch:
                n = len(packed[i][0])
                scores[i] = [(n - 1) / next(totals) for _ in range(n)]
    return scores


def _distance_sums(graphs: list[tuple[np.ndarray, np.ndarray]], words: int) -> list[int]:
    """Each node's hop-distance sum over the disjoint union of graphs with
    `words` words per node and no isolated node, nodes in input order.

    Bit s of row v is set once source s of v's graph has reached v. A
    source at distance k from v is still missing from v's row after each
    of the levels 0..k-1, so v's distance sum is the number of missing
    bits summed over all levels, less the bits past its graph's size.
    Rows are renumbered by falling degree, so the nodes with more than k
    neighbors are a prefix and each level ORs in one gather per slot k.
    """
    sizes = [len(deg) for deg, _ in graphs]
    deg = np.concatenate([deg for deg, _ in graphs])
    rows = len(deg)
    first = np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
    local = (np.arange(rows) - first).astype(np.uint64)
    # every neighbor id is shifted to the union's numbering
    indices = np.concatenate([nbrs for _, nbrs in graphs]) + np.repeat(first, deg)
    indptr = np.concatenate(([0], np.cumsum(deg)))
    order = np.argsort(-deg, kind="stable")
    rank = np.empty(rows, np.intp)
    rank[order] = np.arange(rows)
    slots = [rank[indices[indptr[order[:np.count_nonzero(deg > k)]] + k]]
             for k in range(int(deg.max()))]
    frontier = np.zeros((rows, words), np.uint64)
    frontier[rank, local >> np.uint64(6)] = np.uint64(1) << (local & np.uint64(63))
    unseen = ~frontier
    missing = np.bitwise_count(unseen).astype(np.int64)
    levels = 1
    while True:
        new = frontier[slots[0]]
        for src in slots[1:]:
            new[:len(src)] |= frontier[src]
        new &= unseen
        if not new.any():
            break
        unseen ^= new
        missing += np.bitwise_count(unseen)
        levels += 1
        frontier = new
    padding = 64 * words - np.repeat(sizes, sizes)[order]
    if (np.bitwise_count(unseen).sum(axis=1) != padding).any():
        raise DisconnectedGraphError()
    return (missing.sum(axis=1) - levels * padding)[rank].tolist()


def degree_scores(adj: list[list[int]], loops: set[int]) -> list[float]:
    """Undirected degree over n-1; a self-loop adds 1 to its node's degree."""
    n = len(adj)
    if n == 1:
        return [0.0]
    return [(len(adj[u]) + (1 if u in loops else 0)) / (n - 1) for u in range(n)]


def closeness(g: Cfg) -> dict[int, float]:
    """Normalized closeness (n-1)/sum of hop distances, per node."""
    return dict(enumerate(sweep(g.undirected_adjacency()).closeness))


def betweenness(g: Cfg) -> dict[int, float]:
    """Brandes betweenness, endpoints excluded, normalized to [0, 1]."""
    return dict(enumerate(sweep(g.undirected_adjacency()).betweenness()))


def degree_centrality(g: Cfg) -> dict[int, float]:
    """Undirected degree over n-1; a self-loop adds 1 to its node's degree."""
    return dict(enumerate(degree_scores(g.undirected_adjacency(), g.self_loop_nodes())))


def shortest_path_stats(g: Cfg) -> PathStats:
    """Summary statistics of hop distances over all unordered node pairs."""
    return sweep(g.undirected_adjacency()).path_stats()


def density(g: Cfg) -> float:
    """Directed simple-edge density |E| / (n(n-1)); self-loops count in |E|."""
    n = g.node_count
    if n < 2:
        return 0.0
    return g.edge_count / (n * (n - 1))


def summary_stats(values: list[float]) -> PathStats:
    """min/max/mean/median/population-std of a non-empty value list."""
    if not values:
        raise ValueError("summary_stats needs at least one value")
    ordered = sorted(values)
    k = len(ordered)
    mean = sum(ordered) / k
    if k % 2:
        median = ordered[k // 2]
    else:
        median = (ordered[k // 2 - 1] + ordered[k // 2]) / 2
    var = sum((v - mean) ** 2 for v in ordered) / k
    return PathStats(ordered[0], ordered[-1], mean, median, math.sqrt(var))
