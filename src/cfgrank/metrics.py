"""Exact graph properties: closeness, betweenness, degree centrality,
shortest-path statistics, and density.

Centralities and path statistics operate on the undirected view of a
connected graph; callers hand in the largest weak component. Density alone
is defined on the full directed graph.

Betweenness, closeness and the path statistics all come from one Brandes
pass per source: sweep_many() runs it for many graphs at once, many sources
per numpy pass, on the int32 CSR (indptr, indices) of each graph's largest
component (graph.largest_components), and gives for each the Sweep that
sweep() gives on its neighbor lists. closeness_many() gives the same
closeness from a bit-parallel BFS with no path counts, and degree_scores()
degree centrality from the same CSR.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .graph import Cfg


# closeness_many searches at most this many 64-bit words per state array
# (16 MiB) in one pass, unless a single graph needs more; a corpus of large
# graphs takes several passes instead of gigabytes
BATCH_WORDS = 1 << 21

# one sweep_many pass holds at most this many slots, sources x (n + 2m)
# summed over its graphs: one per (source, node) pair and one per (source,
# edge end), so the largest BFS level's candidates are bounded too; a graph
# too big for it is swept in blocks of sources (one source at the least)
SWEEP_SLOTS = 1 << 18

# float64 counts shortest paths exactly below this; sweep() takes any graph
# with more
_EXACT_SIGMA = 2.0 ** 53


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


def sweep_many(csrs: Iterable[tuple[np.ndarray, np.ndarray]]) -> Iterator[Sweep]:
    """sweep() of each connected graph, given as CSR (indptr, indices), bit
    for bit, in input order.

    Source-batched Brandes (McLaughlin & Bader, SC 2014): graphs are
    gathered into groups of at most SWEEP_SLOTS slots; each group is
    searched one BFS level at a time for all its sources together, and its
    Sweeps are yielded as it finishes, so csrs may be a generator that is
    read at most one graph past the group. A graph whose path counts reach
    2**53, where float64 stops counting exactly, is swept again by sweep().
    """
    group: list[tuple[np.ndarray, np.ndarray]] = []
    slots = 0
    for indptr, indices in csrs:
        n = len(indptr) - 1
        size = n * (n + len(indices))
        if group and slots + size > SWEEP_SLOTS:
            yield from _sweep_group(group)
            group, slots = [], 0
        group.append((indptr, indices))
        slots += size
    if group:
        yield from _sweep_group(group)


def _sweep_group(graphs: list[tuple[np.ndarray, np.ndarray]]) -> Iterator[Sweep]:
    """Sweeps of CSR graphs that fit SWEEP_SLOTS together, or of one graph
    that does not, taken in blocks of sources that do."""
    sizes = [len(indptr) - 1 for indptr, _ in graphs]
    firsts = np.cumsum([0] + sizes[:-1]).tolist()
    deg = np.concatenate([np.diff(indptr) for indptr, _ in graphs])
    # one node numbering for the group: graph j's nodes start at firsts[j]
    csr = (np.concatenate(([0], np.cumsum(deg))), deg,
           np.concatenate([indices + first for (_, indices), first in zip(graphs, firsts)]))
    if len(graphs) > 1:
        blocks = [[(first, size, 0, size) for first, size in zip(firsts, sizes)]]
    else:
        n = sizes[0]
        step = max(1, SWEEP_SLOTS // (n + len(csr[2])))
        blocks = [[(0, n, s, min(s + step, n))] for s in range(0, n, step)]
    raw = np.zeros(len(deg))
    close = np.zeros(len(deg))
    hists = [np.zeros(1, np.intp) for _ in graphs]
    exact = [True] * len(graphs)
    for segs in blocks:
        for j, (hist, top) in enumerate(_brandes_block(csr, segs, raw, close)):
            exact[j] = exact[j] and top < _EXACT_SIGMA
            if len(hist) > len(hists[j]):
                hist[:len(hists[j])] += hists[j]
                hists[j] = hist
            else:
                hists[j][:len(hist)] += hist
        if not all(exact):  # a lone graph bound for sweep() needs no more blocks
            break
    for (indptr, indices), first, size, hist, ok in zip(graphs, firsts, sizes, hists, exact):
        if ok:
            hist[0] = 0
            yield Sweep(raw[first:first + size].tolist(),
                        close[first:first + size].tolist(), (hist // 2).tolist())
        else:
            ends = indptr.tolist()
            flat = indices.tolist()
            yield sweep([flat[a:b] for a, b in zip(ends, ends[1:])])


def _brandes_block(csr: tuple[np.ndarray, np.ndarray, np.ndarray],
                   segs: list[tuple[int, int, int, int]],
                   raw: np.ndarray, close: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """One level-synchronous Brandes pass from the sources s0 <= s < s1 of
    each segment (first, n, s0, s1), an n-node graph whose nodes are
    numbered from first in csr; writes their closeness and adds their
    dependencies into raw, both indexed by node number. Returns, per
    segment, the number of pairs at each distance and the largest path
    count; a lone segment whose counts are inexact gets no backward pass.

    Each (source, node) pair is one slot of flat arrays, row by row, so a
    pair is its row's base plus the node's number. A BFS level keeps each
    source's nodes in the order in which sweep() finds them: candidates are
    listed by (frontier position, neighbor slot), and np.minimum.at marks
    the first candidate of each new pair, using its dist slot as scratch.
    The backward pass walks each level in reverse, and np.add.at adds the
    dependency terms in array order, so each sum is taken in sweep()'s order.
    """
    rows = [s1 - s0 for _, _, s0, s1 in segs]
    width = np.repeat([n for _, n, _, _ in segs], rows)
    start = np.cumsum(width) - width
    base = (start - np.repeat([first for first, _, _, _ in segs], rows)).astype(np.int32)
    pairs = start + np.concatenate([np.arange(s0, s1) for _, _, s0, s1 in segs])
    size = len(width) and int(start[-1] + width[-1])
    unseen = np.iinfo(np.int32).max
    dist = np.full(size, unseen, np.int32)
    sigma = np.zeros(size)
    dist[pairs] = 0
    sigma[pairs] = 1.0
    sources, bases, levels = pairs, base, []
    while True:
        at, found = _expand(csr, pairs, bases)
        fresh = np.flatnonzero(dist[found] == unseen)
        if not len(fresh):
            break
        at, found = at[fresh], found[fresh]
        rank = np.arange(len(found), dtype=np.int32)
        np.minimum.at(dist, found, rank)
        np.add.at(sigma, found, sigma[pairs][at])
        first = dist[found] == rank
        dist[found] = len(levels) + 1
        pairs, bases = found[first], bases[at[first]]
        levels.append(pairs)
    if (dist == unseen).any():
        raise DisconnectedGraphError()
    ends = np.cumsum([n * row for (_, n, _, _), row in zip(segs, rows)]).tolist()
    stats = [(np.bincount(dist[a:b], minlength=1), sigma[a:b].max(initial=0.0))
             for a, b in zip([0] + ends[:-1], ends)]
    if len(segs) == 1 and stats[0][1] >= _EXACT_SIGMA:
        return stats
    if size:
        close[sources - base] = (width - 1) / np.maximum(
            np.add.reduceat(dist, start, dtype=np.int64), 1)
    delta = np.zeros(size)
    # level 1 would push only into the sources, whose own dependency is not
    # part of their betweenness
    while len(levels) > 1:
        pairs = levels.pop()[::-1]
        at, up = _expand(csr, pairs, base[np.searchsorted(start, pairs, "right") - 1])
        keep = np.flatnonzero(dist[up] == len(levels))
        up, w = up[keep], pairs[at[keep]]
        np.add.at(delta, up, sigma[up] / sigma[w] * (1.0 + delta[w]))
    del dist, sigma, levels
    nodes = np.arange(size, dtype=np.int32)
    nodes -= np.repeat(base, width)
    np.add.at(raw, nodes, delta)
    return stats


def _expand(csr: tuple[np.ndarray, np.ndarray, np.ndarray], pairs: np.ndarray,
            bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every neighbor slot of each pair's node, in (pair, slot) order: the
    position in pairs that it comes from, and the neighbor's pair."""
    indptr, deg, indices = csr
    nodes = pairs - bases
    counts = deg[nodes]
    at = np.repeat(np.arange(len(pairs), dtype=np.int32), counts)
    pos = np.repeat(indptr[nodes] - np.cumsum(counts) + counts, counts)
    pos += np.arange(len(pos))
    return at, indices[pos] + bases[at]


def closeness_many(csrs: Iterable[tuple[np.ndarray, np.ndarray]]) -> list[list[float]]:
    """Closeness per node of each connected graph, given as CSR (indptr,
    indices), in input order.

    A bit-parallel multi-source BFS (Then et al., "The More the Merrier",
    PVLDB 8(4), 2014): graphs needing the same number of 64-bit words per
    node are searched together, every node a source. The hop-distance sums
    are exact integers, so each score is the (n-1)/total that a BFS per
    source gives.
    """
    packed = [(np.diff(indptr), indices) for indptr, indices in csrs]
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


def degree_scores(indptr: np.ndarray, loops) -> list[float]:
    """Undirected degree over n-1 of a CSR graph's nodes; each node in loops
    (its self-loop nodes, none twice) adds 1 to its degree."""
    n = len(indptr) - 1
    if n == 1:
        return [0.0]
    deg = np.diff(indptr)
    deg[loops] += 1
    return (deg / (n - 1)).tolist()


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
