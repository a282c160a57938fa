"""Exact graph properties: closeness, betweenness, degree centrality,
shortest-path statistics, and density.

Centralities and path statistics operate on the undirected view of a
connected graph; callers hand in the largest weak component. Density alone
is defined on the full directed graph.

Betweenness, closeness and the path statistics all come from one Brandes
pass per source: sweep_many() runs it for many graphs at once, many sources
per numpy pass. Every kernel takes the graph.Components of a corpus, the
largest components of its graphs as one CSR of their disjoint union, and
searches that union in its own numbering, with no copy of it. A Brandes
pass writes each of its outputs (closeness, dependencies and the hop
histogram) into one array per node of that union, which sweep_many
returns. Once its forward BFS ends, a pass walks its distances once, in
pieces of whole rows of at most PIECE_DISTANCES pairs, and takes both its
closeness totals and its hop histogram from each piece; it adds each
level's dependency terms with np.bincount.
One rule, _runs, cuts all of this work to a budget: consecutive items,
each run as long as its weights sum to at most the limit, one item at the
least. It cuts the graphs into groups on sources x (n + 2m) slots, a
group's sources into passes on their bytes, 16 n + 8 m a source of a
graph of n nodes and m edges (its pairs, and the BFS edges that the
forward pass keeps for the backward one), and a BFS level's nodes into
chunks on neighbor slots, all against SWEEP_SLOTS. Path counts are float64
while they stay below 2**53 and Python ints past that, counted again in
runs of sources of the same bytes, so they are always exact.
closeness_many() gives the same closeness from a bit-parallel BFS with no
path counts, its graphs cut by _runs into passes on their bytes against the
same SWEEP_SLOTS x 24 bytes as a Brandes pass, and degree_scores() degree
centrality from the same CSR.

summary_rows() and path_rows() summarize many graphs of one size at once,
one row a graph, and row_sums() adds each row one term at a time, so every
statistic is the one that Python 3.11's sum() gives on any Python.
"""

from __future__ import annotations

import numpy as np

from .graph import Cfg, Components


# the limit _runs cuts every kernel's work to: graphs share a group while
# their sources x (n + 2m) slots sum to at most this, one per (source, node)
# pair and one per (source, edge end); a group's sources are swept in passes
# of at most 24 bytes a slot, at 16 bytes a (source, node) pair and 8 a kept
# BFS edge, and closeness_many's passes hold as many bytes; and a BFS level
# goes in chunks of nodes with at most this many neighbor slots together
SWEEP_SLOTS = 3 << 16

# float64 counts shortest paths exactly below this; a pass with more counts
# them again as Python ints
_EXACT_SIGMA = 2.0 ** 53

# the bytes a pair takes in a pass with float64 path counts (dist, sigma and
# its place in a level list), about what it takes with Python-int counts,
# the bytes of a BFS edge that the forward pass keeps for the backward one
# (two int32s), and the bytes a pass holds at most per slot of SWEEP_SLOTS
_PAIR_BYTES = 16
_EXACT_PAIR_BYTES = 49
_EDGE_BYTES = 8
_SLOT_BYTES = 24

# the bytes that a closeness_many pass holds at most per row, per (row,
# 64-bit word) and per neighbor slot of its graphs. Tracemalloc peaks of
# whole calls, less their output, fit about 66 a row, 40 a (row, word) and
# 19 a slot on sbc corpora, complete graphs and CFGs of 964 and 2964 nodes
# (16 and 47 words); rounded up until every pass of several graphs held
# 0.59-0.94 of its budget on random sparse and complete graphs at 2**12,
# 2**14 and 3 x 2**16 slots
_ROW_BYTES = 80
_WORD_BYTES = 40
_NEIGHBOR_BYTES = 32

_UNSEEN = np.iinfo(np.int32).max

# a Brandes pass walks, and path_rows sums, at most this many distances
# (96 KiB of float64) in one piece. path_rows runs after the sweep has freed
# its passes, and larger pieces did not fit the memory that the allocator
# kept: pieces of 589 824 and 196 608 distances raised large-cfg's peak RSS
# by 3.7 and 1.6 MB
PIECE_DISTANCES = 3 << 12


class DisconnectedGraphError(ValueError):
    """A bug, never bad input: callers pass one component by construction."""
    def __init__(self):
        super().__init__("centrality requires a connected graph; pass one component")


def sweep_many(c: Components) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The raw betweenness, closeness and hop histogram of the connected
    graphs of c, one entry a node of their union: every source's Brandes
    pass, with exact path counts and each dependency sum taken in
    Brandes's order. Raw betweenness counts every pair from both endpoints;
    hops[f + d] is the number of unordered node pairs at hop distance d of
    the graph whose first node is f, 0 at d = 0.

    Source-batched Brandes (McLaughlin & Bader, SC 2014): _runs cuts the
    graphs into groups of at most SWEEP_SLOTS slots, and a group's sources
    into passes whose bytes it cuts to SWEEP_SLOTS x 24: 16 a (source,
    node) pair and 8 a kept edge. Each pass searches one BFS level at a
    time for its sources together. A float64 pass whose counts reach 2**53
    is counted again with Python ints, in runs of its sources cut to the
    same bytes; the runs add into raw in source order, as one pass would.
    """
    indptr, sizes = c.indptr, c.sizes
    csr = (indptr, np.diff(indptr), c.indices)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    nodes = len(csr[1])
    raw, close, hops = np.zeros(nodes), np.zeros(nodes), np.zeros(nodes, np.int64)
    nbrs = indptr[ends] - indptr[starts]
    budget = SWEEP_SLOTS * _SLOT_BYTES
    for ga, gb in _runs(sizes * (sizes + nbrs), SWEEP_SLOTS):
        # each of the group's sources: its graph's first node and size, and
        # the bytes of the edges it keeps, at most one per undirected edge,
        # which is two of its graph's neighbor slots
        counts = sizes[ga:gb]
        first, width = np.repeat(starts[ga:gb], counts), np.repeat(counts, counts)
        kept = np.repeat(nbrs[ga:gb] * _EDGE_BYTES // 2, counts)
        lo = int(starts[ga])
        top = int(csr[1][lo:lo + len(first)].max(initial=0))
        for a, b in _runs(_PAIR_BYTES * width + kept, budget):
            if not _brandes_pass(csr, first[a:b], width[a:b], lo + a, top,
                                 raw, close, hops, float):
                for e, f in _runs(_EXACT_PAIR_BYTES * width[a:b] + kept[a:b], budget):
                    _brandes_pass(csr, first[a + e:a + f], width[a + e:a + f], lo + a + e,
                                  top, raw, close, hops, object)
    # each pair is counted from both of its ends, and each source at d = 0
    hops //= 2
    hops[starts] = 0
    return raw, close, hops


def _runs(weights, limit: int) -> list[tuple[int, int]]:
    """weights cut into consecutive runs [a, b) that each sum to at most
    limit, or hold one item; each run takes every item that still fits."""
    ends = np.cumsum(weights)
    cuts = [0]
    while cuts[-1] < len(ends):
        a = cuts[-1]
        reach = int(ends[a - 1]) + limit if a else limit
        cuts.append(max(a + 1, int(np.searchsorted(ends, reach, "right"))))
    return list(zip(cuts, cuts[1:]))


def _brandes_pass(csr: tuple[np.ndarray, np.ndarray, np.ndarray], first: np.ndarray,
                  width: np.ndarray, a: int, top: int, raw: np.ndarray, close: np.ndarray,
                  hops: np.ndarray, dtype) -> bool:
    """One level-synchronous Brandes pass from the sources a, a + 1, ... of
    csr's node numbering, one for each entry of first and width, which give
    the first node of each source's graph and that graph's size, with path
    counts of dtype; top is at least the degree of every node that the
    pass reaches. Every output is per node of that numbering: it writes the
    sources' closeness into close, adds their dependencies into raw and
    adds the number of their pairs at distance d into hops[f + d], f their
    graph's first node, each source paired with itself at d = 0; a graph's
    distances are below its size, so its histogram fits in its own slots.
    False, with nothing written, if float64 counts reach 2**53.

    Each (source, node) pair is one slot of flat arrays, row by row, so a
    pair is its row's base plus the node's number. A BFS level keeps each
    source's nodes in the order in which a queue-based BFS finds them:
    candidates are listed by (frontier position, neighbor slot), and
    np.minimum.at marks the first candidate of each new pair, using its
    dist slot as scratch. Once the forward pass ends, one walk over dist in
    pieces of whole rows sums each row's distances, for closeness, and
    counts each graph's pairs at each distance, for hops. The forward pass
    keeps the edges that it found from each level to the next, the
    predecessor lists of Brandes, and the backward pass pushes the
    dependency terms back along them, each a correctly rounded quotient of
    exact counts: sorted on their predecessor and then on their successor's
    falling position in its level, np.bincount adds them in array order, so
    each sum is taken in Brandes's order. A level's dependencies are summed
    in a buffer in level order and stored in their sigma slots once the
    level is done, so the pass holds 16 bytes a pair (dist, sigma and the
    level lists) with float64 counts, and 8 bytes a kept edge, at most one
    per undirected edge and source.
    """
    b = a + len(first)
    start = np.cumsum(width) - width
    base = (start - first).astype(np.int32)
    sources = start + np.arange(a, b) - first
    size = int(start[-1] + width[-1])
    dist = np.full(size, _UNSEEN, np.int32)
    sigma = np.zeros(size, dtype)
    dist[sources] = 0
    sigma[sources] = 1
    # a float64 count past the float range becomes inf, which reaches
    # 2**53 like any count that is too large and is counted again
    with np.errstate(over="ignore"):
        levels, edges = _forward(csr, dist, sigma, sources, base, top)
    if dtype is float and sigma.max(initial=0) >= _EXACT_SIGMA:
        return False
    if sum(map(len, levels)) + len(sources) != size:
        raise DisconnectedGraphError()
    close[a:b] = (width - 1) / np.maximum(_row_totals(dist, start, width, first, hops), 1)
    _backward(dist, sigma, levels, edges)
    del dist, levels
    sigma[sources] = 0
    nodes = np.arange(size, dtype=np.int32)
    nodes -= np.repeat(base, width)
    np.add.at(raw, nodes, sigma.astype(float, copy=False))
    return True


def _row_totals(dist: np.ndarray, start: np.ndarray, width: np.ndarray,
                first: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """The sum of each row of dist, the rows starting at start and width
    long, added in _runs of whole rows of at most PIECE_DISTANCES pairs:
    np.add.reduceat copies what it adds as int64. Each piece also adds its
    pairs at distance d into hops[f + d], f = first[r] the first node of
    row r's graph, with one np.bincount over the slots of the piece's
    graphs, which are no more than its pairs."""
    total = np.empty(len(start), np.int64)
    for a, b in _runs(width, PIECE_DISTANCES):
        lo, hi = start[a], start[b - 1] + width[b - 1]
        piece = dist[lo:hi]
        total[a:b] = np.add.reduceat(piece, start[a:b] - lo, dtype=np.int64)
        f = first[a]
        span = first[b - 1] + width[b - 1] - f
        at = np.repeat(first[a:b] - f, width[a:b])
        at += piece
        hops[f:f + span] += np.bincount(at, minlength=span)
    return total


def _forward(csr, dist: np.ndarray, sigma: np.ndarray, pairs: np.ndarray,
             bases: np.ndarray, top: int
             ) -> tuple[list[np.ndarray], list[list[tuple[np.ndarray, np.ndarray]]]]:
    """The BFS from the pairs at distance 0 in dist and sigma: sets every
    pair's distance and path count, and returns the pairs of each further
    level in the order that they are found, and for each level d >= 1 that
    has a next one its edges into level d + 1, one (at, found) per chunk:
    the position in level d that each edge comes from and its pair in
    level d + 1, in (position, neighbor slot) order."""
    levels, edges = [], []
    while True:
        d = len(levels)
        nodes = pairs - bases
        up = sigma[pairs]
        new, parents, kept = [], [], []
        for a, b in _chunks(csr[1], nodes, top):
            at, found = _expand(csr, nodes[a:b], a)
            found += bases[at]
            # not found before this level; an earlier chunk of this level
            # may have found it already, with distance d + 1
            fresh = (dist[found] > d).nonzero()[0]
            at, found = at[fresh], found[fresh]
            rank = np.arange(d + 2, d + 2 + len(found), dtype=np.int32)
            np.minimum.at(dist, found, rank)
            np.add.at(sigma, found, up[at])
            first = dist[found] == rank
            # every other candidate is one of these pairs, or was found by
            # an earlier chunk
            new.append(found[first])
            dist[new[-1]] = d + 1
            parents.append(at[first])
            kept.append((at, found))
        pairs = new[0] if len(new) == 1 else np.concatenate(new)
        if not len(pairs):
            return levels, edges
        bases = bases[parents[0] if len(parents) == 1 else np.concatenate(parents)]
        # the edges out of the sources push into no dependency
        if d:
            edges.append(kept)
        levels.append(pairs)


def _backward(dist: np.ndarray, sigma: np.ndarray, levels: list[np.ndarray],
              edges: list[list[tuple[np.ndarray, np.ndarray]]]):
    """Stores each non-source pair's dependency in its sigma slot, deepest
    level first, from the forward pass's edges; empties edges, and levels
    but for level 1.

    Before level d pushes into level d - 1, the dist slot of the pair at
    position i of level d is set to i. A stable argsort of a chunk's edges
    on their position in level d - 1 and then the falling position of
    their pair in level d makes the terms into each pair of level d - 1
    come in the order of Brandes's walk down level d, and np.bincount adds
    each pair's terms in array order. The edges come sorted on their first
    key already, and each pair of level d - 1 has all its edges in one
    chunk."""
    if not levels:
        return
    delta = np.zeros(len(levels[-1]))
    down = sigma[levels[-1]]
    # level 1 would push only into the sources, whose own dependency is not
    # part of their betweenness
    while len(levels) > 1:
        level = levels.pop()
        below = levels[-1]
        dist[level] = np.arange(len(level), dtype=np.int32)
        # level d + 1 gathered these counts as its down, and has written
        # only its own slots since
        up, down, grow = down, sigma[below], 1.0 + delta
        into = None
        for at, found in edges.pop():
            pos = dist[found]
            order = (np.multiply(at, len(level), dtype=np.int64) - pos).argsort(kind="stable")
            terms = (down[at] / up[pos] * grow[pos]).astype(float, copy=False)
            # at is sorted already, so the order moves only the terms
            pushed = np.bincount(at, terms[order], len(below))
            # every other chunk adds 0.0 to the sums of this one's pairs
            into = pushed if into is None else into + pushed
        sigma[level] = delta
        delta = into
    sigma[levels[0]] = delta


def _chunks(deg: np.ndarray, nodes: np.ndarray, top: int) -> list[tuple[int, int]]:
    """_runs of positions in nodes with at most SWEEP_SLOTS neighbor slots
    together."""
    if len(nodes) * top <= SWEEP_SLOTS:
        return [(0, len(nodes))]
    return _runs(deg[nodes], SWEEP_SLOTS)


def _expand(csr: tuple[np.ndarray, np.ndarray, np.ndarray], nodes: np.ndarray,
            offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Every neighbor slot of each of the nodes, in (node, slot) order: the
    position in nodes that it comes from, plus offset, and the neighbor."""
    indptr, deg, indices = csr
    counts = deg[nodes]
    at = np.arange(offset, offset + len(nodes), dtype=np.int32).repeat(counts)
    pos = (indptr[nodes] - counts.cumsum() + counts).repeat(counts)
    pos += np.arange(len(pos))
    return at, indices[pos]


def closeness_many(c: Components) -> np.ndarray:
    """Closeness of every node of the connected graphs of c, one entry a
    node of their union; 0 for a graph of one node.

    A bit-parallel multi-source BFS (Then et al., "The More the Merrier",
    PVLDB 8(4), 2014): graphs needing the same number of 64-bit words per
    node are searched together, every node a source, in _runs of graphs
    whose bytes, _ROW_BYTES a row, _WORD_BYTES a (row, word) and
    _NEIGHBOR_BYTES a neighbor slot, sum to at most SWEEP_SLOTS x 24, as a
    Brandes pass's do; a graph that needs more is searched alone. The
    hop-distance sums are exact integers, and (n-1)/total in float64 is
    correctly rounded while both stay below 2**53, so each score is the one
    that a BFS per source gives.
    """
    sizes = c.sizes
    first = np.cumsum(sizes) - sizes
    scores = np.zeros(len(c.indptr) - 1)
    nbrs = c.indptr[first + sizes] - c.indptr[first]
    # each graph's words per node, 0 for a graph of one node; the word
    # groups go in the order of their first graph (in ascending order of
    # words, large-cfg's analyze peaked 0.25 MB higher in RSS)
    words = np.where(sizes > 1, (sizes + 63) >> 6, 0)
    for w in dict.fromkeys(words[words > 0].tolist()):
        members = np.flatnonzero(words == w)
        held = sizes[members] * (_ROW_BYTES + _WORD_BYTES * w) + nbrs[members] * _NEIGHBOR_BYTES
        for a, b in _runs(held, SWEEP_SLOTS * _SLOT_BYTES):
            run = members[a:b]
            counts = sizes[run]
            # each node's place in the union, from its place in the run's
            nodes = np.repeat(first[run] - np.cumsum(counts) + counts, counts)
            nodes += np.arange(len(nodes))
            totals = _distance_sums(c, nodes, counts, w)
            scores[nodes] = (np.repeat(counts, counts) - 1) / totals
    return scores


def _distance_sums(c: Components, nodes: np.ndarray, sizes: np.ndarray,
                   words: int) -> np.ndarray:
    """The hop-distance sum of each of the nodes, which list whole graphs
    of c one after another, graphs of the given sizes, each of more than
    one node with `words` words per node.

    Their rows are gathered into a union of their own, each node numbered
    by its place in nodes, so each neighbor moves as far as its node moves;
    their degrees are read from c.indptr, so no array of the pass is as
    long as c's union.
    Bit s of row v is set once source s of v's graph has reached v. A
    source at distance k from v is still missing from v's row after each
    of the levels 0..k-1, so v's distance sum is the number of missing
    bits summed over all levels, less the bits past its graph's size.
    Rows are renumbered by falling degree, so the nodes with more than k
    neighbors are a prefix and each level ORs in one gather per slot k.
    """
    start = c.indptr[nodes]
    deg = c.indptr[nodes + 1] - start
    if not deg.all():
        raise DisconnectedGraphError()
    rows = len(deg)
    at, indices = _expand((start, deg, c.indices), np.arange(rows), 0)
    indices -= (nodes - np.arange(rows))[at]
    indptr = np.cumsum(deg) - deg
    local = (np.arange(rows) - np.repeat(np.cumsum(sizes) - sizes, sizes)).astype(np.uint64)
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
    return (missing.sum(axis=1) - levels * padding)[rank]


def degree_scores(c: Components) -> np.ndarray:
    """Undirected degree over n - 1 of every node of the graphs of c, one
    entry a node of their union; each node in loops adds 1 to its degree,
    and a graph of one node scores 0."""
    sizes = c.sizes
    deg = np.diff(c.indptr)
    deg[c.loops] += 1
    deg[(np.cumsum(sizes) - sizes)[sizes == 1]] = 0
    return deg / np.repeat(np.maximum(sizes - 1, 1), sizes)


def density(g: Cfg) -> float:
    """Directed simple-edge density |E| / (n(n-1)); self-loops count in |E|."""
    n = g.node_count
    if n < 2:
        return 0.0
    return g.edge_count / (n * (n - 1))


def row_sums(values: np.ndarray) -> np.ndarray:
    """The sum of each row of values (along its last axis), added one term
    at a time from the first, as Python 3.11's sum() adds a list of floats.
    np.sum adds pairwise, and Python 3.12's sum() compensates its rounding
    errors (CPython gh-100425); either may differ in the last bits."""
    return np.cumsum(values, axis=-1)[..., -1]


def summary_rows(values: np.ndarray) -> np.ndarray:
    """The min, max, mean, median and population standard deviation of each
    row of values (along its last axis, at least one entry), in a last axis
    of 5.

    Both sums are row_sums of the sorted row, so each statistic is the one
    that Python 3.11 computes from sorted(row) with sum(). A deviation is
    squared by multiplying it by itself, which IEEE 754 rounds correctly on
    every platform, as C's pow(x, 2.0) need not.
    """
    v = np.sort(values)
    n = v.shape[-1]
    mean = row_sums(v) / n
    median = v[..., n // 2] if n % 2 else (v[..., n // 2 - 1] + v[..., n // 2]) / 2
    dev = v - mean[..., None]
    dev *= dev
    return np.stack((v[..., 0], v[..., -1], mean, median, np.sqrt(row_sums(dev) / n)), axis=-1)


def path_rows(hops: np.ndarray) -> np.ndarray:
    """summary_rows of the pair distances of each row of an int64 hop
    histogram, (rows x 5): hops[i, d - 1] is row i's number of pairs at
    distance d, and every row has the same number k > 0 of pairs.

    The squared deviations of a row's k distances are expanded in ascending
    order from its counts, in pieces of at most PIECE_DISTANCES: _runs of
    whole rows, or a row in runs of its distances, each piece's running sum
    carried into the next.
    """
    rows, top = hops.shape
    ends = np.cumsum(hops, axis=1)
    k = int(ends[0, -1])

    def nth(i: int) -> np.ndarray:
        """The i-th smallest distance of each row."""
        return 1.0 + np.count_nonzero(ends <= i, axis=1)

    mean = (hops @ np.arange(1, top + 1)) / k
    median = nth(k // 2) if k % 2 else (nth(k // 2 - 1) + nth(k // 2)) / 2
    squares = np.arange(1.0, top + 1) - mean[:, None]
    squares *= squares
    var = np.empty(rows)
    for a, b in _runs(np.full(rows, k), PIECE_DISTANCES):
        total = np.zeros(b - a)
        for c in range(0, k, PIECE_DISTANCES):
            e = min(c + PIECE_DISTANCES, k)
            counts = np.diff(np.clip(ends[a:b], c, e), axis=1, prepend=c)
            piece = np.repeat(squares[a:b].ravel(), counts.ravel()).reshape(b - a, e - c)
            piece[:, 0] += total
            total = np.cumsum(piece, axis=1, out=piece)[:, -1].copy()
            # no two pieces are held at once
            del piece
        var[a:b] = total / k
    return np.column_stack((nth(0), nth(k - 1), mean, median, np.sqrt(var)))
