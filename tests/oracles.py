"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: union-find for components, all-pairs
BFS for distances, exhaustive shortest-path enumeration for betweenness.
The one exception is reference_brandes, a plain queue-based Brandes kept as
the exact reference for graphs too large to enumerate.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

from cfgrank.graph import BasicBlock, Cfg, build_cfg
from cfgrank.metrics import DisconnectedGraphError


def union_find_components(n: int, edges) -> list[set[int]]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, set[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), set()).add(x)
    return list(groups.values())


def undirected_neighbors(g: Cfg) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(g.node_count)]
    for u, v in g.edges:
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return nbrs


def all_pairs_distances(g: Cfg) -> dict[tuple[int, int], int]:
    """Hop distances via repeated naive relaxation (Bellman-Ford style)."""
    n = g.node_count
    nbrs = undirected_neighbors(g)
    dist: dict[tuple[int, int], int] = {}
    for s in range(n):
        d = {s: 0}
        frontier = {s}
        level = 0
        while frontier:
            level += 1
            nxt = set()
            for u in frontier:
                for v in nbrs[u]:
                    if v not in d:
                        d[v] = level
                        nxt.add(v)
            frontier = nxt
        for v, dv in d.items():
            dist[(s, v)] = dv
    return dist


def brute_closeness(g: Cfg) -> dict[int, float]:
    n = g.node_count
    if n == 1:
        return {0: 0.0}
    dist = all_pairs_distances(g)
    return {
        u: (n - 1) / sum(dist[(u, v)] for v in range(n) if v != u)
        for u in range(n)
    }


def _all_shortest_paths(g: Cfg, s: int, t: int, length: int) -> list[tuple[int, ...]]:
    """Every path from s to t of exactly `length` hops, by DFS enumeration."""
    nbrs = undirected_neighbors(g)
    out = []

    def walk(path):
        u = path[-1]
        if len(path) - 1 == length:
            if u == t:
                out.append(tuple(path))
            return
        for v in nbrs[u]:
            if v not in path:
                walk(path + [v])

    walk([s])
    return out


def brute_betweenness(g: Cfg) -> dict[int, float]:
    """Exhaustive shortest-path counting, endpoints excluded, normalized."""
    n = g.node_count
    scores = {u: 0.0 for u in range(n)}
    if n < 3:
        return scores
    dist = all_pairs_distances(g)
    for s, t in combinations(range(n), 2):
        paths = _all_shortest_paths(g, s, t, dist[(s, t)])
        for path in paths:
            for v in path[1:-1]:
                scores[v] += 1.0 / len(paths)
    norm = (n - 1) * (n - 2) / 2
    return {u: scores[u] / norm for u in range(n)}


def reference_brandes(g: Cfg) -> dict[int, float]:
    """Queue-based Brandes with one BFS per source, exact Python-int path
    counts and per-node predecessor lists; normalized like betweenness."""
    n = g.node_count
    adj = [sorted(s) for s in undirected_neighbors(g)]
    raw = [0.0] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1
        order: list[int] = []
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        if any(d < 0 for d in dist):
            raise DisconnectedGraphError()
        delta = [0.0] * n
        for v in reversed(order):
            for u in preds[v]:
                delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v])
            if v != s:
                raw[v] += delta[v]
    if n < 3:
        return {u: 0.0 for u in range(n)}
    norm = (n - 1) * (n - 2)
    return {u: raw[u] / norm for u in range(n)}


def diamond_chain(diamonds: int, sample_id: str = "diamonds") -> Cfg:
    """Stacked if/else diamonds: the number of shortest paths from the
    first block to the last doubles with every diamond."""
    blocks = [BasicBlock(address=4 * i) for i in range(3 * diamonds + 1)]
    edges = []
    for i in range(diamonds):
        top, left, right, join = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(4 * top, 4 * left), (4 * top, 4 * right),
                  (4 * left, 4 * join), (4 * right, 4 * join)]
    return build_cfg(sample_id, blocks, edges)


def random_connected_cfg(rng: random.Random, n: int, extra_edges: int = 0,
                         sample_id: str = "rand") -> Cfg:
    """Random spanning tree plus chords; connected by construction."""
    blocks = [BasicBlock(address=4 * i, size=4, instr_count=1) for i in range(n)]
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((4 * u, 4 * v))
    for _ in range(extra_edges):
        u, v = rng.randrange(n), rng.randrange(n)
        edges.append((4 * u, 4 * v))
    return build_cfg(sample_id, blocks, edges)


def random_cfg(rng: random.Random, n: int, m: int, sample_id: str = "rand") -> Cfg:
    """Arbitrary random digraph, possibly disconnected, self-loops allowed."""
    blocks = [BasicBlock(address=4 * i, size=4, instr_count=1) for i in range(n)]
    edges = [(4 * rng.randrange(n), 4 * rng.randrange(n)) for _ in range(m)]
    return build_cfg(sample_id, blocks, edges)
