"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: union-find for components (and
largest_component_cfg, the subgraph the largest one induces), all-pairs
BFS for distances, exhaustive shortest-path enumeration for betweenness.
The exceptions are reference_brandes, a plain queue-based Brandes kept as
the exact reference for graphs too large to enumerate, reference_forest,
a random forest that re-sorts at every node, and reference_predict, which
classifies one sample at a time.
"""

from __future__ import annotations

import math
import random
from collections import deque
from itertools import combinations

import numpy as np

from cfgrank.graph import BasicBlock, Cfg, build_cfg
from cfgrank.features import LABEL_BENIGN, LABEL_MALICIOUS, N_FEATURES, FeatureVector
from cfgrank.learn import HyperParams, ModelParams, SchemaMismatchError
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


def largest_component_cfg(g: Cfg) -> Cfg:
    """The subgraph induced by g's largest weak component, found by
    union-find, its nodes renumbered in id order; of equal-size components
    the one holding the lowest node id."""
    comps = union_find_components(g.node_count, [(u, v) for u, v in g.edges if u != v])
    largest = min(comps, key=lambda c: (-len(c), min(c)))
    kept = sorted(largest)
    new_id = {old: new for new, old in enumerate(kept)}
    edges = sorted((new_id[u], new_id[v]) for u, v in g.edges
                   if u in largest and v in largest)
    return Cfg(g.sample_id, tuple(g.blocks[u] for u in kept), tuple(edges))


def csr(adj: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor lists as int32 CSR (indptr, indices), the metric kernels'
    input."""
    indptr = np.cumsum([0, *map(len, adj)]).astype(np.int32)
    return indptr, np.array([v for nbrs in adj for v in nbrs], np.int32)


def component_lists(component) -> tuple[list[list[int]], set[int], int]:
    """A graph.Component as (neighbor lists, self-loop set, count)."""
    ends = component.indptr.tolist()
    flat = component.indices.tolist()
    return ([flat[a:b] for a, b in zip(ends, ends[1:])], set(component.loops.tolist()),
            component.count)


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


def diamond_chain(diamonds: int, sample_id: str = "diamonds", ways: int = 2) -> Cfg:
    """Stacked if/else diamonds, or switches of `ways` arms: the number of
    shortest paths from the first block to the last is ways**diamonds."""
    stride = ways + 1
    blocks = [BasicBlock(address=4 * i) for i in range(stride * diamonds + 1)]
    edges = []
    for i in range(diamonds):
        top, join = stride * i, stride * (i + 1)
        for arm in range(top + 1, join):
            edges += [(4 * top, 4 * arm), (4 * arm, 4 * join)]
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


def _gini_best_split(
    X: np.ndarray, y: np.ndarray, feature_ids: np.ndarray, min_leaf: int,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, impurity) among the sampled features.

    Threshold t splits into x <= t / x > t; candidates are midpoints of
    consecutive distinct sorted values. Returns None when nothing splits.
    """
    n = len(y)
    best: tuple[int, float, float] | None = None
    for f in feature_ids:
        col = X[:, int(f)]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        ys = y[order]
        # positions where the value changes: splits between i-1 and i
        change = np.flatnonzero(xs[1:] != xs[:-1]) + 1
        if change.size == 0:
            continue
        left_pos = np.cumsum(ys)[change - 1]
        left_n = change.astype(float)
        total_pos = float(ys.sum())
        right_n = n - left_n
        right_pos = total_pos - left_pos
        ok = (left_n >= min_leaf) & (right_n >= min_leaf)
        if not ok.any():
            continue
        pl = left_pos / left_n
        pr = right_pos / right_n
        gini = (left_n * 2 * pl * (1 - pl) + right_n * 2 * pr * (1 - pr)) / n
        gini = np.where(ok, gini, np.inf)
        i = int(np.argmin(gini))
        score = float(gini[i])
        if best is None or score < best[2]:
            pos = change[i]
            threshold = (xs[pos - 1] + xs[pos]) / 2.0
            best = (int(f), float(threshold), score)
    return best


def _build_tree(
    X: np.ndarray, y: np.ndarray, rng: np.random.Generator,
    hyper: HyperParams, depth: int,
) -> dict:
    n = len(y)
    pos = float(y.sum())
    if pos == 0 or pos == n or n < 2 * hyper.rf_min_leaf or \
            (hyper.rf_max_depth is not None and depth >= hyper.rf_max_depth):
        return {"leaf": pos / n}
    d = X.shape[1]
    k = min(d, math.isqrt(d) + (0 if math.isqrt(d) ** 2 == d else 1))
    feature_ids = rng.choice(d, size=k, replace=False)
    split = _gini_best_split(X, y, feature_ids, hyper.rf_min_leaf)
    if split is None:
        return {"leaf": pos / n}
    f, threshold, _ = split
    mask = X[:, f] <= threshold
    return {
        "feature": f,
        "threshold": threshold,
        "left": _build_tree(X[mask], y[mask], rng, hyper, depth + 1),
        "right": _build_tree(X[~mask], y[~mask], rng, hyper, depth + 1),
    }


def reference_forest(X: np.ndarray, y: np.ndarray, hyper: HyperParams, seed: int) -> list[dict]:
    """Random forest that sorts each sampled column again at every node
    of the expanded bootstrap sample; the exact reference for the
    presorted grower in cfgrank.learn."""
    n = len(y)
    trees = []
    for ti in range(hyper.rf_trees):
        rng = np.random.default_rng(seed + ti)
        sample = rng.integers(0, n, size=n)
        trees.append(_build_tree(X[sample], y[sample], rng, hyper, depth=0))
    return trees


def reference_tree_prob(tree: dict, x: np.ndarray) -> float:
    node = tree
    while "leaf" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["leaf"]


def reference_predict(model: ModelParams, x: FeatureVector) -> str:
    """Classify one sample on its own 1-D vector; the exact reference for
    cfgrank.learn.predict_many. Score ties go to benign."""
    if len(x.values) != N_FEATURES:
        raise SchemaMismatchError(f"expected {N_FEATURES} features, got {len(x.values)}")
    vec = np.array(x.values, dtype=float)
    if model.kind == "rf":
        prob = float(np.mean([reference_tree_prob(t, vec) for t in model.trees]))
        return LABEL_MALICIOUS if prob > 0.5 else LABEL_BENIGN
    z = ((vec - model.feat_mean) / model.feat_std) @ model.weights + model.bias
    return LABEL_MALICIOUS if z > 0 else LABEL_BENIGN
