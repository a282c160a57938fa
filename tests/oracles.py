"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: union-find for components (and
largest_component_cfg, the subgraph the largest one induces), all-pairs
BFS for distances, exhaustive shortest-path enumeration for betweenness,
and a second walk that maps every instruction to its block for sbc block
recovery. The exceptions are reference_brandes, a plain queue-based
Brandes kept as the exact reference for graphs too large to enumerate,
reference_forest, a random forest that re-sorts at every node,
reference_predict, which classifies one sample at a time,
reference_pegasos, which allocates a new weight vector at every step,
logreg_loss_and_grad, the log loss beside the gradient that training uses,
summary_stats and Sweep.path_stats, which summarize one list at a time and
add its floats one by one with functools.reduce, whose result does not
depend on the Python version as sum()'s does,
reference_write_feature_table, which writes every row through csv.writer,
and two parsers that check their input field by field and raise on the
first offender: reference_parse_feature_table, for the features table, and
reference_parse_canonical, for a decoded canonical graph document.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator
import random
import reprlib
from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations, repeat

import numpy as np

from cfgrank import learn, metrics
from cfgrank.graph import BasicBlock, Cfg, Components, build_cfg
from cfgrank.features import (FEATURE_NAMES, LABEL_BENIGN, LABEL_MALICIOUS, N_FEATURES,
                              BadValueError, FeatureVector, NonFiniteValueError)
from cfgrank import DataError, InputError
from cfgrank.ingest import DuplicateAddressError, SchemaError, _encodes, _require
from cfgrank.learn import HyperParams, ModelParams
from cfgrank.metrics import DisconnectedGraphError
from cfgrank.sbc import RECORD_SIZE, Opcode


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


def components(adjs, loops=None) -> Components:
    """Graphs given as neighbor lists, and each one's self-loop nodes, as
    the metric kernels' input: the graph.Components of their disjoint union,
    each graph whole and numbered after the ones before it."""
    adjs = [list(adj) for adj in adjs]
    sizes = np.array([len(adj) for adj in adjs], np.intp)
    first = (np.cumsum(sizes) - sizes).tolist()
    indptr = np.cumsum([0, *(len(nbrs) for adj in adjs for nbrs in adj)])
    indices = [v + f for adj, f in zip(adjs, first) for nbrs in adj for v in nbrs]
    loops = [u + f for nodes, f in zip(loops or [()] * len(adjs), first) for u in sorted(nodes)]
    return Components(indptr.astype(np.intp), np.array(indices, np.int32),
                      np.array(loops, np.int32), sizes, np.ones(len(adjs), np.intp))


def component_lists(union: Components, j: int = 0) -> tuple[list[list[int]], set[int], int]:
    """Graph j's share of a graph.Components as (neighbor lists, self-loop
    set, count), in the graph's own node numbering."""
    f = int(union.sizes[:j].sum())
    n = int(union.sizes[j])
    ends = union.indptr[f:f + n + 1].tolist()
    flat = (union.indices - f).tolist()
    return ([flat[a:b] for a, b in zip(ends, ends[1:])],
            {u - f for u in union.loops.tolist() if f <= u < f + n}, int(union.counts[j]))


def self_loop_nodes(g: Cfg) -> set[int]:
    return {u for u, v in g.edges if u == v}


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


def source_dependencies(g: Cfg, s: int) -> list[float]:
    """Queue-based Brandes from source s, with exact Python-int path counts
    and per-node predecessor lists: each node's dependency on s, 0.0 for s."""
    n = g.node_count
    adj = [sorted(nbrs) for nbrs in undirected_neighbors(g)]
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
    delta[s] = 0.0
    return delta


def reference_brandes(g: Cfg) -> dict[int, float]:
    """Brandes betweenness: each node's dependencies summed over the sources
    in order, normalized like betweenness."""
    n = g.node_count
    raw = [0.0] * n
    for s in range(n):
        for v, dep in enumerate(source_dependencies(g, s)):
            if v != s:
                raw[v] += dep
    if n < 3:
        return {u: 0.0 for u in range(n)}
    norm = (n - 1) * (n - 2)
    return {u: raw[u] / norm for u in range(n)}


def add_in_order(values) -> float:
    """The floats of values added one at a time from the first, as Python
    3.11's sum() adds them; 3.12's sum() compensates its rounding errors."""
    return functools.reduce(operator.add, values)


@dataclass(frozen=True)
class PathStats:
    min: float
    max: float
    mean: float
    median: float
    std: float


def summary_stats(values: list[float]) -> PathStats:
    """min/max/mean/median/population-std of a non-empty value list; both
    sums run over the sorted list, and each deviation is squared by
    multiplying it by itself."""
    ordered = sorted(values)
    k = len(ordered)
    mean = add_in_order(ordered) / k
    if k % 2:
        median = ordered[k // 2]
    else:
        median = (ordered[k // 2 - 1] + ordered[k // 2]) / 2
    var = add_in_order((v - mean) * (v - mean) for v in ordered) / k
    return PathStats(ordered[0], ordered[-1], mean, median, math.sqrt(var))


@dataclass(frozen=True)
class Sweep:
    """One graph's share of metrics.sweep_many.

    raw_betweenness counts every pair from both endpoints; hops[d] is the
    number of unordered node pairs at hop distance d, up to the diameter.
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
        """summary_stats of the list in which each d occurs hops[d] times,
        taking every step that summary_stats takes on the sorted list."""
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
        var = add_in_order(chain.from_iterable(
            repeat((float(d) - mean) * (float(d) - mean), hops[d]) for d in present)) / k
        return PathStats(float(present[0]), float(present[-1]), mean, median,
                         math.sqrt(var))


def sweeps(adjs) -> list[Sweep]:
    """metrics.sweep_many of graphs given as neighbor lists, cut into one
    Sweep per graph."""
    union = components(adjs)
    raw, close, hops = metrics.sweep_many(union)
    out, f = [], 0
    for n in union.sizes.tolist():
        out.append(Sweep(raw[f:f + n].tolist(), close[f:f + n].tolist(),
                         [0, *np.trim_zeros(hops[f + 1:f + n], "b").tolist()]))
        f += n
    return out


def reference_recover_cfg(p, sample_id: str = "") -> Cfg:
    """Linear-sweep block recovery over (opcode, operand) pairs; the
    reference for cfgrank.sbc.recover_cfg. Leaders are index 0, every
    target and the successor of every BR and CALL; a new block also starts
    after every terminator; edges go to the block holding each target or
    the next instruction."""
    targeted = (Opcode.JMP, Opcode.BR, Opcode.CALL)
    terminators = (Opcode.JMP, Opcode.BR, Opcode.CALL, Opcode.RET, Opcode.HALT)
    n = len(p)
    leaders = {0}
    for i, (opcode, operand) in enumerate(p):
        if opcode in targeted:
            leaders.add(operand)
        if opcode in (Opcode.BR, Opcode.CALL) and i + 1 < n:
            leaders.add(i + 1)

    starts = []
    block_of_instr = [0] * n
    current = -1
    prev_terminated = True
    for i, (opcode, _) in enumerate(p):
        if i in leaders or prev_terminated:
            starts.append(i)
            current += 1
        block_of_instr[i] = current
        prev_terminated = opcode in terminators

    blocks = []
    for bi, start in enumerate(starts):
        end = starts[bi + 1] if bi + 1 < len(starts) else n
        count = end - start
        blocks.append(BasicBlock(address=start, size=RECORD_SIZE * count, instr_count=count))

    edges: list[tuple[int, int]] = []
    for bi, start in enumerate(starts):
        end = starts[bi + 1] if bi + 1 < len(starts) else n
        opcode, operand = p[end - 1]
        if opcode == Opcode.JMP:
            edges.append((start, starts[block_of_instr[operand]]))
        elif opcode in (Opcode.BR, Opcode.CALL):
            edges.append((start, starts[block_of_instr[operand]]))
            if end < n:
                edges.append((start, starts[block_of_instr[end]]))
        elif opcode in (Opcode.RET, Opcode.HALT):
            pass
        elif end < n:
            edges.append((start, starts[block_of_instr[end]]))
    return build_cfg(sample_id, blocks, edges)


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


def mixed_corpus() -> list[Cfg]:
    """Graphs of several kinds, in sample-id order: largest components of
    one, two and three 64-bit words (40 to 140 nodes) after smaller pieces,
    a singleton, a singleton with a self-loop, and diamond_chain(72), whose
    2**72 shortest paths are counted again as Python ints. No two graphs of
    one word width are next to each other."""
    rng = random.Random(24)

    def pieces(sample_id: str, n: int) -> Cfg:
        # a 3-node path with a self-loop and two isolated nodes, then a
        # random connected piece of n nodes
        edges = [(0, 1), (1, 2), (2, 2)]
        edges += [(5 + rng.randrange(v), 5 + v) for v in range(1, n)]
        edges += [(5 + rng.randrange(n), 5 + rng.randrange(n)) for _ in range(n // 4)]
        return build_cfg(sample_id, [BasicBlock(address=4 * i) for i in range(n + 5)],
                         [(4 * u, 4 * v) for u, v in edges])

    lone = [BasicBlock(address=0)]
    return [pieces("m0", 40), pieces("m1", 70), build_cfg("m2", lone, []),
            pieces("m3", 140), pieces("m4", 45), build_cfg("m5", lone, [(0, 0)]),
            diamond_chain(72, "m6"), pieces("m7", 70), pieces("m8", 130)]


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
    consecutive distinct sorted values, or the lower value where the
    midpoint rounds up to the upper one. Returns None when nothing splits.
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
            lo, hi = float(xs[change[i] - 1]), float(xs[change[i]])
            mid = (lo + hi) / 2 if math.isfinite(lo + hi) else lo / 2 + hi / 2
            # between adjacent floats the midpoint can round up to hi, and
            # x <= hi would send every row left
            best = (int(f), mid if mid < hi else lo, score)
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
    of the expanded bootstrap sample; the exact reference for the grower
    in cfgrank.learn, which sorts each node's distinct rows with weights."""
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
        # a Python float against the JSON int or float: exact at any size
        node = node["left"] if float(x[node["feature"]]) <= node["threshold"] else node["right"]
    return node["leaf"]


def reference_predict(model: ModelParams, x: FeatureVector) -> str:
    """Classify one sample on its own 1-D vector; the exact reference for
    cfgrank.learn.predict_many. Score ties go to benign."""
    if len(x.values) != N_FEATURES:
        raise DataError(f"expected {N_FEATURES} features, got {len(x.values)}")
    vec = np.array(x.values, dtype=float)
    if model.kind == "rf":
        prob = float(np.mean([reference_tree_prob(t, vec) for t in model.trees]))
        return LABEL_MALICIOUS if prob > 0.5 else LABEL_BENIGN
    z = ((vec - model.feat_mean) / model.feat_std) @ model.weights + model.bias
    return LABEL_MALICIOUS if z > 0 else LABEL_BENIGN


def reference_pegasos(X: np.ndarray, y: np.ndarray, hyper: HyperParams,
                      seed: int) -> tuple[np.ndarray, float]:
    """Pegasos with a new weight vector at every step and numpy-scalar
    labels; the exact reference for cfgrank.learn._fit_svm, which scales
    and updates one vector in place."""
    rng = np.random.default_rng(seed)
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    signed = np.where(y == 1, 1.0, -1.0)
    w = np.zeros(d + 1)
    lam = hyper.svm_lambda
    t = 0
    while t < hyper.svm_steps:
        order = rng.permutation(n)
        for i in order:
            t += 1
            eta = 1.0 / (lam * t)
            margin = signed[i] * (Xa[i] @ w)
            w = (1.0 - eta * lam) * w
            if margin < 1.0:
                w = w + eta * signed[i] * Xa[i]
            if t >= hyper.svm_steps:
                break
    return w[:-1], float(w[-1])


def logreg_loss_and_grad(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray,
                         l2: float) -> tuple[float, np.ndarray, float]:
    """Mean L2-regularized log loss (bias unregularized) with the gradient
    that training steps along, learn._logreg_grad's, so a finite difference
    of the loss checks that gradient."""
    z = X @ w + b
    grad_w, grad_b = learn._logreg_grad(w, b, X, y.astype(float), l2, np.empty(len(y)))
    # stable log(1 + e^-|z|) formulation
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * w @ w)
    return loss, grad_w, grad_b


def reference_write_feature_table(rows: list[FeatureVector]) -> bytes:
    """The features table with every row through csv.writer. The writer
    quotes a field that holds a character of its lineterminator, so each
    row is written with "\r\n", which quotes a "\r" as well as a "\n",
    and ended with "\n" in its place."""
    lines = []
    for fields in [_header(), *([row.sample_id, *(f"{v:.17g}" for v in row.values),
                                 row.label or ""] for row in rows)]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(fields)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


def _header() -> list[str]:
    return ["sample_id", *FEATURE_NAMES, "label"]


def _csv_rows(text: str):
    """csv.reader over text; a record that it rejects, such as one with a
    field longer than csv.field_size_limit(), is an InputError naming its line."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as e:
        raise InputError(f"line {reader.line_num}: {e}") from None


def reference_parse_feature_table(data: bytes) -> list[FeatureVector]:
    """A features table row by row and field by field through csv.reader;
    the reference for cfgrank.features.parse_feature_table and
    read_labeled_table, rows and errors alike."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise InputError(f"not valid UTF-8 at byte {e.start}") from None
    reader = _csv_rows(text)
    header = next(reader, None)
    if header is None:
        raise InputError("empty file")
    if header != _header():
        raise InputError(f"unexpected header {reprlib.repr(header)}")
    rows: list[FeatureVector] = []
    for rownum, fields in enumerate(reader, start=1):
        if not fields:
            continue
        if len(fields) != N_FEATURES + 2:
            raise BadValueError(rownum, "<row>", f"{len(fields)} fields")
        sample_id = fields[0]
        values = []
        for name, raw in zip(FEATURE_NAMES, fields[1:-1]):
            try:
                v = float(raw)
            except ValueError:
                raise BadValueError(rownum, name, raw) from None
            if not math.isfinite(v):
                raise NonFiniteValueError(rownum, name, raw)
            values.append(v)
        label_raw = fields[-1]
        if label_raw == "":
            label = None
        elif label_raw in (LABEL_MALICIOUS, LABEL_BENIGN):
            label = label_raw
        else:
            raise BadValueError(rownum, "label", label_raw)
        rows.append(FeatureVector(sample_id=sample_id, values=tuple(values), label=label))
    return rows


def reference_parse_canonical(raw) -> Cfg:
    """A decoded canonical document field by field into a Cfg through
    build_cfg; raises on the first offender. The reference for
    cfgrank.ingest.parse_canonical, Cfgs and errors alike."""
    if not isinstance(raw, dict):
        raise SchemaError("<root>", "expected a JSON object")
    sample_id = _require(raw, "sample_id", str, "<root>")
    if not _encodes(sample_id):
        raise SchemaError("<root>.sample_id", f"{reprlib.repr(sample_id)} is not encodable as UTF-8")
    nodes_raw = _require(raw, "nodes", list, "<root>")
    if not nodes_raw:
        raise SchemaError("nodes", "must contain at least one node")
    blocks: list[BasicBlock] = []
    seen: set[int] = set()
    for i, n in enumerate(nodes_raw):
        ctx = f"nodes[{i}]"
        if not isinstance(n, dict):
            raise SchemaError(ctx, "expected an object")
        addr = _require(n, "addr", int, ctx)
        if addr in seen:
            raise DuplicateAddressError(addr)
        seen.add(addr)
        blocks.append(BasicBlock(
            address=addr,
            size=_require(n, "size", int, ctx),
            instr_count=_require(n, "ninstr", int, ctx),
        ))
    edges_raw = _require(raw, "edges", list, "<root>")
    edges: list[tuple[int, int]] = []
    for i, e in enumerate(edges_raw):
        ctx = f"edges[{i}]"
        if (not isinstance(e, list) or len(e) != 2
                or any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in e)):
            raise SchemaError(ctx, f"expected [addr, addr], got {reprlib.repr(e)}")
        edges.append((e[0], e[1]))
    return build_cfg(sample_id, blocks, edges)
