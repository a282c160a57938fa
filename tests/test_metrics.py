import math
import random
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgrank import metrics
from cfgrank.graph import BasicBlock, build_cfg, largest_components
from cfgrank.metrics import DisconnectedGraphError, degree_scores, density
from oracles import (PathStats, Sweep, all_pairs_distances, brute_betweenness,
                     brute_closeness, components, diamond_chain, mixed_corpus, random_cfg,
                     random_connected_cfg, reference_brandes, self_loop_nodes,
                     source_dependencies, summary_stats, sweeps)


# the batched kernels take a graph.Components; these tests write their
# graphs as neighbor lists, which oracles.components joins into one
def closeness_many(adjs):
    """metrics.closeness_many of neighbor lists, cut into one list a graph."""
    union = components(adjs)
    scores = metrics.closeness_many(union)
    assert scores.dtype == np.float64 and len(scores) == union.sizes.sum()
    return [part.tolist() for part in np.split(scores, np.cumsum(union.sizes)[:-1])]


sweep_many = sweeps


def path3():
    return build_cfg("p3", [BasicBlock(address=a) for a in (0, 4, 8)],
                     [(0, 4), (4, 8)])


def k4():
    blocks = [BasicBlock(address=4 * i) for i in range(4)]
    edges = [(4 * u, 4 * v) for u in range(4) for v in range(4) if u != v]
    return build_cfg("k4", blocks, edges)


def star4():
    blocks = [BasicBlock(address=4 * i) for i in range(5)]
    return build_cfg("star", blocks, [(0, 4 * i) for i in range(1, 5)])


def singleton():
    return build_cfg("one", [BasicBlock(address=0)], [])


def alone(adj):
    """sweep_many of one graph by itself."""
    [swept] = sweep_many([adj])
    return swept


def swept(g):
    return alone(g.undirected_adjacency())


def assert_oracles(g, swept):
    """swept's betweenness, closeness and path statistics are == those of
    the oracles on g."""
    n = g.node_count
    assert dict(enumerate(swept.betweenness())) == reference_brandes(g)
    assert dict(enumerate(swept.closeness)) == brute_closeness(g)
    dist = all_pairs_distances(g)
    values = [float(dist[(u, v)]) for u in range(n) for v in range(u + 1, n)]
    assert swept.path_stats() == (summary_stats(values) if values else PathStats(0, 0, 0, 0, 0))


def degrees(g):
    return degree_scores(components([g.undirected_adjacency()], [self_loop_nodes(g)])).tolist()


class TestCloseness:
    def test_path3(self):
        c = swept(path3()).closeness
        assert c[1] == 1.0
        assert c[0] == pytest.approx(2 / 3)
        assert c[2] == pytest.approx(2 / 3)

    def test_k4_all_ones(self):
        assert all(v == 1.0 for v in swept(k4()).closeness)

    def test_singleton_zero(self):
        assert swept(singleton()).closeness == [0.0]

    def test_disconnected_rejected(self):
        g = build_cfg("d", [BasicBlock(address=a) for a in (0, 4)], [])
        with pytest.raises(DisconnectedGraphError):
            swept(g)

    def test_matches_bfs_oracle(self):
        rng = random.Random(101)
        for _ in range(60):
            g = random_connected_cfg(rng, rng.randint(1, 10), rng.randint(0, 6))
            got = swept(g).closeness
            expected = brute_closeness(g)
            for u, score in enumerate(got):
                assert score == pytest.approx(expected[u], abs=1e-12)

    def test_adding_edge_never_decreases(self):
        rng = random.Random(55)
        for _ in range(25):
            n = rng.randint(3, 9)
            g = random_connected_cfg(rng, n, rng.randint(0, 4))
            before = swept(g).closeness
            u, v = rng.randrange(n), rng.randrange(n)
            g2 = build_cfg("aug", list(g.blocks),
                           [(g.blocks[a].address, g.blocks[b].address)
                            for a, b in g.edges] + [(4 * u, 4 * v)])
            after = swept(g2).closeness
            for a, b in zip(after, before, strict=True):
                assert a >= b - 1e-12


class TestBetweenness:
    def test_path3_center(self):
        b = swept(path3()).betweenness()
        assert b[1] == 1.0
        assert b[0] == 0.0 and b[2] == 0.0

    def test_star_center(self):
        b = swept(star4()).betweenness()
        assert b[0] == 1.0
        assert all(b[i] == 0.0 for i in range(1, 5))

    def test_small_graphs_all_zero(self):
        assert swept(singleton()).betweenness() == [0.0]
        g2 = build_cfg("two", [BasicBlock(address=0), BasicBlock(address=4)], [(0, 4)])
        assert swept(g2).betweenness() == [0.0, 0.0]

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(77)
        for _ in range(40):
            g = random_connected_cfg(rng, rng.randint(3, 9), rng.randint(0, 5))
            got = swept(g).betweenness()
            expected = brute_betweenness(g)
            for u, score in enumerate(got):
                assert score == pytest.approx(expected[u], abs=1e-12)

    def test_values_in_unit_interval(self):
        rng = random.Random(6)
        for _ in range(30):
            g = random_connected_cfg(rng, rng.randint(1, 10), rng.randint(0, 8))
            for v in swept(g).betweenness():
                assert 0.0 <= v <= 1.0 + 1e-12


class TestDegreeCentrality:
    def test_path3(self):
        assert degrees(path3()) == [0.5, 1.0, 0.5]

    def test_k4(self):
        assert all(v == 1.0 for v in degrees(k4()))

    def test_self_loop_adds_one(self):
        g = build_cfg("l", [BasicBlock(address=0), BasicBlock(address=4)],
                      [(0, 4), (0, 0)])
        assert degrees(g)[0] == 2.0

    def test_singleton_zero_even_with_a_loop(self):
        lone = build_cfg("l", [BasicBlock(address=0)], [(0, 0)])
        assert degrees(lone) == [0.0]
        graphs = [path3(), lone, singleton()]
        assert degree_scores(components([g.undirected_adjacency() for g in graphs],
                                        [self_loop_nodes(g) for g in graphs])
                             ).tolist() == [0.5, 1.0, 0.5, 0.0, 0.0]

    def test_matches_direct_count(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_cfg(rng, rng.randint(2, 10), rng.randint(0, 15))
            got = degrees(g)
            n = g.node_count
            for u in range(n):
                nbrs = {v for a, v in g.edges if a == u and v != u}
                nbrs |= {a for a, v in g.edges if v == u and a != u}
                loop = 1 if (u, u) in g.edges else 0
                assert got[u] == pytest.approx((len(nbrs) + loop) / (n - 1))


class TestPathStats:
    def test_path3(self):
        s = swept(path3()).path_stats()
        assert s.min == 1 and s.max == 2
        assert s.mean == pytest.approx(4 / 3)
        assert s.median == 1
        assert s.std == pytest.approx(math.sqrt(2 / 9), abs=1e-4)

    def test_k4(self):
        assert swept(k4()).path_stats() == PathStats(1, 1, 1, 1, 0)

    def test_singleton_zeros(self):
        assert swept(singleton()).path_stats() == PathStats(0, 0, 0, 0, 0)

    def test_matches_bfs_oracle(self):
        rng = random.Random(41)
        for _ in range(30):
            g = random_connected_cfg(rng, rng.randint(2, 11), rng.randint(0, 6))
            dist = all_pairs_distances(g)
            values = [float(dist[(u, v)]) for u in range(g.node_count)
                      for v in range(u + 1, g.node_count)]
            expected = summary_stats(values)
            got = swept(g).path_stats()
            for fieldname in ("min", "max", "mean", "median", "std"):
                assert getattr(got, fieldname) == pytest.approx(
                    getattr(expected, fieldname), abs=1e-12)


class TestSweep:
    """The fused kernel against exact references, compared with ==."""

    def test_diamond_chain_beyond_int64(self):
        # 72 diamonds: 2**72 shortest paths from the first block to the last
        g = diamond_chain(72)
        assert_oracles(g, swept(g))

    def test_random_graphs_match_reference_brandes(self):
        rng = random.Random(2001)
        for _ in range(200):
            n = rng.randint(1, 40)
            g = random_connected_cfg(rng, n, rng.randint(0, n))
            adj = g.undirected_adjacency()
            swept = alone(adj)
            assert_oracles(g, swept)
            assert closeness_many([adj]) == [swept.closeness]

    def test_disconnected_rejected(self):
        adj = [[1], [0], []]
        with pytest.raises(DisconnectedGraphError):
            alone(adj)
        with pytest.raises(DisconnectedGraphError):
            closeness_many([adj])

    def test_networkx_at_300_nodes(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(300)
        g = random_connected_cfg(rng, 300, 120)
        h = nx.Graph()
        h.add_nodes_from(range(g.node_count))
        h.add_edges_from((u, v) for u, v in g.edges if u != v)
        want_b = nx.betweenness_centrality(h, normalized=True, endpoints=False)
        want_c = nx.closeness_centrality(h)
        got_b = swept(g).betweenness()
        got_c = swept(g).closeness
        [got_many] = closeness_many([g.undirected_adjacency()])
        for u in range(g.node_count):
            assert abs(got_b[u] - want_b[u]) <= 1e-12
            assert abs(got_c[u] - want_c[u]) <= 1e-12
            assert abs(got_many[u] - want_c[u]) <= 1e-12


def path_adj(n):
    return [[v for v in (u - 1, u + 1) if 0 <= v < n] for u in range(n)]


def spy_passes(monkeypatch):
    """The graph sizes of every pass that closeness_many searches, one
    list a pass, in the order of the passes."""
    passes = []
    kernel = metrics._distance_sums

    def spy(c, nodes, sizes, words):
        passes.append(sizes.tolist())
        return kernel(c, nodes, sizes, words)

    monkeypatch.setattr(metrics, "_distance_sums", spy)
    return passes


class TestClosenessMany:
    """The bit-parallel kernel against the Brandes kernel and brute force,
    compared with ==."""

    def test_batch_of_random_graphs_in_input_order(self):
        # 1..200 nodes: word widths 1 to 4 share one call, interleaved
        rng = random.Random(2002)
        graphs = []
        for _ in range(200):
            n = rng.randint(1, 200)
            graphs.append(random_connected_cfg(rng, n, rng.randint(0, n)))
        adjs = [g.undirected_adjacency() for g in graphs]
        got = closeness_many(adjs)
        assert len(got) == len(graphs)
        for g, adj, scores in zip(graphs, adjs, got):
            assert scores == alone(adj).closeness
            assert dict(enumerate(scores)) == brute_closeness(g)

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 127, 128, 129])
    def test_word_boundaries(self, n):
        rng = random.Random(n)
        g = random_connected_cfg(rng, n, n // 2)
        adjs = [path_adj(n), g.undirected_adjacency()]
        got = closeness_many(adjs)
        assert got == [alone(adj).closeness for adj in adjs]
        assert got[1] == list(brute_closeness(g).values())

    def test_diamond_chain(self):
        g = diamond_chain(72)
        assert closeness_many([g.undirected_adjacency()]) == [
            list(brute_closeness(g).values())]

    def test_singleton_in_a_batch(self):
        assert closeness_many([path_adj(3), [[]], path_adj(2)]) == [
            [2 / 3, 1.0, 2 / 3], [0.0], [1.0, 1.0]]
        assert closeness_many([path_adj(1), path_adj(3)]) == [[0.0], [2 / 3, 1.0, 2 / 3]]

    def test_batches_of_a_word_group_agree(self, monkeypatch):
        rng = random.Random(2003)
        graphs = [random_connected_cfg(rng, n, n) for n in rng.choices(range(2, 150), k=40)]
        adjs = [g.undirected_adjacency() for g in graphs]
        whole = closeness_many(adjs)
        # some small graphs share a pass, and every graph of 65 nodes or
        # more is alone: its rows alone, 65 x (80 + 40 x 2) bytes, are more
        # than 430 slots of 24 bytes
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", 430)
        passes = spy_passes(monkeypatch)
        assert closeness_many(adjs) == whole
        assert whole == [alone(adj).closeness for adj in adjs]
        assert sorted(n for sizes in passes for n in sizes) == sorted(map(len, adjs))
        assert all(len(sizes) == 1 for sizes in passes if max(sizes) >= 65)
        assert max(map(len, passes)) > 1, passes

    def test_passes_hold_the_sweep_budget(self, monkeypatch):
        # 2000 graphs of 2 to 40 nodes, about 42 000 rows, took one pass of
        # about 7 MB when closeness_many had a budget of its own. At 2**12
        # slots each pass holds at most 24 x 2**12 bytes (96 KiB), and the
        # call adds its output, 8 bytes a node, and arrays of 8 bytes a
        # graph, fewer than 16 at once
        rng = random.Random(2026)
        graphs = [random_connected_cfg(rng, n, n // 2) for n in rng.choices(range(2, 41), k=2000)]
        union = components([g.undirected_adjacency() for g in graphs])
        whole = metrics.closeness_many(union)
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", 1 << 12)
        budget = 24 * metrics.SWEEP_SLOTS
        # the call's peak so far as each pass starts, and what each pass
        # holds above the memory at its start
        peaks, held = [], []
        kernel = metrics._distance_sums

        def spy(c, nodes, sizes, words):
            current, peak = tracemalloc.get_traced_memory()
            peaks.append(peak)
            tracemalloc.reset_peak()
            totals = kernel(c, nodes, sizes, words)
            held.append(tracemalloc.get_traced_memory()[1] - current)
            return totals

        monkeypatch.setattr(metrics, "_distance_sums", spy)
        tracemalloc.start()
        try:
            got = metrics.closeness_many(union)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, whole)
        assert len(held) > 50 and max(held) <= budget
        assert max(peaks) < 8 * len(got) + 16 * 8 * len(graphs) + budget

    @pytest.mark.parametrize("adj", [
        [[], [2], [1]],  # isolated node first
        [[1], [0], []],  # isolated node last
        [[1], [0], [3], [2]],  # two edged components
    ], ids=["isolated-first", "isolated-last", "two-components"])
    def test_disconnected_rejected(self, adj):
        with pytest.raises(DisconnectedGraphError):
            closeness_many([adj])

    def test_one_bad_graph_in_a_batch(self):
        good = [path_adj(n) for n in (2, 5, 70)]
        bad = path_adj(3) + [[4], [3]]
        with pytest.raises(DisconnectedGraphError):
            closeness_many(good[:2] + [bad] + good[2:])


def slots(adj):
    """What one graph takes of SWEEP_SLOTS in a group: n x (n + 2m)."""
    return len(adj) * (len(adj) + sum(map(len, adj)))


def complete(n):
    blocks = [BasicBlock(address=4 * i) for i in range(n)]
    return build_cfg("k", blocks, [(4 * u, 4 * v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a, b):
    blocks = [BasicBlock(address=4 * i) for i in range(a + b)]
    return build_cfg("kab", blocks, [(4 * u, 4 * v) for u in range(a) for v in range(a, a + b)])


@pytest.fixture
def blocks(monkeypatch):
    """Records the sources a <= s < b of the union that every float64 pass
    sweeps."""
    seen = []
    kernel = metrics._brandes_pass

    def spy(csr, first, width, a, top, raw, close, hops, dtype):
        if dtype is float:
            seen.append((a, a + len(first)))
        return kernel(csr, first, width, a, top, raw, close, hops, dtype)

    monkeypatch.setattr(metrics, "_brandes_pass", spy)
    return seen


def path(n):
    blocks = [BasicBlock(address=4 * i) for i in range(n)]
    return build_cfg("path", blocks, [(4 * i, 4 * i + 4) for i in range(n - 1)])


class TestSweepMany:
    """The batched kernel against the oracles and against itself on one
    graph alone, compared with ==."""

    def test_one_call_on_random_graphs_in_input_order(self):
        rng = random.Random(2004)
        graphs = []
        for _ in range(200):
            n = rng.randint(1, 40)
            graphs.append(random_connected_cfg(rng, n, rng.randint(0, n)))
        adjs = [g.undirected_adjacency() for g in graphs]
        got = sweep_many(adjs)
        assert type(got) is list and len(got) == len(graphs)
        for g, adj, swept in zip(graphs, adjs, got):
            assert swept == alone(adj)
            assert_oracles(g, swept)

    def test_graph_split_across_source_blocks(self, monkeypatch, blocks):
        rng = random.Random(2005)
        g = random_connected_cfg(rng, 30, 12)
        adj = g.undirected_adjacency()
        whole = alone(adj)
        blocks.clear()
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", 30 * 30 // 4)
        assert sweep_many([adj]) == [whole]
        assert_oracles(g, whole)
        # the most sources whose bytes fit the budget of 24 a slot, in
        # ascending order: a source holds 16 bytes a (source, node) pair and
        # 8 a kept edge, at most one per edge
        step = metrics.SWEEP_SLOTS * 24 // (16 * 30 + 8 * (sum(map(len, adj)) // 2))
        assert blocks == [(s, min(s + step, 30)) for s in range(0, 30, step)]
        assert len(blocks) >= 4

    def test_block_holds_several_graphs(self, monkeypatch, blocks):
        rng = random.Random(2006)
        graphs = [random_connected_cfg(rng, n, n // 3) for n in (5, 9, 7, 12, 6, 8)]
        adjs = [g.undirected_adjacency() for g in graphs]
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", sum(map(slots, adjs[:3])))
        got = sweep_many(adjs)
        for g, swept in zip(graphs, got, strict=True):
            assert_oracles(g, swept)
        # the first block is every source of the first three graphs, and
        # every source is swept once
        assert blocks[0] == (0, sum(map(len, adjs[:3])))
        assert sum(b - a for a, b in blocks) == sum(map(len, adjs))

    def test_graph_of_exactly_the_budget_is_one_block(self, monkeypatch, blocks):
        g = diamond_chain(3)
        adj = g.undirected_adjacency()
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", slots(adj))
        got = sweep_many([adj, adj])
        assert got[0] == got[1]
        assert_oracles(g, got[0])
        n = len(adj)
        assert blocks == [(0, n), (n, 2 * n)]
        # a graph swept alone counts only the bytes of its sources, 16 a
        # (source, node) pair and 8 a kept edge: 10 x (16 x 10 + 8 x 12) =
        # 2560, which 107 slots of 24 bytes hold and 106 do not
        assert (n, sum(map(len, adj)) // 2) == (10, 12)
        blocks.clear()
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", 107)
        assert sweep_many([adj]) == [got[0]]
        assert blocks == [(0, n)]
        blocks.clear()
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", 106)
        assert sweep_many([adj]) == [got[0]]
        assert blocks == [(0, n - 1), (n - 1, n)]

    @pytest.mark.parametrize("budget", [1 << 18, 5000])
    def test_exact_fallback_beside_ordinary_graphs(self, monkeypatch, blocks, budget):
        # 5**30 and 2**72 paths end to end are counted again as Python ints;
        # float64 counts the powers of two exactly, but not 5**30, and 24
        # scores would differ. At 2**18 slots the 5**30 chain shares a block
        # with both ordinary graphs and the 2**72 chain is swept alone; at
        # 5000 each chain is swept alone in blocks of sources, each counted
        # again in runs of a third as many pairs
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", budget)
        rng = random.Random(2007)
        chains = [diamond_chain(30, ways=5), diamond_chain(72)]
        graphs = [random_connected_cfg(rng, 20, 8), chains[0],
                  random_connected_cfg(rng, 9, 2), chains[1]]
        adjs = [g.undirected_adjacency() for g in graphs]
        got = sweep_many(adjs)
        for g, swept in zip(graphs, got, strict=True):
            assert_oracles(g, swept)
        if budget == 1 << 18:
            n = sum(map(len, adjs[:3]))
            assert blocks == [(0, n), (n, n + len(adjs[3]))]

    def test_exact_recount_in_runs_of_sources(self, monkeypatch):
        # one float pass of all 217 sources reaches 2**72 paths; the Python
        # ints take 49 bytes a pair against 16, and each source's 288 kept
        # edges 8 bytes each, so they count in three runs
        g = diamond_chain(72)
        adj = g.undirected_adjacency()
        n, m = len(adj), sum(map(len, adj)) // 2
        # the fewest slots of 24 bytes that hold the float pass
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", -(-n * (16 * n + 8 * m) // 24))
        passes = []
        kernel = metrics._brandes_pass

        def spy(csr, first, width, a, top, raw, close, hops, dtype):
            passes.append((dtype, (a, a + len(first))))
            return kernel(csr, first, width, a, top, raw, close, hops, dtype)

        monkeypatch.setattr(metrics, "_brandes_pass", spy)
        [got] = sweep_many([adj])
        assert_oracles(g, got)
        step = metrics.SWEEP_SLOTS * 24 // (49 * n + 8 * m)
        assert passes == [(float, (0, n))] + [
            (object, (s, min(s + step, n))) for s in range(0, n, step)]
        assert len(passes) == 4

    @given(st.lists(st.integers(0, 9), max_size=40), st.integers(0, 30))
    def test_runs(self, weights, limit):
        runs = metrics._runs(weights, limit)
        # consecutive, non-empty and covering every item
        cuts = [0] + [b for _, b in runs]
        assert [a for a, _ in runs] == cuts[:-1] and cuts[-1] == len(weights)
        for a, b in runs:
            assert a < b
            assert b - a == 1 or sum(weights[a:b]) <= limit
            # greedy: the next item would not fit
            if b < len(weights):
                assert sum(weights[a:b + 1]) > limit

    @pytest.mark.parametrize("g, budget", [(complete(60), 500), (complete_bipartite(30, 30), 700),
                                           (complete_bipartite(1, 40), 30)])
    def test_dense_levels_expanded_in_chunks(self, monkeypatch, g, budget):
        # level 2 of K60 lists 59 x 59 candidates per source and level 1 of
        # K30,30 30 x 30; the star's center alone has more neighbors than
        # the budget
        adj = g.undirected_adjacency()
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", budget)
        sizes = []
        expand = metrics._expand

        def spy(csr, pairs, bases):
            at, found = expand(csr, pairs, bases)
            sizes.append(len(at))
            return at, found

        monkeypatch.setattr(metrics, "_expand", spy)
        [got] = sweep_many([adj])
        assert_oracles(g, got)
        assert max(sizes) <= max(budget, max(map(len, adj)))

    @pytest.mark.parametrize("side, budget", [(30, 1000), (40, 1500)])
    def test_passes_hold_their_bytes(self, monkeypatch, side, budget):
        # a source of K_{a,a} keeps the a x (a - 1) edges from level 1 to
        # level 2, which a pass of several sources keeps in chunks; each
        # float pass holds 16 bytes a (source, node) pair and 8 a kept edge
        # within its budget of 24 bytes a slot, and the backward pass sorts
        # and adds one chunk at a time
        g = complete_bipartite(side, side)
        adj = g.undirected_adjacency()
        whole = alone(adj)
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", budget)
        held, chunks = [], []
        forward = metrics._forward

        def spy(csr, dist, sigma, pairs, bases, top):
            levels, edges = forward(csr, dist, sigma, pairs, bases, top)
            kept = [[len(at) for at, _ in level] for level in edges]
            if sigma.dtype == float and len(pairs) > 1:
                held.append(16 * len(dist) + 8 * sum(map(sum, kept)))
            chunks.extend(kept)
            return levels, edges

        monkeypatch.setattr(metrics, "_forward", spy)
        assert sweep_many([adj]) == [whole]
        assert_oracles(g, whole)
        assert held and max(held) <= budget * 24
        assert max(map(len, chunks)) > 1 and max(map(max, chunks)) <= budget

    def test_a_pass_holds_no_pair_sized_temporary(self, blocks):
        # the 400 sources of a 400-node path sweep in one pass, which holds
        # 16 bytes a pair and 8 a kept edge, (n - 1)(n - 2) of them; the
        # arrays of its 400 levels add under 4 bytes a pair, where an int64
        # copy of the whole pass's dist would add 8
        n = 400
        graph = components([path_adj(n)])
        tracemalloc.start()
        try:
            metrics.sweep_many(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocks == [(0, n)]
        assert peak < 16 * n * n + 8 * (n - 1) * (n - 2) + 4 * n * n

    def test_float_overflow_is_silent(self):
        # 2**1030 paths overflow float64 to inf without a RuntimeWarning
        # (an error in this suite); the Python-int recount gives the exact
        # dependencies of source 0
        g = diamond_chain(1030)
        indptr, indices = components([g.undirected_adjacency()])[:2]
        n = g.node_count
        raw, close, hops = np.zeros(n), np.zeros(n), np.zeros(n, np.int64)
        # source 0 alone, its graph's first node 0 and size n
        first, width = np.zeros(1, int), np.full(1, n)
        union = (indptr, np.diff(indptr), indices)
        top = int(union[1].max())
        assert not metrics._brandes_pass(union, first, width, 0, top, raw, close, hops, float)
        assert not raw.any() and not close.any() and not hops.any()
        assert metrics._brandes_pass(union, first, width, 0, top, raw, close, hops, object)
        assert raw.tolist() == source_dependencies(g, 0)

    @pytest.mark.parametrize("last", [False, True])
    def test_small_graph_beside_a_deeper_one_in_a_pass(self, blocks, last):
        # the 2-node graph has pairs at distance 1 only, while the pass runs
        # the 6 levels of the 7-node path; as the group's last graph, its
        # slots for the deeper levels would lie past the end of the group
        graphs = [path(7), path(2)] if last else [path(2), path(7)]
        got = sweep_many([g.undirected_adjacency() for g in graphs])
        assert blocks == [(0, 9)]
        for g, swept in zip(graphs, got, strict=True):
            assert swept == alone(g.undirected_adjacency())
            assert_oracles(g, swept)
        assert got[1 if last else 0] == Sweep([0.0, 0.0], [1.0, 1.0], [0, 1])

    def test_hops_end_at_the_diameter(self):
        # K4 has diameter 1 and the 5-node star 2, both below n - 1
        assert [s.hops for s in sweep_many([k4().undirected_adjacency(),
                                            star4().undirected_adjacency()])] == [[0, 6], [0, 4, 6]]

    def test_singleton(self):
        lone = Sweep([0.0], [0.0], [0])
        assert sweep_many([[[]]]) == [lone]
        assert sweep_many([path_adj(3), [[]], path_adj(2)]) == [
            Sweep([0.0, 2.0, 0.0], [2 / 3, 1.0, 2 / 3], [0, 2, 1]), lone,
            Sweep([0.0, 0.0], [1.0, 1.0], [0, 1])]

    @pytest.mark.parametrize("piece", [1, 7, 64])
    def test_any_piece_gives_the_same_sweep(self, monkeypatch, piece):
        # a pass walks its distances in pieces of whole rows: one row a
        # piece, a few rows of the small graphs or of one large graph, and
        # pieces that end inside a graph's rows and start inside the next's
        rng = random.Random(2025)
        graphs = mixed_corpus() + [random_cfg(rng, rng.randint(1, 30), rng.randint(0, 40))
                                   for _ in range(60)]
        union = largest_components(graphs)
        whole = metrics.sweep_many(union)
        monkeypatch.setattr(metrics, "PIECE_DISTANCES", piece)
        got = metrics.sweep_many(union)
        for want, array in zip(whole, got, strict=True):
            assert array.dtype == want.dtype and np.array_equal(array, want)
        # no pair is at distance 0, in a singleton or a larger graph
        first = np.cumsum(union.sizes) - union.sizes
        assert (union.sizes == 1).any() and (union.sizes > 1).any()
        assert not got[2][first].any()

    def test_one_bad_graph_in_a_batch(self):
        good = [path_adj(n) for n in (2, 5, 30)]
        bad = path_adj(3) + [[4], [3]]
        with pytest.raises(DisconnectedGraphError):
            sweep_many(good[:2] + [bad] + good[2:])


def bits(values) -> list[str]:
    """Each float's exact value, which tells -0.0 from 0.0."""
    return [float(v).hex() for v in values]


# ties, and 1e16 beside 1.0, where the order of the additions shows
STAT_VALUES = st.sampled_from([0.0, 1.0, 0.5, 1 / 3, 3.0, 1e16]) | st.floats(0, 1e17)


def hop_rows(rows):
    """The int64 hop histograms, hops[i, d - 1] pairs at distance d, of
    lists of pair distances."""
    top = max(map(max, rows))
    return np.array([np.bincount(r, minlength=top + 1)[1:] for r in rows])


class TestStatisticRows:
    """The array statistics against the oracles, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.lists(
        st.lists(STAT_VALUES, min_size=n, max_size=n), min_size=1, max_size=4)))
    @example([[1e16, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1e16]])
    @example([[0.0], [2.5]])
    @example([[1.0, 3.0], [1e16, 1e16 + 2]])
    @example([[1 / 3] * 3, [0.0, 1e16, 1.0]])
    def test_summary_rows(self, rows):
        got = metrics.summary_rows(np.array(rows))
        assert got.shape == (len(rows), 5)
        for row, stats in zip(rows, got.tolist()):
            assert bits(stats) == bits(astuple(summary_stats(row)))
        # features summarizes (graphs x 3 x n) at once
        assert metrics.summary_rows(np.array([rows] * 3)).tobytes() == np.array([got] * 3).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda k: st.lists(
        st.lists(st.integers(1, 12), min_size=k, max_size=k), min_size=1, max_size=5)),
           st.sampled_from([None, 1, 2, 5]))
    @example([[1]], None)
    @example([[1, 1, 2], [1, 2, 2]], 1)
    def test_path_rows(self, rows, piece):
        # in pieces of 1, 2 or 5 distances most rows are summed in several
        # pieces and most runs hold one row
        hops = hop_rows(rows)
        with pytest.MonkeyPatch.context() as mp:
            if piece:
                mp.setattr(metrics, "PIECE_DISTANCES", piece)
            got = metrics.path_rows(hops)
        for row, counts, stats in zip(rows, hops.tolist(), got.tolist()):
            want = summary_stats([float(d) for d in row])
            assert bits(stats) == bits(astuple(want))
            assert Sweep([], [], [0, *counts]).path_stats() == want

    def test_path_rows_hold_one_piece(self, monkeypatch):
        # 2 x 10**5 distances of one row, summed 3000 at a time: the row
        # alone would take 1.6 MB
        monkeypatch.setattr(metrics, "PIECE_DISTANCES", 3000)
        hops = np.array([[50_000, 100_000, 49_999, 1]])
        tracemalloc.start()
        try:
            got = metrics.path_rows(hops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 3000 * 8
        assert bits(got[0]) == bits(astuple(Sweep([], [], [0, *hops[0].tolist()]).path_stats()))

    def test_row_sums_add_in_order(self):
        # each 1.0 added to 1e16 alone rounds away; np.sum's pairwise sum
        # and Python 3.12's compensated sum() keep the ones
        rows = np.array([[1e16] + [1.0] * 16, [1.0] * 16 + [1e16]])
        assert metrics.row_sums(rows).tolist() == [1e16, 1e16 + 16]
        assert np.sum(rows, axis=1).tolist() != [1e16, 1e16 + 16]


class TestDensity:
    def test_three_nodes_two_edges(self):
        g = build_cfg("d", [BasicBlock(address=4 * i) for i in range(3)],
                      [(0, 4), (4, 8)])
        assert density(g) == pytest.approx(1 / 3)

    def test_complete_digraph(self):
        assert density(k4()) == 1.0

    def test_degenerate(self):
        assert density(singleton()) == 0.0

    def test_edgeless(self):
        g = build_cfg("e", [BasicBlock(address=4 * i) for i in range(5)], [])
        assert density(g) == 0.0

    def test_matches_recount(self):
        rng = random.Random(61)
        for _ in range(40):
            g = random_cfg(rng, rng.randint(2, 10), rng.randint(0, 25))
            assert density(g) == pytest.approx(
                len(g.edges) / (g.node_count * (g.node_count - 1)))


class TestIsomorphismInvariance:
    def test_relabeling_permutes_scores(self):
        rng = random.Random(83)
        for _ in range(20):
            n = rng.randint(2, 9)
            g = random_connected_cfg(rng, n, rng.randint(0, 5))
            perm = list(range(n))
            rng.shuffle(perm)
            # rebuild with permuted addresses; node i becomes rank of perm[i]
            blocks = [BasicBlock(address=4 * perm[i]) for i in range(n)]
            edges = [(4 * perm[u], 4 * perm[v]) for u, v in g.edges]
            h = build_cfg("perm", blocks, edges)
            for fn in (lambda cfg: swept(cfg).closeness, lambda cfg: swept(cfg).betweenness(),
                       degrees):
                a = fn(g)
                b = fn(h)
                for i in range(n):
                    assert b[perm[i]] == pytest.approx(a[i], abs=1e-12)
