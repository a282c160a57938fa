import math
import random

import pytest

from cfgrank import metrics
from cfgrank.graph import BasicBlock, build_cfg
from cfgrank.metrics import (DisconnectedGraphError, PathStats, Sweep, degree_scores,
                             density, summary_stats, sweep)
from oracles import (all_pairs_distances, brute_betweenness, brute_closeness, csr,
                     diamond_chain, random_cfg, random_connected_cfg,
                     reference_brandes)


# the batched kernels take CSR; these tests write their graphs as neighbor
# lists, converted one at a time as the kernel reads them
def closeness_many(adjs):
    return metrics.closeness_many(map(csr, adjs))


def sweep_many(adjs):
    return metrics.sweep_many(map(csr, adjs))


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


def swept(g):
    return sweep(g.undirected_adjacency())


def degrees(g):
    return degree_scores(csr(g.undirected_adjacency())[0], sorted(g.self_loop_nodes()))


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
        chain = swept(g)
        assert dict(enumerate(chain.betweenness())) == reference_brandes(g)
        assert dict(enumerate(chain.closeness)) == brute_closeness(g)

    def test_random_graphs_match_reference_brandes(self):
        rng = random.Random(2001)
        for _ in range(200):
            n = rng.randint(1, 40)
            g = random_connected_cfg(rng, n, rng.randint(0, n))
            adj = g.undirected_adjacency()
            swept = sweep(adj)
            assert dict(enumerate(swept.betweenness())) == reference_brandes(g)
            assert dict(enumerate(swept.closeness)) == brute_closeness(g)
            assert closeness_many([adj]) == [swept.closeness]
            dist = all_pairs_distances(g)
            values = [float(dist[(u, v)]) for u in range(n) for v in range(u + 1, n)]
            expected = summary_stats(values) if values else PathStats(0, 0, 0, 0, 0)
            assert swept.path_stats() == expected

    def test_disconnected_rejected(self):
        adj = [[1], [0], []]
        with pytest.raises(DisconnectedGraphError):
            sweep(adj)
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


class TestClosenessMany:
    """The bit-parallel kernel against the per-source sweep and brute force,
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
            assert scores == sweep(adj).closeness
            assert dict(enumerate(scores)) == brute_closeness(g)

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 127, 128, 129])
    def test_word_boundaries(self, n):
        rng = random.Random(n)
        g = random_connected_cfg(rng, n, n // 2)
        adjs = [path_adj(n), g.undirected_adjacency()]
        got = closeness_many(adjs)
        assert got == [sweep(adj).closeness for adj in adjs]
        assert got[1] == list(brute_closeness(g).values())

    def test_diamond_chain(self):
        g = diamond_chain(72)
        assert closeness_many([g.undirected_adjacency()]) == [
            list(brute_closeness(g).values())]

    def test_singleton_in_a_batch(self):
        assert closeness_many([path_adj(3), [[]], path_adj(2)]) == [
            [2 / 3, 1.0, 2 / 3], [0.0], [1.0, 1.0]]

    def test_batches_of_a_word_group_agree(self, monkeypatch):
        rng = random.Random(2003)
        graphs = [random_connected_cfg(rng, n, n) for n in rng.choices(range(2, 150), k=40)]
        adjs = [g.undirected_adjacency() for g in graphs]
        whole = closeness_many(adjs)
        # a few small graphs per pass, every graph of 65 nodes or more alone
        monkeypatch.setattr(metrics, "BATCH_WORDS", 100)
        assert closeness_many(adjs) == whole
        assert whole == [sweep(adj).closeness for adj in adjs]

    def test_accepts_a_generator(self):
        assert closeness_many(path_adj(n) for n in (1, 3)) == [[0.0], [2 / 3, 1.0, 2 / 3]]

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
    """What one graph takes of SWEEP_SLOTS: n x (n + 2m)."""
    return len(adj) * (len(adj) + sum(map(len, adj)))


@pytest.fixture
def blocks(monkeypatch):
    """Records the segments (first, n, s0, s1) of every block swept."""
    seen = []
    kernel = metrics._brandes_block

    def spy(csr, segs, raw, close):
        seen.append(list(segs))
        return kernel(csr, segs, raw, close)

    monkeypatch.setattr(metrics, "_brandes_block", spy)
    return seen


class TestSweepMany:
    """The batched kernel against the per-graph sweep and exact references,
    compared with ==."""

    def test_one_call_on_random_graphs_in_input_order(self):
        rng = random.Random(2004)
        graphs = []
        for _ in range(200):
            n = rng.randint(1, 40)
            graphs.append(random_connected_cfg(rng, n, rng.randint(0, n)))
        adjs = [g.undirected_adjacency() for g in graphs]
        got = list(sweep_many(adjs))
        assert len(got) == len(graphs)
        for g, adj, swept in zip(graphs, adjs, got):
            assert swept == sweep(adj)
            assert dict(enumerate(swept.betweenness())) == reference_brandes(g)
            assert dict(enumerate(swept.closeness)) == brute_closeness(g)

    def test_graph_split_across_source_blocks(self, monkeypatch, blocks):
        rng = random.Random(2005)
        adj = random_connected_cfg(rng, 30, 12).undirected_adjacency()
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", slots(adj) // 4)
        assert list(sweep_many([adj])) == [sweep(adj)]
        # the most sources whose rows fit the budget, in ascending order
        step = metrics.SWEEP_SLOTS // (slots(adj) // 30)
        assert blocks == [[(0, 30, s, min(s + step, 30))] for s in range(0, 30, step)]
        assert len(blocks) >= 4

    def test_block_holds_several_graphs(self, monkeypatch, blocks):
        rng = random.Random(2006)
        graphs = [random_connected_cfg(rng, n, n // 3) for n in (5, 9, 7, 12, 6, 8)]
        adjs = [g.undirected_adjacency() for g in graphs]
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", sum(map(slots, adjs[:3])))
        assert list(sweep_many(adjs)) == [sweep(adj) for adj in adjs]
        assert [len(segs) for segs in blocks][0] == 3
        assert sum(len(segs) for segs in blocks) == len(adjs)

    def test_graph_of_exactly_the_budget_is_one_block(self, monkeypatch, blocks):
        adj = diamond_chain(3).undirected_adjacency()
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", slots(adj))
        assert list(sweep_many([adj, adj])) == [sweep(adj)] * 2
        n = len(adj)
        assert blocks == [[(0, n, 0, n)], [(0, n, 0, n)]]

    @pytest.mark.parametrize("budget", [1 << 18, 5000])
    def test_exact_fallback_beside_ordinary_graphs(self, monkeypatch, budget):
        # 2**72 and 5**30 paths end to end go to sweep(); float64 would count
        # the powers of two exactly, but not 5**30, and 24 scores would differ
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", budget)
        rng = random.Random(2007)
        chains = [diamond_chain(72), diamond_chain(30, ways=5)]
        graphs = [random_connected_cfg(rng, 20, 8), chains[0],
                  random_connected_cfg(rng, 9, 2), chains[1]]
        adjs = [g.undirected_adjacency() for g in graphs]
        got = list(sweep_many(adjs))
        assert got == [sweep(adj) for adj in adjs]
        for chain, swept in zip(chains, got[1::2]):
            assert dict(enumerate(swept.betweenness())) == reference_brandes(chain)

    def test_singleton(self):
        lone = Sweep([0.0], [0.0], [0])
        assert list(sweep_many([[[]]])) == [lone] == [sweep([[]])]
        assert list(sweep_many([path_adj(3), [[]], path_adj(2)])) == [
            sweep(path_adj(3)), lone, sweep(path_adj(2))]

    def test_reads_a_generator_at_most_one_group_ahead(self, monkeypatch):
        # groups of three graphs: the fourth is read to learn that the
        # first group is full, and nothing past it
        adjs = [path_adj(n) for n in (5, 6, 7, 5, 6, 7, 5)]
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", sum(map(slots, adjs[:3])))
        pulled = []

        def source():
            for adj in adjs:
                pulled.append(adj)
                yield adj

        for i, swept in enumerate(sweep_many(source())):
            assert swept == sweep(adjs[i])
            assert len(pulled) <= min(len(adjs), 3 * (i // 3 + 1) + 1)

    def test_one_bad_graph_in_a_batch(self):
        good = [path_adj(n) for n in (2, 5, 30)]
        bad = path_adj(3) + [[4], [3]]
        with pytest.raises(DisconnectedGraphError):
            list(sweep_many(good[:2] + [bad] + good[2:]))


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
