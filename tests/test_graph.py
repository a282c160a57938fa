import random

import numpy as np
import pytest

from cfgrank import InputError
from cfgrank.graph import (BasicBlock, DanglingEdgeError,
                           build_cfg, largest_components)
from oracles import (component_lists, largest_component_cfg, random_cfg, self_loop_nodes,
                     union_find_components)


def blocks_at(*addrs):
    return [BasicBlock(address=a) for a in addrs]


class TestBuildCfg:
    def test_two_blocks_one_edge(self):
        g = build_cfg("s", blocks_at(0, 4), [(0, 4)])
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.edges == ((0, 1),)

    def test_minimal_graph(self):
        g = build_cfg("s", blocks_at(0), [])
        assert g.node_count == 1
        assert g.edge_count == 0

    def test_dangling_edge(self):
        with pytest.raises(DanglingEdgeError) as exc:
            build_cfg("s", blocks_at(0, 4), [(0, 8)])
        assert exc.value.address == 8

    def test_duplicate_block_address(self):
        with pytest.raises(InputError, match=r"^duplicate block address 8$"):
            build_cfg("s", blocks_at(8, 0, 8), [])

    def test_empty_block_list(self):
        with pytest.raises(InputError, match="at least one basic block"):
            build_cfg("s", [], [])

    def test_duplicate_edges_collapse(self):
        g = build_cfg("s", blocks_at(0, 4), [(0, 4), (0, 4), (4, 0)])
        assert g.edge_count == 2

    def test_self_loop_preserved(self):
        g = build_cfg("s", blocks_at(0), [(0, 0)])
        assert g.edges == ((0, 0),)

    def test_ids_follow_address_order(self):
        g = build_cfg("s", blocks_at(8, 0, 4), [(8, 0)])
        assert [b.address for b in g.blocks] == [0, 4, 8]
        assert g.edges == ((2, 0),)

    def test_dedup_never_grows(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 10)
            raw = [(4 * rng.randrange(n), 4 * rng.randrange(n))
                   for _ in range(rng.randint(0, 20))]
            g = build_cfg("s", blocks_at(*(4 * i for i in range(n))), raw)
            assert g.edge_count <= len(raw)
            assert all(0 <= u < n and 0 <= v < n for u, v in g.edges)


def random_pieces_cfg(rng):
    """Disjoint random pieces spread over shuffled node ids: many of equal
    size, isolated nodes, and nodes whose one edge is a self-loop."""
    sizes = [rng.choice((1, 1, 2, 3, 3, 4)) for _ in range(rng.randint(1, 6))]
    ids = list(range(sum(sizes)))
    rng.shuffle(ids)
    edges = []
    for size in sizes:
        piece, ids = ids[:size], ids[size:]
        edges += [(rng.choice(piece[:i]), piece[i]) for i in range(1, size)]
        edges += [(u, u) for u in piece if rng.random() < 0.3]
    return build_cfg("pieces", blocks_at(*(4 * i for i in range(sum(sizes)))),
                     [(4 * u, 4 * v) for u, v in edges])


class TestWeakComponents:
    """largest_components of one graph against hand values and the union-find oracle."""

    def test_edge_plus_isolated(self):
        g = build_cfg("s", blocks_at(0, 4, 8), [(0, 4)])
        assert component_lists(largest_components([g])) == ([[1], [0]], set(), 2)

    def test_singleton(self):
        g = build_cfg("s", blocks_at(0), [(0, 0)])
        assert component_lists(largest_components([g])) == ([[]], {0}, 1)

    def test_tie_goes_to_lowest_id(self):
        # a path 0-3-4 and a star 5-{1, 2}: equal size, the path holds node 0
        g = build_cfg("s", blocks_at(*range(0, 24, 4)),
                      [(0, 12), (12, 16), (4, 20), (8, 20), (8, 8)])
        assert component_lists(largest_components([g])) == ([[1], [0, 2], [1]], set(), 2)
        # without node 0's piece the star wins, its loop renumbered
        g = build_cfg("s", blocks_at(*range(4, 24, 4)),
                      [(12, 16), (4, 20), (8, 20), (8, 8)])
        assert component_lists(largest_components([g])) == ([[2], [2], [0, 1]], {1}, 2)

    def test_matches_union_find(self):
        rng = random.Random(11)
        graphs = [random_pieces_cfg(rng) for _ in range(200)]
        graphs += [random_cfg(rng, rng.randint(1, 10), rng.randint(0, 12)) for _ in range(50)]
        ties = 0
        for g in graphs:
            adj, loops, count = component_lists(largest_components([g]))
            comps = union_find_components(
                g.node_count, [(u, v) for u, v in g.edges if u != v])
            sizes = sorted(map(len, comps))
            ties += sizes[-2:] == [len(adj)] * 2
            assert sum(sizes) == g.node_count
            assert count == len(comps)
            assert len(adj) == sizes[-1]
            expected = largest_component_cfg(g)
            assert adj == expected.undirected_adjacency()
            assert loops == self_loop_nodes(expected)
        assert ties >= 50

    def test_partition_property(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_cfg(rng, rng.randint(1, 12), rng.randint(0, 15))
            adj, loops, count = component_lists(largest_components([g]))
            n = len(adj)
            # count components of at most n nodes cover the graph
            assert 1 <= count <= g.node_count <= count * n
            assert all(v != u and u in adj[v] for u in range(n) for v in adj[u])
            assert all(nbrs == sorted(set(nbrs)) for nbrs in adj)
            assert loops <= set(range(n))


def oracle_component(g):
    """(neighbor lists, self-loop set, count) of g's largest component from
    union-find."""
    largest = largest_component_cfg(g)
    comps = union_find_components(g.node_count, [(u, v) for u, v in g.edges if u != v])
    return largest.undirected_adjacency(), self_loop_nodes(largest), len(comps)


def random_corpus(rng):
    """Up to twelve graphs: random pieces with equal-size ties, isolated and
    self-loop-only nodes, random digraphs, 1-node graphs with and without a
    loop, and now and then a 1000-node graph among them."""
    corpus = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.random()
        if kind < 0.5:
            corpus.append(random_pieces_cfg(rng))
        elif kind < 0.8:
            corpus.append(random_cfg(rng, rng.randint(1, 12), rng.randint(0, 14)))
        else:
            corpus.append(build_cfg("one", blocks_at(0), [(0, 0)] if rng.random() < 0.5 else []))
    if rng.random() < 0.1:
        n = 1000
        big = random_cfg(rng, n, rng.choice((n // 2, n, 2 * n)), sample_id="big")
        corpus.insert(rng.randrange(len(corpus) + 1), big)
    return corpus


class TestLargestComponents:
    """One call over a corpus against one call per graph and the oracle."""

    def test_corpus_call_matches_per_graph_calls_and_union_find(self):
        rng = random.Random(12)
        ties = singletons = big = 0
        for _ in range(250):
            corpus = random_corpus(rng)
            together = largest_components(corpus)
            assert [a.dtype for a in together] == [np.intp, np.int32, np.int32, np.intp, np.intp]
            indptr, indices, loops, sizes, counts = together
            assert len(sizes) == len(counts) == len(corpus)
            # the invariants the metric kernels rely on: one CSR over
            # sizes.sum() nodes, every neighbor and loop within its graph
            assert indptr[0] == 0 and indptr[-1] == len(indices)
            assert sizes.sum() == len(indptr) - 1
            graph_of = np.repeat(np.arange(len(corpus)), sizes)
            assert (graph_of[indices] == np.repeat(graph_of, np.diff(indptr))).all()
            assert loops.tolist() == sorted(set(loops.tolist()))
            assert ((0 <= loops) & (loops < len(graph_of))).all()
            for j, g in enumerate(corpus):
                assert component_lists(together, j) == component_lists(largest_components([g])) \
                    == oracle_component(g)
                pieces = sorted(map(len, union_find_components(
                    g.node_count, [(u, v) for u, v in g.edges if u != v])))
                ties += len(pieces) > 1 and pieces[-1] == pieces[-2]
                singletons += g.node_count == 1
                big += g.node_count == 1000
        assert ties >= 100 and singletons >= 50 and big >= 10

    def test_empty_corpus(self):
        indptr, indices, loops, sizes, counts = largest_components([])
        assert indptr.tolist() == [0]
        assert not (len(indices) or len(loops) or len(sizes) or len(counts))
