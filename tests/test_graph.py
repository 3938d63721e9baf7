import random

import pytest

from hitminor import (
    FormatError,
    Graph,
    edge_bound_holds,
    parse_gr,
    write_gr,
)

from corpus import c4_counts, complete_graph, cycle_graph, path_graph, random_graph


class TestGraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError, match="loop"):
            Graph(2, [(1, 1)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_adjacency_symmetric(self):
        g = random_graph(12, 0.4, random.Random(0))
        for u in range(g.n):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_induced_relabels(self):
        g = path_graph(5)
        sub = g.induced([1, 2, 4])
        assert sub.n == 3
        assert sub.edges() == ((0, 1),)


class TestCounts:
    def test_edge_bound(self):
        assert edge_bound_holds(cycle_graph(3))
        assert not edge_bound_holds(complete_graph(4))
        for n in range(2, 9):
            assert edge_bound_holds(path_graph(n))
        with pytest.raises(ValueError):
            edge_bound_holds(Graph(0))

    def test_triangle_bound_when_diamond_free(self):
        rng = random.Random(5)
        for _ in range(150):
            g = random_graph(rng.randrange(1, 9), rng.random(), rng)
            counts = c4_counts(g)
            if not counts.diamond:
                assert 3 * counts.triangles <= g.m


class TestGrFormat:
    def test_single_edge(self):
        g = parse_gr("p tw 2 1\n1 2\n")
        assert g.n == 2 and g.edges() == ((0, 1),)

    def test_isolated_vertices(self):
        g = parse_gr("p tw 3 0\n")
        assert g.n == 3 and g.m == 0

    def test_comments_ignored(self):
        g = parse_gr("c hello\np tw 2 1\nc mid\n1 2\n")
        assert g.m == 1

    def test_loop_rejected(self):
        with pytest.raises(FormatError, match="loop"):
            parse_gr("p tw 2 1\n1 1\n")

    def test_duplicate_rejected(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_gr("p tw 2 2\n1 2\n2 1\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(FormatError, match="range"):
            parse_gr("p tw 2 1\n1 3\n")

    def test_count_mismatch_rejected(self):
        with pytest.raises(FormatError, match="declares"):
            parse_gr("p tw 3 2\n1 2\n")

    def test_missing_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_gr("1 2\n")

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_graph(rng.randrange(0, 12), rng.random(), rng)
            assert parse_gr(write_gr(g)) == g
